"""schroflat benchmark: time to a certified control, end to end and per layer.

    python3 perfbench/run.py --workload gentle --seed 0 --seconds 28 --trace 0

Runs the public command ``schroflat run`` on the workload's scenario
(generated from the seed, see workloads.py), one fresh interpreter per
repetition, until --seconds have passed.  Every repetition's artifacts are
checked (workloads.check_outputs).  With --trace 0 it reports the
end-to-end metrics as medians over the repetitions, the timings scaled to
one host speed (host_scaled); with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (tracer.py) plus the tracing overhead.  The last
line of standard output is one JSON object.

The program is imported from ``src/`` of the checkout this file sits in.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import DETERMINISTIC, LAYER_UNITS  # noqa: E402

# a run must end within 180 s; the last repetition starts before --seconds
# are up, so each child gets what is left of this deadline
DEADLINE_S = 170.0
# The program is single-threaded.  On a 2-vCPU machine a default BLAS pool
# only adds host-dependent jitter: starting its threads at numpy import costs
# about 70 ms when the second vCPU is busy and next to nothing when it is
# free, and its spinning threads bill CPU time.  So repetitions always run
# with one BLAS thread.
BLAS_ENV = {k: "1" for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CHILD_ENV = {**os.environ, **BLAS_ENV}
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("run_cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("residual", "1"))
# The host-speed probe's time (rep.py) during repetitions on a free vCPU of
# the host the benchmark was defined on, an Intel Xeon at 2.1 GHz; its
# pure-Python and its numpy work take about the same.  Timings are reported
# scaled by this over the probe's time during the interval they measure:
# seconds on that host with its cores free.  Unscaled medians are printed
# too.
PROBE_REF_S = 60e-6
TIMINGS = ("setup_s", "run_s", "run_cpu_s")


def host_scaled(result):
    """The repetition's timings, per-layer ones too, scaled to the
    reference host speed."""
    run = PROBE_REF_S / result["run_probe_s"]
    scaled = {**result, "unscaled": {k: result[k] for k in TIMINGS},
              "setup_s": result["setup_s"] * PROBE_REF_S / result["setup_probe_s"],
              "run_s": result["run_s"] * run, "run_cpu_s": result["run_cpu_s"] * run}
    if "layers" in result:
        scaled["layers"] = {k: v * run if LAYER_UNITS[k] in ("s", "ns") else v
                            for k, v in result["layers"].items()}
    return scaled


def environment(has_numba):
    import numpy
    import scipy

    return {"HAS_NUMBA": has_numba, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_ENV}


def repetition(scenario, out_dir, trace, deadline):
    """Run rep.py once; (result dict or None, error text)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    timeout = max(1.0, deadline - time.perf_counter())
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(scenario), str(out_dir),
             repr(spawn), "1" if trace else "0"],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"no result line: {proc.stdout[-200:]!r} {proc.stderr[-200:]!r}"
    if result["exit"] != 0:
        return None, f"schroflat run exited {result['exit']}"
    return host_scaled(result), ""


def spread(values):
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "schroflat" / "cli.py").is_file():
        print(f"perfbench: no schroflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / wl.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    scenario = work / f"{wl.name}.yaml"
    amp = workloads.write_scenario(wl.name, args.seed, scenario)

    # untimed warm-up: byte-compiles the package and pulls the libraries into
    # the page cache, which a user's repeated `schroflat run` also finds warm
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
         "import schroflat.cli, scipy.linalg"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=60)
    if warm.returncode != 0:
        print("perfbench: warm-up import failed", file=sys.stderr)
        return 2

    plain, traced, failures = [], [], []
    hashes, has_numba = set(), None
    attempted = 0
    # at least one untraced and, with --trace 1, two traced repetitions
    min_reps = 4 if args.trace else 1
    while attempted < min_reps or time.perf_counter() - start < args.seconds:
        if time.perf_counter() > deadline - 30.0:
            break
        trace = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        out_dir = work / "out"
        result, error = repetition(scenario, out_dir, trace, deadline)
        problems = [error] if error else []
        if result is not None:
            try:
                residual, problems, rep_hashes = workloads.check_outputs(wl, out_dir, amp)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                failures.append((attempted, [f"artifacts unreadable: {exc!r}"]))
                continue
            result["residual"] = residual
            result["hashes"] = rep_hashes
            hashes.add(tuple(sorted(rep_hashes.items())))
            has_numba = result.get("has_numba")
        if problems:
            failures.append((attempted, problems))
            continue
        (traced if trace else plain).append(result)

    if len(hashes) > 1:
        failures.append(("all", ["control.csv/field.csv differ between repetitions"]))
    counters = [tuple(r["layers"][k] for k in DETERMINISTIC) for r in traced]
    if len(set(counters)) > 1:
        failures.append(("all", [f"deterministic counters differ: {counters}"]))
    if not plain or (args.trace and not traced):
        for rep, problems in failures:
            print(f"perfbench: repetition {rep} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return 1

    failed = len(failures)
    print(f"perfbench: workload={wl.name} seed={args.seed} amplitude={amp!r} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"perfbench: environment {json.dumps(environment(has_numba))}")
    for rep, problems in failures:
        print(f"perfbench: FAILED repetition {rep}: {'; '.join(problems)}")
    print(f"perfbench: failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} repetitions)")
    for name, digest in plain[0]["hashes"].items():
        if args.seed == 0:
            record = getattr(wl, name.replace(".csv", "_sha256"))
            verdict = "matches" if digest == record else "differs from"
            print(f"perfbench: {name} sha256 {digest} {verdict} the seed-0 record")
        else:
            print(f"perfbench: {name} sha256 {digest} (seed-0 record not comparable)")

    metrics = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in plain]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:>16} {statistics.median(values):.6g} {unit}  ({spread(values)})")
    for name in TIMINGS:
        unscaled = statistics.median(r["unscaled"][name] for r in plain)
        print(f"{name:>16} {unscaled:.6g} s unscaled")

    if args.trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        run_traced = statistics.median(r["run_s"] for r in traced)
        run_plain = statistics.median(r["run_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": run_traced - run_plain, "unit": "s"}
        metrics["trace.spans"] = {"value": sum(traced[0]["span_counts"].values()),
                                  "unit": "count"}
        for name, m in metrics.items():
            print(f"{name:>36} {m['value']:.6g} {m['unit']}")
        print(f"perfbench: traced run_s {run_traced:.6g} s against untraced "
              f"{run_plain:.6g} s ({len(traced)} and {len(plain)} repetitions)")
        print(f"perfbench: span counts {json.dumps(traced[0]['span_counts'])}")
        if traced[0]["absent"]:
            print(f"perfbench: absent spans {', '.join(traced[0]['absent'])}")
        det = {k: traced[0]["layers"][k] for k in DETERMINISTIC}
        if args.seed == 0:
            verdict = "match" if det == wl.counters else "differ from"
            print(f"perfbench: counters {json.dumps(det)} {verdict} the seed-0 record")
        else:
            print(f"perfbench: counters {json.dumps(det)} (seed-0 record not comparable)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
