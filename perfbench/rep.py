"""One repetition in a fresh interpreter: load the scenario, then run it.

    python3 perfbench/rep.py SCENARIO OUT_DIR SPAWN_TIME TRACE

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared between processes), so setup_s covers the
interpreter start, the imports and load_scenario.  The run itself goes
through the public command, cli.main(["run", ...]).  Prints one JSON object.

A host-speed probe runs alongside: every 10 ms of process CPU time a signal
handler times a fixed piece of work.  On a shared machine the speed of a
vCPU switches within fractions of a second, with the load its neighbours put
on the same core, by up to half; the probe samples that speed over the very
interval being timed, so run.py can scale the timings to one host speed.
"""
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_PERIOD_S = 0.01


def python_work():
    s = 0
    for i in range(1000):
        s += i * i % 7


def numpy_work():
    import numpy  # imported by then: a dictionary lookup

    a = numpy.arange(16.0)
    for _ in range(40):
        a = a * 0.5 + 1.0


class Probe:
    """Signal handler timing a fixed piece of work: pure Python while the
    modules load, small-array numpy once numpy is in, as in the run."""

    def __init__(self):
        self.work = python_work
        self.samples = []

    def __call__(self, signum, frame):
        t = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - t)

    def take(self):
        """Mean probe time since the last take, leaving out samples the
        scheduler preempted."""
        if not self.samples:
            self(None, None)
        cut = 3 * statistics.median(self.samples)
        mean = statistics.fmean(x for x in self.samples if x <= cut)
        self.samples = []
        return mean


def main(argv):
    probe = Probe()
    signal.signal(signal.SIGPROF, probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
    scenario, out_dir, spawn, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    from schroflat import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"schroflat imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cli.load_scenario(scenario)
    setup_s = time.perf_counter() - spawn
    setup_probe_s = probe.take()
    probe.work = numpy_work

    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer().install()
    stdout = io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["run", "--scenario", scenario, "--out-dir", str(out_dir)])
    run_s = time.perf_counter() - wall0
    run_cpu_s = time.process_time() - cpu0
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    run_probe_s = probe.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = {"exit": code, "setup_s": setup_s, "run_s": run_s,
              "run_cpu_s": run_cpu_s, "peak_rss_mb": peak_rss_mb,
              "setup_probe_s": setup_probe_s, "run_probe_s": run_probe_s}
    try:
        from schroflat._backend import HAS_NUMBA
        result["has_numba"] = HAS_NUMBA
    except ImportError:
        result["has_numba"] = None
    if tracer is not None:
        from tracer import layer_metrics, span_counts

        artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
        result["layers"] = layer_metrics(tracer.spans, artifact_bytes)
        result["span_counts"] = span_counts(tracer.spans)
        result["absent"] = tracer.absent
        with open(out_dir.parent / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
