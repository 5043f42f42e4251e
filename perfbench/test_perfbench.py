"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# spans a gentle run must record; the beam spans stay empty there
GENTLE_SPANS = ("cli.synthesize_control", "cli.artifacts", "smoothing.boundary_trace",
                "smoothing.flat_coefficients", "smoothing.convolution_integral",
                "smoothing.datum", "smoothing.integrand", "kernel.odd_kernel",
                "kernel.kernel_derivative", "quadrature.integrate",
                "flatness.control_trace", "flatness.control_series",
                "gevrey.step_jet", "schrodinger_sim.simulate")


def traced_rep(name, tmp_path):
    scenario = tmp_path / f"{name}.yaml"
    workloads.write_scenario(name, 0, scenario)
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), str(scenario), str(tmp_path / "out"),
         "0", "1"], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def gentle_runs(tmp_path_factory):
    return [traced_rep("gentle", tmp_path_factory.mktemp(f"gentle{i}")) for i in range(2)]


def test_every_span_records_on_gentle(gentle_runs):
    result = gentle_runs[0]
    assert result["absent"] == []
    empty = [name for name in GENTLE_SPANS
             if result["span_counts"].get(name, 0) == 0]
    assert empty == []
    layers = result["layers"]
    assert set(layers) == set(tracer.LAYER_UNITS)
    assert layers["quadrature.integrals"] > 0 and layers["quadrature.panels"] > 0
    assert 0 < layers["quadrature.self_s"] < layers["smoothing.trace_s"]
    assert 0 < layers["flatness.self_s"] < layers["flatness.series_s"]


def test_deterministic_counters_repeat(gentle_runs):
    first, second = ({k: r["layers"][k] for k in tracer.DETERMINISTIC}
                     for r in gentle_runs)
    assert first == second


def test_missing_binding_is_absent_not_a_crash():
    t = tracer.Tracer()
    t._patch("cli", "no_such_function", lambda fn: fn)
    t._patch("no_such_module", "run", lambda fn: fn)
    assert t.absent == ["cli.no_such_function", "no_such_module.run"]


def test_self_time_excludes_children():
    spans = [["quadrature.integrate", 0, 100, -1, 0, False],
             ["smoothing.integrand", 10, 40, 0, 0, False],
             ["kernel.odd_kernel", 15, 35, 1, 0, False],
             ["smoothing.integrand", 50, 90, 0, 0, False]]
    assert tracer._self_time(spans, "quadrature") == pytest.approx(30e-9)
    assert tracer._self_time(spans, "smoothing") == pytest.approx(50e-9)


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_seed_zero_is_the_builtin_scenario(name, tmp_path):
    from schroflat import cli

    path = tmp_path / f"{name}.yaml"
    workloads.write_scenario(name, 0, path)
    got, want = cli.load_scenario(str(path)), cli.builtin_scenarios()[name]
    for field in ("equation", "tau", "T", "s", "K", "K_u", "control", "sim", "cutoff_s"):
        assert getattr(got, field) == getattr(want, field)
    for field in ("theta0", "eta0", "eta1"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            continue
        assert g.breakpoints == w.breakpoints
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g.pieces, w.pieces))


def test_seeds_change_the_datum_but_not_its_norm():
    a1, a2 = workloads.amplitude(1, real=False), workloads.amplitude(2, real=False)
    assert a1 != a2 and abs(abs(a1) - 1.0) < 1e-15
    assert workloads.amplitude(0, real=True) == 1.0
    assert workloads.scenario("gentle", 3) == workloads.scenario("gentle", 3)


def test_output_check_flags_nonfinite_values_and_gap(tmp_path):
    wl = workloads.WORKLOADS["gentle"]
    (tmp_path / "report.txt").write_text(
        f"relative_terminal={wl.residual!r}\ncontinuity_gap=1.0\ngap_budget=1e-11\n")
    (tmp_path / "control.csv").write_text("t,re_u,im_u,phase\n0.1,nan,0.0,smoothing\n")
    _, problems, hashes = workloads.check_outputs(wl, tmp_path, 1.0)
    assert any("non-finite" in p for p in problems)
    assert any("continuity_gap" in p for p in problems)
    assert set(hashes) == {"control.csv"}


def test_benchmark_json_names_what_run_py_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert ([m["name"] for m in spec["per_layer"]]
            == list(tracer.LAYER_UNITS) + ["trace.overhead_s", "trace.spans"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_timings_scale_by_the_probe_and_skip_preempted_samples():
    import rep
    import run

    probe = rep.Probe()
    probe.samples = [1.0, 2.0, 3.0, 50.0]
    assert probe.take() == 2.0 and probe.samples == []
    assert probe.take() > 0  # no sample since the last take: times the work once
    ref = run.PROBE_REF_S
    result = {"setup_s": 0.2, "run_s": 3.0, "run_cpu_s": 2.0,
              "setup_probe_s": 2 * ref, "run_probe_s": 1.5 * ref,
              "layers": {"kernel.busy_s": 0.3, "kernel.points": 5}}
    scaled = run.host_scaled(result)
    assert scaled["setup_s"] == 0.1 and scaled["run_s"] == 2.0
    assert scaled["layers"] == {"kernel.busy_s": pytest.approx(0.2), "kernel.points": 5}
    assert abs(scaled["run_cpu_s"] - 2.0 / 1.5) < 1e-15
    assert scaled["unscaled"] == {"setup_s": 0.2, "run_s": 3.0, "run_cpu_s": 2.0}
