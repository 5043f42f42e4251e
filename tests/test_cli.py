"""Command-line driver: scenario loading, pipelines, exit codes, artifacts."""
import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from schroflat.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    convergence_study,
    load_scenario,
    main,
    run_scenario,
    scenario_from_dict,
    selftest,
)
import schroflat
from schroflat import ControlTrace, SimConfig, cli
from schroflat.cli import (_BUILTINS, _control_columns, _fmt, _snapshot_columns,
                           pulse_datum, write_csv)
from schroflat.smoothing import PHASE_NAMES


def test_builtin_scenarios_wellformed():
    scs = builtin_scenarios()
    assert set(scs) == {"reference", "gentle", "zero", "eigenmode-check", "beam"}


def test_scenario_validation():
    cfg = SimConfig(Nx=32, Nt=64, T=0.5)
    with pytest.raises(ScenarioError, match="equation"):
        Scenario(name="x", equation="heat", tau=0.35, s=1.9, K=15,
                 K_u=15, control="synthesized", sim=cfg, theta0=pulse_datum())
    with pytest.raises(ScenarioError, match="tau"):
        Scenario(name="x", equation="schrodinger", tau=0.2, s=1.9,
                 K=15, K_u=15, control="synthesized", sim=cfg,
                 theta0=pulse_datum())
    with pytest.raises(ScenarioError, match="theta0"):
        Scenario(name="x", equation="schrodinger", tau=0.35, s=1.9,
                 K=15, K_u=15, control="synthesized", sim=cfg)


def test_scenario_from_dict_roundtrip():
    d = {
        "equation": "schrodinger",
        "tau": 1.4, "T": 2.0, "s": 1.6, "K": 8, "K_u": 8,
        "control": "synthesized",
        "sim": {"Nx": 32, "Nt": 64, "snapshot_count": 3},
        "theta0": {"breakpoints": [0.5], "pieces": [[1.0], [[0.0, 1.0]]]},
    }
    sc = scenario_from_dict(d, "custom")
    assert sc.name == "custom"
    assert sc.theta0(0.25) == 1.0
    assert sc.theta0(0.75) == 1j


def test_scenario_from_dict_accepts_integral_values():
    d = {"tau": 1.4, "T": 2.0, "s": 1.6, "K": "8", "K_u": 8.0,
         "sim": {"Nx": 32, "Nt": "64", "snapshot_count": 3.0},
         "theta0": "pulse"}
    sc = scenario_from_dict(d, "integral")
    assert (sc.K, sc.K_u, sc.sim.Nx, sc.sim.Nt, sc.sim.snapshot_count) == (8, 8, 32, 64, 3)
    assert all(type(v) is int for v in (sc.K, sc.K_u, sc.sim.Nt, sc.sim.snapshot_count))


def test_scenario_from_dict_rejects_bad_profiles():
    base = {"tau": 1.4, "T": 2.0, "s": 1.6,
            "sim": {"Nx": 32, "Nt": 64}}
    with pytest.raises(ScenarioError, match="unknown builtin"):
        scenario_from_dict({**base, "theta0": "nope"}, "x")
    with pytest.raises(ScenarioError, match="coefficient"):
        scenario_from_dict({**base, "theta0": {"pieces": [["a"]]}}, "x")
    with pytest.raises(ScenarioError):
        scenario_from_dict({**base, "theta0": 17}, "x")
    with pytest.raises(ScenarioError, match="mapping"):
        scenario_from_dict([1, 2], "x")


def test_scenario_from_dict_names_an_unknown_setting():
    base = {"tau": 1.4, "T": 2.0, "s": 1.6, "theta0": "pulse"}
    with pytest.raises(ScenarioError, match=r"^cutof_s: unknown setting$"):
        scenario_from_dict({**base, "cutof_s": 1.5}, "x")
    with pytest.raises(ScenarioError, match=r"^sim\.nt: unknown setting$"):
        scenario_from_dict({**base, "sim": {"nt": 64}}, "x")


def test_load_scenario_builtin_and_yaml(tmp_path):
    assert load_scenario("zero").name == "zero"
    cfg = tmp_path / "sc.yaml"
    cfg.write_text(
        "equation: schrodinger\n"
        "tau: 1.4\nT: 2.0\ns: 1.6\nK: 6\nK_u: 6\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n"
        "theta0: pulse\n")
    sc = load_scenario(str(cfg))
    assert sc.name == "sc"
    assert sc.K == 6
    with pytest.raises(ScenarioError, match="neither a builtin"):
        load_scenario("missing.yaml")


def test_load_scenario_builds_only_the_named_builtin(tmp_path, monkeypatch):
    # sine_profile is a polynomial fit; only the scenarios that use it pay
    fits = []
    monkeypatch.setitem(cli._DATUMS, "sine", lambda: fits.append(1) or pulse_datum())
    assert load_scenario("gentle").name == "gentle"
    cfg = tmp_path / "sc.yaml"
    cfg.write_text("tau: 1.4\nT: 2.0\ns: 1.6\ntheta0: pulse\n")
    assert load_scenario(str(cfg)).name == "sc"
    assert fits == []
    assert load_scenario("beam").eta0 is not None
    assert fits == [1]
    # every builtin name is listed in the error for an unknown one
    with pytest.raises(ScenarioError) as exc:
        load_scenario("missing.yaml")
    assert all(name in str(exc.value) for name in builtin_scenarios())


# the loader cli picked, libyaml's where PyYAML has it, and the pure-Python
# one it falls back to, which a machine with libyaml would not run otherwise
YAML_LOADERS = (cli._YAML_LOADER, yaml.SafeLoader)


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_builtin_mapping_as_yaml_file_gives_the_builtin(name, tmp_path, monkeypatch):
    # every builtin is the mapping a scenario file would hold: written out
    # and loaded back, it gives the same scenario, datum bytes included
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(_BUILTINS[name]))
    want = builtin_scenarios()[name]
    for loader in YAML_LOADERS:
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        got = load_scenario(str(path))
        for field in dataclasses.fields(Scenario):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if isinstance(w, schroflat.PiecewiseProfile):
                assert g.breakpoints == w.breakpoints
                assert [a.tobytes() for a in g.pieces] == [b.tobytes() for b in w.pieces]
            else:
                assert g == w, (loader, field.name)


def test_run_scenario_writes_artifacts(tmp_path):
    sc = builtin_scenarios()["zero"]
    entries = run_scenario(sc, tmp_path / "out")
    assert entries["terminal_l2"] == 0.0
    for name in ("control.csv", "field.csv", "norms.csv", "report.txt"):
        assert (tmp_path / "out" / name).exists()
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "relative_terminal=" in report
    # cells must be plain decimals, not numpy scalar reprs
    for name in ("control.csv", "field.csv", "norms.csv"):
        assert "np.float64" not in (tmp_path / "out" / name).read_text()


def test_csv_writers_write_each_cell_as_fmt(tmp_path):
    # write_csv formats whole columns at once; every cell must still read
    # as _fmt writes it, signed zero and subnormals included
    t = np.array([-0.0, 5e-324, 1e-300, 1.0, 2.0, 1e20])
    vals = np.array([1e-300, -0.0, 5e-324, 3.0, -2.0, 0.0])
    u = vals + 1j * t[::-1]
    phase = np.array([0, 0, 1, 1, 0, 1])
    trace = ControlTrace(t, u, np.zeros(t.size), phase, np.zeros(t.size))

    def lines(header, *columns):
        write_csv(tmp_path / "out.csv", header, *columns)
        text = (tmp_path / "out.csv").read_text()
        assert text.endswith("\n")
        return text.splitlines()

    def row(*cells):
        return ",".join(c if isinstance(c, str) else _fmt(c) for c in cells)

    # the beam's control.csv: the trace's four columns, then u1 and u2
    assert lines("t,re_u,im_u,phase,u1,u2", *_control_columns(trace), -vals, t) == [
        "t,re_u,im_u,phase,u1,u2"] + [
        row(t[i], u[i].real, u[i].imag, PHASE_NAMES[phase[i]], -vals[i], t[i])
        for i in range(t.size)]
    assert lines("t,energy", t, vals) == ["t,energy"] + [
        row(a, b) for a, b in zip(t, vals)]
    # study.csv: integer levels and sizes beside float norms
    levels, sizes = np.arange(6), 16 * 2 ** np.arange(6)
    assert lines("level,Nx,terminal", levels, sizes, vals) == ["level,Nx,terminal"] + [
        f"{i},{16 * 2 ** i},{_fmt(v)}" for i, v in enumerate(vals)]
    # both field layouts, three snapshots stacked in time order, the last
    # two sharing one grid array, as the snapshots of a march do
    snaps = [SimpleNamespace(t=1e-300, grid=t, values=u, eta=vals, eta_t=-vals),
             SimpleNamespace(t=-0.0, grid=vals, values=u[::-1], eta=t, eta_t=vals),
             SimpleNamespace(t=2.0, grid=vals, values=-u, eta=-t, eta_t=t)]
    st, x, values = _snapshot_columns(snaps, "values")
    assert lines("t,x,re,im", st, x, values.real, values.imag) == ["t,x,re,im"] + [
        row(s.t, x, v.real, v.imag) for s in snaps for x, v in zip(s.grid, s.values)]
    assert lines("t,x,eta,eta_t", *_snapshot_columns(snaps, "eta", "eta_t")) == [
        "t,x,eta,eta_t"] + [
        row(s.t, x, e, p) for s in snaps for x, e, p in zip(s.grid, s.eta, s.eta_t)]


def test_run_beam_scenario_smoke(tmp_path):
    from dataclasses import replace
    sc = builtin_scenarios()["beam"]
    sc = replace(sc, sim=SimConfig(Nx=32, Nt=250, T=2.0, snapshot_count=3))
    entries = run_scenario(sc, tmp_path / "beam")
    assert entries["initial_energy"] > 0
    assert entries["energy_ratio"] < 1.0  # coarse grid still drains energy
    assert (tmp_path / "beam" / "energy.csv").exists()
    assert (tmp_path / "beam" / "field.csv").exists()
    for name in ("energy.csv", "field.csv"):
        assert "np.float64" not in (tmp_path / "beam" / name).read_text()


def test_run_beam_formats_shared_cells_once(tmp_path, monkeypatch):
    # control.csv's t is the grid after t = 0 and its u1 the trace's re_u,
    # bit for bit, so run_beam formats each of them once: the three CSVs
    # keep the bytes of every column formatted on its own
    made = {}

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]
        monkeypatch.setattr(cli, name, wrapped)

    recorded("beam_controls", cli.beam_controls)
    recorded("beam_simulate", cli.beam_simulate)
    run_scenario(builtin_scenarios()["beam"], tmp_path / "run")
    controls, result = made["beam_controls"], made["beam_simulate"]
    assert controls.trace.t.tobytes() == result.times[1:].tobytes()
    assert controls.u1[1:].tobytes() == controls.trace.u.real.tobytes()
    apart = tmp_path / "apart"
    apart.mkdir()
    write_csv(apart / "control.csv", "t,re_u,im_u,phase,u1,u2",
              *_control_columns(controls.trace), controls.u1[1:], controls.u2[1:])
    write_csv(apart / "field.csv", "t,x,eta,eta_t",
              *_snapshot_columns(result.snapshots, "eta", "eta_t"))
    write_csv(apart / "energy.csv", "t,energy", result.times, result.energy)
    for name in ("control.csv", "field.csv", "energy.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (apart / name).read_bytes()


def _report(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def test_run_writes_one_diagnostics_contract_for_both_equations(tmp_path):
    from dataclasses import replace
    diag_keys = {"continuity_gap", "gap_budget", "tail_max", "quad_err_max",
                 "seed_bound_constant", "phase1_integrals"}
    reports = {}
    for name in ("gentle", "beam"):
        for control in ("synthesized", "none"):
            sc = replace(builtin_scenarios()[name], control=control,
                         sim=SimConfig(Nx=32, Nt=250, T=2.0, snapshot_count=3))
            run_scenario(sc, tmp_path / name / control)
            reports[name, control] = _report(tmp_path / name / control / "report.txt")
    for report in reports.values():
        assert diag_keys <= set(report)
    beam = reports["beam", "synthesized"]
    gap, budget = float(beam["continuity_gap"]), float(beam["gap_budget"])
    assert gap <= 10.0 * max(budget, 1e-14)
    # phase 1 counts the times it integrated; a run without control, none
    for name in ("gentle", "beam"):
        assert int(reports[name, "synthesized"]["phase1_integrals"]) > 0
        assert reports[name, "none"]["phase1_integrals"] == "0"


def test_convergence_study_eigenmode(tmp_path):
    from dataclasses import replace
    sc = builtin_scenarios()["eigenmode-check"]
    sc = replace(sc, sim=SimConfig(Nx=16, Nt=128, T=0.5, snapshot_count=3))
    rows, entries = convergence_study(sc, 3, tmp_path / "study")
    assert len(rows) == 3
    assert abs(entries["eigenmode_rate"] - 2.0) < 0.2
    assert (tmp_path / "study" / "study.csv").exists()
    with pytest.raises(ScenarioError):
        convergence_study(sc, 2, tmp_path / "bad")


def test_convergence_study_checks_its_finest_level_first(tmp_path, monkeypatch):
    # reference's Nx=200 doubles to 12,800 at level 6 and eigenmode-check's
    # 128 to 16,384 at level 7, above the ceiling, and 1,025 frames of Nx=16
    # refined to 4,096 at level 8 exceed MAX_FRAME_CELLS: SimConfig rejects
    # the level's config, built with every other before level 0 runs or the
    # study's directory is made, and the study names the level
    def no_run(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(cli, "simulate", no_run)
    builtins = builtin_scenarios()
    frames = scenario_from_dict(
        {"theta0": "pulse", "sim": {"Nx": 16, "Nt": 1024, "snapshot_count": 1025}}, "frames")
    for sc, levels in ((builtins["reference"], 7), (builtins["eigenmode-check"], 8),
                       (builtins["reference"], 10 ** 6), (frames, 9)):
        with pytest.raises(ScenarioError, match=r"^levels: "):
            convergence_study(sc, levels, tmp_path / "study")
    with pytest.raises(ScenarioError, match=r"^levels: 7 levels refine the grid beyond its "
                                            r"bounds at level 6: sim\.Nx: need 16 <= Nx "
                                            r"<= 8192, got 12800$"):
        convergence_study(builtins["reference"], 7, tmp_path / "study")
    with pytest.raises(ScenarioError, match=r"at level 8: sim\.snapshot_count: need "
                                            r"snapshot_count \* \(Nx \+ 1\) <= 4194304, "
                                            r"got 1025 \* 4097$"):
        convergence_study(frames, 9, tmp_path / "study")
    assert not (tmp_path / "study").exists()


def test_main_study_exits_2_above_the_finest_grid(tmp_path, capsys):
    rc = main(["study", "--scenario", "reference", "--levels", "7",
               "--out-dir", str(tmp_path / "study")])
    assert rc == EXIT_CONFIG
    assert "config error: levels: 7 levels" in capsys.readouterr().err


@pytest.mark.parametrize("nx, ok", [(8192, True), (8193, False), (20000, False)])
def test_scenario_grid_ceiling(tmp_path, capsys, nx, ok):
    # parsed, never run: a grid above the ceiling names sim.Nx and exits 2
    d = {"theta0": "pulse", "sim": {"Nx": nx, "Nt": 64, "snapshot_count": 3}}
    if ok:
        assert scenario_from_dict(d, "fine").sim.Nx == nx
        return
    cfg = tmp_path / "fine.yaml"
    cfg.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: sim.Nx: need 16 <= Nx <= 8192, got {nx}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("Nt, snapshot_count, field", [
    (2 ** 20, 3, None), (64, 65, None), (2 ** 20 + 1, 3, "sim.Nt"), (10 ** 12, 3, "sim.Nt"),
    (64, 66, "sim.snapshot_count"), (64, 10 ** 12, "sim.snapshot_count"),
    (2 ** 17, 127_100, None), (2 ** 17, 127_101, "sim.snapshot_count"),
    (2 ** 20, 2 ** 20 + 1, "sim.snapshot_count")])
def test_scenario_time_grid_ceiling(tmp_path, capsys, Nt, snapshot_count, field):
    # parsed, never run: more time steps than the ceiling, more snapshots
    # than time levels, or more frame cells than MAX_FRAME_CELLS (127,100
    # frames of 33 cells fit 2**22) name the setting SimConfig checks, in
    # its section, and exit 2
    d = {"theta0": "pulse", "sim": {"Nx": 32, "Nt": Nt, "snapshot_count": snapshot_count}}
    if field is None:
        sim = scenario_from_dict(d, "long").sim
        assert (sim.Nt, sim.snapshot_count) == (Nt, snapshot_count)
        return
    cfg = tmp_path / "long.yaml"
    cfg.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"config error: {field}: need " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_study_exits_2_above_the_finest_time_grid(tmp_path, capsys, monkeypatch):
    # Nt = 2**18 doubles beyond MAX_NT = 2**20 at level 3, while Nx = 16
    # stays far below its ceiling: SimConfig rejects level 3's config, and
    # the study fails before level 0 runs
    def no_run(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = tmp_path / "long.yaml"
    cfg.write_text(yaml.safe_dump(
        {"theta0": "pulse", "sim": {"Nx": 16, "Nt": 2 ** 18, "snapshot_count": 3}}))
    rc = main(["study", "--scenario", str(cfg), "--levels", "4",
               "--out-dir", str(tmp_path / "study")])
    assert rc == EXIT_CONFIG
    assert ("config error: levels: 4 levels refine the grid beyond its bounds at "
            "level 3: sim.Nt: need 16 <= Nt <= 1048576, got 2097152\n"
            ) in capsys.readouterr().err
    assert not (tmp_path / "study").exists()


def test_convergence_study_resynthesizes_each_level(tmp_path):
    # every level's row is what a run at that level's grid reports: the
    # control is synthesized on the level's own time grid, not interpolated
    from dataclasses import replace
    sc = Scenario(name="small", equation="schrodinger", tau=1.4, s=1.6,
                  K=10, K_u=10, control="synthesized",
                  sim=SimConfig(Nx=32, Nt=64, T=2.0, snapshot_count=3),
                  theta0=pulse_datum())
    rows, _ = convergence_study(sc, 3, tmp_path / "study")
    lines = (tmp_path / "study" / "study.csv").read_text().splitlines()[1:]
    assert lines == [",".join(map(_fmt, row)) for row in rows]
    assert len(lines) == 3
    for lvl, line in enumerate(lines):
        cfg = SimConfig(Nx=32 * 2 ** lvl, Nt=64 * 2 ** lvl, T=2.0, snapshot_count=3)
        direct = run_scenario(replace(sc, sim=cfg), tmp_path / f"direct{lvl}")
        cells = line.split(",")
        assert (int(cells[1]), int(cells[2])) == (cfg.Nx, cfg.Nt)
        assert float(cells[3]) == direct["relative_terminal"]
        assert float(cells[4]) == direct["tail_max"]


def test_selftest_passes(capsys):
    assert selftest() == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_main_run_exit_codes(tmp_path, capsys):
    rc = main(["run", "--scenario", "zero",
               "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "terminal_l2=0.0" in out
    # the command prints report.txt, line for line
    assert out == (tmp_path / "o" / "report.txt").read_text()

    rc = main(["run", "--scenario", "not-a-real-scenario",
               "--out-dir", str(tmp_path / "o2")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_imports_no_scipy(tmp_path):
    # both marches and the synthesis are numpy only; the import of
    # scipy.linalg alone took about 0.2 s of wall time per run on a 2-core
    # Xeon host.  numpy.ma (imported by np.unique) took about 12 ms there.
    code = (
        "import sys\n"
        "from schroflat.cli import main\n"
        "for name in ('gentle', 'beam'):\n"
        f"    out = {str(tmp_path)!r} + '/' + name\n"
        "    assert main(['run', '--scenario', name, '--out-dir', out]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    _python(code)


def _python(code, **env):
    """stdout of code run in a fresh interpreter on this package."""
    src = str(Path(schroflat.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
def test_freed_temporaries_stay_in_the_heap():
    # in a fresh interpreter, whose heap pytest has not grown: by default
    # glibc maps a 2 MiB block afresh, and after its free grows the heap for
    # the next one, so the second touch faults its pages in again
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from schroflat.cli import keep_freed_memory\n"
        "keep_freed_memory()\n"
        "def touch():\n"
        "    a = np.empty(2 ** 18)\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    a.fill(1.0)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(touch(), touch())\n"
    )
    first, second = map(int, _python(code).split())
    assert second <= 8, (first, second)


def _cdll_raising(exc):
    def cdll(name):
        raise exc("no C library")
    return cdll


@pytest.mark.parametrize("cdll", [
    pytest.param(_cdll_raising(OSError), id="OSError"),
    pytest.param(_cdll_raising(TypeError), id="TypeError"),
    pytest.param(lambda name: SimpleNamespace(), id="no-mallopt"),
])
def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch, cdll):
    # macOS has no mallopt, and on Windows CDLL(None) raises: the command
    # runs on and writes the same bytes
    assert main(["run", "--scenario", "zero", "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    names = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: names.append(name) or cdll(name))
    assert main(["run", "--scenario", "zero", "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    assert names == [None]
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        a, b = ((tmp_path / d / name).read_bytes() for d in "ab")
        if name == "report.txt":
            a, b = ([line for line in r.splitlines() if not line.startswith(b"runtime_")]
                    for r in (a, b))
        assert a == b, name


def test_synthesis_bytes_do_not_depend_on_blas_threads():
    # gentle's phase-1 generations reach thousands of panels, where OpenBLAS
    # runs its products on every thread it has; the derivative trace is the
    # beam's quadrature path
    code = (
        "import hashlib\n"
        "from schroflat.cli import load_scenario\n"
        "from schroflat.flatness import synthesize\n"
        "sc = load_scenario('gentle')\n"
        "trace, _, diags = synthesize(sc.theta0, sc.sim.times(), sc.tau, sc.T, sc.s,\n"
        "                             sc.K, sc.K_u, derivative=True)\n"
        "h = hashlib.sha256()\n"
        "for a in (trace.u, trace.du, trace.err):\n"
        "    h.update(a.tobytes())\n"
        "print(h.hexdigest(), sorted(diags.items()))\n"
    )
    one, two = (_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


def test_no_datum_values_outlive_their_synthesis():
    # two data on the same breakpoints start every quadrature sample from
    # the same panels; synthesized back to back in one interpreter, each
    # gives the bytes it gives in a fresh one, so the second synthesis
    # reads none of the first's datum values
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from schroflat import PiecewiseProfile\n"
        "from schroflat.cli import reference_datum\n"
        "from schroflat.flatness import synthesize\n"
        "a = reference_datum()\n"
        "data = {'a': a, 'b': PiecewiseProfile(a.breakpoints,\n"
        "                                      [(1 - 2j) * p[::-1] for p in a.pieces])}\n"
        "def digest(name):\n"
        "    trace, fo, _ = synthesize(data[name], np.linspace(0.0, 0.5, 129), 0.35, 0.5,\n"
        "                              1.9, 15, 15, derivative=True)\n"
        "    h = hashlib.sha256()\n"
        "    for a in (trace.u, trace.du, trace.err, fo.y):\n"
        "        h.update(a.tobytes())\n"
        "    return h.hexdigest()\n"
    )
    fresh = [_python(code + f"print(digest({name!r}))\n").split()[0] for name in "ab"]
    assert fresh[0] != fresh[1]
    assert _python(code + "print(digest('a'), digest('b'))\n").split() == fresh


def test_main_numerical_error_exit(tmp_path, capsys):
    # a horizon of microseconds overflows the seed's order-61 kernel table
    # (i/2 tau)^61, which must surface as a numerical failure, not a crash
    # or silence; the zero datum keeps phase 1 free of kernel work
    cfg = tmp_path / "hard.yaml"
    cfg.write_text(
        "equation: schrodinger\n"
        "tau: 2.5e-6\nT: 3.0e-6\ns: 1.6\nK: 30\nK_u: 6\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n"
        "theta0: zero\n")
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_NUMERICAL
    assert ("numerical error (KernelError): coefficient overflow at order 61"
            in capsys.readouterr().err)


def test_main_runs_just_above_the_least_gevrey_order(tmp_path):
    # s = 1.106 passes the rule s >= 1.105614... (s = 1.105 is a config
    # error), and its step has jets at every time of phase 2
    cfg = tmp_path / "s.yaml"
    cfg.write_text("tau: 1.4\nT: 2.0\ns: 1.106\n"
                   "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\ntheta0: pulse\n")
    assert main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK


def test_main_runs_at_the_least_truncations(tmp_path, capsys):
    # K and K_u start at 0, as in the library: the seed y_0 and the series'
    # first term alone still make a run
    cfg = tmp_path / "k0.yaml"
    cfg.write_text("tau: 1.4\nT: 2.0\ns: 1.6\nK: 0\nK_u: 0\n"
                   "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\ntheta0: pulse\n")
    assert main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "control.csv").exists()
    # the scenario's error is the library's message: one range per setting
    cfg.write_text(cfg.read_text().replace("K_u: 0", "K_u: -1"))
    assert main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o2")]) == EXIT_CONFIG
    assert "config error: K_u: need 0 <= K_u <= 34, got -1\n" in capsys.readouterr().err


# a 401-digit integer, beyond the range of a float
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("equation, entry", [
    ("schrodinger", "K: 31"),
    ("schrodinger", "K_u: 80"),
    ("beam", "cutoff_s: 2.5"),
    # so close to 1 that both exponentials of the step underflow at t = 1/2:
    # caught here, not after phase 1
    ("schrodinger", "s: 1.105"),
    ("beam", "cutoff_s: 1.1"),
    ("schrodinger", "K: abc"),
    ("schrodinger", "tau: [1, 2]"),
    ("schrodinger", "sim: 5"),
    ("schrodinger", "theta0: {breakpoints: 0.5, pieces: [[1], [2]]}"),
    # int() would truncate these without a word
    ("schrodinger", "K: 2.9"),
    ("schrodinger", "K: true"),
    ("schrodinger", "K_u: 7.5"),
    ("schrodinger", "sim: {Nx: 32.5, Nt: 64, snapshot_count: 3}"),
    ("schrodinger", "sim: {Nx: 32, Nt: 40.7, snapshot_count: 3}"),
    ("schrodinger", "sim: {Nx: 32, Nt: 64, snapshot_count: 3.5}"),
    # float() would read true as 1.0 without a word
    ("schrodinger", "T: true"),
    ("schrodinger", "theta0: {pieces: [[true]]}"),
    ("schrodinger", "theta0: {pieces: [[[0.5, false]]]}"),
    # nor a string as a number, alone or in [re, im]
    ("schrodinger", 'theta0: {pieces: [["1"]]}'),
    ("schrodinger", 'theta0: {pieces: [[["1", "2"]]]}'),
    ("schrodinger", 'theta0: {pieces: [[[0.5, "0"]]]}'),
    # breakpoints follow the coefficients' rule
    ("schrodinger", 'theta0: {breakpoints: ["0.5"], pieces: [[1], [2]]}'),
    ("schrodinger", "theta0: {breakpoints: [true], pieces: [[1], [2]]}"),
    # integers beyond float range, which float() and complex() do not take
    ("schrodinger", f"T: {_HUGE}"),
    ("schrodinger", f"tau: {_HUGE}"),
    ("schrodinger", f"s: {_HUGE}"),
    ("beam", f"cutoff_s: {_HUGE}"),
    ("schrodinger", f"theta0: {{pieces: [[{_HUGE}]]}}"),
    # a piece without coefficients
    ("schrodinger", "theta0: {breakpoints: [], pieces: [[]]}"),
    ("beam", "eta1: {breakpoints: [], pieces: [[]]}"),
    # a misspelt setting would leave its default in force
    ("schrodinger", "cutof_s: 1.5"),
    ("schrodinger", "sim: {Nx: 32, Nt: 64, snapshot_count: 3, nt: 64}"),
])
def test_main_config_error_on_out_of_range_setting(tmp_path, capsys, equation, entry):
    # rejected with the scenario, before any integral is computed; the
    # entry comes last, so it replaces a default key of the same name
    profiles = "eta0: sine\neta1: zero\n" if equation == "beam" else "theta0: pulse\n"
    cfg = tmp_path / "range.yaml"
    cfg.write_text(
        f"equation: {equation}\n"
        "tau: 1.4\nT: 2.0\ns: 1.6\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n" + profiles + f"{entry}\n")
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"config error: {entry.split(':')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("equation, field, base", [
    ("schrodinger", "T", {}),
    ("schrodinger", "tau", {"T": 1.2}),
    ("schrodinger", "s", {}),
    ("beam", "cutoff_s", {}),
])
def test_main_config_error_on_boolean_real(tmp_path, capsys, equation, field, base):
    # true is not the number 1.0: the setting is named even where 1.0
    # would pass its range check (T and tau here)
    profiles = ({"eta0": "sine", "eta1": "zero"} if equation == "beam"
                else {"theta0": "pulse"})
    d = {"equation": equation, "tau": 0.7, "T": 1.0, "s": 1.6, "K": 6, "K_u": 6,
         "sim": {"Nx": 32, "Nt": 64, "snapshot_count": 3}, **profiles, **base, field: True}
    cfg = tmp_path / "bool.yaml"
    cfg.write_text(yaml.safe_dump(d))
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert f"config error: {field}: need a number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("control", ["synthesized", "none"])
def test_main_config_error_on_beam_eta0_not_vanishing(tmp_path, capsys, control):
    # the hinged beam's eta0 vanishes at both ends; the reference datum is
    # 1 at x=1, which fails with the scenario, before any synthesis or march
    cfg = tmp_path / "beam.yaml"
    cfg.write_text(
        f"equation: beam\ncontrol: {control}\ntau: 1.4\nT: 2.0\ns: 1.6\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\neta0: reference\neta1: zero\n")
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "config error: eta0: eta0(1.0)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("horizon", ["-1", ".nan"])
def test_main_config_error_names_the_horizon(tmp_path, capsys, horizon):
    # T is a top-level setting; the error names it, not the sim section
    cfg = tmp_path / "horizon.yaml"
    cfg.write_text(f"theta0: pulse\nT: {horizon}\n"
                   "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n")
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "config error: T: final time" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", [".nan", ".inf"])
def test_main_config_error_on_nonfinite_horizon(tmp_path, capsys, horizon):
    # a free run would otherwise march to t=nan and exit 0
    cfg = tmp_path / "horizon.yaml"
    cfg.write_text(
        f"control: none\ntheta0: sine\nT: {horizon}\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n")
    rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "final time" in capsys.readouterr().err


def test_main_study_exit_codes(tmp_path, capsys):
    rc = main(["study", "--scenario", "eigenmode-check", "--levels", "3",
               "--out-dir", str(tmp_path / "eig")])
    assert rc == EXIT_OK
    assert "eigenmode_rate=" in capsys.readouterr().out
    assert (tmp_path / "eig" / "study.csv").exists()

    # a free run of any other datum has no exact solution to compare with
    cfg = tmp_path / "pulse.yaml"
    cfg.write_text(
        "control: none\ntheta0: pulse\nT: 0.5\n"
        "sim: {Nx: 32, Nt: 64, snapshot_count: 3}\n")
    rc = main(["study", "--scenario", str(cfg), "--out-dir", str(tmp_path / "pulse")])
    assert rc == EXIT_CONFIG
    assert "config error: theta0" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "binary"])
def test_main_config_error_on_unreadable_scenario(tmp_path, capsys, monkeypatch, kind):
    source = tmp_path
    if kind == "binary":
        source = tmp_path / "binary.yaml"
        source.write_bytes(b"\xff\xfe\x00tau")
    for loader in YAML_LOADERS:
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        rc = main(["run", "--scenario", str(source), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG, loader
        assert "config error: scenario" in capsys.readouterr().err


def test_main_config_error_on_bad_yaml(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("tau: [unclosed\n")
    for loader in YAML_LOADERS:
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        rc = main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG, loader
        assert "config error" in capsys.readouterr().err
