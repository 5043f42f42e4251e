"""Scenario runner: synthesis, simulation, artifacts.

Subcommands:
    run      execute one scenario (builtin name or YAML file), write CSVs
             and a key=value report
    study    rerun a scenario over doubled resolutions, tabulate terminal
             norms and convergence rates
    selftest quick internal consistency checks

All numerical paths use fixed summation orders and no wall-clock state, so
identical configurations reproduce identical CSV bytes.
"""
import argparse
import ctypes
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .flatness import DEFAULT_SERIES_TRUNCATION, DIAGNOSTICS, check_settings, synthesize
from .gevrey import check_order
from .schrodinger_sim import SimConfig, simulate, terminal_report
from .smoothing import PHASE_NAMES, PiecewiseProfile
from .beam import (DEFAULT_CUTOFF_S, BeamData, BeamError, beam_controls, beam_simulate,
                   beam_terminal_report)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the synthesis diagnostics of a run without control: no phase-1 integral
NO_CONTROL_DIAGS = {**dict.fromkeys(DIAGNOSTICS, 0.0), "phase1_integrals": 0}


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------- datums

def reference_datum():
    """Discontinuous two-indicator datum: Re = 1 on (0.5,1), Im = 1 on (0.2,0.7)."""
    return PiecewiseProfile((0.2, 0.5, 0.7), [[0.0], [1j], [1.0 + 1j], [1.0]])


def pulse_datum():
    """Smooth complex pulse 20 x^3 (1-x)^3 (1 + i(1-2x)).

    Vanishes with two derivatives at both ends, so the odd extension stays
    C^2 and the simulator propagates it without grid-scale dispersion.
    """
    re = PiecewiseProfile((), [[0, 0, 0, 20.0, -60.0, 60.0, -20.0]])
    im = PiecewiseProfile((), [[0, 0, 0, 20.0, -100.0, 180.0, -140.0, 40.0]])
    return re + 1j * im


def sine_profile():
    """Single-piece polynomial fit of sin(pi x), good to ~1e-13: the degree
    14 interpolant at 15 equispaced nodes.

    One piece keeps the profile free of interior derivative kinks, which
    would otherwise seed spurious high-frequency bending content.
    """
    xs = np.linspace(0.0, 1.0, 15)
    return PiecewiseProfile((), [np.polynomial.polynomial.polyfit(xs, np.sin(np.pi * xs), 14)])


_DATUMS = {
    "reference": reference_datum,
    "pulse": pulse_datum,
    "zero": PiecewiseProfile.zero,
    "sine": sine_profile,
}


# ------------------------------------------------------------- scenarios

@dataclass(eq=False)
class Scenario:
    name: str
    equation: str
    tau: float
    s: float
    K: int
    K_u: int
    control: str
    sim: SimConfig
    theta0: PiecewiseProfile = None
    eta0: PiecewiseProfile = None
    eta1: PiecewiseProfile = None
    cutoff_s: float = DEFAULT_CUTOFF_S

    @property
    def T(self):
        """The horizon, the simulator's final time."""
        return self.sim.T

    def __post_init__(self):
        if self.equation not in ("schrodinger", "beam"):
            raise ScenarioError(f"equation: unknown value {self.equation!r}")
        if self.control not in ("synthesized", "none"):
            raise ScenarioError(f"control: unknown value {self.control!r}")
        if self.control == "synthesized":
            try:
                check_settings(self.tau, self.T, self.s, self.K, self.K_u)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            if self.equation == "beam":
                try:
                    check_order(self.cutoff_s)
                except ValueError as exc:
                    raise ScenarioError(f"cutoff_s: {exc}") from exc
        if self.equation == "schrodinger" and self.theta0 is None:
            raise ScenarioError("theta0: required for the schrodinger equation")
        if self.equation == "beam":
            if self.eta0 is None or self.eta1 is None:
                raise ScenarioError("eta0/eta1: required for the beam equation")
            try:
                BeamData(self.eta0, self.eta1)
            except BeamError as exc:
                raise ScenarioError(f"eta0: {exc}") from exc


# builtin scenarios by name, each the mapping a YAML file would hold, with
# only the values that differ from scenario_from_dict's defaults; each is
# parsed only when asked for, since some datums cost a polynomial fit
_BUILTINS = {
    "reference": {"theta0": "reference"},
    "gentle": {"tau": 1.4, "T": 2.0, "s": 1.6, "theta0": "pulse"},
    "zero": {"sim": {"Nx": 64, "Nt": 512, "snapshot_count": 5}, "theta0": "zero"},
    "eigenmode-check": {"control": "none", "theta0": "sine",
                        "sim": {"Nx": 128, "Nt": 1024, "snapshot_count": 9}},
    "beam": {"equation": "beam", "tau": 1.4, "T": 2.0, "s": 1.6,
             "sim": {"Nx": 128, "Nt": 2000, "snapshot_count": 9},
             "eta0": "sine", "eta1": "zero"},
}


def builtin_scenarios():
    return {name: scenario_from_dict(d, name) for name, d in _BUILTINS.items()}


def _is_number(v):
    """An int or a float, neither a bool nor a string."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex_entry(v):
    """A profile coefficient: a number or [re, im] of two numbers."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v]
    if not all(map(_is_number, parts)):
        raise ScenarioError(f"profile coefficient {v!r} must be a number or [re, im]")
    return complex(*parts)


def _profile_from_entry(entry, field):
    if entry is None:
        return None
    if isinstance(entry, str):
        if entry not in _DATUMS:
            raise ScenarioError(f"{field}: unknown builtin profile {entry!r}")
        return _DATUMS[entry]()
    if isinstance(entry, dict) and "pieces" in entry:
        try:
            bps = tuple(entry.get("breakpoints", ()))
            if not all(map(_is_number, bps)):
                raise ScenarioError(f"breakpoints {list(bps)!r} must be numbers")
            pieces = [[_complex_entry(v) for v in piece] for piece in entry["pieces"]]
            return PiecewiseProfile(bps, pieces)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{field}: {exc}") from exc
    raise ScenarioError(f"{field}: expected builtin name or breakpoints/pieces map")


def _integer(value):
    """An int setting: ints, integral floats and integral strings.

    int() alone would truncate 2.9 to 2 and read true as 1.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"need an integer, got {value!r}")
    return int(value)


def _real(value):
    """A float setting: numbers and numeric strings, but not booleans,
    which float() would read as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"need a number, got {value!r}")
    return float(value)


# the keys a scenario mapping may hold, and its sim mapping's keys with
# their defaults
_SETTINGS = ("equation", "tau", "T", "s", "K", "K_u", "control", "sim", "theta0", "eta0",
             "eta1", "cutoff_s")
_SIM_DEFAULTS = {"Nx": 200, "Nt": 4000, "snapshot_count": 11}


def _known_keys(d, fields, section=""):
    """Reject a key outside fields, such as a misspelt setting, which
    would otherwise leave its default in force without a word."""
    for key in d:
        if key not in fields:
            raise ScenarioError(f"{section}{key}: unknown setting")


def _setting(d, field, kind, default, section=""):
    try:
        return kind(d.get(field, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{section}{field}: {exc}") from exc


def scenario_from_dict(d, name):
    if not isinstance(d, dict):
        raise ScenarioError("config: top level must be a mapping")
    _known_keys(d, _SETTINGS)
    T = _setting(d, "T", _real, 0.5)
    simd = d.get("sim", {})
    if not isinstance(simd, dict):
        raise ScenarioError("sim: expected a mapping of Nx, Nt, snapshot_count")
    _known_keys(simd, _SIM_DEFAULTS, "sim.")
    sizes = {field: _setting(simd, field, _integer, default, "sim.")
             for field, default in _SIM_DEFAULTS.items()}
    try:
        sim = SimConfig(T=T, **sizes)
    except ValueError as exc:
        # the message starts with its field; T is a top-level setting
        section = "" if str(exc).startswith("T:") else "sim."
        raise ScenarioError(f"{section}{exc}") from exc
    return Scenario(
        name=name,
        equation=d.get("equation", "schrodinger"),
        tau=_setting(d, "tau", _real, 0.35),
        s=_setting(d, "s", _real, 1.9),
        K=_setting(d, "K", _integer, DEFAULT_SERIES_TRUNCATION),
        K_u=_setting(d, "K_u", _integer, DEFAULT_SERIES_TRUNCATION),
        control=d.get("control", "synthesized"),
        sim=sim,
        theta0=_profile_from_entry(d.get("theta0"), "theta0"),
        eta0=_profile_from_entry(d.get("eta0"), "eta0"),
        eta1=_profile_from_entry(d.get("eta1"), "eta1"),
        cutoff_s=_setting(d, "cutoff_s", _real, DEFAULT_CUTOFF_S),
    )


# libyaml's C parser where PyYAML was built with it, else the pure-Python
# one: 4.2 against 0.5 ms for a 750-byte scenario file on a 2.1 GHz Xeon
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(source):
    if source in _BUILTINS:
        return scenario_from_dict(_BUILTINS[source], source)
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            f"scenario: {source!r} is neither a builtin "
            f"({', '.join(sorted(_BUILTINS))}) nor a file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario: cannot read {source!r}: {exc}") from exc
    return scenario_from_dict(data, path.stem)


# ------------------------------------------------------------ pipelines

def synthesize_control(sc: Scenario):
    """Two-phase control trace on the simulation grid, plus diagnostics."""
    return synthesize(sc.theta0, sc.sim.times(), sc.tau, sc.T, sc.s, sc.K, sc.K_u)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def report_text(entries):
    """The key=value lines of a report, as report.txt holds them and the
    command prints them."""
    return "".join(f"{k}={_fmt(v)}\n" for k, v in entries.items())


def write_report(path, entries):
    Path(path).write_text(report_text(entries), encoding="utf-8")


def write_csv(path, header, *columns):
    """A header line, then row i of every column.

    A numpy column's cells are the repr of each value, as _fmt writes them,
    signed zero and subnormals included; any other column is a sequence of
    cells written as they are.
    """
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else c
             for c in columns]
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n",
                          encoding="utf-8")


def _control_columns(trace):
    """control.csv's t, re_u, im_u and phase columns."""
    return (trace.t, trace.u.real, trace.u.imag,
            [PHASE_NAMES[p] for p in trace.phase.tolist()])


def _snapshot_columns(snapshots, *fields):
    """field.csv's t and x columns and the named fields, one snapshot's grid
    after another.  Each snapshot's t is formatted once for all its rows,
    and a grid array once for all the snapshots after it that share it, as
    every snapshot of a march does."""
    t, x = [], []
    grid = None
    for snap in snapshots:
        if snap.grid is not grid:
            grid, cells = snap.grid, list(map(repr, snap.grid.tolist()))
        t += [_fmt(snap.t)] * grid.size
        x += cells
    return (t, x, *(np.concatenate([getattr(s, f) for s in snapshots])
                    for f in fields))


def norm_drift(snapshots):
    """Largest relative change of the grid l2 norm from the first snapshot."""
    norms = np.array([s.l2_norm for s in snapshots])
    return float(np.max(np.abs(norms - norms[0])) / norms[0]) if norms[0] > 0 else 0.0


def eigenmode_error(snap):
    """max|theta - e^{-i pi^2 t} sin(pi x)| of a free run from sin(pi x)."""
    exact = np.exp(-1j * np.pi ** 2 * snap.t) * np.sin(np.pi * snap.grid)
    return float(np.max(np.abs(snap.values - exact)))


def run_schrodinger(sc: Scenario, out: Path):
    t0 = time.perf_counter()
    if sc.control == "none":
        trace, ub, diags = None, None, NO_CONTROL_DIAGS
    else:
        trace, _, diags = synthesize_control(sc)
        # the trace starts at the first step; u(0) repeats its first sample
        ub = np.concatenate([trace.u[:1], trace.u])
    t1 = time.perf_counter()
    snapshots = simulate(sc.theta0, ub, sc.sim)
    t2 = time.perf_counter()
    rep = terminal_report(snapshots)
    entries = {
        "scenario": sc.name,
        "equation": sc.equation,
        "initial_l2_grid": rep["initial_l2"],
        "initial_l2_exact": sc.theta0.l2_norm(),
        "terminal_l2": rep["terminal_l2"],
        "relative_terminal": rep["relative"],
        **diags,
        "runtime_synthesis_s": t1 - t0,
        "runtime_simulation_s": t2 - t1,
    }
    if sc.control == "none":
        entries["norm_drift"] = norm_drift(snapshots)
    if trace is not None:
        write_csv(out / "control.csv", "t,re_u,im_u,phase", *_control_columns(trace))
    t, x, values = _snapshot_columns(snapshots, "values")
    write_csv(out / "field.csv", "t,x,re,im", t, x, values.real, values.imag)
    write_csv(out / "norms.csv", "t,l2", np.array([s.t for s in snapshots]),
              np.array([s.l2_norm for s in snapshots]))
    write_report(out / "report.txt", entries)
    return entries


def run_beam(sc: Scenario, out: Path):
    data = BeamData(sc.eta0, sc.eta1)
    t0 = time.perf_counter()
    if sc.control == "none":
        nt = sc.sim.Nt + 1
        controls = None
        u1 = np.zeros(nt)
        u2 = np.zeros(nt)
        u2_avg = np.zeros(sc.sim.Nt)
        diags = NO_CONTROL_DIAGS
    else:
        controls = beam_controls(data, sc.tau, sc.T, sc.s, sc.K, sc.K_u,
                                 cfg=sc.sim, cutoff_s=sc.cutoff_s)
        u1, u2, u2_avg = controls.u1, controls.u2, controls.u2_avg
        diags = controls.diags
    t1 = time.perf_counter()
    result = beam_simulate(data, u1, u2, sc.sim, u2_avg)
    t2 = time.perf_counter()
    rep = beam_terminal_report(result, sc.sim.dx)
    entries = {
        "scenario": sc.name,
        "equation": sc.equation,
        **rep,
        **diags,
        "runtime_synthesis_s": t1 - t0,
        "runtime_simulation_s": t2 - t1,
    }
    # cells shared by two columns are formatted once: the trace's times are
    # the grid's after t = 0, and u1 after t = 0 is the trace's re_u
    t_cells = list(map(repr, result.times.tolist()))
    if controls is not None:
        _, re_u, im_u, phase = _control_columns(controls.trace)
        re_cells = list(map(repr, re_u.tolist()))
        write_csv(out / "control.csv", "t,re_u,im_u,phase,u1,u2",
                  t_cells[1:], re_cells, im_u, phase, re_cells, controls.u2[1:])
    write_csv(out / "field.csv", "t,x,eta,eta_t",
              *_snapshot_columns(result.snapshots, "eta", "eta_t"))
    write_csv(out / "energy.csv", "t,energy", t_cells, result.energy)
    write_report(out / "report.txt", entries)
    return entries


def run_scenario(sc: Scenario, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if sc.equation == "beam":
        return run_beam(sc, out)
    return run_schrodinger(sc, out)


# ---------------------------------------------------------------- study

def convergence_study(sc: Scenario, levels, out_dir):
    if levels < 3:
        raise ScenarioError("levels: need at least 3 refinement levels")
    # every level's config, built before level 0 runs: the first level
    # SimConfig rejects stops the study, so a huge levels builds few
    base = sc.sim
    cfgs = []
    for lvl in range(levels):
        try:
            cfgs.append(replace(base, Nx=base.Nx * 2 ** lvl, Nt=base.Nt * 2 ** lvl))
        except ValueError as exc:
            raise ScenarioError(
                f"levels: {levels} levels refine the grid beyond its bounds at "
                f"level {lvl}: sim.{exc}") from exc
    free = sc.equation == "schrodinger" and sc.control == "none"
    if free:
        # a free run is scored against the exact evolution of sin(pi x)
        x = np.linspace(0.0, 1.0, sc.sim.Nx + 1)
        if not np.max(np.abs(sc.theta0(x) - np.sin(np.pi * x))) <= 1e-10:
            raise ScenarioError(
                "theta0: a study without control compares with the eigenmode "
                "sin(pi x), so theta0 must equal sin(pi x)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    exact_errors = []
    for lvl, cfg in enumerate(cfgs):
        if free:
            snapshots = simulate(sc.theta0, None, cfg)
            rel = terminal_report(snapshots)["relative"]
            tail = 0.0
            exact_errors.append(eigenmode_error(snapshots[-1]))
        else:
            # each level synthesizes its control on its own time grid, so the
            # study measures the method, not the interpolation of a coarse trace
            entries = run_scenario(replace(sc, sim=cfg), out / f"level{lvl}")
            rel = entries["energy_ratio" if sc.equation == "beam" else "relative_terminal"]
            tail = entries["tail_max"]
        rows.append((lvl, cfg.Nx, cfg.Nt, rel, tail))
    write_csv(out / "study.csv", "level,Nx,Nt,terminal_relative_norm,series_tail",
              *map(np.array, zip(*rows)))
    entries = {"scenario": sc.name, "levels": levels}
    rels = [r[3] for r in rows]
    for lvl, rel in enumerate(rels):
        entries[f"relative_level{lvl}"] = rel
    if exact_errors:
        rates = [np.log2(a / b) for a, b in zip(exact_errors, exact_errors[1:])]
        entries["eigenmode_rate"] = float(np.mean(rates))
        for lvl, err in enumerate(exact_errors):
            entries[f"eigenmode_error_level{lvl}"] = err
    elif all(r > 0 for r in rels):
        rates = [np.log2(a / b) for a, b in zip(rels, rels[1:])]
        entries["terminal_decay_rate"] = float(np.mean(rates))
    write_report(out / "study_report.txt", entries)
    return rows, entries


# ------------------------------------------------------------- selftest

def selftest():
    checks = []

    sc = load_scenario("zero")
    snapshots = simulate(sc.theta0, None, sc.sim)
    checks.append(("zero-datum-stays-zero",
                   terminal_report(snapshots)["terminal_l2"] == 0.0))

    mode = sine_profile()
    cfg = SimConfig(Nx=64, Nt=256, T=0.5, snapshot_count=9)
    drift = norm_drift(simulate(mode, None, cfg))
    checks.append(("free-run-norm-conservation", drift <= 1e-12))

    errs = []
    for nx, nt in ((16, 64), (32, 128), (64, 256)):
        c = SimConfig(Nx=nx, Nt=nt, T=0.5, snapshot_count=3)
        errs.append(eigenmode_error(simulate(lambda x: np.sin(np.pi * x) + 0j, None, c)[-1]))
    rate = float(np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])]))
    checks.append(("eigenmode-second-order", abs(rate - 2.0) <= 0.2))

    seed_sc = scenario_from_dict(
        {**_BUILTINS["gentle"], "K": 10, "K_u": 10,
         "sim": {"Nx": 32, "Nt": 64, "snapshot_count": 3}}, "selftest")
    _, _, diags = synthesize_control(seed_sc)
    checks.append(("phase-continuity-at-tau",
                   diags["continuity_gap"] <= 10.0 * max(diags["gap_budget"], 1e-14)))

    ok = True
    for name, passed in checks:
        print(f"selftest: {name} {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_NUMERICAL


# ------------------------------------------------------------------ main

# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values main sets.  By default glibc serves each block of 128 KiB or more
# (a kernel row of 2^14 points, a march chunk, a phase-2 jet) from its own
# mmap and unmaps it on free, so numpy temporaries fault their pages in
# afresh.  Blocks up to 4 MiB now come from the heap, which returns its
# free top to the kernel beyond 8 MiB, twice the mmap threshold as in
# glibc's own dynamic rule.  Higher values keep more freed memory resident
# for no faster run.  Setting a threshold turns the dynamic rule off, so a
# block above 4 MiB is mapped afresh on every use.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 * 2 ** 20
_TRIM_THRESHOLD_BYTES = 8 * 2 ** 20


def keep_freed_memory():
    """Have the C allocator keep freed blocks in the heap for reuse.

    The settings hold for the whole process, so main makes them and the
    library does not: importing schroflat leaves its caller's allocator as
    it was.  Where the C library has no mallopt (macOS, Windows, whose
    CDLL(None) raises) this does nothing.  No value computed changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None):
    """The schroflat command; returns its exit code.

    It first calls keep_freed_memory, whose allocator settings hold for the
    rest of the process: calling main from Python leaves them set in the
    caller's process after main returns.
    """
    keep_freed_memory()
    parser = argparse.ArgumentParser(
        prog="schroflat",
        description="Boundary-control synthesis and verification for the "
                    "1-D Schrodinger equation and the hinged beam")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--scenario", default="reference",
                       help="builtin name or YAML file path")
    p_run.add_argument("--out-dir", default="schroflat-out")

    p_study = sub.add_parser("study", help="convergence study")
    p_study.add_argument("--scenario", default="reference")
    p_study.add_argument("--out-dir", default="schroflat-study")
    p_study.add_argument("--levels", type=int, default=3)

    sub.add_parser("selftest", help="quick internal checks")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest()
        sc = load_scenario(args.scenario)
        if args.command == "run":
            entries = run_scenario(sc, args.out_dir)
        else:
            _, entries = convergence_study(sc, args.levels, args.out_dir)
        print(report_text(entries), end="")
        return EXIT_OK
    except (ScenarioError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"numerical error ({exc.__class__.__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
