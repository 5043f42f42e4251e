"""Benchmark workloads: scenario generation from a seed, and output checks.

Each workload is one schroflat scenario written as a YAML file and handed
to the public ``run`` command.  The seed picks a unit multiplier A for the
initial datum: a phase exp(i*phi) for the complex Schrodinger data, a sign
for the real beam data.  Every stage of the program is linear in the datum
and the tolerances of the adaptive quadrature are relative to the size of
each integral, so the residual stays put and the amount of work moves by a
few percent at most, while the numbers the program computes change from
seed to seed.  Seed 0 is A = 1: the builtin scenario exactly, byte for
byte.
"""
import cmath
import csv
import hashlib
import math
import random
from dataclasses import dataclass

import numpy as np
import yaml

# Seed-0 records of the program at the commit that defined this benchmark.
# The residual check compares against Workload.residual; the sha256 and
# counter records are informational: a match shows that the arithmetic path
# is unchanged.  Residuals are scale-free and move across seeds by about
# 1e-12 relative, so the tolerance is there for changes to the program: the
# check fails when an answer moves by more than 1 percent either way.
RESIDUAL_REL_TOL = 1e-2

# selftest's continuity rule for synthesized Schrodinger runs
GAP_FACTOR = 10.0
GAP_FLOOR = 1e-14


@dataclass(frozen=True)
class Workload:
    name: str
    equation: str
    synthesized: bool
    residual: float
    control_sha256: str
    field_sha256: str
    counters: dict


def _counters(points, integrals, panels, jets, cells, beam_cells):
    return {"kernel.points": points, "quadrature.integrals": integrals,
            "quadrature.panels": panels, "gevrey.step_jet_calls": jets,
            "schrodinger_sim.cell_steps": cells, "beam.cell_steps": beam_cells}


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "gentle", "schrodinger", True,
        residual=0.0018471675306680412,
        control_sha256="f33cad895e8d37a9fe8d3fc2a6aaa5c4b1aba0b83908c95f9ec79a39911a8293",
        field_sha256="25ebd9da464459841dd70e1f07ee79c13e7eb03a1b2ad1d28afbbc7afb9b9b69",
        counters=_counters(175230, 2816, 11682, 1202, 796000, 0)),
    Workload(
        "reference", "schrodinger", True,
        residual=5184.01241936981,
        control_sha256="a872c50967d7b2c750228e091e9f8a993ed3bb59d986388ddc1380df70c221a0",
        field_sha256="ba7dcd0746169c5fa35f9c1efdfa180bfb98c1d85abc2e5fdaa75faedf843231",
        counters=_counters(412560, 2816, 27504, 1202, 796000, 0)),
    Workload(
        "beam", "beam", True,
        residual=0.004695088682588317,
        control_sha256="39e49dbd58a9b7dee87579576a4acb2c9812d4cc05c5b08414f5eda3bde57672",
        field_sha256="9c6ae010b447f7a16f8fd373311f871ebbf45471866cfdd2c602c36615f417f9",
        counters=_counters(629370, 2815, 41958, 602, 0, 254000)),
    Workload(
        "march-fine", "schrodinger", False,
        residual=2.5391933183103563e-05,
        control_sha256="",
        field_sha256="29a338ed95e62883311e2cbfe9eeeacfadf40db18b86409cf7e3a9c98f8d9c86",
        counters=_counters(0, 0, 0, 0, 7980000, 0)),
)}


def amplitude(seed, real):
    """Datum multiplier for a seed; exactly 1 for seed 0."""
    if seed == 0:
        return 1.0 + 0.0j
    rng = random.Random(seed)
    if real:
        return complex(1.0 if rng.random() < 0.5 else -1.0)
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _pieces(pieces, amp):
    """YAML piece lists [[re, im], ...] of the scaled coefficients."""
    out = []
    for piece in pieces:
        scaled = [complex(v) * amp for v in piece]
        out.append([[z.real, z.imag] for z in scaled])
    return out


def _pulse():
    # the builtin "pulse" datum 20 x^3 (1-x)^3 (1 + i(1-2x)), ascending powers
    re = [0, 0, 0, 20.0, -60.0, 60.0, -20.0, 0.0]
    im = [0, 0, 0, 20.0, -100.0, 180.0, -140.0, 40.0]
    return [[complex(a, b) for a, b in zip(re, im)]]


def _sine():
    # the builtin "sine" profile: one degree-14 interpolant of sin(pi x) on
    # 15 equispaced nodes, fitted the way the package fits it
    xs = np.linspace(0.0, 1.0, 15)
    coeffs = np.polynomial.polynomial.polyfit(xs, np.sin(np.pi * xs), 14)
    return [[complex(float(c)) for c in coeffs]]


def scenario(name, seed):
    """(YAML mapping, amplitude) for one workload and seed."""
    if name == "gentle":
        amp = amplitude(seed, real=False)
        doc = {"equation": "schrodinger", "tau": 1.4, "T": 2.0, "s": 1.6,
               "K": 15, "K_u": 15, "control": "synthesized",
               "sim": {"Nx": 200, "Nt": 4000, "snapshot_count": 11},
               "theta0": {"breakpoints": [], "pieces": _pieces(_pulse(), amp)}}
    elif name == "reference":
        amp = amplitude(seed, real=False)
        pieces = [[0.0], [1j], [1.0 + 1j], [1.0]]
        doc = {"equation": "schrodinger", "tau": 0.35, "T": 0.5, "s": 1.9,
               "K": 15, "K_u": 15, "control": "synthesized",
               "sim": {"Nx": 200, "Nt": 4000, "snapshot_count": 11},
               "theta0": {"breakpoints": [0.2, 0.5, 0.7],
                          "pieces": _pieces(pieces, amp)}}
    elif name == "beam":
        amp = amplitude(seed, real=True)
        doc = {"equation": "beam", "tau": 1.4, "T": 2.0, "s": 1.6,
               "K": 15, "K_u": 15, "control": "synthesized", "cutoff_s": 1.9,
               "sim": {"Nx": 128, "Nt": 2000, "snapshot_count": 9},
               "eta0": {"breakpoints": [], "pieces": _pieces(_sine(), amp)},
               "eta1": {"breakpoints": [], "pieces": [[0.0]]}}
    elif name == "march-fine":
        amp = amplitude(seed, real=False)
        doc = {"equation": "schrodinger", "T": 0.5, "control": "none",
               "sim": {"Nx": 400, "Nt": 20000, "snapshot_count": 11},
               "theta0": {"breakpoints": [], "pieces": _pieces(_sine(), amp)}}
    else:
        raise KeyError(name)
    return doc, amp


def write_scenario(name, seed, path):
    doc, amp = scenario(name, seed)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return amp


# ------------------------------------------------------------ output checks

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def read_report(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("=")
            out[key] = value
    return out


def nonfinite_cells(path):
    """Count numeric CSV cells that are not finite numbers."""
    bad = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        numeric = [i for i, col in enumerate(header) if col != "phase"]
        for row in reader:
            for i in numeric:
                try:
                    if not math.isfinite(float(row[i])):
                        bad += 1
                except (ValueError, IndexError):
                    bad += 1
    return bad


def eigenmode_error(field_csv, amp):
    """max |theta(T,x) - A exp(-i pi^2 T) sin(pi x)| / |A| at the last snapshot."""
    rows = []
    with open(field_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.append([float(v) for v in row])
    data = np.array(rows)
    last = data[data[:, 0] == data[-1, 0]]
    t, x = last[0, 0], last[:, 1]
    exact = amp * np.exp(-1j * np.pi ** 2 * t) * np.sin(np.pi * x)
    return float(np.max(np.abs(last[:, 2] + 1j * last[:, 3] - exact)) / abs(amp))


def check_outputs(wl, out_dir, amp):
    """(residual, problems, hashes) for the artifacts of one repetition."""
    problems = []
    report = read_report(out_dir / "report.txt")
    csvs = sorted(out_dir.glob("*.csv"))
    if not csvs:
        problems.append("no CSV artifacts")
    for path in csvs:
        bad = nonfinite_cells(path)
        if bad:
            problems.append(f"{path.name}: {bad} non-finite values")
    if not wl.synthesized:
        residual = eigenmode_error(out_dir / "field.csv", amp)
    elif wl.equation == "beam":
        residual = float(report["energy_ratio"])
    else:
        residual = float(report["relative_terminal"])
        gap = float(report["continuity_gap"])
        budget = float(report["gap_budget"])
        if not gap <= GAP_FACTOR * max(budget, GAP_FLOOR):
            problems.append(f"continuity_gap {gap!r} > {GAP_FACTOR} x gap_budget {budget!r}")
    if not abs(residual - wl.residual) <= RESIDUAL_REL_TOL * abs(wl.residual):
        problems.append(f"residual {residual!r} not within {RESIDUAL_REL_TOL} "
                        f"(relative) of the seed-0 record {wl.residual!r}")
    hashes = {name: sha256(out_dir / name) for name in ("control.csv", "field.csv")
              if (out_dir / name).exists()}
    return residual, problems, hashes
