"""Crank-Nicolson verification solver for i theta_t + theta_xx = 0.

The implicit trapezoidal step is unconditionally stable and exactly
norm-preserving for the skew-Hermitian semidiscretization with homogeneous
Dirichlet data, which makes terminal-norm measurements meaningful: any
residual L2 mass at t=T is attributable to the control, the truncation, or
the grid, not to numerical dissipation.

Boundary data enter through the right-hand side at both time levels of the
step.  They are samples u(t_m) at x=1 on the march's own time grid, one per
time level from t=0; a synthesized control starts at the first step, so a
run repeats its first sample for u(0) (cli.run_schrodinger).  The scheme is
not solved step by step: in the sine modes of the interior (see
sine_modes) each step multiplies a mode by its unit-modulus Cayley factor
and adds the boundary forcing, so whole chunks of steps are applied at
once and the field is rebuilt only at snapshot times.  A run without
boundary data (no control, or an all-zero one) skips the forcing products
and computes only the powers of the Cayley factors it reads.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .sine_modes import (CHUNK, complex_product, power_rows, sine_modes, sine_row,
                         sine_transform)

# The finest grid a run takes.  The marches hold no (Nx-1)^2 array: they
# apply the sine transform by FFT, and their largest arrays are CHUNK + 1
# rows of Nx - 1 complex modes, 34 MB each at this bound.  A forced march
# holds two (the power table and the gain), a beam march's chunk of states
# a few more; tracemalloc at this bound, Nt = 1,024 and 3 snapshots: 69 MB
# forced, 2.8 MB free, 203 MB for the beam.  The frames come on top, bounded
# by MAX_FRAME_CELLS.  It sits above every builtin and the Nx = 3,200 of a
# 5-level reference study.
MAX_NX = 8192

# The most time steps a run takes.  A synthesized Schrodinger run holds
# about 0.7 kB per step at its peak (tracemalloc at Nt = 128,000, Nx = 16:
# the phase-1 batch and the phase-2 series), so about 0.75 GB at this
# bound; computed, not run.  A beam run holds about 1.7 kB per step at
# Nt = 16,000.  It sits above every builtin (Nt <= 4,000), the 20,000 steps
# of perfbench's march-fine and the 64,000 of a 5-level reference study.
MAX_NT = 2 ** 20

# The most frame cells, snapshot_count * (Nx + 1), a run keeps and writes.
# The march holds every snapshot's frame, 16 bytes a cell, and field.csv
# writes one row per cell: about 62 bytes a cell on disk, and 315 bytes a
# cell of peak memory while the text is built (a free run of Nx = 256 with
# 4,097 snapshots: 1.05 million cells, 330 MB above the interpreter and a
# 65 MB file).  So this bound is about 1.3 GB of peak memory and a 260 MB
# file.  It takes Nx = 8192 with 511 snapshots, or every step of Nx = 200
# and Nt = 20,000; at MAX_NX and MAX_NT together a run would otherwise keep
# 137 GB.
MAX_FRAME_CELLS = 2 ** 22


def check_integer(name, value):
    """Raise ValueError, its message starting with name, unless value is an
    integer: numpy's integers pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: need an integer, got {value!r}")


def check_real(name, value):
    """Raise ValueError, its message starting with name, unless value is a
    real number: Python's and numpy's reals pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: need a real number, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    Nx: int
    Nt: int
    T: float
    snapshot_count: int = 9

    def __post_init__(self):
        # each message names its field.  A size is an integer, numpy's too,
        # but not a bool; it is kept as a Python int, whose sums and
        # products below cannot wrap as a small numpy integer's would.  T is
        # a real number, numpy's too, but not a bool either
        for field in ("Nx", "Nt", "snapshot_count"):
            value = getattr(self, field)
            check_integer(field, value)
            object.__setattr__(self, field, int(value))
        check_real("T", self.T)
        if not 16 <= self.Nx <= MAX_NX:
            raise ValueError(f"Nx: need 16 <= Nx <= {MAX_NX}, got {self.Nx}")
        if not 16 <= self.Nt <= MAX_NT:
            raise ValueError(f"Nt: need 16 <= Nt <= {MAX_NT}, got {self.Nt}")
        if not 0.0 < self.T < np.inf:     # also false for nan
            raise ValueError(f"T: final time must be positive and finite, got {self.T!r}")
        # at most one snapshot per time level, so the rounded indices differ
        if not 2 <= self.snapshot_count <= self.Nt + 1:
            raise ValueError(
                f"snapshot_count: need 2 <= snapshot_count <= Nt + 1 = {self.Nt + 1}, "
                f"got {self.snapshot_count}")
        # every snapshot's frame is kept and written
        if self.snapshot_count * (self.Nx + 1) > MAX_FRAME_CELLS:
            raise ValueError(
                f"snapshot_count: need snapshot_count * (Nx + 1) <= {MAX_FRAME_CELLS}, "
                f"got {self.snapshot_count} * {self.Nx + 1}")

    @property
    def dx(self):
        return 1.0 / self.Nx

    @property
    def dt(self):
        return self.T / self.Nt

    def times(self):
        return np.linspace(0.0, self.T, self.Nt + 1)

    def snapshot_indices(self):
        """The step indices of the snapshots, strictly increasing: with at
        most one snapshot per time level the points lie at least one step
        apart (exactly one only where every point is an integer), so they
        round to distinct steps."""
        return np.round(np.linspace(0, self.Nt, self.snapshot_count)).astype(np.int64)


@dataclass(eq=False)
class FieldSnapshot:
    t: float
    grid: np.ndarray
    values: np.ndarray
    l2_norm: float


def grid_l2_norm(values, dx):
    w = np.abs(values) ** 2
    return float(np.sqrt(dx * (np.sum(w) - 0.5 * w[0] - 0.5 * w[-1])))


def _march(theta, ub, lam, snap_idx):
    """Crank-Nicolson frames at the sorted step indices snap_idx.

    The interior field is v = S c in sine modes, S applied by
    sine_transform.  The boundary values enter the last interior row as
    (i lam/2)(u_m + u_{m+1}); the datum's left end value enters the first
    row at the first step's old level only, since marched fields are
    clamped to 0 there.  A march whose boundary sums u_m + u_{m+1} all
    vanish adds no forcing product and builds only the power rows it reads:
    r^1 and r^n for each chunk length n it steps.
    """
    nx = theta.size - 1
    sines, th, phase = sine_modes(nx, lam)
    kick = 1j * lam / nx / (1.0 + 1j * th)
    f = ub[:-1] + ub[1:]
    forced = f.any()
    rows = np.arange(CHUNK + 1) if forced else np.array([1])
    table = power_rows(phase, rows)
    powers = dict(zip(rows.tolist(), table))
    c = (2.0 / nx) * sine_transform(theta[1:-1])
    # folded in as r^-1 times its forcing, so the first step adds it once
    c += kick * sine_row(sines, 1) * theta[0] * powers[1].conj()
    if forced:
        # c after L steps of a chunk starting at m: r^L c + f[m:m+L] @ gain[-L:]
        gain = kick * sine_row(sines, nx - 1) * table[CHUNK - 1::-1]
    out = np.empty((snap_idx.size, theta.size), dtype=np.complex128)
    step = 0
    for i, idx in enumerate(snap_idx):
        while step < idx:
            n = min(CHUNK, idx - step)
            if n not in powers:
                powers[n] = power_rows(phase, np.array([n]))[0]
            c = powers[n] * c
            if forced:
                c += complex_product(f[step:step + n], gain[CHUNK - n:])
            step += n
        if idx == 0:
            out[i] = theta
        else:
            out[i, 0] = 0.0
            out[i, 1:-1] = sine_transform(c)
            out[i, -1] = ub[idx]
    return out


def simulate(theta0, ub, cfg: SimConfig):
    """Advance the controlled equation; returns snapshots, first at t=0,
    last at t=T.

    theta0 is any callable sampled on the grid; ub holds the boundary
    values at x=1 on cfg.times(), Nt + 1 samples from t=0, or is None for
    u = 0.
    """
    x = np.linspace(0.0, 1.0, cfg.Nx + 1)
    theta = np.asarray(theta0(x), dtype=np.complex128)
    if theta.shape != x.shape:
        raise ValueError("initial profile must evaluate elementwise on the grid")
    times = cfg.times()
    if ub is None:
        ub = np.zeros(times.size, dtype=np.complex128)
    ub = np.asarray(ub, dtype=np.complex128)
    if ub.shape != times.shape:
        raise ValueError("boundary values must be sampled on the simulation time grid")
    snap_idx = cfg.snapshot_indices()
    frames = _march(theta, ub, cfg.dt / cfg.dx ** 2, snap_idx)
    snapshots = []
    for row, idx in zip(frames, snap_idx):
        snapshots.append(FieldSnapshot(
            t=float(times[idx]), grid=x, values=row,
            l2_norm=grid_l2_norm(row, cfg.dx)))
    return snapshots


def terminal_report(snapshots):
    if not snapshots:
        raise ValueError("no snapshots to report on")
    initial = snapshots[0].l2_norm
    terminal = snapshots[-1].l2_norm
    relative = terminal / initial if initial > 0 else 0.0
    return {
        "initial_l2": initial,
        "terminal_l2": terminal,
        "relative": relative,
    }
