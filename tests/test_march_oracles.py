"""The sine-mode marches against their oracles (tests/oracles.py).

Both marches apply the implicit trapezoidal step exactly in sine modes,
chunks of steps at a time, where the oracles solve one banded system per
step.  The arithmetic differs, so the results agree to rounding amplified
by the step count: frames within 1e-10 max|theta|, beam energies within
1e-9 relative and beam fields within 1e-9 of their largest value.  The
beam march reads its energy from the modes and rebuilds the grid only at
snapshots; beam_simulate_grid, the same modal march rebuilt on the grid
every step, agrees with it to rounding alone: energies within 1e-12
relative and snapshots within 1e-14 of their largest value.  The
tables both marches share equal their entry-by-entry formulas: the rows of
S they read bit for bit, and the FFT sine transform the dense product by S
to rounding.  With dense products by S in place of the transform the
marches agree to rounding alone: frames within 1e-13 max|theta|, beam
energies within 1e-11 relative, eta within 1e-13 and eta_t within 1e-10
of their largest value (the high modes' frequencies w turn the
projection's rounding into velocity error).  The Schrodinger march, which
skips the forcing products and the unread powers where the boundary data
vanish, equals march_chunked, which never does, bit for bit.
"""
import dataclasses

import numpy as np
import pytest

from schroflat import schrodinger_sim
from schroflat import BeamData, SimConfig, beam_controls, beam_simulate, simulate
from schroflat.cli import builtin_scenarios, pulse_datum, sine_profile, synthesize_control
from schroflat.schrodinger_sim import MAX_NX, _march
from schroflat.sine_modes import (CHUNK, complex_product, power_rows, sine_modes, sine_row,
                                  sine_transform)
from schroflat.smoothing import PiecewiseProfile

from oracles import (beam_simulate_banded, beam_simulate_grid, march_banded, march_chunked,
                     march_dense, sine_modes_direct, sine_row_direct)

FRAME_TOL = 1e-10
ENERGY_TOL = 1e-9
GRID_ENERGY_TOL = 1e-12
GRID_FIELD_TOL = 1e-14
DENSE_FRAME_TOL = 1e-13
DENSE_ENERGY_TOL = 1e-11
DENSE_ETA_TOL = 1e-13
DENSE_ETA_T_TOL = 1e-10


@pytest.mark.parametrize("lam", [1e-2, 0.5, 20.0, 1e3])
@pytest.mark.parametrize("nx", [16, 17, 128, 200, 400, 1601])
def test_sine_mode_tables_match_direct_formulas(nx, lam):
    # the rows the marches read gather the very sines the dense S computes,
    # bit for bit; the FFT transform of real, complex and row-stacked input
    # rounds differently from the dense product, within 16 eps log2(2 nx)
    # of its largest value; the powers' real cos/sin agree with exp in
    # value, but row 0's imaginary part is sin(-0.0) = -0.0 where exp gives
    # +0.0
    sines, theta, phase = sine_modes(nx, lam)
    S_ref, theta_ref, powers_ref = sine_modes_direct(nx, lam)
    for j in (1, nx - 2, nx - 1):
        assert sine_row(sines, j).tobytes() == S_ref[j - 1].tobytes()
    v = np.random.default_rng(nx).standard_normal((4, nx - 1))
    tol = 16 * np.finfo(np.float64).eps * np.log2(2 * nx)
    for x in (v[0], v[1] + 1j * v[2], v[1:]):
        got, want = sine_transform(x), x @ S_ref
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    assert theta.tobytes() == theta_ref.tobytes()
    powers = power_rows(phase, np.arange(CHUNK + 1))
    assert powers.shape == powers_ref.shape == (CHUNK + 1, nx - 1)
    np.testing.assert_array_equal(powers, powers_ref)
    assert np.all(np.signbit(powers[0].imag))
    # rows built on request, alone or a few at a time, are the full
    # table's rows bit for bit, row 0's -0.0 included
    for j in ([0], [1], [CHUNK], [1, 208, CHUNK], [0, 37, 166, 167, CHUNK - 1]):
        rows = power_rows(phase, np.array(j))
        assert rows.tobytes() == powers[j].tobytes()


def test_sine_rows_match_direct_formula_at_the_grid_ceiling():
    # where the dense S would take 0.5 GB, its rows are still its own bits
    sines = sine_modes(MAX_NX, 1.0)[0]
    for j in (1, MAX_NX - 2, MAX_NX - 1):
        assert sine_row(sines, j).tobytes() == sine_row_direct(MAX_NX, j).tobytes()


def _assert_frames_close(frames, reference, theta_max, tol=FRAME_TOL):
    assert frames.shape == reference.shape
    assert np.max(np.abs(frames - reference)) <= tol * theta_max


def _grid_samples(trace):
    # the trace starts at the first step; u(0) repeats its first sample
    return np.concatenate([trace.u[:1], trace.u])


def _march_both(theta0, ub, cfg, oracle=march_banded):
    x = np.linspace(0.0, 1.0, cfg.Nx + 1)
    theta = np.asarray(theta0(x), dtype=np.complex128)
    snaps = simulate(theta0, ub, cfg)
    if ub is None:
        ub = np.zeros(cfg.Nt + 1, dtype=np.complex128)
    frames = np.array([s.values for s in snaps])
    reference = oracle(theta, ub, cfg.dt / cfg.dx ** 2, cfg.snapshot_indices())
    return frames, reference, np.max(np.abs(frames))


@pytest.fixture(scope="module")
def gentle_run():
    sc = builtin_scenarios()["gentle"]
    assert (sc.sim.Nx, sc.sim.Nt) == (200, 4000)
    trace, _, _ = synthesize_control(sc)
    return sc, _grid_samples(trace)


def test_controlled_run_matches_banded_march(gentle_run):
    sc, ub = gentle_run
    frames, reference, theta_max = _march_both(sc.theta0, ub, sc.sim)
    _assert_frames_close(frames, reference, theta_max)


def test_controlled_run_matches_dense_march(gentle_run):
    sc, ub = gentle_run
    frames, dense, theta_max = _march_both(sc.theta0, ub, sc.sim, march_dense)
    _assert_frames_close(frames, dense, theta_max, DENSE_FRAME_TOL)


def test_free_run_matches_banded_march():
    cfg = SimConfig(Nx=400, Nt=4000, T=0.5, snapshot_count=9)
    frames, reference, theta_max = _march_both(pulse_datum(), None, cfg)
    _assert_frames_close(frames, reference, theta_max)


def _skewed_pulse(x):
    # a left end value off zero, so the first step reads r^1
    return pulse_datum()(x) + 0.3j * (1.0 - x) + 0.7 * x


@pytest.mark.parametrize("nx", [16, 17, 128, 400])
def test_free_run_matches_chunked_march_bit_for_bit(nx):
    # snapshots 167 and 166 steps apart: chunks of 166 and 167 steps, not
    # of CHUNK; the free run skips the zero forcing products and builds
    # only r^1, r^166 and r^167, and keeps every bit of the full march
    cfg = SimConfig(Nx=nx, Nt=1000, T=0.5, snapshot_count=7)
    assert set(np.diff(cfg.snapshot_indices()).tolist()) == {166, 167}
    frames, chunked, _ = _march_both(_skewed_pulse, None, cfg, march_chunked)
    assert frames.tobytes() == chunked.tobytes()


@pytest.mark.parametrize("nx", [16, 17, 128, 400])
def test_free_run_matches_dense_march(nx):
    # the FFT and the table rows against dense products by S
    cfg = SimConfig(Nx=nx, Nt=1000, T=0.5, snapshot_count=7)
    frames, dense, theta_max = _march_both(_skewed_pulse, None, cfg, march_dense)
    _assert_frames_close(frames, dense, theta_max, DENSE_FRAME_TOL)


def test_forced_run_matches_chunked_march_bit_for_bit():
    sc = builtin_scenarios()["gentle"]
    sc = dataclasses.replace(sc, sim=SimConfig(Nx=64, Nt=1000, T=sc.T, snapshot_count=7))
    trace, _, _ = synthesize_control(sc)
    frames, chunked, _ = _march_both(sc.theta0, _grid_samples(trace), sc.sim, march_chunked)
    assert frames.tobytes() == chunked.tobytes()


def test_free_run_builds_only_the_power_rows_it_reads(monkeypatch):
    # 20,000 steps in 10 gaps of 2,000: chunks of CHUNK and 208 steps
    built, products = [], []

    def counted_rows(phase, j):
        built.extend(j.tolist())
        return power_rows(phase, j)

    def counted_product(a, b):
        products.append(a.size)
        return complex_product(a, b)

    monkeypatch.setattr(schrodinger_sim, "power_rows", counted_rows)
    monkeypatch.setattr(schrodinger_sim, "complex_product", counted_product)
    cfg = SimConfig(Nx=16, Nt=20000, T=0.5, snapshot_count=11)
    t = cfg.times()

    # no control, or an all-zero one as the zero builtin synthesizes
    for ub in (None, np.zeros_like(t)):
        built.clear()
        simulate(sine_profile(), ub, cfg)
        assert sorted(built) == [1, 208, CHUNK] and products == []
    built.clear()
    simulate(sine_profile(), 1e-3 * np.sin(t), cfg)
    assert sorted(built) == list(range(CHUNK + 1)) and len(products) == 80


@pytest.mark.parametrize("nx, nt, snap_idx", [
    (16, 100, (0, 1, 2, 37, 100)),                       # Nt below one chunk
    (64, 3 * CHUNK, (0, CHUNK, 3 * CHUNK)),             # whole chunks only
    (64, 700, (0, 1, 3, CHUNK - 1, CHUNK, CHUNK + 1, 513, 700)),
    (16, 700, (2, 300, 699)),                            # no frame 0 or Nt
])
def test_march_chunking_and_snapshots(nx, nt, snap_idx):
    # a left end value off zero, a right end value overwritten by u(0), and
    # a control with a time-dependent phase exercise every boundary term
    x = np.linspace(0.0, 1.0, nx + 1)
    theta = pulse_datum()(x).astype(np.complex128) + 0.3j * (1.0 - x) + 0.7 * x
    t = np.linspace(0.0, 0.5, nt + 1)
    ub = 0.2 * t * np.exp(7j * t)
    lam = (0.5 / nt) * nx * nx
    idx = np.array(snap_idx)
    frames = _march(theta, ub, lam, idx)
    _assert_frames_close(frames, march_banded(theta, ub, lam, idx),
                         np.max(np.abs(theta)))


def _assert_beam_results_close(got, want, energy_tol, field_tol, eta_t_tol=None):
    np.testing.assert_array_equal(got.times, want.times)
    assert np.max(np.abs(got.energy - want.energy) / want.energy) <= energy_tol
    assert [s.t for s in got.snapshots] == [s.t for s in want.snapshots]
    tols = {"eta": field_tol, "eta_t": field_tol if eta_t_tol is None else eta_t_tol}
    for field, tol in tols.items():
        a = np.array([getattr(s, field) for s in got.snapshots])
        b = np.array([getattr(s, field) for s in want.snapshots])
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


def _assert_beam_close(data, u1, u2, cfg, u2_avg=None):
    # without averages the oracle takes the endpoint mean of the moment
    # itself; the package is given that mean
    mean = (u2[:-1] + u2[1:]) / 2
    got = beam_simulate(data, u1, u2, cfg, mean if u2_avg is None else u2_avg)
    want = beam_simulate_banded(data, u1, u2, cfg, u2_avg=u2_avg)
    _assert_beam_results_close(got, want, ENERGY_TOL, 1e-9)


def _assert_beam_matches_grid(data, u1, u2, cfg, u2_avg=None):
    # the same modal states; only the energy and snapshot formulas round
    # differently
    if u2_avg is None:
        u2_avg = (u2[:-1] + u2[1:]) / 2
    _assert_beam_results_close(beam_simulate(data, u1, u2, cfg, u2_avg),
                               beam_simulate_grid(data, u1, u2, cfg, u2_avg),
                               GRID_ENERGY_TOL, GRID_FIELD_TOL)


@pytest.fixture(scope="module")
def builtin_beam():
    sc = builtin_scenarios()["beam"]
    data = BeamData(sc.eta0, sc.eta1)
    ctl = beam_controls(data, sc.tau, sc.T, sc.s, sc.K, sc.K_u, cfg=sc.sim,
                        cutoff_s=sc.cutoff_s)
    return sc.sim, data, ctl


@pytest.mark.parametrize("averaged", [False, True])
def test_beam_controlled_run_matches_banded_march(averaged, builtin_beam):
    cfg, data, ctl = builtin_beam
    assert cfg.Nt % CHUNK != 0
    _assert_beam_close(data, ctl.u1, ctl.u2, cfg,
                       u2_avg=ctl.u2_avg if averaged else None)


def _short_run(nx, nt):
    cfg = SimConfig(Nx=nx, Nt=nt, T=0.5, snapshot_count=5)
    data = BeamData(sine_profile(), PiecewiseProfile((), [[0.0, 1.0, -1.0]]))
    t = cfg.times()
    return cfg, data, 0.1 * np.sin(9.0 * t), np.cos(5.0 * t), np.sin(5.0 * t[1:]) / 5.0


@pytest.mark.parametrize("nx, nt", [(16, 100), (32, CHUNK), (16, 700)])
def test_beam_short_runs_match_banded_march(nx, nt):
    cfg, data, u1, u2, u2_avg = _short_run(nx, nt)
    _assert_beam_close(data, u1, u2, cfg)
    _assert_beam_close(data, u1, u2, cfg, u2_avg=u2_avg)


@pytest.mark.parametrize("averaged", [False, True])
def test_beam_controlled_run_matches_grid_energy_march(averaged, builtin_beam):
    cfg, data, ctl = builtin_beam
    _assert_beam_matches_grid(data, ctl.u1, ctl.u2, cfg,
                              u2_avg=ctl.u2_avg if averaged else None)


@pytest.mark.parametrize("nx, nt", [(16, 100), (32, CHUNK), (16, 700)])
def test_beam_short_runs_match_grid_energy_march(nx, nt):
    cfg, data, u1, u2, u2_avg = _short_run(nx, nt)
    _assert_beam_matches_grid(data, u1, u2, cfg)
    _assert_beam_matches_grid(data, u1, u2, cfg, u2_avg=u2_avg)


def _assert_beam_matches_dense(data, u1, u2, cfg, u2_avg):
    _assert_beam_results_close(beam_simulate(data, u1, u2, cfg, u2_avg),
                               beam_simulate_grid(data, u1, u2, cfg, u2_avg, dense=True),
                               DENSE_ENERGY_TOL, DENSE_ETA_TOL, DENSE_ETA_T_TOL)


def test_beam_controlled_run_matches_dense_march(builtin_beam):
    cfg, data, ctl = builtin_beam
    _assert_beam_matches_dense(data, ctl.u1, ctl.u2, cfg, ctl.u2_avg)


@pytest.mark.parametrize("nx, nt", [(16, 100), (32, CHUNK), (16, 700)])
def test_beam_short_runs_match_dense_march(nx, nt):
    cfg, data, u1, u2, u2_avg = _short_run(nx, nt)
    _assert_beam_matches_dense(data, u1, u2, cfg, u2_avg)
