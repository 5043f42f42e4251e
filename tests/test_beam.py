"""Hinged beam: data lifting, odd extension, implicit march, dual controls."""
import numpy as np
import pytest

from schroflat import (BeamData, SimConfig, beam_controls, beam_simulate, extend_odd_smooth,
                       lift_initial_data)
from schroflat.beam import (
    EXTENSION_SUPPORT,
    BeamError,
    _eta0_moment_at_right,
    poisson_profile,
)
from schroflat.smoothing import PiecewiseProfile
from schroflat.cli import pulse_datum, reference_datum, sine_profile

from oracles import poisson_solve_grid


# ------------------------------------------------------------ data lifting

def test_poisson_profile_constant_load():
    # -psi'' = 1 with hinged ends: psi = x(1-x)/2
    psi = poisson_profile(PiecewiseProfile((), [[1.0]]))
    for x in (0.0, 0.25, 0.5, 1.0):
        assert abs(psi(x) - x * (1.0 - x) / 2.0) < 1e-15


def test_poisson_profile_linear_load():
    # -psi'' = x: psi = (x - x^3)/6
    psi = poisson_profile(PiecewiseProfile((), [[0.0, 1.0]]))
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(psi(xs), (xs - xs ** 3) / 6.0, rtol=0, atol=1e-15)


def test_poisson_profile_piecewise_matches_grid_solve():
    eta1 = PiecewiseProfile((0.5,), [[1.0], [-1.0]])
    psi = poisson_profile(eta1)
    x, psi_fd = poisson_solve_grid(eta1, 2000)
    assert np.max(np.abs(psi(x).real - psi_fd)) < 1e-5
    # boundary values pinned by construction
    assert psi(0.0) == 0.0 and abs(psi(1.0)) < 1e-15


def test_lift_combines_displacement_and_potential():
    eta0 = PiecewiseProfile((), [[0.0, 1.0, -1.0]])   # x(1-x)
    eta1 = PiecewiseProfile((), [[1.0]])
    theta0 = lift_initial_data(BeamData(eta0, eta1))
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(theta0(xs).real, xs * (1 - xs), atol=1e-15)
    np.testing.assert_allclose(theta0(xs).imag, xs * (1 - xs) / 2.0, atol=1e-15)


def test_beam_data_requires_hinged_displacement():
    with pytest.raises(BeamError):
        BeamData(PiecewiseProfile((), [[1.0]]), PiecewiseProfile.zero())


def test_moment_extraction():
    cubic = PiecewiseProfile((), [[0.0, 0.0, 0.0, 1.0]])
    assert _eta0_moment_at_right(cubic) == 6.0  # (x^3)'' at x=1


# ------------------------------------------------------------ odd extension

def test_extension_is_odd_and_compact():
    ext = extend_odd_smooth(pulse_datum(), cutoff_s=1.6)
    y = np.linspace(0.05, EXTENSION_SUPPORT + 0.5, 40)
    np.testing.assert_allclose(ext(-y), -ext(y), rtol=0, atol=1e-15)
    assert np.all(ext(y[y >= EXTENSION_SUPPORT]) == 0.0)
    assert ext(0.0) == 0.0


def test_extension_matches_datum_inside():
    prof = pulse_datum()
    ext = extend_odd_smooth(prof)
    xs = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(ext(xs), prof(xs), rtol=0, atol=1e-15)


def test_extension_fades_reflection():
    prof = pulse_datum()
    ext = extend_odd_smooth(prof, cutoff_s=1.6)
    # just past the wall the fade factor is ~1 and the reflection dominates
    y = 1.0 + 1e-3
    expect = -prof(2.0 - y) * ext.cutoff(y)
    assert abs(ext(y) - expect) < 1e-15
    # the fade spans the whole outer interval
    assert ext.cutoff(1.0) == 1.0
    assert ext.cutoff(EXTENSION_SUPPORT) == 0.0
    mid = ext.cutoff(1.5)
    assert 0.0 < mid < 1.0


def test_extension_breakpoints_include_reflections():
    prof = PiecewiseProfile((0.2, 0.5), [[0.0], [0.25], [0.0]])
    ext = extend_odd_smooth(prof)
    assert ext.breakpoints == (0.2, 0.5, 1.0, 1.5, 1.8)


def test_extension_rejects_nonvanishing_endpoint():
    with pytest.raises(BeamError):
        extend_odd_smooth(reference_datum())


# -------------------------------------------------------------- beam march

def test_manufactured_linear_solution_exact():
    # eta = b t x^3 solves eta_tt + eta_xxxx = 0 with u1 = b t, u2 = 6 b t;
    # the trapezoidal march must reproduce it to rounding
    b = 0.7
    cfg = SimConfig(Nx=32, Nt=64, T=1.0, snapshot_count=3)
    data = BeamData(PiecewiseProfile.zero(),
                    PiecewiseProfile((), [[0.0, 0.0, 0.0, b]]))
    t = cfg.times()
    u1 = b * t
    u2 = 6.0 * b * t
    result = beam_simulate(data, u1, u2, cfg, (u2[:-1] + u2[1:]) / 2)
    last = result.snapshots[-1]
    exact = b * cfg.T * last.grid ** 3
    assert np.max(np.abs(last.eta - exact)) < 1e-10
    # per-step averages of a linear moment equal the endpoint means
    avg = 6.0 * b * 0.5 * (t[:-1] + t[1:])
    result2 = beam_simulate(data, u1, u2, cfg, u2_avg=avg)
    assert np.max(np.abs(result2.snapshots[-1].eta - exact)) < 1e-10


def test_free_beam_conserves_energy():
    cfg = SimConfig(Nx=128, Nt=1024, T=0.5, snapshot_count=3)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    zeros = np.zeros(cfg.Nt + 1)
    result = beam_simulate(data, zeros, zeros, cfg, np.zeros(cfg.Nt))
    drift = np.max(np.abs(result.energy - result.energy[0])) / result.energy[0]
    assert drift < 1e-10
    # bending energy of sin(pi x) is pi^4 / 4
    assert abs(result.energy[0] - np.pi ** 4 / 4.0) < 0.01


def test_free_beam_eigenmode_second_order():
    # exact standing wave cos(pi^2 t) sin(pi x)
    errors = []
    for lvl in range(3):
        cfg = SimConfig(Nx=32 * 2 ** lvl, Nt=128 * 2 ** lvl, T=0.25,
                        snapshot_count=3)
        data = BeamData(sine_profile(), PiecewiseProfile.zero())
        zeros = np.zeros(cfg.Nt + 1)
        result = beam_simulate(data, zeros, zeros, cfg, np.zeros(cfg.Nt))
        last = result.snapshots[-1]
        exact = np.cos(np.pi ** 2 * last.t) * np.sin(np.pi * last.grid)
        errors.append(np.max(np.abs(last.eta - exact)))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(abs(r - 2.0) < 0.2 for r in rates)


def test_simulate_validates_control_shapes():
    cfg = SimConfig(Nx=32, Nt=64, T=1.0)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    good = np.zeros(cfg.Nt + 1)
    with pytest.raises(ValueError):
        beam_simulate(data, good[:-1], good, cfg, good[1:])
    with pytest.raises(ValueError):
        beam_simulate(data, good, good, cfg, u2_avg=np.zeros(cfg.Nt + 1))


# ------------------------------------------------------------ dual controls

@pytest.fixture(scope="module")
def controls():
    cfg = SimConfig(Nx=32, Nt=250, T=2.0, snapshot_count=3)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    return beam_controls(data, 1.4, 2.0, 1.6, cfg=cfg), cfg


def test_controls_grid_and_shapes(controls):
    ctl, cfg = controls
    assert ctl.u1.shape == (cfg.Nt + 1,)
    assert ctl.u2.shape == (cfg.Nt + 1,)
    assert ctl.u2_avg.shape == (cfg.Nt,)


def test_controls_compatibility_at_start(controls):
    ctl, _ = controls
    # u1(0) = eta0(1) = 0 and u2(0) = eta0''(1) = 0 for the sine datum
    assert ctl.u1[0] == 0.0
    assert abs(ctl.u2[0]) < 1e-6


def test_controls_vanish_at_terminal_time(controls):
    ctl, _ = controls
    assert ctl.u1[-1] == 0.0 and ctl.u2[-1] == 0.0


def test_controls_continuity_at_switch(controls):
    ctl, _ = controls
    assert ctl.diags["continuity_gap"] < 1e-12


def test_controls_phase_split(controls):
    ctl, _ = controls
    tr = ctl.trace
    assert np.all(tr.t[tr.phase == 0] <= 1.4)
    assert np.all(tr.t[tr.phase == 1] > 1.4)
    assert np.any(tr.phase == 0) and np.any(tr.phase == 1)


def test_averaged_moment_consistent_where_smooth(controls):
    # away from the ringing layer at t ~ 0 the step average must agree
    # with the endpoint mean to discretization accuracy
    ctl, cfg = controls
    times = cfg.times()
    t_mid = 0.5 * (times[:-1] + times[1:])
    sel = (t_mid > 1.0) & (t_mid < 1.3)
    mean = 0.5 * (ctl.u2[:-1] + ctl.u2[1:])
    assert np.max(np.abs(ctl.u2_avg[sel] - mean[sel])) < 1e-2
