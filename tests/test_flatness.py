"""Flat-output construction: endpoint jets, series identities, validation.

The two endpoint conditions are contracts, not approximations: the step
factor carries exact ones and zeros at the interval ends, so the assembled
derivatives must reproduce the seed and the terminal rest bit for bit.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroflat import (BeamData, FlatOutput, PiecewiseProfile, beam_controls,
                       control_trace, extend_odd_smooth, flat_coefficients,
                       flat_output_derivatives, lift_initial_data, state_series,
                       synthesize)
from schroflat import flatness, smoothing
from schroflat.cli import builtin_scenarios, sine_profile
from schroflat.flatness import _analytic_derivatives
from schroflat.smoothing import PHASE_FLATNESS, PHASE_SMOOTHING

from oracles import control_at, seed_series, step_function


@pytest.fixture(scope="module")
def fo():
    from schroflat.cli import reference_datum
    return FlatOutput(0.35, flat_coefficients(reference_datum(), 0.35, 15), 0.5, 1.9)


# --------------------------------------------------------------- endpoints

def test_seed_jets_reproduced_exactly_at_start(fo):
    derivs = flat_output_derivatives(fo, fo.tau)[:, 0]
    K = fo.K
    # bit-exact: the step factor contributes an exact (1, 0, 0, ...) there
    assert all(derivs[k] == fo.y[k] for k in range(K + 1))
    assert np.all(derivs[K + 1:] == 0.0)


def test_all_derivatives_vanish_exactly_at_terminal_time(fo):
    derivs = flat_output_derivatives(fo, fo.T)
    assert derivs.shape == (fo.jet_order + 1, 1)
    assert np.all(derivs == 0.0)


def test_control_and_derivative_zero_at_terminal_time(fo):
    u, du, tail = control_at(fo, fo.T)
    assert u == 0.0 and du == 0.0 and tail == 0.0


def test_control_at_start_matches_seed_series(fo):
    u, _, _ = control_at(fo, fo.tau)
    expect = seed_series(fo.y, 1.0)
    assert abs(u - expect) <= 1e-14 * abs(expect)


# ------------------------------------------------------------------ series

def test_state_at_right_edge_is_the_control(fo):
    for t in np.linspace(fo.tau, fo.T, 7):
        u, _, _ = control_at(fo, float(t))
        theta = state_series(fo, float(t), 1.0)
        assert theta == u  # same terms, x-powers exactly one


def test_state_at_left_edge_is_zero(fo):
    for t in np.linspace(fo.tau, fo.T, 5):
        assert state_series(fo, float(t), 0.0) == 0.0


def test_state_series_array_argument(fo):
    t = 0.42
    x = np.array([0.0, 0.3, 0.7, 1.0])
    vals = state_series(fo, t, x)
    assert vals.shape == (4,)
    for xi, v in zip(x, vals):
        assert v == state_series(fo, t, float(xi))


def test_flat_output_factorizes(fo):
    # y(t) = phi(sigma) * ybar(t) with both factors known independently
    for t in (0.37, 0.42, 0.48):
        sigma = (t - fo.tau) / (fo.T - fo.tau)
        phi = step_function(sigma, fo.s)
        ybar = sum(y_j * (t - fo.tau) ** j / math.factorial(j)
                   for j, y_j in enumerate(fo.y))
        y = flat_output_derivatives(fo, t)[0, 0]
        assert abs(y - phi * ybar) <= 1e-14 * abs(y)


def test_first_derivative_matches_difference_quotient(fo):
    t, h = 0.43, 1e-6
    f = lambda u: flat_output_derivatives(fo, u)[0, 0]
    d1 = (f(t + h) - f(t - h)) / (2 * h)
    d2 = (f(t + h / 2) - f(t - h / 2)) / h
    fd = (4 * d2 - d1) / 3
    exact = flat_output_derivatives(fo, t)[1, 0]
    assert abs(fd - exact) <= 1e-7 * abs(exact)


def test_analytic_part_at_start_is_seed(fo):
    ybar = _analytic_derivatives(fo, np.array([fo.tau]), fo.jet_order)
    assert ybar[0, 0] == fo.y[0]


def test_tail_is_last_retained_term(fo):
    t = 0.44
    _, _, tail8 = control_at(replace(fo, K_u=8), t)
    derivs = flat_output_derivatives(fo, t)[:, 0]
    expect = abs(derivs[8] / math.factorial(17))
    assert abs(tail8 - expect) <= 1e-15 * expect


def test_truncation_refinement_changes_by_tail(fo):
    t = 0.44
    u8, _, _ = control_at(replace(fo, K_u=8), t)
    u9, _, tail9 = control_at(replace(fo, K_u=9), t)
    assert abs(u9 - u8) == pytest.approx(tail9, rel=1e-12)


def test_control_trace_sampling(fo):
    ts = np.linspace(fo.tau + 0.01, fo.T, 6)
    fo10 = replace(fo, K_u=10)
    trace = control_trace(fo10, ts)
    assert np.all(trace.phase == PHASE_FLATNESS)
    u, du, tail = control_at(fo10, float(ts[2]))
    assert trace.u[2] == u and trace.du[2] == du and trace.err[2] == tail


@settings(deadline=None, max_examples=20, derandomize=True)
@given(frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_derivatives_finite_across_interval(fo, frac):
    t = fo.tau + frac * (fo.T - fo.tau)
    derivs = flat_output_derivatives(fo, t)
    assert np.all(np.isfinite(derivs))


def test_derivatives_batch_columns_match_single_samples(fo):
    ts = np.linspace(fo.tau, fo.T, 9)
    batch = flat_output_derivatives(fo, ts)
    assert batch.shape == (fo.jet_order + 1, ts.size)
    for i, t in enumerate(ts):
        assert np.array_equal(batch[:, i], flat_output_derivatives(fo, float(t))[:, 0])


def test_derivatives_truncation_is_exact(fo):
    # row m of the Leibniz sum is the same however many rows are built: the
    # series stop at K_u + 1, below the default jet order
    ts = np.linspace(fo.tau, fo.T, 9)
    full = flat_output_derivatives(fo, ts)
    assert full.shape == (fo.jet_order + 1, ts.size)
    for m in (0, 1, 5, fo.K, fo.K_u + 1):
        assert full[: m + 1].tobytes() == flat_output_derivatives(fo, ts, m).tobytes(), m


# -------------------------------------------------------------- validation

def _seed(K=3):
    y = np.zeros(K + 1, dtype=np.complex128)
    y[0] = 1.0
    return y


def test_flat_output_validation():
    with pytest.raises(ValueError, match="tau < T"):
        FlatOutput(0.6, _seed(), 0.5, 1.9)
    with pytest.raises(ValueError, match="2T/3"):
        FlatOutput(0.3, _seed(), 0.5, 1.9)
    # the Gevrey order follows gevrey.check_order, named by its setting
    with pytest.raises(ValueError, match=r"^s: Gevrey order s=2.3 must lie in \(1, 2\)$"):
        FlatOutput(0.35, _seed(), 0.5, 2.3)
    with pytest.raises(ValueError, match=r"^s: both exponentials"):
        FlatOutput(0.35, _seed(), 0.5, 1.105)
    with pytest.raises(ValueError, match=r"^K: need 0 <= K <= 30, got 31$"):
        FlatOutput(0.35, _seed(31), 0.5, 1.9)


@pytest.mark.parametrize("K_u", [0, 1, 8, 34])
def test_truncation_sets_the_jet_order(K_u):
    fo = FlatOutput(0.35, _seed(), 0.5, 1.9, K_u)
    assert fo.jet_order == K_u + 6
    assert flat_output_derivatives(fo, 0.4).shape[0] == K_u + 7
    u, du, tail = control_at(fo, 0.4)
    assert np.isfinite(u) and np.isfinite(du) and tail > 0.0


@pytest.mark.parametrize("K_u", [-1, 35, 7.5, 8.0, True])
def test_truncation_out_of_range(K_u):
    with pytest.raises(ValueError, match="^K_u: need "):
        FlatOutput(0.35, _seed(), 0.5, 1.9, K_u)


def test_settings_take_numpy_integers():
    assert flatness.check_settings(1.4, 2.0, 1.6, np.int64(15), np.int32(0)) is None
    assert FlatOutput(0.35, _seed(), 0.5, 1.9, np.int16(8)).jet_order == 14


def test_time_domain_enforced(fo):
    with pytest.raises(ValueError):
        flat_output_derivatives(fo, fo.tau - 1e-9)
    with pytest.raises(ValueError):
        control_at(fo, fo.T + 1e-9)


# --------------------------------------------------------------- synthesis

def _check_trace_and_diags(trace, times, tau, diags):
    # the trace holds the grid times after 0 and nothing else; each phase's
    # diagnostic is the largest error of its own returned samples
    np.testing.assert_array_equal(trace.t, times[1:])
    np.testing.assert_array_equal(trace.phase, np.where(trace.t <= tau, PHASE_SMOOTHING,
                                                        PHASE_FLATNESS))
    assert diags["quad_err_max"] == np.max(trace.err[trace.phase == PHASE_SMOOTHING])
    assert diags["tail_max"] == np.max(trace.err[trace.phase == PHASE_FLATNESS])


@pytest.mark.parametrize("equation", ["schrodinger", "beam"])
def test_switch_sample_on_the_grid_is_the_gap_sample(equation, pulse):
    # tau = 1.5 is a grid time of 81 points on [0, 2]: the trace keeps it
    # once, in phase 1, and the gap and its budget come from that very
    # sample and the series at tau
    times = np.linspace(0.0, 2.0, 81)
    tau = 1.5
    assert np.count_nonzero(times == tau) == 1
    if equation == "beam":
        data = BeamData(sine_profile(), PiecewiseProfile.zero())
        v0 = extend_odd_smooth(lift_initial_data(data))
        settings = dict(derivative=True, abs_tol=1e-8)
    else:
        v0, settings = pulse, {}
    trace, fo, diags = synthesize(v0, times, tau, 2.0, 1.6, 10, 10, **settings)
    _check_trace_and_diags(trace, times, tau, diags)
    (at,) = np.flatnonzero(trace.t == tau)
    plus = control_trace(fo, [tau])
    assert diags["continuity_gap"] == abs(plus.u[0] - trace.u[at])
    assert diags["gap_budget"] == plus.err[0] + trace.err[at]
    assert diags["continuity_gap"] <= 10.0 * diags["gap_budget"]


def test_switch_sample_off_the_grid_stays_out_of_the_trace():
    # gentle's grid has no point at tau = 1.4 (the nearest lies just above
    # it): tau is sampled in both batches but returned in neither
    sc = builtin_scenarios()["gentle"]
    times = sc.sim.times()
    assert sc.tau not in times
    trace, fo, diags = synthesize(sc.theta0, times, sc.tau, sc.T, sc.s, sc.K, sc.K_u)
    _check_trace_and_diags(trace, times, sc.tau, diags)
    assert diags["gap_budget"] > control_trace(fo, [sc.tau]).err[0]
    assert diags["continuity_gap"] <= 10.0 * diags["gap_budget"]


def test_gevrey_order_rejected_before_phase1(monkeypatch):
    # s = 1.1 breaks the Gevrey rule (s >= 1.105614...): synthesize and the
    # beam's extension reject it before any phase-1 integral
    def phase1(*args, **kwargs):
        raise AssertionError("phase 1 ran")

    monkeypatch.setattr(flatness, "boundary_trace", phase1)
    sc = builtin_scenarios()["gentle"]
    with pytest.raises(ValueError, match="s=1.1;"):
        synthesize(sc.theta0, sc.sim.times(), 1.4, 2.0, 1.1, 15, 15)
    beam = builtin_scenarios()["beam"]
    data = BeamData(beam.eta0, beam.eta1)
    with pytest.raises(ValueError, match="s=1.1;"):
        extend_odd_smooth(lift_initial_data(data), cutoff_s=1.1)
    with pytest.raises(ValueError, match="s=1.1;"):
        beam_controls(data, beam.tau, beam.T, beam.s, cfg=beam.sim, cutoff_s=1.1)


@pytest.mark.parametrize("field, tau, K, K_u", [
    ("tau", 2.0, 15, 15),             # tau >= T
    ("tau", 2.5, 15, 15),
    ("tau", 4.0 / 3.0, 15, 15),       # tau <= 2T/3
    ("tau", 1.0, 15, 15),
    ("K", 1.4, 31, 15),
    ("K_u", 1.4, 15, 35),
    # a truncation is an integer, not a float or a bool, whatever its value
    ("K", 1.4, 2.5, 15),
    ("K", 1.4, 15.0, 15),
    ("K", 1.4, True, 15),
    ("K_u", 1.4, 15, 7.5),
    ("K_u", 1.4, 15, True),
])
def test_settings_rejected_before_any_convolution(monkeypatch, field, tau, K, K_u):
    # synthesize and beam_controls check tau, K and K_u (at T = 2) before
    # any integral of phase 1 or of the seed, naming the setting
    def convolutions(*args, **kwargs):
        raise AssertionError("a convolution ran")

    monkeypatch.setattr(smoothing, "_convolutions", convolutions)
    sc = builtin_scenarios()["gentle"]
    with pytest.raises(ValueError, match=rf"^{field}: need "):
        synthesize(sc.theta0, sc.sim.times(), tau, 2.0, 1.6, K, K_u)
    beam = builtin_scenarios()["beam"]
    with pytest.raises(ValueError, match=rf"^{field}: need "):
        beam_controls(BeamData(beam.eta0, beam.eta1), tau, 2.0, 1.6, K, K_u, cfg=beam.sim)
