"""The batched synthesis against its per-sample oracles (tests/oracles.py).

Phase 1 runs every time sample through one adaptive Gauss-Kronrod loop;
each sample must be subdivided exactly as when integrated alone, so the
panel counts agree sample by sample and the values agree to rounding (a
batch's panel sums go through matrix products of other row counts).
The flat-output seed integrates its K+1 orders as the samples of one such
loop; each order must agree with its own adaptive integral to 1e-14
relative (rounding of the same panel sums).
Phase 2 evaluates the jet recurrences, the Leibniz rule and the series over
a time axis; the values agree to rounding of the series' L1 mass, since the
vectorized complex products may fuse multiply-adds the scalar ones do not.
"""
import numpy as np
import pytest

from schroflat import FlatOutput, boundary_trace, control_trace, flat_coefficients
from schroflat.beam import BeamData, extend_odd_smooth, lift_initial_data
from schroflat.cli import builtin_scenarios
from schroflat.smoothing import MAX_SEED_ORDER, _convolutions

from oracles import (boundary_trace_per_sample, control_series_one,
                     flat_coefficients_per_order)


def _phase1_setting(name):
    """(datum, times, settings, orders) of a builtin scenario's phase 1."""
    sc = builtin_scenarios()[name]
    times = sc.sim.times()
    t1 = times[(times > 0) & (times <= sc.tau)]
    if name == "beam":
        ext = extend_odd_smooth(lift_initial_data(BeamData(sc.eta0, sc.eta1)),
                                sc.cutoff_s)
        # every 4th sample keeps the per-sample oracle fast
        return ext, t1[::4], dict(abs_tol=1e-8), (0, 2)
    return sc.theta0, t1, {}, (0,)


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_phase1_batch_matches_per_sample_loop(name):
    v0, times, settings, orders = _phase1_setting(name)
    derivative = orders == (0, 2)
    u, du, err, panels = boundary_trace_per_sample(
        v0, times, support=v0.support, breakpoints=v0.breakpoints,
        derivative=derivative, **settings)
    trace = boundary_trace(v0, times, derivative=derivative, **settings)
    assert np.all(np.abs(trace.u - u) <= 1e-14 * np.abs(u))
    assert np.all(np.abs(trace.du - du) <= 1e-14 * np.abs(du))
    assert np.all(np.abs(trace.err - err) <= 1e-6 * err + 1e-8 * np.abs(u))
    # the orders are interleaved samples of the trace's one batch
    _, _, used = _convolutions(v0, times, 1.0, orders, **settings)
    used = used.reshape(times.size, len(orders))
    for row, m in enumerate(orders):
        assert np.array_equal(used[:, row], panels[row]), f"subdivision differs (m={m})"


@pytest.mark.parametrize("K", [15, MAX_SEED_ORDER])
@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_seed_batch_matches_per_order_integrals(name, K):
    v0, _, _, _ = _phase1_setting(name)
    tau = builtin_scenarios()[name].tau
    y = flat_coefficients(v0, tau, K)
    expect = flat_coefficients_per_order(v0, tau, K)
    assert np.all(np.abs(y - expect) <= 1e-14 * np.abs(expect))


def _flat_output(name):
    sc = builtin_scenarios()[name]
    fo = FlatOutput(sc.tau, flat_coefficients(sc.theta0, sc.tau, sc.K), sc.T, sc.s, sc.K_u)
    times = sc.sim.times()
    return fo, np.concatenate([[sc.tau], times[times > sc.tau]])


@pytest.mark.parametrize("name", ["gentle", "reference"])
def test_phase2_batch_matches_per_sample_series(name):
    fo, times = _flat_output(name)
    trace = control_trace(fo, times)
    for i, t in enumerate(times):
        u, du, tail, terms, dterms = control_series_one(fo, float(t))
        assert abs(trace.u[i] - u) <= 1e-14 * np.sum(np.abs(terms))
        assert abs(trace.du[i] - du) <= 1e-14 * np.sum(np.abs(dterms))
        assert abs(trace.err[i] - tail) <= 1e-13 * tail
    # the endpoint samples are exact in both
    assert trace.u[-1] == 0.0 and trace.du[-1] == 0.0 and trace.err[-1] == 0.0
