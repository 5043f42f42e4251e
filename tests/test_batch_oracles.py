"""The batched synthesis against its per-sample oracles (tests/oracles.py).

Phase 1 runs its time samples through adaptive Gauss-Kronrod loops, from
the panel edges its latest time converges on; in the batch of every grid
time (boundary_trace_every_time) each sample must be subdivided exactly as
when integrated alone from those starting edges, so the panel counts agree
sample by sample and the values agree to rounding (a batch's panel sums go
through matrix products of other row counts).  The trace itself integrates
only the points of Chebyshev interpolants and the grid times too early to
interpolate: each of its samples agrees with the batch of every grid time
within the sum of both error estimates and within 1e-12 of the trace's
largest value.  Against the per-sample oracle started from the datum's own
breakpoints, which subdivides otherwise on the beam, each sample agrees
within the sum of both error estimates.
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
from schroflat.cli import SimConfig, builtin_scenarios
from schroflat.smoothing import MAX_SEED_ORDER, _convolutions, _trace_edges

from oracles import (boundary_trace_every_time, boundary_trace_per_sample, control_series_one,
                     convolution_one, flat_coefficients_per_order)


def _phase1_setting(name, every=4):
    """(datum, times, settings, curvature) of a builtin scenario's phase 1;
    curvature says whether the trace also integrates the datum's second
    derivative, as on the beam, where only every `every`-th time is
    kept."""
    sc = builtin_scenarios()[name]
    times = sc.sim.times()
    t1 = times[(times > 0) & (times <= sc.tau)]
    if name == "beam":
        ext = extend_odd_smooth(lift_initial_data(BeamData(sc.eta0, sc.eta1)),
                                sc.cutoff_s)
        # every 4th sample keeps the per-sample oracle fast
        return ext, t1[::every], dict(abs_tol=1e-8), True
    return sc.theta0, t1, {}, False


def _run_phase1_setting(name):
    """(datum, times, settings, curvature) of a phase 1 as a run poses it:
    the grid times before tau, then tau.  beam-32k is the builtin beam on
    the time grid of Nt = 32,000 steps."""
    if name == "beam-32k":
        v0, _, settings, curvature = _phase1_setting("beam")
        sc = builtin_scenarios()["beam"]
        times = SimConfig(Nx=16, Nt=32_000, T=sc.T, snapshot_count=3).times()
    else:
        v0, _, settings, curvature = _phase1_setting(name, every=1)
        sc = builtin_scenarios()[name]
        times = sc.sim.times()
    return v0, np.append(times[(times > 0) & (times < sc.tau)], sc.tau), settings, curvature


def _starting_edges(v0, times, settings, curvature):
    """The trace's starting panel edges, on the quadrature's unit interval."""
    return _trace_edges(v0, times, settings.get("abs_tol", 1e-10), curvature)


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_phase1_batch_matches_per_sample_loop(name):
    v0, times, settings, derivative = _phase1_setting(name)
    edges = _starting_edges(v0, times, settings, derivative)
    u, du, err, panels = boundary_trace_per_sample(
        v0, times, support=v0.support, breakpoints=tuple(v0.support * edges),
        derivative=derivative, **settings)
    trace = boundary_trace_every_time(v0, times, derivative=derivative, **settings)
    assert np.all(np.abs(trace.u - u) <= 1e-14 * np.abs(u))
    assert np.all(np.abs(trace.du - du) <= 1e-14 * np.abs(du))
    assert np.all(np.abs(trace.err - err) <= 1e-6 * err + 1e-8 * np.abs(u))
    # the data are interleaved samples of the trace's one batch
    _, _, used, _ = _convolutions(v0, times, 1.0, (0,), edges=edges,
                                  curvature=derivative, **settings)
    used = used.reshape(times.size, 1 + derivative)
    for row in range(1 + derivative):
        assert np.array_equal(used[:, row], panels[row]), f"subdivision differs (datum {row})"


def test_phase1_trace_agrees_with_the_oracle_from_the_breakpoints():
    # the beam's samples start from the latest time's mesh, not from the
    # datum's breakpoints as the oracle does: they subdivide otherwise, and
    # each agrees with the oracle within the sum of both error estimates.
    # v_xx also agrees with the order-2 integral against the datum itself
    # within the sum of the error estimates of u, v_xx and that integral
    v0, times, settings, _ = _phase1_setting("beam")
    u, du, err, _ = boundary_trace_per_sample(
        v0, times, support=v0.support, breakpoints=v0.breakpoints, **settings)
    trace = boundary_trace(v0, times, **settings)
    assert np.all(np.abs(trace.u - u) <= trace.err + err)
    assert np.all(np.abs(trace.du - du) <= trace.err + err)
    for t, du_t, err_t in zip(times, trace.du, trace.err):
        v2, err2, _ = convolution_one(v0, t, 1.0, 2, v0.support, v0.breakpoints, **settings)
        assert abs(du_t - 1j * v2) <= err_t + err2, t


@pytest.mark.parametrize("name", ["gentle", "reference"])
def test_phase1_trace_from_the_datum_breakpoints_where_the_latest_time_keeps_them(name):
    # the latest time accepts the datum's own panels ({0} and
    # {0, 0.2, 0.5, 0.7}), so the batch is the one the breakpoints start
    v0, times, settings, curvature = _phase1_setting(name)
    assert np.array_equal(_starting_edges(v0, times, settings, curvature), v0.breakpoints)
    values, errs, _, _ = _convolutions(v0, times, 1.0, (0,), **settings)
    trace = boundary_trace_every_time(v0, times, derivative=False, **settings)
    assert np.array_equal(trace.u, values) and np.array_equal(trace.err, errs)


@pytest.mark.parametrize("name", ["gentle", "reference", "beam", "beam-32k"])
def test_phase1_interpolated_trace_agrees_with_every_time_integrated(name):
    # the interpolants move each sample within the sum of both error
    # estimates, and within 1e-12 of the largest |u| (and of the largest
    # |v_xx|, on the beam); tau is an interpolant's point in both, so its
    # sample is a quadrature sample of its own
    v0, times, settings, derivative = _run_phase1_setting(name)
    trace = boundary_trace(v0, times, derivative=derivative, **settings)
    every = boundary_trace_every_time(v0, times, derivative=derivative, **settings)
    assert np.array_equal(trace.t, every.t)
    assert np.all(np.abs(trace.u - every.u) <= trace.err + every.err)
    assert np.max(np.abs(trace.u - every.u)) <= 1e-12 * np.max(np.abs(every.u))
    assert np.all(np.abs(trace.du - every.du) <= trace.err + every.err)
    assert np.max(np.abs(trace.du - every.du)) <= 1e-12 * np.max(np.abs(every.du))


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_phase1_starting_edges_keep_the_datum_breakpoints(name):
    # accepted panels tile the unit interval from the breakpoints, so no
    # starting panel straddles a discontinuity of the datum
    v0, times, settings, curvature = _phase1_setting(name)
    edges = _starting_edges(v0, times, settings, curvature)
    bps = [b / v0.support for b in v0.breakpoints if 0.0 < b / v0.support < 1.0]
    assert np.all(np.isin(bps, edges))
    assert np.all((edges > 0.0) & (edges < 1.0)) and np.all(np.diff(edges) > 0)


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
