"""The batched synthesis against its per-sample oracles (tests/oracles.py).

Phase 1 runs its time samples through adaptive Gauss-Kronrod loops, from
the datum's breakpoints; in the batch of every grid time
(boundary_trace_every_time) each sample must be subdivided exactly as when
integrated alone, so the panel counts agree sample by sample, for the datum
and for its second derivative alike, and the values agree to rounding (a
batch's panel sums go through matrix products of other row counts).  The
trace itself integrates only the points of Chebyshev interpolants and the
grid times too early to interpolate: each of its samples agrees with the
batch of every grid time within the sum of both error estimates, within
1e-12 of the trace's largest value of that batch started from a finer
mesh, and with the per-sample oracle within the sum of both error
estimates.
The flat-output seed integrates its K+1 orders as the samples of one such
loop; each order must agree with its own adaptive integral to 1e-14
relative (rounding of the same panel sums).
Phase 2 evaluates the jet recurrences, the Leibniz rule and the series over
a time axis; the values agree to rounding of the series' L1 mass, since the
vectorized complex products may fuse multiply-adds the scalar ones do not.
"""
import numpy as np
import pytest

from schroflat import FlatOutput, boundary_trace, control_trace, flat_coefficients, smoothing
from schroflat.beam import BeamData, extend_odd_smooth, lift_initial_data
from schroflat.cli import SimConfig, builtin_scenarios
from schroflat.quadrature import NODES, integrate_batch
from schroflat.smoothing import MAX_SEED_ORDER, _convolutions

from oracles import (RestartedDatum, boundary_trace_every_time, boundary_trace_per_sample,
                     control_series_one, convolution_one, flat_coefficients_per_order)


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


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_phase1_batch_matches_per_sample_loop(name):
    # on the beam, g and g'' each start from the datum's breakpoints: the
    # panels one of them needs do not set where the other starts
    v0, times, settings, derivative = _phase1_setting(name)
    u, du, err, panels = boundary_trace_per_sample(
        v0, times, support=v0.support, breakpoints=v0.breakpoints,
        derivative=derivative, **settings)
    trace = boundary_trace_every_time(v0, times, derivative=derivative, **settings)
    assert np.all(np.abs(trace.u - u) <= 1e-14 * np.abs(u))
    assert np.all(np.abs(trace.du - du) <= 1e-14 * np.abs(du))
    assert np.all(np.abs(trace.err - err) <= 1e-6 * err + 1e-8 * np.abs(u))
    # the data are interleaved samples of the trace's one batch
    _, _, used = _convolutions(v0, times, 1.0, (0,), curvature=derivative, **settings)
    used = used.reshape(times.size, 1 + derivative)
    for row in range(1 + derivative):
        assert np.array_equal(used[:, row], panels[row]), f"subdivision differs (datum {row})"


def test_phase1_trace_agrees_with_the_oracle_from_the_breakpoints():
    # the trace interpolates most samples, and each agrees with the
    # per-sample oracle within the sum of both error estimates.
    # v_xx also agrees with the order-2 integral against the datum itself
    # within the sum of the error estimates of u, v_xx and that integral
    v0, times, settings, _ = _phase1_setting("beam")
    u, du, err, _ = boundary_trace_per_sample(
        v0, times, support=v0.support, breakpoints=v0.breakpoints, **settings)
    trace, _ = boundary_trace(v0, times, **settings)
    assert np.all(np.abs(trace.u - u) <= trace.err + err)
    assert np.all(np.abs(trace.du - du) <= trace.err + err)
    for t, du_t, err_t in zip(times, trace.du, trace.err):
        v2, err2, _ = convolution_one(v0, t, 1.0, 2, v0.support, v0.breakpoints, **settings)
        assert abs(du_t - 1j * v2) <= err_t + err2, t


@pytest.mark.parametrize("name", ["gentle", "reference", "beam", "beam-32k"])
def test_phase1_interpolated_trace_agrees_with_every_time_integrated(name):
    # the interpolants move each sample within the sum of both error
    # estimates, and within 1e-12 of the largest |u| (and of the largest
    # |v_xx|, on the beam) of every time integrated from eighths of the
    # support or narrower panels.  That reference's own error stays below
    # the bound; from the datum's breakpoints the beam's sample at
    # t = 0.307 accepts two panels with an error of 5.7e-10, 1e-9 of the
    # largest |u|, within its estimate of 1.6e-9 and the beam's abs_tol
    v0, times, settings, derivative = _run_phase1_setting(name)
    trace, _ = boundary_trace(v0, times, derivative=derivative, **settings)
    every = boundary_trace_every_time(v0, times, derivative=derivative, **settings)
    eighths = v0.support * np.arange(1, 8) / 8
    fine = boundary_trace_every_time(
        RestartedDatum(v0, np.union1d(v0.breakpoints, eighths)), times,
        derivative=derivative, **settings)
    assert np.array_equal(trace.t, every.t)
    assert np.all(np.abs(trace.u - every.u) <= trace.err + every.err)
    assert np.max(np.abs(trace.u - fine.u)) <= 1e-12 * np.max(np.abs(fine.u))
    assert np.all(np.abs(trace.du - every.du) <= trace.err + every.err)
    assert np.max(np.abs(trace.du - fine.du)) <= 1e-12 * np.max(np.abs(fine.du))


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_phase1_starting_edges_keep_the_datum_breakpoints(monkeypatch, name):
    # every trace batch starts from the datum's breakpoints, rescaled to the
    # unit interval, so no panel of any generation straddles a
    # discontinuity of the datum, and each breakpoint is a panel's left
    # edge in the first generation.  A panel's ends are read back from its
    # row of the node table: its middle node (NODES[10] = 0) and its outer
    # ones
    v0, times, settings, curvature = _phase1_setting(name)
    tables = []

    def recorded(integrand, *args):
        def staged(nodes):
            tables.append(nodes)
            return integrand(nodes)

        return integrate_batch(staged, *args)

    monkeypatch.setattr(smoothing, "integrate_batch", recorded)
    boundary_trace(v0, times, derivative=curvature, **settings)
    bps = np.array([b / v0.support for b in v0.breakpoints if 0.0 < b / v0.support < 1.0])
    assert len(tables) > 1
    for i, nodes in enumerate(tables):
        mid = nodes[:, NODES.size // 2]
        half = (nodes[:, -1] - mid) / NODES[-1]
        lo, hi = mid - half, mid + half
        assert not np.any((lo[:, None] + 1e-12 < bps) & (bps < hi[:, None] - 1e-12))
        if i == 0:
            assert np.all(np.min(np.abs(lo[:, None] - bps), axis=0) <= 1e-12)


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
