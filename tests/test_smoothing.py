"""Profiles, pre-smoothing convolution traces, and flat-output seeds.

Frozen constants are 50-digit reference evaluations of the folded-kernel
convolutions for the discontinuous two-indicator datum.
"""
import numpy as np
import pytest

from schroflat import (ControlTrace, FlatOutput, PiecewiseProfile, QuadratureError,
                       boundary_trace, flat_coefficients, free_evolution)
from schroflat import kernel, quadrature, smoothing
from schroflat.beam import BeamData, beam_controls, extend_odd_smooth, lift_initial_data
from schroflat.cli import (builtin_scenarios, main, pulse_datum, reference_datum,
                           synthesize_control)
from schroflat.kernel import derivative_coefficients
from schroflat.quadrature import NODES, integrate_batch
from schroflat.smoothing import PHASE_SMOOTHING, _convolutions, _trace_edges

from conftest import assert_close
from oracles import CurvatureDatum, convolution_one, odd_kernel, seed_series

I_TRACE = {
    0.1: -0.013427952255356212345 + 0.13368495946283665694j,
    0.35: 0.42049532106195714314 - 0.34687744612258828529j,
}

SEEDS = {
    0: 0.084718471664243704011 - 0.64743103385902187851j,
    3: -179.39092398406432835 + 178.1219791684447501j,
    8: 746957564.27352687652 + 87751512.122179958058j,
    15: -36569300474876035314.0 - 80914659822311205523.0j,
}

BOUND_CONSTANT = 0.6529503526646473


# ---------------------------------------------------------------- profiles

def test_profile_piecewise_values(ref_datum):
    assert ref_datum(0.1) == 0.0
    assert ref_datum(0.3) == 1j
    assert ref_datum(0.6) == 1.0 + 1j
    assert ref_datum(0.9) == 1.0


def test_profile_breakpoint_midpoint(ref_datum):
    # interior jumps evaluate to the mean of one-sided limits
    assert ref_datum(0.5) == 0.5 + 1j
    assert ref_datum(0.2) == 0.5j
    assert ref_datum(0.7) == 1.0 + 0.5j


def test_profile_outside_domain_is_zero(ref_datum):
    assert ref_datum(-0.5) == 0.0
    assert ref_datum(1.5) == 0.0
    vals = ref_datum(np.array([-1.0, 0.9, 2.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] == 1.0


def test_profile_l2_norm_closed_form(ref_datum):
    # |theta0|^2 is 0, 1, 2, 1 on the four pieces: integral exactly 1
    assert abs(ref_datum.l2_norm() - 1.0) < 1e-15
    x_profile = PiecewiseProfile((), [[0.0, 1.0]])
    assert abs(x_profile.l2_norm() - 1.0 / np.sqrt(3.0)) < 1e-15
    assert PiecewiseProfile.zero().l2_norm() == 0.0


def test_profile_from_callable_interpolates():
    f = lambda x: np.sin(np.pi * x) + 0j
    prof = PiecewiseProfile.from_callable(f, n_pieces=16, degree=3)
    # contract: exact at every piece edge, small in between
    for edge in prof.edges:
        assert abs(prof(float(edge)) - f(edge)) < 1e-12
    xs = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(prof(xs) - f(xs))) < 1e-4


def test_profile_from_callable_single_piece_high_degree(sine):
    xs = np.linspace(0.0, 1.0, 501)
    assert np.max(np.abs(sine(xs) - np.sin(np.pi * xs))) < 1e-12


def _mixed_profile():
    """Pieces of sizes 3, 1 and 2, the middle one a signed zero."""
    return PiecewiseProfile((0.3, 0.6), [[1 + 2j, -0.5j, 3.0], [complex(-0.0, -0.0)],
                                         [2.0, -1.0 + 0.5j]])


_PROFILES = {"reference": reference_datum, "pulse": pulse_datum, "mixed": _mixed_profile}


def _bits(values):
    """The bit patterns of complex values, sign bits included."""
    return np.atleast_1d(np.asarray(values, dtype=np.complex128)).view(np.uint64)


def _panel_rows(edges):
    """Gauss-Kronrod node rows strictly inside each piece: six panels per
    piece and two of width 1e-9 against its edges."""
    panels = []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(a, b, 7)
        panels += [(a, a + 1e-9), *zip(cuts[:-1], cuts[1:]), (b - 1e-9, b)]
    lo, hi = np.array(panels).T
    return 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * NODES


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_profile_rows_match_the_per_element_path(name):
    # rows strictly inside one piece take the row path; every other row
    # sends the whole array per element; either way each node has the bits
    # of the per-element path
    profile = _PROFILES[name]()
    inside = _panel_rows(profile.edges)
    line = np.linspace(-0.01, 0.01, NODES.size)
    # rows ending on each edge: 0, the breakpoints and 1
    touching = np.array([np.linspace(max(e - 0.05, 0.0), max(e, 0.05), NODES.size)
                         for e in profile.edges])
    crossing = np.array([b + line for b in profile.breakpoints] or [0.5 + line])
    outside = np.array([line, 1.0 + line, 1.5 + line])
    for rows in (inside, touching, crossing, outside, np.vstack([inside, crossing])):
        per_element = profile(rows.ravel()).reshape(rows.shape)
        assert np.array_equal(_bits(profile(rows)), _bits(per_element))
    by_rows = profile(inside)
    for i in (0, inside.shape[0] // 2, -1):
        assert np.array_equal(_bits(profile(inside[i])), _bits(by_rows[i]))
        assert np.array_equal(_bits(profile(float(inside[i, 3]))), _bits(by_rows[i, 3]))


def test_profile_rows_take_one_horner_pass_per_piece_size(monkeypatch):
    # the row path runs one Horner pass per distinct piece size, the
    # per-element path one per piece
    passes = []

    def counted(coeffs, x):
        passes.append(x.shape[0])
        return kernel.horner(coeffs, x)

    monkeypatch.setattr(smoothing, "horner", counted)
    for profile, n_sizes in ((reference_datum(), 1), (_mixed_profile(), 3)):
        rows = _panel_rows(profile.edges)
        passes.clear()
        profile(rows)
        assert len(passes) == n_sizes and sum(passes) == rows.shape[0]
        passes.clear()
        profile(rows.ravel())
        assert len(passes) == len(profile.pieces)


@pytest.mark.parametrize("bps,pieces", [
    ((0.5, 0.4), [[1.0], [2.0], [3.0]]),   # not increasing
    ((1.2,), [[1.0], [2.0]]),              # outside (0,1)
    ((0.5,), [[1.0]]),                     # piece count mismatch
    ((), [[np.nan]]),                      # non-finite coefficient
])
def test_profile_validation(bps, pieces):
    with pytest.raises(ValueError):
        PiecewiseProfile(bps, pieces)


# ---------------------------------------------------------- boundary trace

def test_boundary_trace_frozen_values(ref_datum):
    times = np.array(sorted(I_TRACE))
    trace = boundary_trace(ref_datum, times, derivative=False)
    for t, u in zip(trace.t, trace.u):
        assert_close(u, I_TRACE[float(t)], rel=1e-8)
        assert trace.err[list(trace.t).index(t)] < 1e-7
    assert np.all(trace.phase == PHASE_SMOOTHING)
    assert np.all(trace.du == 0.0)


def test_boundary_trace_with_derivative(ref_datum):
    # du = i * v_xx(t,1): the datum is piecewise constant, so its second
    # derivative vanishes and the jump terms carry the whole of v_xx; they
    # agree with the order-2 integral of the datum itself
    trace = boundary_trace(ref_datum, np.array([0.35]))
    v2, err2, _ = convolution_one(ref_datum, 0.35, 1.0, 2,
                                  breakpoints=ref_datum.breakpoints)
    assert abs(trace.du[0] - 1j * v2) <= trace.err[0] + err2 + 1e-14 * abs(v2)
    assert abs(v2) > 0.1


@pytest.mark.parametrize("t", [0.05, 0.35])
def test_convolution_integrates_over_the_datum_breakpoints(ref_datum, t):
    # the datum carries its jumps, so every entry point splits the
    # quadrature at them and the three values agree bit for bit
    (value,), _, _, _ = _convolutions(ref_datum, t, 1.0, (0,))
    assert value == free_evolution(ref_datum, t, 1.0)
    assert value == boundary_trace(ref_datum, np.array([t]), derivative=False).u[0]


def test_free_evolution_matches_trace(ref_datum):
    val = free_evolution(ref_datum, 0.35, 1.0)
    assert_close(val, I_TRACE[0.35], rel=1e-8)


def test_free_evolution_array_matches_pointwise(ref_datum):
    # one batched quadrature over a grid equals per-point calls
    x = np.linspace(0.0, 1.0, 41)
    batch = free_evolution(ref_datum, 0.35, x)
    assert batch.shape == x.shape
    pointwise = np.array([free_evolution(ref_datum, 0.35, float(xi)) for xi in x])
    assert batch[0] == 0.0  # the odd extension vanishes at the wall
    assert np.all(np.abs(batch - pointwise) <= 1e-14 * np.abs(pointwise))


def _panel_budget(monkeypatch, panels):
    """Run smoothing's quadrature with a budget of panels per sample."""
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", panels)


def test_trace_budget_failure_names_sample_time(monkeypatch, ref_datum):
    # small times need many panels: with a tight budget the earliest sample
    # fails, and the error says when and carries that sample's best value
    _panel_budget(monkeypatch, 40)
    times = np.array([0.001, 0.2, 0.35])
    with pytest.raises(QuadratureError, match=r"t=0\.001") as exc:
        boundary_trace(ref_datum, times, derivative=False)
    assert exc.value.sample == 0
    with pytest.raises(QuadratureError) as alone:
        boundary_trace(ref_datum, times[:1], derivative=False)
    assert exc.value.value == alone.value.value
    # the other samples fit the budget on their own
    boundary_trace(ref_datum, times[1:], derivative=False)


def test_derivative_trace_budget_failure_names_sample_time(monkeypatch, ref_datum):
    # the beam's trace interleaves u and v_xx in one batch; the error still
    # names the failing time by its index in t_grid, not by 2j + i
    _panel_budget(monkeypatch, 40)
    times = np.array([0.001, 0.2, 0.35])
    with pytest.raises(QuadratureError, match=r"t=0\.001") as exc:
        boundary_trace(ref_datum, times, derivative=True)
    assert exc.value.sample == 0
    with pytest.raises(QuadratureError) as alone:
        boundary_trace(ref_datum, times[:1], derivative=True)
    assert exc.value.value == alone.value.value
    boundary_trace(ref_datum, times[1:], derivative=True)


def test_trace_at_small_time_fits_the_panel_budget():
    # at t=1e-5 the kernel turns through about 1/(4t) radians over the
    # support: the one sample takes 25,007 panels, more than 2**14 and
    # within the quadrature's one budget of 2**16
    (value,), (err,), (panels,), _ = _convolutions(pulse_datum(), 1e-5, 1.0, (0,))
    assert panels == 25007
    trace = boundary_trace(pulse_datum(), [1e-5], derivative=False)
    assert trace.u[0] == value and trace.err[0] == err
    assert err <= 1e-10


@pytest.fixture(scope="module")
def beam_phase1():
    """(datum, times, settings) of the builtin beam's phase-1 trace."""
    sc = builtin_scenarios()["beam"]
    ext = extend_odd_smooth(lift_initial_data(BeamData(sc.eta0, sc.eta1)), sc.cutoff_s)
    times = sc.sim.times()
    return ext, times[(times > 0) & (times <= sc.tau)], dict(abs_tol=1e-8)


def _record_kernel_rows(monkeypatch):
    """Per kernel call, the (t, first node, last node) of each row of y.

    The kernel's product form computes one exponential per point it is
    given, so the rows it sees are the (time, panel) rows whose
    exponentials are computed.
    """
    calls = []

    def recorded(t, x, y, tables):
        t_rows = np.broadcast_to(t, y.shape)[:, 0]
        calls.append(np.column_stack([t_rows, y[:, 0], y[:, -1]]))
        return kernel.odd_kernel(t, x, y, tables)

    monkeypatch.setattr(smoothing, "odd_kernel", recorded)
    return calls


def _synthesize(name):
    """The builtin scenario's control synthesis, as its run makes it."""
    sc = builtin_scenarios()[name]
    if sc.equation == "beam":
        return beam_controls(BeamData(sc.eta0, sc.eta1), sc.tau, sc.T, sc.s, sc.K,
                             sc.K_u, cfg=sc.sim, cutoff_s=sc.cutoff_s)
    return synthesize_control(sc)


@pytest.mark.parametrize("name, points", [
    ("gentle", 105_882), ("reference", 308_700), ("beam", 250_278)])
def test_synthesis_kernel_points(monkeypatch, name, points):
    # the kernel's work in a builtin synthesis, a deterministic count: on
    # reference it skips the 58,842 points of the panels of the datum's zero
    # piece (367,542 with them); the pulse and the beam's extension vanish
    # on no panel
    calls = _record_kernel_rows(monkeypatch)
    _synthesize(name)
    assert NODES.size * sum(rows.shape[0] for rows in calls) == points


def test_kernel_skips_the_panels_where_the_datum_vanishes(monkeypatch):
    # the reference datum is zero on [0, 0.2], a breakpoint interval: no
    # kernel row of its trace or its seed lies there
    calls = _record_kernel_rows(monkeypatch)
    _synthesize("reference")
    rows = np.concatenate(calls)
    assert rows.shape[0] > 0
    assert np.all(rows[:, 1] > 0.2)


def test_zero_run_calls_no_kernel(monkeypatch, tmp_path):
    # every panel of the zero datum vanishes: no kernel call at all, and
    # the run writes exact zeros, none of them negative
    calls = _record_kernel_rows(monkeypatch)
    assert main(["run", "--scenario", "zero", "--out-dir", str(tmp_path)]) == 0
    assert calls == []
    assert "terminal_l2=0.0\n" in (tmp_path / "report.txt").read_text()
    tables = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in tables] == ["control.csv", "field.csv", "norms.csv"]
    for path in tables:
        lines = path.read_text().splitlines()[1:]
        assert "-0.0" not in {cell for line in lines for cell in line.split(",")}


def test_datum_evaluated_once_per_distinct_panel(monkeypatch, beam_phase1):
    # the datum factors depend on the node alone, so on the builtin beam's
    # phase-1 grid the pair of the datum g and its second derivative g''
    # sees a panel at most once per integrand call, and every panel of the
    # call's kernel rows: far fewer points than the kernel, which sees
    # every (time, panel) row
    ext, times, settings = beam_phase1
    events = []

    class Counted:
        def __init__(self, datum):
            self.datum = datum
            self.support, self.breakpoints = datum.support, datum.breakpoints

        def with_curvature(self, y):
            events.append(("datum", y[:, [0, -1]]))
            return self.datum.with_curvature(y)

    g = Counted(ext)
    g.jumps = ext.jumps

    def recorded(t, x, y, tables):
        events.append(("kernel", y[:, [0, -1]]))
        return kernel.odd_kernel(t, x, y, tables)

    monkeypatch.setattr(smoothing, "odd_kernel", recorded)
    boundary_trace(g, times, derivative=True, **settings)
    datum_points = kernel_points = 0
    seen = []
    for kind, ends in events:
        if kind == "datum":
            assert np.unique(ends, axis=0).shape[0] == ends.shape[0]
            seen.append(ends)
            datum_points += NODES.size * ends.shape[0]
            continue
        # the datum call of an integrand call precedes its kernel call
        assert np.array_equal(np.unique(np.concatenate(seen), axis=0),
                              np.unique(ends, axis=0))
        seen = []
        kernel_points += NODES.size * ends.shape[0]
    assert not seen and 0 < 5 * datum_points < kernel_points


def test_datum_integrals_gather_once_per_distinct_panel(monkeypatch):
    # _convolutions evaluates the datum factor once per distinct panel of an
    # integrand call: the samples at the two equal times split alike, and in
    # the first generation all four samples hold the same two panels
    times = np.array([0.5, 0.05, 0.05, 0.01])
    calls, datum_rows = [], []

    def factor(y):
        return np.exp(0.5j * y) / (1.0 + y)

    class Datum:
        support = 1.0
        breakpoints = (0.3,)

        def __call__(self, y):
            datum_rows.append(y.shape[0])
            return factor(y)

    def recorded(integrand, *args):
        def counted(sig, s):
            calls.append((sig.shape[0], np.unique(sig, axis=0).shape[0]))
            return integrand(sig, s)

        return integrate_batch(counted, *args)

    monkeypatch.setattr(smoothing, "integrate_batch", recorded)
    values, errs, panels, _ = _convolutions(Datum(), times, 1.0, (0,))
    assert datum_rows == [distinct for _, distinct in calls]
    assert calls[0] == (8, 2) and len(calls) > 1
    assert sum(datum_rows) < sum(rows for rows, _ in calls)

    # the same batch with the factor folded into the integrand, in the same
    # order: (kernel) * (factor)
    folded = integrate_batch(lambda y, s: odd_kernel(times[s], 1.0, y) * factor(y),
                             times.size, breakpoints=(0.3,))
    assert np.all(np.abs(values - folded[0]) <= 1e-15 * np.abs(folded[0]))
    assert np.all(np.abs(errs - folded[1]) <= 1e-15 * folded[1])
    assert np.array_equal(panels, folded[2])


def test_convolutions_build_the_tables_once_per_call(monkeypatch, ref_datum):
    # the derivative tables depend on the points alone: one build for all
    # the points of a call, however many integrand calls its quadrature makes
    builds = []

    def counted(t, orders):
        builds.append(np.shape(t))
        return derivative_coefficients(t, orders)

    for module in (kernel, smoothing):
        monkeypatch.setattr(module, "derivative_coefficients", counted)
    kernel_calls = _record_kernel_rows(monkeypatch)
    times = np.array([0.001, 0.05, 0.35])
    _convolutions(ref_datum, times, 0.0, (1, 3))
    assert len(kernel_calls) > 1
    assert builds == [times.shape]


def test_datum_and_curvature_share_the_kernel_per_distinct_time_and_panel(
        monkeypatch, beam_phase1):
    # u (the datum g) and v_xx (its second derivative g'') are one order-0
    # batch: each integrand call computes the exponentials of a (time,
    # panel) row once for both, so the trace costs fewer kernel rows than
    # g and g'' integrated apart from the trace's starting edges, and
    # visits the same rows they do (each subdivides as if alone); both
    # sides count the latest-time pass
    ext, times, settings = beam_phase1
    fused = _record_kernel_rows(monkeypatch)
    boundary_trace(ext, times, derivative=True, **settings)
    apart = _record_kernel_rows(monkeypatch)
    data = (ext, CurvatureDatum(ext))
    edges = _trace_edges(ext, times, curvature=True, **settings)
    for v in data:
        _convolutions(v, times, 1.0, (0,), edges=edges, **settings)
    for rows in fused:
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    count = lambda calls: sum(rows.shape[0] for rows in calls)
    assert count(fused) < count(apart)
    distinct = lambda calls: np.unique(np.concatenate(calls), axis=0)
    assert np.array_equal(distinct(fused), distinct(apart))


def _record_batches(monkeypatch):
    """The panel counts of every quadrature batch that smoothing runs."""
    batches = []

    def recorded(*args):
        result = integrate_batch(*args)
        batches.append(result[2])
        return result

    monkeypatch.setattr(smoothing, "integrate_batch", recorded)
    return batches


def test_beam_trace_starts_from_the_latest_time_mesh(monkeypatch, beam_phase1):
    # the run's trace ends at tau, where g'' converges on the cutoff half's
    # quarters and its outer eighths, and every earlier sample of g and g''
    # starts there instead of bisecting down to them again: 23,164 panels
    # with the 16-panel latest-time pass, against 30,890 from the datum's
    # breakpoints
    ext, times, settings = beam_phase1
    tau = builtin_scenarios()["beam"].tau
    times = np.append(times[times < tau], tau)
    batches = _record_batches(monkeypatch)
    boundary_trace(ext, times, derivative=True, **settings)
    assert [b.size for b in batches] == [2, 2 * times.size]
    assert sum(int(b.sum()) for b in batches) <= 23_200
    edges = _trace_edges(ext, times, curvature=True, **settings)
    assert np.array_equal(ext.support * edges, [1.0, 1.125, 1.25, 1.5, 1.75, 1.875])


def test_trace_of_one_time_is_one_batch(monkeypatch, ref_datum):
    # a lone time starts from the datum's breakpoints: no latest-time pass
    batches = _record_batches(monkeypatch)
    boundary_trace(ref_datum, [0.35])
    assert [b.size for b in batches] == [2]


def test_trace_of_no_times_is_empty(ref_datum):
    trace = boundary_trace(ref_datum, np.zeros(0))
    assert trace.t.size == trace.u.size == trace.err.size == 0


def test_trace_budget_failure_at_the_latest_time_names_it(monkeypatch, ref_datum):
    # here the latest time fails first, in the pass that finds the starting
    # mesh: the error names it, with its index in t_grid as the sample
    _panel_budget(monkeypatch, 40)
    times = np.array([0.001, 0.002])
    with pytest.raises(QuadratureError, match=r"t=0\.002") as exc:
        boundary_trace(ref_datum, times, derivative=False)
    assert exc.value.sample == 1
    with pytest.raises(QuadratureError) as alone:
        boundary_trace(ref_datum, times[1:], derivative=False)
    assert exc.value.value == alone.value.value


def test_derivative_trace_budget_failure_at_the_latest_time_names_it(monkeypatch,
                                                                    ref_datum):
    # the latest-time pass of a derivative trace names its time by its index
    # in t_grid too
    _panel_budget(monkeypatch, 40)
    times = np.array([0.001, 0.002])
    with pytest.raises(QuadratureError, match=r"t=0\.002") as exc:
        boundary_trace(ref_datum, times, derivative=True)
    assert exc.value.sample == 1
    with pytest.raises(QuadratureError) as alone:
        boundary_trace(ref_datum, times[1:], derivative=True)
    assert exc.value.value == alone.value.value


def test_boundary_trace_rejects_nonpositive_times(ref_datum):
    with pytest.raises(ValueError):
        boundary_trace(ref_datum, np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        free_evolution(ref_datum, -0.1, 1.0)


# -------------------------------------------------------------- flat seeds

@pytest.fixture(scope="module")
def ref_seed():
    from schroflat.cli import reference_datum
    return flat_coefficients(reference_datum(), 0.35, 15)


def test_seed_frozen_coefficients(ref_seed):
    for k, expected in SEEDS.items():
        assert_close(ref_seed[k], expected, rel=1e-9)


def test_seed_bound_constant(ref_seed):
    fo = FlatOutput(0.35, ref_seed, 0.5, 1.9)
    assert abs(fo.bound_constant - BOUND_CONSTANT) < 1e-12


def test_seed_series_at_origin(ref_seed):
    assert seed_series(ref_seed, 0.0) == 0.0
    # leading behavior ~ y_0 * x near the Dirichlet wall
    x = 1e-8
    assert abs(seed_series(ref_seed, x) - ref_seed[0] * x) < 1e-20


def test_seed_shape_validation():
    with pytest.raises(ValueError):
        FlatOutput(-1.0, np.zeros(1, dtype=np.complex128), 0.5, 1.9)
    with pytest.raises(ValueError, match="1-d"):
        FlatOutput(0.35, np.zeros(0, dtype=np.complex128), 0.5, 1.9)
    with pytest.raises(ValueError, match="1-d"):
        FlatOutput(0.35, np.zeros((2, 2), dtype=np.complex128), 0.5, 1.9)


def test_seed_budget_failure_names_the_order(monkeypatch):
    # the pulse's orders k=14 and 15 at tau=0.35 split their one panel in
    # two, which a budget of 2 panels cannot hold: the lowest such order
    # fails, and its best value is the y_k the split would have converged to
    seed = flat_coefficients(pulse_datum(), 0.35, 15)
    _panel_budget(monkeypatch, 2)
    with pytest.raises(QuadratureError, match=r"seed order k=14$") as exc:
        flat_coefficients(pulse_datum(), 0.35, 15)
    assert exc.value.sample == 14
    assert exc.value.value == seed[14]
    assert exc.value.err_estimate > 0.0


def test_flat_coefficients_validation(ref_datum):
    with pytest.raises(ValueError):
        flat_coefficients(ref_datum, 0.0, 5)
    with pytest.raises(ValueError):
        flat_coefficients(ref_datum, 0.35, 31)


# ------------------------------------------------------------ control trace

def _trace(n, t0=0.0):
    t = t0 + np.linspace(0.1, 1.0, n)
    u = np.exp(1j * t)
    return ControlTrace(t, u, 1j * u, np.zeros(n, dtype=np.uint8), np.zeros(n))


def test_trace_validation():
    with pytest.raises(ValueError):
        ControlTrace(np.array([0.2, 0.1]), np.zeros(2, dtype=np.complex128),
                     np.zeros(2, dtype=np.complex128),
                     np.zeros(2, dtype=np.uint8), np.zeros(2))
    with pytest.raises(ValueError):
        ControlTrace(np.array([0.1, 0.2]), np.zeros(3, dtype=np.complex128),
                     np.zeros(2, dtype=np.complex128),
                     np.zeros(2, dtype=np.uint8), np.zeros(2))


def test_trace_concat_and_interpolation():
    a = _trace(5)
    b = _trace(4, t0=1.0)
    full = ControlTrace.concat(a, b)
    assert full.t.size == 9
    assert np.all(np.diff(full.t) > 0)
    # interpolation reproduces samples exactly and clamps left of the grid
    np.testing.assert_allclose(full.interpolate(full.t), full.u, rtol=1e-15)
    assert full.interpolate(np.array([0.0]))[0] == full.u[0]
    mid = 0.5 * (full.t[2] + full.t[3])
    expect = 0.5 * (full.u[2] + full.u[3])
    assert abs(full.interpolate(np.array([mid]))[0] - expect) < 1e-15
