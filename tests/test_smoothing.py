"""Profiles, pre-smoothing convolution traces, and flat-output seeds.

Frozen constants are 50-digit reference evaluations of the folded-kernel
convolutions for the discontinuous two-indicator datum.
"""
import mpmath
import numpy as np
import pytest

from schroflat import (ControlTrace, FlatOutput, PiecewiseProfile, QuadratureError,
                       boundary_trace, flat_coefficients, free_evolution)
from schroflat import kernel, quadrature, smoothing
from schroflat.beam import (BeamData, ExtendedDatum, beam_controls, extend_odd_smooth,
                           lift_initial_data)
from schroflat.cli import (builtin_scenarios, main, pulse_datum, reference_datum,
                           synthesize_control)
from schroflat.flatness import synthesize
from schroflat.kernel import derivative_coefficients
from schroflat.quadrature import NODES, integrate_batch
from schroflat.smoothing import PHASE_SMOOTHING, _convolutions

from conftest import assert_close
from oracles import (CurvatureDatum, RestartedDatum, boundary_trace_every_time, convolution_one,
                     odd_kernel, per_row, seed_series, synthesize_raw)

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
    # _panel_rows puts eight rows in each piece: the first eight share one
    one_piece = inside[:8]
    for rows in (inside, one_piece, touching, crossing, outside,
                 np.vstack([inside, crossing])):
        per_element = profile(rows.ravel()).reshape(rows.shape)
        assert np.array_equal(_bits(profile(rows)), _bits(per_element))
    by_rows = profile(inside)
    for i in (0, inside.shape[0] // 2, -1):
        assert np.array_equal(_bits(profile(inside[i])), _bits(by_rows[i]))
        assert np.array_equal(_bits(profile(float(inside[i, 3]))), _bits(by_rows[i, 3]))


def test_profile_rows_take_one_horner_pass_per_piece_size(monkeypatch):
    # the row path runs one Horner pass per distinct piece size, the
    # per-element path one per piece; rows all in one piece take that
    # piece's own 1-d coefficients
    passes = []

    def counted(coeffs, x):
        passes.append((x.shape[0], coeffs.ndim))
        return kernel.horner(coeffs, x)

    monkeypatch.setattr(smoothing, "horner", counted)
    for profile, n_sizes in ((reference_datum(), 1), (_mixed_profile(), 3)):
        rows = _panel_rows(profile.edges)
        passes.clear()
        profile(rows)
        assert len(passes) == n_sizes and sum(n for n, _ in passes) == rows.shape[0]
        passes.clear()
        profile(rows.ravel())
        assert len(passes) == len(profile.pieces)
        for piece in range(len(profile.pieces)):
            passes.clear()
            profile(rows[8 * piece:8 * piece + 8])
            assert passes == [(8, 1)]


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
    trace, _ = boundary_trace(ref_datum, times, derivative=False)
    for t, u in zip(trace.t, trace.u):
        assert_close(u, I_TRACE[float(t)], rel=1e-8)
        assert trace.err[list(trace.t).index(t)] < 1e-7
    assert np.all(trace.phase == PHASE_SMOOTHING)
    assert np.all(trace.du == 0.0)


def test_boundary_trace_with_derivative(ref_datum):
    # du = i * v_xx(t,1): the datum is piecewise constant, so its second
    # derivative vanishes and the jump terms carry the whole of v_xx; they
    # agree with the order-2 integral of the datum itself
    trace, _ = boundary_trace(ref_datum, np.array([0.35]))
    v2, err2, _ = convolution_one(ref_datum, 0.35, 1.0, 2,
                                  breakpoints=ref_datum.breakpoints)
    assert abs(trace.du[0] - 1j * v2) <= trace.err[0] + err2 + 1e-14 * abs(v2)
    assert abs(v2) > 0.1


@pytest.mark.parametrize("t", [0.05, 0.35])
def test_convolution_integrates_over_the_datum_breakpoints(ref_datum, t):
    # the datum carries its jumps, so every entry point splits the
    # quadrature at them and the three values agree bit for bit
    (value,), _, _ = _convolutions(ref_datum, t, 1.0, (0,))
    assert value == free_evolution(ref_datum, t, 1.0)
    assert value == boundary_trace(ref_datum, np.array([t]), derivative=False)[0].u[0]


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
    # support: the one sample starts from 512 panels, the most its
    # bisection to the kernel's phase leaves within PANELS_PER_CALL, and
    # takes 24,496, more than 2**14 and within the quadrature's one budget
    # of 2**16
    (value,), (err,), (panels,) = _convolutions(pulse_datum(), 1e-5, 1.0, (0,))
    assert panels == 24496
    trace, _ = boundary_trace(pulse_datum(), [1e-5], derivative=False)
    assert trace.u[0] == value and trace.err[0] == err
    assert err <= 1e-10


def test_sample_at_tiny_time_starts_within_one_row_call(monkeypatch):
    # at t=1e-9 the kernel's phase asks for starting panels 2.4e-8 wide;
    # the bisection stops at the last round that leaves at most
    # PANELS_PER_CALL panels: 512 of the support, which the zero datum
    # accepts at once
    (value,), _, (panels,) = _convolutions(PiecewiseProfile.zero(), 1e-9, 1.0, (0,))
    assert value == 0.0 and panels == 512 <= quadrature.PANELS_PER_CALL < 2 * panels
    # the reference datum's four pieces start from 512 panels too, one row
    # call, and they count against the panel budget
    events = []
    _record_stages(monkeypatch, events)
    _panel_budget(monkeypatch, 511)
    with pytest.raises(QuadratureError, match=r"t=1e-09,"):
        _convolutions(reference_datum(), 1e-9, 1.0, (0,))
    assert [kind for kind, _ in events] == ["nodes", "rows"] and events[1][1] == 512


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
    ("gentle", 34_860), ("reference", 121_170), ("beam", 84_231)],
    ids=["gentle", "reference", "beam"])
def test_synthesis_kernel_points(monkeypatch, name, points):
    # the kernel's work in a builtin synthesis, a deterministic count: the
    # trace integrates its interpolants' points and the grid times too
    # early to interpolate (88,515, 264,054 and 373,569 points with every
    # grid time integrated), each from panels sized to its kernel's phase;
    # on reference it skips the panels of the datum's zero piece, while the
    # pulse and the beam's extension vanish on no panel
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


def _record_stages(monkeypatch, events):
    """Record each quadrature generation of smoothing's batches in events:
    ("nodes", the end nodes of its table) at its node stage and ("rows",
    the number of rows) at each row call."""

    def recorded(integrand, *args):
        def staged(nodes):
            events.append(("nodes", nodes[:, [0, -1]]))
            rows = integrand(nodes)

            def counted(panel, sample):
                events.append(("rows", panel.size))
                return rows(panel, sample)

            return counted

        return integrate_batch(staged, *args)

    monkeypatch.setattr(smoothing, "integrate_batch", recorded)


def _generations(events):
    """The recorded events split at each generation's node stage."""
    starts = [i for i, (kind, _) in enumerate(events) if kind == "nodes"]
    return [events[a:b] for a, b in zip(starts, [*starts[1:], len(events)])]


def _assert_matches(result, expected):
    # bounded calls of another size round the panel sums otherwise: an
    # error estimate, a difference of two sums, moves by the rounding of
    # the value
    values, errs, panels = result
    assert np.all(np.abs(values - expected[0]) <= 1e-15 * np.abs(expected[0]))
    assert np.all(np.abs(errs - expected[1]) <= 1e-15 * np.abs(expected[0]))
    assert np.array_equal(panels, expected[2])


def test_datum_evaluated_once_per_generation(monkeypatch, beam_phase1):
    # the datum factors depend on the node alone, so on the builtin beam's
    # phase-1 grid one with_curvature call per quadrature generation gives
    # g and g'' on the generation's distinct panels, never twice on one
    # panel, also where the generation's rows go out in three bounded calls
    # or more; the kernel rows of those calls lie on the same panels, far
    # more points than the datum sees
    ext, times, settings = beam_phase1
    expected = _convolutions(ext, times, 1.0, (0,), curvature=True, **settings)
    events = []

    class Counted:
        def __init__(self, datum):
            self.datum = datum
            self.support, self.breakpoints = datum.support, datum.breakpoints

        def with_curvature(self, y):
            events.append(("datum", y[:, [0, -1]]))
            return self.datum.with_curvature(y)

    def recorded(t, x, y, tables):
        events.append(("kernel", y[:, [0, -1]]))
        return kernel.odd_kernel(t, x, y, tables)

    monkeypatch.setattr(quadrature, "PANELS_PER_CALL", 2000)
    monkeypatch.setattr(smoothing, "odd_kernel", recorded)
    _record_stages(monkeypatch, events)
    result = _convolutions(Counted(ext), times, 1.0, (0,), curvature=True, **settings)
    _assert_matches(result, expected)
    generations = _generations(events)
    datum_points = kernel_points = 0
    for generation in generations:
        (_, table), *calls = generation
        datum = [ends for kind, ends in calls if kind == "datum"]
        kernel_rows = [ends for kind, ends in calls if kind == "kernel"]
        assert len(datum) == 1 and calls[0][0] == "datum"
        assert np.array_equal(datum[0], ext.support * table)
        assert np.unique(datum[0], axis=0).shape[0] == datum[0].shape[0]
        assert np.array_equal(np.unique(np.concatenate(kernel_rows), axis=0),
                              np.unique(datum[0], axis=0))
        datum_points += NODES.size * datum[0].shape[0]
        kernel_points += NODES.size * sum(ends.shape[0] for ends in kernel_rows)
    assert max(sum(kind == "rows" for kind, _ in g) for g in generations) >= 3
    assert 0 < 5 * datum_points < kernel_points


def test_datum_integrals_gather_once_per_generation(monkeypatch):
    # _convolutions evaluates the datum factor once per quadrature
    # generation, on its distinct panels: the samples at the two equal
    # times split alike, and in the first generation all four samples hold
    # the same two panels, whose eight rows go out in three calls.  At
    # these times the kernel's phase asks for no starting panel narrower
    # than 0.7, so the breakpoint 0.3 alone sets every sample's start, also
    # under a three-row cap; the factor's own oscillation makes the
    # quadrature bisect on from there
    times = np.array([0.5, 0.1, 0.1, 0.06])
    datum_rows = []

    def factor(y):
        return np.exp(40j * y) / (1.0 + y)

    class Datum:
        support = 1.0
        breakpoints = (0.3,)

        def __call__(self, y):
            datum_rows.append(y.shape[0])
            return factor(y)

    expected = _convolutions(Datum(), times, 1.0, (0,))
    # the same batch with the factor folded into the integrand, in the same
    # order, (kernel) * (factor), and in calls of the same size
    folded = integrate_batch(per_row(lambda y, s: odd_kernel(times[s], 1.0, y) * factor(y)),
                             times.size, breakpoints=(0.3,))
    values, errs, panels = expected
    assert np.all(np.abs(values - folded[0]) <= 1e-15 * np.abs(folded[0]))
    assert np.all(np.abs(errs - folded[1]) <= 1e-15 * folded[1])
    assert np.array_equal(panels, folded[2])

    datum_rows.clear()
    events = []
    monkeypatch.setattr(quadrature, "PANELS_PER_CALL", 3)
    _record_stages(monkeypatch, events)
    result = _convolutions(Datum(), times, 1.0, (0,))
    _assert_matches(result, expected)
    generations = _generations(events)
    assert datum_rows == [table.shape[0] for (_, table), *_ in generations]
    assert datum_rows[0] == 2 and [n for _, n in generations[0][1:]] == [3, 3, 2]
    assert len(generations) > 1 and sum(datum_rows) < result[2].sum()


def test_samples_of_different_start_widths_share_a_left_edge():
    # at t = 0.1 the kernel's phase leaves the unit interval one starting
    # panel (width 1.2), at t = 0.05 it halves it (0.6): the first
    # generation holds [0, 0.5], [0, 1] and [0.5, 1], two panels on one
    # left edge.  The datum is evaluated once per generation on its
    # distinct panels, and each sample is its lone integral to rounding,
    # subdivided alike
    times = np.array([0.1, 0.05])
    tables = []

    class Datum:
        support = 1.0
        breakpoints = ()

        def __call__(self, y):
            tables.append(y)
            return np.exp(40j * y) / (1.0 + y)

    values, errs, panels = _convolutions(Datum(), times, 1.0, (0,))
    lo, hi = np.array([[0.0], [0.0], [0.5]]), np.array([[0.5], [1.0], [1.0]])
    assert np.array_equal(tables[0], 0.5 * (lo + hi) + 0.5 * (hi - lo) * NODES)
    assert len(tables) > 1
    for table in tables:
        assert np.unique(table, axis=0).shape[0] == table.shape[0]
    for j, t in enumerate(times):
        (value,), (err,), (used,) = _convolutions(Datum(), t, 1.0, (0,))
        assert abs(values[j] - value) <= 1e-15 * abs(value)
        assert abs(errs[j] - err) <= 1e-15 * abs(value)
        assert panels[j] == used


def test_convolutions_build_the_tables_once_per_call(monkeypatch, ref_datum):
    # the derivative tables depend on the points alone: one build for all
    # the points of a call, however many integrand calls its quadrature
    # makes; the datum's jumps, left off its breakpoints by a wrapper, keep
    # it bisecting for many generations (from its breakpoints and panels
    # sized to the kernel's phase, every sample here converges in one)
    builds = []

    def counted(t, orders):
        builds.append(np.shape(t))
        return derivative_coefficients(t, orders)

    for module in (kernel, smoothing):
        monkeypatch.setattr(module, "derivative_coefficients", counted)
    kernel_calls = _record_kernel_rows(monkeypatch)
    times = np.array([0.001, 0.05, 0.35])
    _convolutions(RestartedDatum(ref_datum, ()), times, 0.0, (1, 3))
    assert len(kernel_calls) > 1
    assert builds == [times.shape]


def _record_convolutions(monkeypatch):
    """The (times, tolerance scales) of every _convolutions batch that
    smoothing runs."""
    batches = []

    def recorded(v0, t, x, orders, abs_tol=1e-10, curvature=False, tol_scale=1.0):
        batches.append((np.atleast_1d(t), tol_scale))
        return _convolutions(v0, t, x, orders, abs_tol, curvature, tol_scale)

    monkeypatch.setattr(smoothing, "_convolutions", recorded)
    return batches


def test_datum_and_curvature_share_the_kernel_per_distinct_time_and_panel(
        monkeypatch, beam_phase1):
    # u (the datum g) and v_xx (its second derivative g'') are one order-0
    # batch: each bounded row call computes the exponentials of a (time,
    # panel) row once for both, so the trace costs fewer kernel rows than
    # g and g'' integrated apart over the same batches of times (the
    # interpolants' points and the direct samples, then the doubled
    # interpolant's new points), and visits the same rows they do (each
    # subdivides as if alone)
    ext, times, settings = beam_phase1
    batches = _record_convolutions(monkeypatch)
    fused = _record_kernel_rows(monkeypatch)
    boundary_trace(ext, times, derivative=True, **settings)
    monkeypatch.undo()
    apart = _record_kernel_rows(monkeypatch)
    data = (ext, CurvatureDatum(ext))
    assert len(batches) == 2
    for v in data:
        for t, tol_scale in batches:
            _convolutions(v, t, 1.0, (0,), tol_scale=tol_scale, **settings)
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


def test_beam_trace_starts_from_the_datum_breakpoints(monkeypatch, beam_phase1):
    # every sample of g and g'' starts from the datum's breakpoint at the
    # cutoff, 1.0, bisected to its kernel's phase, and subdivides from
    # there by its own rules: the 216 times of the interpolants' 33 points
    # and the direct samples, then the 32 new points of the doubled
    # interpolant, take 7,018 panels, the most of them 256 for one sample
    ext, times, settings = beam_phase1
    tau = builtin_scenarios()["beam"].tau
    times = np.append(times[times < tau], tau)
    batches = _record_batches(monkeypatch)
    boundary_trace(ext, times, derivative=True, **settings)
    assert [b.size for b in batches] == [2 * 216, 2 * 32]
    assert sum(int(b.sum()) for b in batches) <= 7_050
    assert max(int(b.max()) for b in batches) <= 256


def test_trace_of_one_time_is_one_batch(monkeypatch, ref_datum):
    # a lone time is one direct sample of u and one of v_xx
    batches = _record_batches(monkeypatch)
    boundary_trace(ref_datum, [0.35])
    assert [b.size for b in batches] == [2]


def _integrated_times(batches):
    """The times of every recorded _convolutions batch, joined."""
    return np.concatenate([t for t, _ in batches])


def test_reference_trace_doubles_its_interpolants_until_their_tails_fall(monkeypatch):
    # reference's grid holds 1,401, 700, 350, 175, 87 and 44 times on its
    # first six dyadic intervals below tau = 0.35, and 43 below them.  An
    # interval of fewer than 65 grid times could not double its 33 points,
    # so the first batch integrates the 44 and the 43 directly, with the 33
    # points of each of the intervals 0 to 4, 161 with the four shared
    # ends; the coefficient tails send the intervals 1 to 4 on, so the
    # second integrates their 32 new points each; interval 4 fails again
    # at 65 and its 87 grid times make the third batch, while 0 passes at
    # 33 and 1 to 3 at 65
    sc = builtin_scenarios()["reference"]
    times = sc.sim.times()
    t_grid = np.append(times[(times > 0) & (times < sc.tau)], sc.tau)
    batches = _record_convolutions(monkeypatch)
    trace, integrals = boundary_trace(sc.theta0, t_grid, derivative=False)
    assert [t.size for t, _ in batches] == [248, 128, 87]
    assert integrals == 463
    tops, index = smoothing._dyadic_intervals(t_grid)
    assert np.bincount(index)[:6].tolist() == [1401, 700, 350, 175, 87, 44]
    first, second, third = (t for t, _ in batches)
    assert np.array_equal(first[:87], t_grid[index >= 5])
    assert np.array_equal(third, t_grid[index == 4])
    new = [smoothing._lobatto_times(tops[j])[2::4] for j in range(1, 5)]
    assert np.array_equal(second, np.sort(np.concatenate(new)))
    # interval 0's sample times are the interpolant's, tau's its own
    assert not np.isin(t_grid[index == 0][:-1], _integrated_times(batches)).any()
    assert trace.t[-1] == sc.tau and np.isin(sc.tau, batches[0][0])


def test_trace_at_tau_is_its_own_quadrature_sample(ref_datum):
    # tau is an interpolant's point: the trace keeps its sample and error
    # estimate, as a lone integral from the datum's breakpoints at the
    # points' tolerance gives them to rounding
    t_grid = np.linspace(0.01, 0.35, 400)
    trace, _ = boundary_trace(ref_datum, t_grid, derivative=False)
    (value,), (err,), _ = _convolutions(ref_datum, 0.35, 1.0, (0,), 1e-10,
                                        tol_scale=1.0 / smoothing._LEBESGUE)
    assert abs(trace.u[-1] - value) <= 1e-15 * abs(value)
    assert abs(trace.err[-1] - err) <= 1e-15 * abs(value)


def test_failing_tails_integrate_every_grid_time(monkeypatch, pulse):
    # interpolants whose tails never fall double to 65 and 129 points where
    # their intervals hold that many grid times, then integrate those grid
    # times directly: the trace is the batch of every grid time to rounding
    monkeypatch.setattr(smoothing, "_chebyshev_tails",
                        lambda values, errs: (False, np.zeros(values.shape[1])))
    sc = builtin_scenarios()["gentle"]
    times = sc.sim.times()
    t_grid = np.append(times[(times > 0) & (times < sc.tau)], sc.tau)
    batches = _record_convolutions(monkeypatch)
    trace, integrals = boundary_trace(pulse, t_grid, derivative=False)
    assert np.all(np.isin(t_grid, _integrated_times(batches)))
    assert integrals == sum(t.size for t, _ in batches) > t_grid.size
    every = boundary_trace_every_time(pulse, t_grid, derivative=False)
    assert np.all(np.abs(trace.u - every.u) <= 1e-14 * np.abs(every.u))
    assert np.all(np.abs(trace.err - every.err) <= 1e-6 * every.err + 1e-8 * np.abs(every.u))


def test_point_exhausting_the_budget_names_its_time_and_interval(monkeypatch, ref_datum):
    # the 80 grid times on (0.001, 0.002] are enough to interpolate; they
    # would each fit a budget of 100 (96 panels at most), but the
    # interpolant's points at the bottom of the interval take 128 at the
    # points' tolerance: the lowest of them, 0.001, names its time, with
    # the index of its interval's first grid time as the sample
    t_grid = np.linspace(0.0011, 0.002, 80)
    _panel_budget(monkeypatch, 100)
    for derivative in (False, True):
        with pytest.raises(QuadratureError, match=r"t=0\.001,") as exc:
            boundary_trace(ref_datum, t_grid, derivative=derivative)
        assert exc.value.sample == 0
    every = boundary_trace_every_time(ref_datum, t_grid, derivative=False)
    assert np.all(np.isfinite(every.u))


def _mpmath_trace(v0, t):
    """v(t, 1) of the piecewise polynomial v0 by mpmath.quad at 30 digits,
    split at its breakpoints and into panels of a half turn or less of
    the kernel's phase."""
    with mpmath.workdps(30):
        tm = mpmath.mpf(t)
        scale = 1 / mpmath.sqrt(4j * mpmath.pi * tm)
        total = mpmath.mpc(0)
        for a, b, piece in zip(v0.edges[:-1], v0.edges[1:], v0.pieces):
            coeffs = [mpmath.mpc(complex(c)) for c in piece[::-1]]
            parts = int(np.ceil(0.75 / t / np.pi * (b - a))) + 1
            ends = [mpmath.mpf(a) + (mpmath.mpf(b) - mpmath.mpf(a)) * k / parts
                    for k in range(parts + 1)]
            total += mpmath.quad(lambda y: scale * mpmath.polyval(coeffs, y) * (
                mpmath.exp(1j * (1 - y) ** 2 / (4 * tm))
                - mpmath.exp(1j * (1 + y) ** 2 / (4 * tm))), ends)
        return complex(total)


@pytest.mark.parametrize("name", ["gentle", "reference"])
def test_interpolated_samples_meet_their_err_against_mpmath(monkeypatch, name):
    # two grid times between the interpolants' points on each of the first
    # four intervals, the lowest and one a third of the way up: on
    # reference's first two intervals the points' own estimates sit at the
    # quadrature's rounding floor (3e-16 and below), where err rests as
    # much on its eps * max|value| and tail terms as on them
    sc = builtin_scenarios()[name]
    times = sc.sim.times()
    t_grid = np.append(times[(times > 0) & (times < sc.tau)], sc.tau)
    batches = _record_convolutions(monkeypatch)
    trace, _ = boundary_trace(sc.theta0, t_grid, derivative=False)
    interpolated = ~np.isin(t_grid, _integrated_times(batches))
    _, index = smoothing._dyadic_intervals(t_grid)
    checked = 0
    for j in range(4):
        rows = np.flatnonzero((index == j) & interpolated)
        if rows.size == 0:
            continue
        for i in (rows[0], rows[rows.size // 3]):
            exact = _mpmath_trace(sc.theta0, t_grid[i])
            assert abs(trace.u[i] - exact) <= trace.err[i], (t_grid[i], trace.err[i])
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("name, integrals", [
    ("gentle", 312), ("reference", 463), ("beam", 248)], ids=["gentle", "reference", "beam"])
def test_synthesis_phase1_integrals(name, integrals):
    # the phase-1 times a builtin synthesis integrates, a deterministic
    # count: the interpolants' points and the direct samples, against
    # 2,800 (1,400 on the beam) with every grid time; an interval of 44
    # grid times goes direct at once
    synthesis = _synthesize(name)
    diags = synthesis.diags if name == "beam" else synthesis[2]
    assert diags["phase1_integrals"] == integrals


def _synthesis_arguments(name):
    """(datum, times, settings, options): the builtin scenario's synthesize
    call, as its run makes it."""
    sc = builtin_scenarios()[name]
    settings = (sc.tau, sc.T, sc.s, sc.K, sc.K_u)
    if sc.equation == "beam":
        ext = extend_odd_smooth(lift_initial_data(BeamData(sc.eta0, sc.eta1)), sc.cutoff_s)
        return ext, sc.sim.times(), settings, dict(derivative=True, abs_tol=1e-8)
    return sc.theta0, sc.sim.times(), settings, {}


@pytest.mark.parametrize("name, calls", [
    ("gentle", {"__call__": 1}), ("reference", {"__call__": 2}),
    ("beam", {"with_curvature": 1})], ids=["gentle", "reference", "beam"])
def test_synthesis_evaluates_each_panel_of_its_datum_once(monkeypatch, name, calls):
    # the datum's calls on node tables in a builtin synthesis: one per
    # table that holds a panel not evaluated before, against one per
    # quadrature generation and seed (5, 5 and 13 calls).  Every later
    # generation of gentle and the beam, and their seed, holds only panels
    # of the first; reference's second generation adds panels.  The beam's
    # with_curvature call gives the seed's g too
    counts = {}

    def count(cls, method):
        original = getattr(cls, method)

        def counted(self, y):
            if np.ndim(y) == 2 and np.shape(y)[1] == NODES.size:
                counts[method] = counts.get(method, 0) + 1
            return original(self, y)

        monkeypatch.setattr(cls, method, counted)

    if name == "beam":
        count(ExtendedDatum, "__call__")
        count(ExtendedDatum, "with_curvature")
    else:
        count(PiecewiseProfile, "__call__")
    _synthesize(name)
    assert counts == calls


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_synthesis_matches_the_raw_datum_bitwise(name):
    # the memo's rows have the bits of the datum's own evaluation on each
    # node table, so the trace and the seed keep every bit
    v0, times, settings, options = _synthesis_arguments(name)
    trace, fo, _ = synthesize(v0, times, *settings, **options)
    raw, seed = synthesize_raw(v0, times, *settings, **options)
    for got, want in zip(trace._columns(), raw._columns()):
        assert got.tobytes() == want.tobytes()
    assert fo.y.tobytes() == seed.tobytes()


def test_trace_of_no_times_is_empty(ref_datum):
    trace, _ = boundary_trace(ref_datum, np.zeros(0))
    assert trace.t.size == trace.u.size == trace.err.size == 0


@pytest.mark.parametrize("derivative", [False, True])
def test_trace_budget_failure_at_the_earliest_time_names_it(monkeypatch, ref_datum,
                                                            derivative):
    # both times fail a budget of 40 panels, and they are one batch: the
    # earliest time fails first, and the error names it, with its index in
    # t_grid as the sample, also where the batch interleaves u and v_xx
    _panel_budget(monkeypatch, 40)
    times = np.array([0.001, 0.002])
    with pytest.raises(QuadratureError, match=r"t=0\.001,") as exc:
        boundary_trace(ref_datum, times, derivative=derivative)
    assert exc.value.sample == 0
    with pytest.raises(QuadratureError) as alone:
        boundary_trace(ref_datum, times[:1], derivative=derivative)
    assert exc.value.value == alone.value.value
    with pytest.raises(QuadratureError, match=r"t=0\.002,") as later:
        boundary_trace(ref_datum, times[1:], derivative=derivative)
    assert later.value.sample == 0


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
