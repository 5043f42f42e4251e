"""Adaptive panel quadrature: exactness, termination paths, determinism."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schroflat import QuadratureError, quadrature
from schroflat.quadrature import (GAUSS_IDX, NODES, PANELS_PER_CALL, WEIGHTS_GAUSS,
                                  WEIGHTS_KRONROD, _panel_sums, _sample_sums,
                                  integrate_batch)

from oracles import (IntegrationProblem, integrate, integrate_function, integrate_one, panel_sums,
                     per_row)


def test_rule_tables():
    # the embedded Gauss rule is 10-point Gauss-Legendre; the Kronrod
    # weights integrate the constant 1 over [-1,1]
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert NODES.size == 21 and np.all(np.diff(NODES) > 0)
    assert np.array_equal(NODES, -NODES[::-1])
    assert np.abs(NODES[GAUSS_IDX] - nodes).max() <= 1e-15
    assert np.abs(WEIGHTS_GAUSS - weights).max() <= 1e-15
    assert abs(WEIGHTS_KRONROD.sum() - 2.0) <= 1e-15


def test_polynomial_exactness():
    # the 10-point Gauss rule integrates degree 19 exactly, so err collapses
    # to rounding and the very first generation is accepted
    val, err = integrate_function(lambda x: x ** 10 + 0j)
    assert abs(val - 1.0 / 11.0) < 1e-14
    assert err < 1e-12


def test_kronrod_rule_exact_to_degree_31():
    # one panel on [0,1]: the 21-point Kronrod sum of x**30 is 1/31 to
    # rounding, while the 10-point Gauss sum is not
    x = 0.5 + 0.5 * NODES
    kronrod = 0.5 * (WEIGHTS_KRONROD @ x ** 30)
    gauss = 0.5 * (WEIGHTS_GAUSS @ x[GAUSS_IDX] ** 30)
    assert abs(kronrod - 1.0 / 31.0) <= 1e-15
    assert abs(gauss - 1.0 / 31.0) > 1e-8


def test_panel_sums_match_complex_products():
    # the Kronrod and Gauss sums come from one real matrix product; against
    # complex matrix-vector products they differ by rounding of each
    # panel's L1 mass alone, also on panels of many periods, where the sums
    # cancel
    rng = np.random.default_rng(5)
    lo = rng.random(500)
    hi = lo + 10.0 ** rng.uniform(-8, -1, lo.size)

    def f(x):
        return np.exp(1j * 1e4 * x) * (1.0 + x)

    half = 0.5 * (hi - lo)
    fv = f(0.5 * (lo + hi)[:, None] + half[:, None] * NODES[None, :])
    kron, err, scale = _panel_sums(fv, half)
    kron_c, err_c, scale_c = panel_sums(f, lo, hi)
    bound = 2 * NODES.size * np.finfo(np.float64).eps * scale
    dk = kron - kron_c
    assert np.all(np.abs(dk.real) + np.abs(dk.imag) <= bound)
    assert np.all(np.abs(err - err_c) <= 2 * bound)
    assert np.array_equal(scale, scale_c)


def test_oscillatory_closed_form():
    om = 200.0
    exact = (np.exp(1j * om) - 1.0) / (1j * om)
    val, err = integrate_function(lambda x: np.exp(1j * om * x))
    assert abs(val - exact) < 1e-10


def test_high_frequency_real_wave():
    om = 1.0e4
    val, _ = integrate_function(lambda x: np.sin(om * x) + 0j)
    assert abs(val - (1.0 - np.cos(om)) / om) < 1e-8


def test_breakpoint_conforming_jump():
    f = lambda x: np.where(x < 0.5, 1.0 + 0j, 1j)
    val, err = integrate_function(f, breakpoints=(0.5,))
    assert abs(val - (0.5 + 0.5j)) < 1e-14
    assert err < 1e-12


def test_undeclared_jump_still_converges():
    # bisection localizes the jump; the summed-error termination accepts
    # once the single straddling panel is narrow enough
    c = 1.0 / np.pi
    f = lambda x: np.where(x < c, 1.0 + 0j, 2.0 + 0j)
    val, err = integrate_function(f)
    exact = c + 2.0 * (1.0 - c)
    assert abs(val - exact) < 1e-6


def _budget(monkeypatch, rel_tol, panels=quadrature.MAX_SUBDIVISIONS):
    """Run the quadrature with another relative tolerance and panel budget."""
    monkeypatch.setattr(quadrature, "REL_TOL", rel_tol)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", panels)


def test_budget_exhaustion_carries_best_value(monkeypatch):
    c = 1.0 / np.pi
    f = lambda x: np.where(x < c, 1.0 + 0j, 2.0 + 0j)
    _budget(monkeypatch, 1e-15, 64)
    problem = IntegrationProblem(f, abs_tol=1e-15)
    with pytest.raises(QuadratureError) as exc:
        integrate(problem)
    exact = c + 2.0 * (1.0 - c)
    assert abs(exc.value.value - exact) < 5e-3
    assert exc.value.err_estimate > 0.0
    assert exc.value.sample == 0

    # in a batch, only the sample with the undeclared jump runs out of panels;
    # the error names it and carries its own best value
    def batch(x, s):
        return np.where(s == 1, f(x), np.exp(1j * x) * (1.0 + s))

    with pytest.raises(QuadratureError) as exc_batch:
        integrate_batch(per_row(batch), 3, abs_tol=1e-15)
    assert exc_batch.value.sample == 1
    assert exc_batch.value.value == exc.value.value
    assert exc_batch.value.err_estimate == exc.value.err_estimate


def test_batch_samples_keep_their_own_subdivision():
    # each sample of a batch is integrated as if alone: same value, error
    # estimate and panel count as the one-sample loop
    freqs = np.array([0.0, 3.0, 40.0, 400.0])

    def batch(x, s):
        return np.exp(1j * freqs[s] * x) / (1.0 + x)

    values, errs, panels = integrate_batch(per_row(batch), freqs.size, breakpoints=(0.3,))
    for s, om in enumerate(freqs):
        calls = []

        def one(x, om=om):
            calls.append(x.size // NODES.size)
            return np.exp(1j * om * x) / (1.0 + x)

        val, err = integrate(IntegrationProblem(one, (0.3,)))
        assert abs(values[s] - val) <= 1e-14 * abs(val)
        assert abs(errs[s] - err) <= 1e-6 * err + 1e-8 * abs(val)
        assert panels[s] == sum(calls)


def test_batch_samples_start_from_panels_no_wider_than_their_width():
    # each sample's breakpoint panels are bisected, a round at a time, until
    # none is wider than its own starting width, and the sample subdivides
    # from there as a lone integral from those panels does; a width of 1
    # bisects nothing, as the default does, and a tiny one stops at the
    # last round that fits one row call
    freqs = np.array([3.0, 40.0, 400.0, 400.0])
    widths = np.array([1.0, 0.2, 0.01, 1e-9])

    def batch(x, s):
        return np.exp(1j * freqs[s] * x) / (1.0 + x)

    generations = []

    def integrand(nodes):
        rows = per_row(batch)(nodes)
        samples = []
        generations.append(samples)

        def recorded(panel, sample):
            samples.append(sample)
            return rows(panel, sample)

        return recorded

    values, errs, panels = integrate_batch(integrand, freqs.size, (0.3,), width=widths)
    # the panels 0.3 and 0.7 wide: two, then 2 + 4 and 32 + 128 panels, and
    # 512 within the 780 rows of a call
    assert np.bincount(np.concatenate(generations[0])).tolist() == [2, 6, 160, 512]
    assert 512 <= PANELS_PER_CALL < 1024
    for s, (om, w) in enumerate(zip(freqs, widths)):
        value, err, used = integrate_one(
            IntegrationProblem(lambda x, om=om: np.exp(1j * om * x) / (1.0 + x), (0.3,), width=w))
        assert abs(values[s] - value) <= 1e-14 * abs(value)
        assert abs(errs[s] - err) <= 1e-6 * err + 1e-8 * abs(value)
        assert panels[s] == used
    default = integrate_batch(per_row(batch), 1, (0.3,))
    assert all(np.array_equal(a, b) for a, b in zip(
        default, integrate_batch(per_row(batch), 1, (0.3,), width=1.0)))


def test_batch_splits_large_generations():
    # a generation wider than PANELS_PER_CALL goes out in bounded calls
    sizes = []

    def batch(x, s):
        sizes.append(x.shape[0])
        return np.ones(x.shape, dtype=np.complex128)

    n = PANELS_PER_CALL + 5
    values, _, panels = integrate_batch(per_row(batch), n)
    assert max(sizes) <= PANELS_PER_CALL
    assert np.all(panels == 1) and np.allclose(values, 1.0, rtol=0, atol=1e-15)
    empty = integrate_batch(per_row(batch), 0)
    assert all(a.size == 0 for a in empty)


def test_integrand_stages_once_per_generation(monkeypatch):
    # the node stage sees each generation's distinct panels once, however
    # many bounded row calls the generation takes, and the row calls name
    # every work-list row once: two samples of one frequency share their
    # panels, and the first generation is the two starting panels
    freqs = np.array([0.0, 3.0, 40.0, 400.0, 400.0])
    expected = integrate_batch(per_row(lambda x, s: np.exp(1j * freqs[s] * x) / (1.0 + x)),
                               freqs.size, breakpoints=(0.3,))
    monkeypatch.setattr(quadrature, "PANELS_PER_CALL", 3)
    generations = []

    def integrand(nodes):
        rows_seen = []
        generations.append((nodes, rows_seen))

        def rows(panel, sample):
            assert panel.size <= 3
            rows_seen.extend(zip(panel.tolist(), sample.tolist()))
            x = nodes[panel]
            return np.exp(1j * freqs[sample, None] * x) / (1.0 + x)

        return rows

    values, errs, panels = integrate_batch(integrand, freqs.size, breakpoints=(0.3,))
    first_nodes, first_rows = generations[0]
    assert np.array_equal(first_nodes[:, [0, -1]] > 0.3, [[False, False], [True, True]])
    assert len(first_rows) == 2 * freqs.size
    for nodes, rows_seen in generations:
        assert np.unique(nodes, axis=0).shape[0] == nodes.shape[0]
        assert len(set(rows_seen)) == len(rows_seen)
        assert {panel for panel, _ in rows_seen} == set(range(nodes.shape[0]))
    assert sum(len(rows_seen) for _, rows_seen in generations) == panels.sum()
    assert any(len(rows_seen) > nodes.shape[0] for nodes, rows_seen in generations[1:])
    # other call sizes round the panel sums otherwise: an error estimate,
    # a difference of two sums, moves by the rounding of the value
    assert np.all(np.abs(values - expected[0]) <= 1e-15 * np.abs(expected[0]))
    assert np.all(np.abs(errs - expected[1]) <= 1e-15 * np.abs(expected[0]))
    assert np.array_equal(panels, expected[2])


def test_generation_tells_panels_of_one_left_edge_apart():
    # samples that start from panels of other widths hold panels of other
    # depths in one generation, some on one left edge: each distinct pair
    # of end points gets a table row, and each row the sums of its panel
    lo = np.array([0.0, 0.0, 0.5, 0.0])
    hi = np.array([0.5, 0.25, 1.0, 0.5])
    sample = np.array([0, 1, 0, 2])
    tables = []

    def integrand(nodes):
        tables.append(nodes)
        return lambda panel, s: np.exp(1j * nodes[panel]) * (1.0 + s[:, None])

    kron, err, scale = quadrature._evaluate(integrand, lo, hi, sample)
    (nodes,) = tables
    assert nodes.shape[0] == 3
    # in the order of their end points: [0, 0.25], [0, 0.5], [0.5, 1]
    assert np.array_equal(nodes[:, [0, -1]] < 0.25, [[True, True], [True, False],
                                                     [False, False]])
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * NODES
    want = _panel_sums(np.exp(1j * x) * (1.0 + sample[:, None]), half)
    assert all(np.array_equal(a, b) for a, b in zip((kron, err, scale), want))


def test_sample_sums_bitwise_equal_per_sample_sum():
    # the grouped row sums equal each sample's own .sum() of its panels in
    # left-edge order bit for bit, at counts on both sides of numpy's
    # 8-element pairwise block and its 128-element unrolling, and above 1000
    rng = np.random.default_rng(7)
    counts = np.repeat([1, 2, 3, 7, 8, 9, 16, 17, 128, 129, 1500, 2049],
                       [40, 30, 1, 20, 25, 20, 15, 10, 5, 4, 2, 1])
    counts = counts[rng.permutation(counts.size)]
    samples = counts.size
    owner = np.repeat(np.arange(samples), counts)
    shuffle = rng.permutation(owner.size)
    owner = owner[shuffle]
    lo = rng.random(owner.size)
    scale = 10.0 ** rng.integers(-8, 8, owner.size)
    vals = scale * (rng.standard_normal(owner.size) + 1j * rng.standard_normal(owner.size))
    errs = 10.0 ** rng.integers(-16, 0, owner.size) * rng.random(owner.size)

    values, sums = _sample_sums(owner, lo, vals, errs, samples)
    want_values = np.empty(samples, dtype=np.complex128)
    want_sums = np.empty(samples)
    for s in range(samples):
        mine = np.flatnonzero(owner == s)
        order = mine[np.argsort(lo[mine], kind="stable")]
        want_values[s] = vals[order].sum()
        want_sums[s] = errs[order].sum()
    assert np.array_equal(values, want_values)
    assert np.array_equal(sums, want_sums)


def test_stagnation_returns_noise_floor(monkeypatch):
    # amplitude-1e-13 chatter is far below the resolvable floor; the error
    # sum stalls and the integrator reports it honestly instead of raising
    f = lambda x: 1.0 + 1e-13 * np.sin(1e6 * x) + 0j
    _budget(monkeypatch, 1e-16)
    problem = IntegrationProblem(f, abs_tol=1e-16)
    val, err = integrate(problem)
    assert abs(val - 1.0) < 1e-11
    assert 0.0 < err < 1e-10


def test_cancellation_floor_accepted():
    # exact integral 0 with L1 mass 2.5e7: the error estimate sits at the
    # rounding floor of the mass and must be accepted, not chased
    val, err = integrate_function(lambda x: 1e8 * (x - 0.5) + 0j)
    assert abs(val) < 1e-6


def test_deterministic_bitwise():
    f = lambda x: np.exp(1j * 37.0 * x) / (1.0 + x)
    a = integrate_function(f, breakpoints=(0.3, 0.6))
    b = integrate_function(f, breakpoints=(0.3, 0.6))
    assert a[0] == b[0] and a[1] == b[1]


@pytest.mark.parametrize("bad", [(1.5,), (-0.1,), (0.0,), (1.0,), (0.5, 0.5),
                                 (0.7, 0.3)])
def test_breakpoint_validation(bad):
    with pytest.raises(ValueError):
        integrate_batch(per_row(lambda x, s: x), 1, breakpoints=bad)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        integrate_batch(per_row(lambda x, s: x), 1, abs_tol=0.0)
    with pytest.raises(ValueError):
        integrate_batch(per_row(lambda x, s: x), 1, abs_tol=-1.0)


coef = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                          allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(a=coef, b=coef)
def test_linearity(a, b):
    f = lambda x: np.sin(3.0 * x) + 0j
    g = lambda x: x ** 2 * np.exp(1j * x)
    fa, _ = integrate_function(f)
    ga, _ = integrate_function(g)
    combo, _ = integrate_function(lambda x: a * f(x) + b * g(x))
    assert abs(combo - (a * fa + b * ga)) <= 1e-9 * (1.0 + abs(a) + abs(b))
