"""Free-propagator values and derivative recursion against frozen references.

The frozen constants were produced with 50-digit arithmetic from the closed
form e^{i x^2/4t} / sqrt(4 pi i t) and its derivative polynomials.
"""
import mpmath
import numpy as np
import pytest

from schroflat import KernelError, kernel
from schroflat.cli import load_scenario
from schroflat.kernel import MAX_ORDER, derivative_coefficients
from schroflat.quadrature import NODES

from conftest import assert_close
from oracles import (derivative_coefficients_one, fundamental_solution, general_odd_kernel,
                     kernel_derivative, odd_kernel, order0_kernel_interleaved,
                     shifted_coefficients, taylor_shift)

E_ORACLES = [
    (0.35, 1.0, 0.47562208202851321877 - 0.033879780162444889769j),
    (0.1, 1.0, -0.12784174522086386416 + 0.88285401037677818662j),
    (-0.1, 0.5, 0.88061134472098074938 + 0.14247236577028769449j),
    (1.0, 0.0, 0.19947114020071633897 - 0.19947114020071633897j),
]

DERIV_ORACLES = [
    (3, 0.35, 0.5, -1.2981625262744408206 + 0.68965354376482749672j),
    (5, 0.35, 0.3, -3.7228938993032585975 - 5.0473546766002566901j),
    (8, 0.1, 1.0, 1133650.189328620785 - 2382201.0522461417593j),
    (31, 0.35, 0.8, -70317036389810778671.0 + 57513730559318968123.0j),
]


@pytest.mark.parametrize("t,x,expected", E_ORACLES)
def test_fundamental_solution_frozen(t, x, expected):
    assert_close(fundamental_solution(t, x), expected, rel=1e-14)


@pytest.mark.parametrize("m,t,x,expected", DERIV_ORACLES)
def test_kernel_derivative_frozen(m, t, x, expected):
    assert_close(kernel_derivative(t, x, m), expected, rel=1e-12)


def test_order_zero_is_fundamental_solution():
    x = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(kernel_derivative(0.35, x, 0),
                               fundamental_solution(0.35, x), rtol=1e-15)


def _richardson_derivative(f, x, h):
    """Fourth-order Richardson limit of the central difference of f at x."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("t", [0.1, 0.35, 1.0])
@pytest.mark.parametrize("m", range(1, 9))
def test_derivatives_match_finite_differences(t, m):
    # each order m is checked as the numerical x-derivative of order m-1,
    # anchoring the whole recursion to the closed-form E by induction
    f = lambda x: kernel_derivative(t, x, m - 1)
    for x in (0.2, 0.5, 0.8, 1.0):
        fd = _richardson_derivative(f, x, 1e-3)
        exact = kernel_derivative(t, x, m)
        assert abs(fd - exact) <= 1e-6 * abs(exact)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 8])
def test_parity_in_x(m):
    # p_m has the parity of m, so d^m E(t,-x) = (-1)^m d^m E(t,x)
    x = np.linspace(0.1, 1.9, 19)
    left = kernel_derivative(0.35, -x, m)
    right = (-1.0) ** m * kernel_derivative(0.35, x, m)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-15 * np.abs(right).max())


def test_scalar_and_array_agree():
    xs = np.array([0.3, 0.7, 1.1])
    arr = kernel_derivative(0.35, xs, 4)
    for i, x in enumerate(xs):
        assert kernel_derivative(0.35, float(x), 4) == arr[i]
    assert np.isscalar(kernel_derivative(0.35, 0.3, 4)) or np.asarray(
        kernel_derivative(0.35, 0.3, 4)).ndim == 0


def test_odd_kernel_is_difference_of_translates():
    # the package's two cases, order 0 away from the wall and odd orders at
    # it, and the general oracle's orders at x = 1
    y = np.linspace(0.05, 0.95, 10)
    for x, m, kern in ((1.0, 0, odd_kernel), (0.0, 1, odd_kernel), (0.0, 3, odd_kernel),
                       (1.0, 1, general_odd_kernel), (1.0, 2, general_odd_kernel),
                       (1.0, 3, general_odd_kernel)):
        expect = (kernel_derivative(0.35, x - y, m)
                  - kernel_derivative(0.35, x + y, m))
        np.testing.assert_allclose(kern(0.35, x, y, m), expect, rtol=1e-14)


def _mp_derivative_polynomials(t, order):
    """Coefficients of p_0 .. p_order in 50-digit arithmetic."""
    polys = [[mpmath.mpc(1)]]
    for k in range(order):
        c = polys[-1]
        nxt = [mpmath.mpc(0)] * (k + 2)
        for j in range(1, k + 1):
            nxt[j - 1] += j * c[j]
        for j in range(k + 1):
            nxt[j + 1] += 1j / (2 * t) * c[j]
        polys.append(nxt)
    return polys


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.35, 1.4])
def test_odd_kernel_against_mpmath(t):
    # pointwise relative error 1e-12, down to y = 1e-9 where the two
    # translates agree to 9 digits.  Where F itself vanishes (m = 0 at
    # theta = xy/2t = k pi) no evaluation from the rounded phase theta keeps
    # relative accuracy, so the bound adds a few ulps of theta times
    # |dF/dtheta| <= |d^m E(t,x-y)| + |d^m E(t,x+y)|; as y -> 0 that term
    # shrinks with theta and excuses no cancellation.  Order 0 runs at any
    # x; at the wall x = 0, the seed's point, theta is 0 and the even
    # orders vanish exactly.
    y = np.concatenate([np.geomspace(1e-9, 1e-2, 8), np.linspace(0.02, 1.99, 200)])
    for x in (1.0, 0.4):
        _assert_against_mpmath(t, x, y, (0,))
    _assert_against_mpmath(t, 0.0, y, range(9))


def _assert_against_mpmath(t, x, y, orders):
    got = {m: odd_kernel(t, x, y, m) for m in orders}
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(50):
        tm = mpmath.mpf(t)
        polys = _mp_derivative_polynomials(tm, max(orders))
        amplitude = 1 / mpmath.sqrt(4j * mpmath.pi * tm)
        for i, yi in enumerate(y):
            translates = []
            for z in (x - mpmath.mpf(yi), x + mpmath.mpf(yi)):
                e = amplitude * mpmath.exp(1j * z * z / (4 * tm))
                translates.append([e * mpmath.polyval(p[::-1], z) for p in polys])
            for m in orders:
                left, right = translates[0][m], translates[1][m]
                ref = complex(left - right)
                tol = 1e-12 * abs(ref) + 4 * eps * x * yi / (2.0 * t) * (
                    abs(complex(left)) + abs(complex(right)))
                assert abs(got[m][i] - ref) <= tol, (x, m, yi, abs(got[m][i] - ref), tol)


def test_odd_kernel_orders_share_one_evaluation():
    # a tuple of orders at the wall stacks the single-order results bit for
    # bit: the zero padding of the lower orders' tables adds exact zeros.
    # The second case is the seed's: orders 1, 3, ..., 31.
    t = np.array([[0.01], [0.35]])
    y = np.linspace(0.0, 2.0, 15)[None, :] + np.zeros((2, 1))
    for x, orders in ((0.0, (0, 2, 5)), (0.0, tuple(range(1, 32, 2)))):
        stacked = odd_kernel(t, x, y, orders)
        assert stacked.shape == (len(orders), 2, 15)
        for row, m in zip(stacked, orders):
            assert np.array_equal(row, odd_kernel(t, x, y, m)), (x, m)


def test_odd_kernel_odd_in_y():
    y = np.linspace(0.1, 1.5, 8)
    for x, m in ((0.6, 0), (0.0, 3)):
        v_plus = odd_kernel(0.2, x, y, m)
        v_minus = odd_kernel(0.2, x, -y, m)
        np.testing.assert_allclose(v_minus, -v_plus, rtol=1e-14)
        assert odd_kernel(0.2, x, 0.0, m) == 0.0


def test_derivative_orders_away_from_the_wall_rejected():
    # the kernel has order 0 at any x and the derivative orders at x = 0 only
    t = np.array([[0.35]])
    y = np.linspace(0.1, 0.9, 15)[None, :]
    for x in (1.0, 1e-300):
        with pytest.raises(KernelError, match="wall"):
            kernel.odd_kernel(t, np.array([[x]]), y, derivative_coefficients(t, (0, 2)))


def test_singular_time_rejected():
    with pytest.raises(KernelError):
        fundamental_solution(0.0, 1.0)
    with pytest.raises(KernelError):
        kernel_derivative(0.0, 1.0, 2)
    with pytest.raises(KernelError):
        odd_kernel(0.0, 1.0, 0.5, 0)
    # the tables guard every order, order 0 too, whose table has no 1/t term
    # to overflow
    with pytest.raises(KernelError):
        derivative_coefficients(0.0, (0,))


def test_table_overflow_is_a_kernel_error():
    # at t = 1e-6 the order-61 table's leading coefficient (i/2t)^61 passes
    # the float range: an error the caller can report, not a warning
    with pytest.raises(KernelError, match="overflow at order 61"):
        derivative_coefficients(1e-6, (1, 61))


def test_order_cap_enforced():
    with pytest.raises(KernelError):
        kernel_derivative(0.35, 1.0, MAX_ORDER + 1)
    # the cap itself is representable
    assert np.isfinite(kernel_derivative(0.35, 1.0, MAX_ORDER))


def test_poly_coefficient_parity():
    p, q = derivative_coefficients(0.35, (7, 6))
    assert np.all(p[0::2] == 0)  # even slots vanish for odd order
    assert np.all(q[1::2] == 0)


def test_coefficients_vectorized_over_time():
    # one table for a batch of times equals the per-time tables bit for bit
    ts = np.array([0.05, 0.35, 1.0, 2.5])
    table = derivative_coefficients(ts, (9,))[0]
    assert table.shape == (4, 10)
    for t, row in zip(ts, table):
        assert np.array_equal(row, derivative_coefficients(float(t), (9,))[0])


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.35, 1.4])
def test_one_pass_tables_match_per_order_shift(t):
    # each order's table from the one pass against its own recurrence run:
    # bitwise for every order.  The oracle's tables shifted to x against
    # the Taylor shift: bitwise at x = 1 for orders 0 to 3, elsewhere within
    # rounding of the table's largest coefficient.  At x = 0.4 order 2
    # already rounds differently at some t: the pass forms p_2(x) as
    # h + (xh)(xh), the shift as h + x(x h^2).
    at_zero = derivative_coefficients(t, range(MAX_ORDER + 1))
    for m, table in enumerate(at_zero):
        assert table[: m + 1].tobytes() == derivative_coefficients_one(t, m).tobytes(), m
        assert np.all(table[m + 1:] == 0)
    orders = range(32)
    for x, exact in ((0.4, 2), (1.0, 4)):
        tables = shifted_coefficients(t, x, orders)
        for m in orders:
            ref = taylor_shift(derivative_coefficients_one(t, m), x)
            got = tables[m, : m + 1]
            if m < exact:
                assert got.tobytes() == ref.tobytes(), (x, m)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (x, m)
            assert np.all(tables[m, m + 1:] == 0)


def test_tables_broadcast_time_and_position():
    # one t per row: each row's tables equal its own call's bit for bit;
    # so do the oracle's tables of one (t, x) per row
    t = np.array([[0.1], [0.35], [1.0]])
    x = np.array([[1.0], [0.4], [0.7]])
    tables = derivative_coefficients(t, (2, 0, 5))
    shifted = shifted_coefficients(t, x, (2, 0, 5))
    assert tables.shape == shifted.shape == (3, 3, 1, 6)
    for i in range(3):
        one = derivative_coefficients(float(t[i, 0]), (2, 0, 5))
        assert tables[:, i, 0].tobytes() == one.tobytes()
        one = shifted_coefficients(float(t[i, 0]), float(x[i, 0]), (2, 0, 5))
        assert shifted[:, i, 0].tobytes() == one.tobytes()


def test_table_orders_outside_range_rejected():
    with pytest.raises(KernelError):
        derivative_coefficients(0.35, (1, MAX_ORDER + 1))
    with pytest.raises(KernelError):
        derivative_coefficients(0.35, (-1, 2))


def test_odd_kernel_per_point_time_and_position():
    # a batch of (t, x) samples, one per point, matches scalar calls: order
    # 0 anywhere, the derivative orders at the wall
    t = np.array([0.1, 0.35, 0.35, 1.0])
    y = np.array([0.3, 0.6, 0.2, 0.9])
    for x, m in ((np.array([1.0, 1.0, 0.4, 0.7]), 0), (np.zeros(4), 2), (np.zeros(4), 3)):
        batch = odd_kernel(t, x, y, m)
        for i in range(4):
            assert batch[i] == odd_kernel(float(t[i]), float(x[i]), float(y[i]), m)
        np.testing.assert_allclose(
            kernel_derivative(t, x, m),
            [kernel_derivative(float(ti), float(xi), m) for ti, xi in zip(t, x)],
            rtol=1e-15)


@pytest.mark.parametrize("name", ["gentle", "reference", "beam"])
def test_order0_kernel_matches_the_interleaved_one_bit_for_bit(name):
    # every phase-1 time of the builtin's grid and t = 1e-4, at x = 1, on
    # Gauss-Kronrod rows of 16 panels over the datum's support
    sc = load_scenario(name)
    times = sc.sim.times()
    t = np.append(times[(times > 0) & (times < sc.tau)], 1e-4)[:, None, None]
    support = 2.0 if sc.equation == "beam" else 1.0
    edges = np.linspace(0.0, support, 17)
    y = (edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (NODES + 1.0))[None]
    t, y = (a.reshape(-1, a.shape[-1]) for a in np.broadcast_arrays(t, y))
    t = t[:, :1].copy()
    x = np.ones_like(t)
    got = kernel.odd_kernel(t, x, y, derivative_coefficients(t, (0,)))
    assert got.shape == (1,) + y.shape
    assert got.tobytes() == order0_kernel_interleaved(t, x, y).tobytes()
