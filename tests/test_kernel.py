"""Free-propagator values and derivative recursion against frozen references.

The frozen constants were produced with 50-digit arithmetic from the closed
form e^{i x^2/4t} / sqrt(4 pi i t) and its derivative polynomials.
"""
import numpy as np
import pytest

from schroflat import KernelError, fundamental_solution, kernel_derivative, odd_kernel
from schroflat.kernel import MAX_ORDER, derivative_coefficients

from conftest import assert_close

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
    y = np.linspace(0.05, 0.95, 10)
    for m in (0, 1, 3):
        expect = (kernel_derivative(0.35, 1.0 - y, m)
                  - kernel_derivative(0.35, 1.0 + y, m))
        np.testing.assert_allclose(odd_kernel(0.35, 1.0, y, m), expect, rtol=1e-14)


def test_odd_kernel_odd_in_y():
    y = np.linspace(0.1, 1.5, 8)
    v_plus = odd_kernel(0.2, 0.6, y, 2)
    v_minus = odd_kernel(0.2, 0.6, -y, 2)
    np.testing.assert_allclose(v_minus, -v_plus, rtol=1e-14)
    assert odd_kernel(0.2, 0.6, 0.0, 2) == 0.0


def test_singular_time_rejected():
    with pytest.raises(KernelError):
        fundamental_solution(0.0, 1.0)
    with pytest.raises(KernelError):
        kernel_derivative(0.0, 1.0, 2)
    with pytest.raises(KernelError):
        odd_kernel(0.0, 1.0, 0.5, 0)


def test_order_cap_enforced():
    with pytest.raises(KernelError):
        kernel_derivative(0.35, 1.0, MAX_ORDER + 1)
    # the cap itself is representable
    assert np.isfinite(kernel_derivative(0.35, 1.0, MAX_ORDER))


def test_poly_coefficient_parity():
    p = derivative_coefficients(0.35, 7)
    assert np.all(p[0::2] == 0)  # even slots vanish for odd order
    q = derivative_coefficients(0.35, 6)
    assert np.all(q[1::2] == 0)


def test_coefficients_vectorized_over_time():
    # one table for a batch of times equals the per-time tables bit for bit
    ts = np.array([0.05, 0.35, 1.0, 2.5])
    table = derivative_coefficients(ts, 9)
    assert table.shape == (4, 10)
    for t, row in zip(ts, table):
        assert np.array_equal(row, derivative_coefficients(float(t), 9))


def test_odd_kernel_per_point_time_and_position():
    # a batch of (t, x) samples, one per point, matches scalar calls
    t = np.array([0.1, 0.35, 0.35, 1.0])
    x = np.array([1.0, 1.0, 0.4, 0.7])
    y = np.array([0.3, 0.6, 0.2, 0.9])
    for m in (0, 2, 3):
        batch = odd_kernel(t, x, y, m)
        for i in range(4):
            assert batch[i] == odd_kernel(float(t[i]), float(x[i]), float(y[i]), m)
        np.testing.assert_allclose(
            kernel_derivative(t, x, m),
            [kernel_derivative(float(ti), float(xi), m) for ti, xi in zip(t, x)],
            rtol=1e-15)
