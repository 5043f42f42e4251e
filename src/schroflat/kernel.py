"""Fundamental solution of the free Schrodinger equation and its x-derivatives.

E(t,x) = e^{i x^2 / 4t} / sqrt(4 pi i t) solves i E_t + E_xx = 0 for t != 0.
Every x-derivative has the form d^m E = p_m(x) E(t,x) where p_m is a
polynomial of degree m with the parity of m, obtained from

    p_0 = 1,    p_{m+1} = p_m' + (i x / 2t) p_m.

The odd-symmetrized kernel F(t,x,y) = E(t,x-y) - E(t,x+y) realizes the
Dirichlet condition at x = 0 for odd data.

Every function accepts a time per point: t broadcasts against x (and y),
so one call evaluates a batch of samples at different times.  The
coefficients of p_m are built for the whole batch in one pass of the
recurrence; nothing is cached between calls.  horner evaluates ascending
coefficient tables, here and for the package's piecewise polynomials.
"""
import numpy as np

MAX_ORDER = 64


class KernelError(ValueError):
    """Domain or capability violation in kernel evaluation."""


def derivative_coefficients(t, order):
    """Coefficients of p_order, ascending in x, for each time in t.

    Returns an array of shape np.shape(t) + (order+1,); entries of the
    parity opposite to the order are exactly zero by construction.
    """
    if order < 0 or order > MAX_ORDER:
        raise KernelError(f"derivative order {order} outside [0, {MAX_ORDER}]")
    t = np.asarray(t, dtype=np.float64)
    c = np.zeros(t.shape + (order + 1,), dtype=np.complex128)
    c[..., 0] = 1.0
    half = 1j / (2.0 * t[..., None])
    for m in range(order):
        nxt = np.zeros_like(c)
        nxt[..., : m + 1] = np.arange(1, m + 2) * c[..., 1 : m + 2]
        nxt[..., 1 : m + 2] += half * c[..., : m + 1]
        c = nxt
    if not np.all(np.isfinite(c)):
        raise KernelError(f"coefficient overflow at order {order}")
    return c


def horner(coeffs, x):
    """Ascending coefficients (trailing axis) evaluated at x, pointwise.

    Leading (highest-degree) zero coefficients contribute exact zeros, so
    polynomials of several degrees can share one zero-padded table.
    """
    acc = np.broadcast_to(coeffs[..., -1], x.shape).astype(np.complex128)
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        acc *= x
        acc += coeffs[..., j]
    return acc


def _check_times(t):
    t = np.asarray(t, dtype=np.float64)
    if np.any(t == 0):
        raise KernelError("kernel is singular at t = 0")
    return t


def fundamental_solution(t, x):
    """E(t,x) with the principal branch of the square root.

    t (nonzero) and x are scalars or arrays that broadcast together.
    """
    t = _check_times(t)
    x = np.asarray(x, dtype=np.float64)
    return np.exp(1j * x * x / (4.0 * t)) / np.sqrt(4j * np.pi * t)


def kernel_derivative(t, x, m):
    """d^m/dx^m E(t,x) = p_m(x) E(t,x) for scalar or array x (and t).

    t is one time or one time per point of x.
    """
    t = _check_times(t)
    scalar = np.ndim(x) == 0 and t.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if m == 0:
        vals = fundamental_solution(t, x)
    else:
        vals = horner(derivative_coefficients(t, m), x) * fundamental_solution(t, x)
    return vals[0] if scalar else vals


def odd_kernel(t, x, y, m=0):
    """d^m/dx^m F(t,x,y) with F(t,x,y) = E(t,x-y) - E(t,x+y).

    y is the quadrature variable; t and x are scalars or arrays that
    broadcast against it, for instance one (t, x) per row of y.
    """
    t = _check_times(t)
    scalar = np.ndim(y) == 0
    ya = np.atleast_1d(np.asarray(y, dtype=np.float64))
    xa = np.asarray(x, dtype=np.float64)
    vals = kernel_derivative(t, xa - ya, m) - kernel_derivative(t, xa + ya, m)
    return vals[0] if scalar else vals
