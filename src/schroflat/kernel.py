"""Fundamental solution of the free Schrodinger equation and its x-derivatives.

E(t,x) = e^{i x^2 / 4t} / sqrt(4 pi i t) solves i E_t + E_xx = 0 for t != 0.
Every x-derivative has the form d^m E = p_m(x) E(t,x) where p_m is a
polynomial of degree m with the parity of m, obtained from

    p_0 = 1,    p_{m+1} = p_m' + (i x / 2t) p_m.

The phase-1 integrand needs them centred at a point x, as tables in y of
q_m(y) = p_m(x+y): at x = 1 for the boundary trace, at the wall x = 0 for
the flat-output seed, where they are those of p_m.  The recurrence with
x+y in place of x gives them, every order asked for in one pass:

    q_0 = 1,    q_{m+1} = q_m' + (i (x+y) / 2t) q_m.

The odd-symmetrized kernel F(t,x,y) = E(t,x-y) - E(t,x+y) realizes the
Dirichlet condition at x = 0 for odd data.  odd_kernel evaluates it in
product form, one complex exponential and one real sine (and cosine, for
m > 0) per point whatever the number of derivative orders asked for, and
without the cancellation of the two translates as y -> 0.  All the orders
go through one pass of array operations on their zero-padded tables.

Every function accepts a time per point: t broadcasts against x (and y),
so one call evaluates a batch of samples at different times.  The
coefficients of p_m are built for the whole batch in one pass of the
recurrence; nothing is cached between calls.  odd_kernel takes the tables
its caller builds, so a caller that evaluates the kernel at the same
points many times builds them once.  horner evaluates ascending
coefficient tables for the package's piecewise polynomials.
"""
import numpy as np

MAX_ORDER = 64


class KernelError(ValueError):
    """Domain or capability violation in kernel evaluation."""


def derivative_coefficients(t, x, orders):
    """Tables of q_m(y) = p_m(x+y), ascending in y, for each order m in orders.

    t and x broadcast together.  Returns an array of shape (len(orders),)
    + that shape + (max(orders)+1,): order m's table holds p_m^(k)(x)/k!,
    zero-padded above degree m.  At x = 0 the entries of the parity
    opposite to m are exactly zero.  The kernel is singular at t = 0,
    which raises KernelError for every order.
    """
    top = max(orders)
    if min(orders) < 0 or top > MAX_ORDER:
        raise KernelError(f"derivative order outside [0, {MAX_ORDER}] in {tuple(orders)}")
    t, x = np.broadcast_arrays(np.asarray(t, dtype=np.float64),
                               np.asarray(x, dtype=np.float64))
    if np.any(t == 0):
        raise KernelError("kernel is singular at t = 0")
    half = 1j / (2.0 * t[..., None])
    shift = half * x[..., None]
    c = np.zeros(t.shape + (top + 1,), dtype=np.complex128)
    c[..., 0] = 1.0
    built = [c]
    for m in range(top):
        c = np.zeros_like(c)
        c[..., : m + 1] = np.arange(1, m + 2) * built[m][..., 1 : m + 2]
        c[..., 1 : m + 2] += half * built[m][..., : m + 1]
        c[..., : m + 1] += shift * built[m][..., : m + 1]
        built.append(c)
    if not np.all(np.isfinite(c)):
        raise KernelError(f"coefficient overflow at order {top}")
    return np.stack([built[m] for m in orders])


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


def _even_poly(c, y2):
    """sum_k c[..., k] y2^k for a real table c; a lone c[..., 0] is returned
    as it is, unbroadcast."""
    acc = c[..., -1]
    for j in range(c.shape[-1] - 2, -1, -1):
        acc = acc * y2 + c[..., j]
    return acc


def odd_kernel(t, x, y, tables):
    """d^m/dx^m F(t,x,y) with F(t,x,y) = E(t,x-y) - E(t,x+y), in product form.

    With C = e^{i(x^2+y^2)/4t} / sqrt(4 pi i t) and theta = xy/2t the
    translates are E(t,x-+y) = C e^{-+i theta}.  Splitting
    p_m(x+-y) = A(y) +- B(y) into its even and odd parts in y, read off the
    tables of p_m(x+y) that one derivative_coefficients call builds for all
    the orders, gives

        d^m F = -2 C (i A sin(theta) + B cos(theta)),

    free of the cancellation of the two translates as y -> 0.  At x = 0,
    theta vanishes and d^m F = -2 p_m(y) E(t,y) for odd m.  The products
    over the points run in real arithmetic (numpy's complex products round
    differently in its vector and scalar loops), so a point's value does
    not depend on the batch it is evaluated in.

    y is the array of quadrature nodes; t and x are float arrays of one
    shape that broadcasts against y's trailing axes, for instance one
    (t, x) per row of y.  tables is derivative_coefficients(t, x, orders)
    of those points, one zero-padded table per order.  The result stacks
    one array per order on a leading axis: C, sin(theta) and cos(theta)
    are computed once for all of them, and all the orders go through the
    same array operations, where a padded zero keeps Horner's partial sums
    exactly zero up to the order's own leading coefficient.
    """
    shape = np.broadcast_shapes(t.shape, y.shape)
    # the order axis leads, the points' axes align with the nodes' trailing ones
    tables = tables.reshape(tables.shape[:1] + (1,) * (len(shape) - t.ndim)
                            + tables.shape[1:])
    top = tables.shape[-1] - 1
    theta = x * y
    theta /= 2.0 * t
    sin_t = np.sin(theta)
    if top > 0:
        ycos_t = np.cos(theta, out=theta)
        ycos_t *= y
    del theta
    y2 = y * y
    # first G = -2 (i A sin(theta) + B cos(theta)) / sqrt(4 pi i t) per
    # order; the amplitude and the i go into the coefficients
    d = tables * (-2.0 / np.sqrt(4j * np.pi * t))[..., None]
    even, odd = 1j * d[..., 0::2], d[..., 1::2]
    vals = np.empty(tables.shape[:1] + shape, dtype=np.complex128)
    # a leading order 0 (p_0 = 1) skips the padded steps: A is its lone
    # coefficient, and B vanishes
    lead = int(not tables[0, ..., 1:].any())
    # A vanishes where every even coefficient of the other orders does, as
    # for odd orders at the wall x = 0: its Horner pass is then skipped
    with_a = tables[lead:, ..., 0::2].any()
    for part, a, b in ((vals.real, even.real, odd.real), (vals.imag, even.imag, odd.imag)):
        np.multiply(a[:lead, ..., 0], sin_t, out=part[:lead])
        if with_a:
            np.multiply(_even_poly(a[lead:], y2), sin_t, out=part[lead:])
            if top > 0:
                part[lead:] += _even_poly(b[lead:], y2) * ycos_t
        elif top > 0:
            np.multiply(_even_poly(b[lead:], y2), ycos_t, out=part[lead:])
    # then G times the phase factor e^{i(x^2+y^2)/4t} of C, in real
    # arithmetic; the theta factors go first, so the peak memory stays low
    sin_t = ycos_t = None
    rot = np.zeros(shape, dtype=np.complex128)
    np.add(y2, x * x, out=rot.imag)
    y2 = None
    rot.imag /= 4.0 * t
    np.exp(rot, out=rot)
    gi_s = vals.imag * rot.imag
    gr_s = vals.real * rot.imag
    vals.real *= rot.real
    vals.real -= gi_s
    vals.imag *= rot.real
    vals.imag += gr_s
    return vals
