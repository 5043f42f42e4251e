"""Odd-symmetrized fundamental solution of the free Schrodinger equation.

E(t,x) = e^{i x^2 / 4t} / sqrt(4 pi i t) solves i E_t + E_xx = 0 for t != 0,
and F(t,x,y) = E(t,x-y) - E(t,x+y) realizes the Dirichlet condition at x = 0
for odd data.  Phase 1 needs F at order 0 at any x (free evolutions and
traces, the beam's hinge moment included) and its x-derivatives at the wall
x = 0 (the flat-output seed).  There d^m E = p_m E, where p_m has degree m
and the parity of m,

    p_0 = 1,    p_{m+1} = p_m' + (i x / 2t) p_m,

so d^m F(t,0,y) = -2 p_m(y) E(t,y) for odd m, and zero for even m.

t broadcasts against y, so one call evaluates samples at different times.
The tables of p_m are built for a batch of times in one pass of the
recurrence and handed to odd_kernel by its caller; nothing is cached.
horner evaluates ascending coefficient tables for the package's piecewise
polynomials.
"""
import numpy as np

MAX_ORDER = 64


class KernelError(ValueError):
    """Domain or capability violation in kernel evaluation."""


def derivative_coefficients(t, orders):
    """Tables of p_m, ascending, for each order m in orders.

    Returns an array of shape (len(orders),) + np.shape(t) + (max(orders)+1,):
    order m's table holds the coefficients of p_m, zero-padded above degree
    m; the entries of the parity opposite to m are exactly zero.  The
    kernel is singular at t = 0, which raises KernelError for every order.
    """
    top = max(orders)
    if min(orders) < 0 or top > MAX_ORDER:
        raise KernelError(f"derivative order outside [0, {MAX_ORDER}] in {tuple(orders)}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t == 0):
        raise KernelError("kernel is singular at t = 0")
    half = 1j / (2.0 * t[..., None])
    c = np.zeros(t.shape + (top + 1,), dtype=np.complex128)
    c[..., 0] = 1.0
    built = [c]
    # an overflow is reported below, as a KernelError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(top):
            c = np.zeros_like(c)
            c[..., : m + 1] = np.arange(1, m + 2) * built[m][..., 1 : m + 2]
            c[..., 1 : m + 2] += half * built[m][..., : m + 1]
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
    """sum_k c[..., k] y2^k for a real table c."""
    acc = c[..., -1]
    for j in range(c.shape[-1] - 2, -1, -1):
        acc = acc * y2 + c[..., j]
    return acc


def odd_kernel(t, x, y, tables):
    """d^m/dx^m F(t,x,y) in product form, one array per order stacked on a
    leading axis; tables is derivative_coefficients(t, orders).

    - orders (0,) at any x: with C = e^{i(x^2+y^2)/4t} / sqrt(4 pi i t) and
      theta = xy/2t the translates are C e^{-+i theta}, so F = -2 i C
      sin(theta), free of their cancellation as y -> 0;
    - any orders at the wall x = 0: -2 p_m(y) E(t,y), through the same
      array operations on the odd coefficients of every zero-padded table
      (a padded zero keeps Horner's partial sums exactly zero).

    Other orders away from the wall raise KernelError.  The products over
    the points run in real arithmetic, on the real and imaginary parts as
    separate contiguous arrays (numpy's complex products round differently
    in its vector and scalar loops), so a point's value does not depend on
    its batch.  y holds the quadrature nodes; t and x are float arrays of
    one shape that broadcasts against y's trailing axes, for instance one
    (t, x) per row of y.
    """
    shape = np.broadcast_shapes(t.shape, y.shape)
    # the phase factor e^{i(x^2+y^2)/4t} of C
    phase = y * y
    phase += x * x
    phase /= 4.0 * t
    rot = np.zeros(shape, dtype=np.complex128)
    rot.imag = phase
    np.exp(rot, out=rot)
    amplitude = -2.0 / np.sqrt(4j * np.pi * t)
    if tables.shape[-1] == 1:
        # G = -2 i sin(theta) / sqrt(4 pi i t), with the i in the amplitude
        i_amp = 1j * amplitude
        sin_t = x * y
        sin_t /= 2.0 * t
        np.sin(sin_t, out=sin_t)
        gr = i_amp.real * sin_t
        gi = np.multiply(i_amp.imag, sin_t, out=sin_t)
    else:
        if np.any(x != 0.0):
            raise KernelError("derivative orders are supported at the wall x = 0 only")
        # the order axis leads, the points' axes align with the nodes' trailing ones
        tables = tables.reshape(tables.shape[:1] + (1,) * (len(shape) - t.ndim)
                                + tables.shape[1:])
        # G = -2 p_m(y) / sqrt(4 pi i t): y times the odd coefficients as a
        # polynomial in y^2, with the amplitude in the coefficients
        odd = (tables * amplitude[..., None])[..., 1::2]
        y2 = y * y
        gr = _even_poly(odd.real, y2) * y
        gi = _even_poly(odd.imag, y2) * y
    # then G times the phase factor in real arithmetic
    cos, sin = rot.real, rot.imag
    if gr.shape == shape:
        # one order: its product takes the phase factor's place, and a
        # scratch array the phase's
        vals, gr_s = rot, np.multiply(gr, sin, out=phase)
    else:
        vals, gr_s = np.empty(gr.shape, dtype=np.complex128), gr * sin
    gi_s = gi * sin
    gi *= cos
    gi += gr_s
    np.multiply(gr, cos, out=vals.real)
    vals.real -= gi_s
    vals.imag[...] = gi
    return vals.reshape((-1,) + shape)
