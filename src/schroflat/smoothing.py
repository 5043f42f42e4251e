"""Phase 1: free evolution of the odd extension and flat-output seeds.

Between t=0 and t=tau the boundary value is the trace at x=1 of the free
Schrodinger evolution of the odd extension of a datum v0,

    v(t,x) = integral over [0, v0.support] of (E(t,x-y) - E(t,x+y)) v0(y) dy,

which smooths arbitrary L2 data into an entire function of x.  The paper
writes the state through its flat output,
theta(t,x) = sum_k (-i)^k y^(k)(t) x^(2k+1)/(2k+1)!, so at t=tau the seed of
the phase-2 flat output is the same free evolution read at the wall:
y_k = i^k d^(2k+1)_x v(tau, 0).  The seed orders, like the trace's time
samples, are the samples of one batched quadrature, and the seed is the
plain array y_0..y_K that flatness.FlatOutput takes beside tau.

One helper, _convolutions, poses every integral against the datum.  A
datum names its support and its breakpoints (PiecewiseProfile: [0, 1];
beam.ExtendedDatum: [0, 2]): the support is rescaled to the quadrature's
unit interval and the breakpoints become panel edges.  The datum factor
v0(y) depends on the node alone, not on the sample, so the helper
evaluates it first, once per distinct panel of each integrand call, and
multiplies it in after the kernel part; the quadrature itself knows
nothing of it.  The kernel runs only on the rows whose panel the datum
does not vanish on, such as the reference datum's zero piece [0, 0.2]:
there the product is zero whatever the kernel returns.

The trace's samples start from a finer mesh than the datum's breakpoints:
the kernel's phase (x-y)^2/4t turns faster as t falls, so the mesh that
the latest time converges on from the breakpoints is one every earlier
time refines.  boundary_trace integrates that time alone first and starts
the whole batch from its converged panel edges, which spares each sample
the bisections that would rediscover them.
"""
import math
from dataclasses import dataclass

import numpy as np

from .kernel import MAX_ORDER, derivative_coefficients, horner, odd_kernel
from .quadrature import QuadratureError, integrate_batch

# i^k, indexed by k mod 4
_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# highest seed order K, whose 2K+1 kernel derivatives stay within MAX_ORDER
MAX_SEED_ORDER = min(30, (MAX_ORDER - 1) // 2)

PHASE_SMOOTHING = 0
PHASE_FLATNESS = 1
PHASE_NAMES = {PHASE_SMOOTHING: "smoothing", PHASE_FLATNESS: "flatness"}


class PiecewiseProfile:
    """Complex piecewise polynomial on [0,1].

    Coefficients are ascending-degree in the global variable x.  Values at
    interior breakpoints are the midpoint of the one-sided limits (the L2
    representative); the domain endpoints take one-sided limits and points
    outside [0,1] evaluate to zero.

    A 2-D array whose every row lies strictly inside one piece, as the
    quadrature's panels do, is evaluated by rows: one piece is looked up
    per row, and one Horner pass per distinct piece size runs with each
    row's coefficients broadcast along it.  Any other input is evaluated
    per element.  Both give every node the same Horner steps, so the same
    bits.
    """

    support = 1.0

    def __init__(self, breakpoints, pieces):
        self.breakpoints = tuple(float(b) for b in breakpoints)
        if any(not (0.0 < b < 1.0) for b in self.breakpoints):
            raise ValueError("breakpoints must lie strictly inside (0,1)")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one piece per subinterval")
        self.pieces = [np.atleast_1d(np.asarray(p, dtype=np.complex128)) for p in pieces]
        for p in self.pieces:
            if p.ndim != 1 or not np.all(np.isfinite(p)):
                raise ValueError("piece coefficients must be finite 1-d arrays")
        self.edges = np.array([0.0, *self.breakpoints, 1.0])
        # the pieces zero-padded to one table, and their own sizes, for the
        # evaluation by rows; each row's Horner pass stops at its own size
        self._sizes = np.array([p.size for p in self.pieces])
        self._table = np.zeros((len(self.pieces), self._sizes.max()), dtype=np.complex128)
        for row, p in zip(self._table, self.pieces):
            row[:p.size] = p

    @classmethod
    def zero(cls):
        return cls((), [[0.0]])

    @classmethod
    def from_callable(cls, f, n_pieces=16, degree=3):
        """Piecewise polynomial interpolant of a smooth callable.

        Each piece interpolates at degree+1 equispaced nodes including both
        piece edges, so the result is continuous and matches f exactly at
        0 and 1.
        """
        edges = np.linspace(0.0, 1.0, n_pieces + 1)
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            xs = np.linspace(a, b, degree + 1)
            ys = np.asarray(f(xs), dtype=np.complex128)
            cr = np.polynomial.polynomial.polyfit(xs, ys.real, degree)
            ci = np.polynomial.polynomial.polyfit(xs, ys.imag, degree)
            pieces.append(cr + 1j * ci)
        return cls(tuple(edges[1:-1]), pieces)

    def _by_rows(self, xa):
        """The values at a 2-D xa whose every row lies strictly inside one
        piece, or None if some row does not."""
        if xa.ndim != 2 or xa.size == 0:
            return None
        piece = np.searchsorted(self.edges, xa[:, 0], side="right") - 1
        if piece.min() < 0 or piece.max() >= len(self.pieces):
            return None
        if not (np.all(xa > self.edges[piece, None])
                and np.all(xa < self.edges[piece + 1, None])):
            return None
        sizes = self._sizes[piece]
        if sizes.min() == sizes.max():
            return horner(self._table[piece, None, :sizes[0]], xa)
        out = np.empty(xa.shape, dtype=np.complex128)
        for size in set(sizes.tolist()):
            rows = sizes == size
            out[rows] = horner(self._table[piece[rows], None, :size], xa[rows])
        return out

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = self._by_rows(xa)
        if out is not None:
            return out
        out = np.zeros(xa.shape, dtype=np.complex128)
        idx = np.searchsorted(self.edges, xa, side="right") - 1
        np.clip(idx, 0, len(self.pieces) - 1, out=idx)
        inside = (xa >= 0.0) & (xa <= 1.0)
        for i, coeffs in enumerate(self.pieces):
            mask = inside & (idx == i)
            if np.any(mask):
                out[mask] = horner(coeffs, xa[mask])
        for b in self.breakpoints:
            hit = inside & (xa == b)
            if np.any(hit):
                i = int(np.searchsorted(self.edges, b)) - 1
                left = horner(self.pieces[i], xa[hit])
                right = horner(self.pieces[i + 1], xa[hit])
                out[hit] = 0.5 * (left + right)
        return complex(out[0]) if scalar else out

    def l2_norm(self):
        """Exact L2 norm: |p|^2 integrates in closed form per piece."""
        total = 0.0
        for (a, b), c in zip(zip(self.edges[:-1], self.edges[1:]), self.pieces):
            q = np.convolve(c, np.conj(c))
            powers = np.arange(1, q.size + 1)
            anti = q / powers
            total += float(np.real(np.sum(anti * (b ** powers - a ** powers))))
        return math.sqrt(max(total, 0.0))


@dataclass(eq=False)
class ControlTrace:
    """Sampled boundary control with per-sample phase tag.

    du is the control's time derivative.  It is zero on phase-1 samples
    synthesized with derivative=False, which every Schrodinger run uses.
    err holds the quadrature error estimate in phase 1 and the magnitude of
    the last retained series term in phase 2.
    """

    t: np.ndarray
    u: np.ndarray
    du: np.ndarray
    phase: np.ndarray
    err: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.complex128)
        self.du = np.asarray(self.du, dtype=np.complex128)
        self.phase = np.asarray(self.phase, dtype=np.uint8)
        self.err = np.asarray(self.err, dtype=np.float64)
        n = self.t.size
        if not all(a.shape == (n,) for a in (self.u, self.du, self.phase, self.err)):
            raise ValueError("trace arrays must share one length")
        if n > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("trace times must be strictly increasing")

    def _columns(self):
        return self.t, self.u, self.du, self.phase, self.err

    def __getitem__(self, index):
        """The samples selected by a slice, as a trace."""
        return ControlTrace(*(a[index] for a in self._columns()))

    @classmethod
    def concat(cls, first, second):
        pairs = zip(first._columns(), second._columns())
        return cls(*(np.concatenate(pair) for pair in pairs))

    def interpolate(self, times):
        re = np.interp(times, self.t, self.u.real)
        im = np.interp(times, self.t, self.u.imag)
        return re + 1j * im


def _distinct_panels(*keys):
    """(first, inverse): one row index per distinct tuple of keys, such as
    a panel's end nodes, and the index into first of every row's tuple."""
    order = np.lexsort(keys[::-1])
    new = np.ones(order.size, dtype=bool)
    new[1:] = False
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _convolutions(v0, t, x, orders, abs_tol=1e-10, edges=None):
    """(values, errs, panels, edges): flat arrays of the odd-folded
    convolutions of d^m_x (E(t,x-y) - E(t,x+y)) v0(y) over y in
    [0, v0.support], at the points (t[j], x[j]) and the derivative orders
    m, with their error estimates and panel counts (sample j*len(orders) + i
    is order orders[i] at point j), and the interior panel edges the batch
    converged on, on the quadrature's unit interval.

    The support is rescaled to the quadrature's unit interval.  Every
    sample starts from the interior panel edges `edges` on that interval,
    by default the rescaled datum breakpoints; edges that refine them, such
    as the converged edges of another call, keep every panel off the
    datum's discontinuities.  The derivative tables of the
    points are built once per call and handed to odd_kernel.  Within each
    integrand call the datum factor v0(y), which depends on the node alone,
    is evaluated first, once per distinct panel.  The kernel then runs, for
    all orders at once, only on the (point, panel) rows whose panel's datum
    values are not all exactly zero; the other rows are exact zeros, and
    every sample's row picks its own order.  A batch of one order hands its
    work-list rows to the kernel as they are, each a distinct (point,
    panel) row; a batch of several orders first finds its distinct rows.
    The datum factor is multiplied in after the kernel part.  Each
    sample is still subdivided as if integrated alone.  Values and errors
    are scaled back by the support, also the best value and estimate of a
    sample that exhausts its budget and raises QuadratureError naming its
    (t, x, m), with its index in the batch as the sample.
    """
    t, x = (a.ravel() for a in np.broadcast_arrays(np.asarray(t, dtype=np.float64),
                                                   np.asarray(x, dtype=np.float64)))
    if np.any(t <= 0):
        raise ValueError("convolution requires t > 0")
    n_orders = len(orders)
    tables = derivative_coefficients(t, x, orders)
    support = v0.support
    if edges is None:
        edges = tuple(b / support for b in v0.breakpoints if 0.0 < b / support < 1.0)

    def integrand(sig, s):
        point, which = np.divmod(s[:, 0], n_orders)

        def kernel(rows):
            p = point[rows, None]
            return odd_kernel(t[p], x[p], support * sig[rows], tables[:, p])

        # a datum row is a panel alone, named by its end nodes
        first, inverse = _distinct_panels(sig[:, 0], sig[:, -1])
        datum = v0(support * sig[first])
        live = datum.any(axis=1)[inverse]
        if n_orders == 1:
            # each work-list row is a distinct (point, panel) row already
            rows = slice(None)
        else:
            # a kernel row is a panel of a point, shared by its orders
            rows, to_row = _distinct_panels(point, sig[:, 0], sig[:, -1])
            live = live[rows]
        # the kernel runs only where the datum is not all zero: elsewhere
        # the product is zero whatever the kernel returns
        if live.all():
            vals = kernel(rows)
        else:
            vals = np.zeros((n_orders, live.size, sig.shape[1]), dtype=np.complex128)
            hot = np.flatnonzero(live)
            if hot.size:
                vals[:, hot] = kernel(hot if n_orders == 1 else rows[hot])
        # a named operand, not a temporary: numpy would reuse a temporary's
        # buffer for the product, and the in-place complex multiply rounds
        # differently
        values = vals[0] if n_orders == 1 else vals[which, to_row]
        return values * datum[inverse]

    try:
        values, errs, panels, edges = integrate_batch(integrand, t.size * n_orders,
                                                      edges, abs_tol)
    except QuadratureError as exc:
        j, i = divmod(exc.sample, n_orders)
        raise QuadratureError(
            f"{exc} at t={float(t[j])!r}, x={float(x[j])!r}, m={orders[i]}",
            support * exc.value, support * exc.err_estimate, exc.sample) from exc
    return support * values, support * errs, panels, edges


def free_evolution(theta0, t, x):
    """Smoothed state v(t,x) for the odd extension of theta0.

    t and x may be arrays that broadcast together: all points then go
    through one batched quadrature, and the values take their shape.
    """
    values = _convolutions(theta0, t, x, (0,))[0]
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    return complex(values[0]) if shape == () else values.reshape(shape)


def _trace_edges(v0, t_grid, orders, abs_tol):
    """The panel edges every sample of a trace over t_grid starts from.

    The latest time is integrated alone from the datum's breakpoints, with
    the trace's orders and abs_tol, and the edges it converges on (the
    union over its orders) are returned.  A grid of at most one time
    returns None, the datum's breakpoints, so its one time is integrated
    once.  If the latest time exhausts the panel budget, the
    QuadratureError's sample is its index in the trace's batch.
    """
    latest = t_grid.size - 1
    if latest < 1:
        return None
    try:
        return _convolutions(v0, t_grid[latest:], 1.0, orders, abs_tol)[3]
    except QuadratureError as exc:
        exc.sample += latest * len(orders)
        raise


def boundary_trace(v0, t_grid, derivative=True, abs_tol=1e-10):
    """Phase-1 control samples u(t)=v(t,1) and u'(t)=i*v_xx(t,1).

    v0 is the datum the free evolution smooths, integrated over its own
    support.  Every sample starts from the panel edges that the latest
    time converges on from the datum's breakpoints (_trace_edges), and
    then subdivides by its own rules to its own tolerance; the times are
    increasing, as ControlTrace requires.  derivative=False skips the v_xx
    integrals when only u itself is needed.  u and v_xx at every time are
    the interleaved samples of one batch, and share the kernel's
    exponentials wherever their panels coincide.  abs_tol is each
    integral's absolute tolerance.  A sample that exhausts the quadrature's
    panel budget raises QuadratureError naming its time, with the time's
    index in t_grid as the sample.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_grid <= 0):
        raise ValueError("trace times must be positive")
    orders = (0, 2) if derivative else (0,)
    try:
        edges = _trace_edges(v0, t_grid, orders, abs_tol)
        values, errs, _, _ = _convolutions(v0, t_grid, 1.0, orders, abs_tol, edges)
    except QuadratureError as exc:
        # batch sample j * len(orders) + i is order orders[i] at t_grid[j]
        exc.sample //= len(orders)
        raise
    values = values.reshape(t_grid.size, len(orders))
    err = errs.reshape(t_grid.size, len(orders)).sum(axis=1)
    du = 1j * values[:, 1] if derivative else np.zeros(t_grid.size, dtype=np.complex128)
    phase = np.full(t_grid.size, PHASE_SMOOTHING, dtype=np.uint8)
    return ControlTrace(t_grid, values[:, 0], du, phase, err)


def flat_coefficients(v0, tau, K):
    """The flat-output seed of the datum v0 at t=tau: the array y_0..y_K.

    y_k = i^k d^(2k+1)_x v(tau, 0), the odd-power Taylor data of the
    smoothed state at the wall: the orders 1, 3, ..., 2K+1 of the free
    evolution's convolution at x = 0, one batch of K+1 samples.  An order
    that exhausts the quadrature's panel budget raises QuadratureError
    naming k, with sample = k and the best estimate of y_k and its error.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 <= K <= MAX_SEED_ORDER:
        raise ValueError(f"K={K} outside the supported truncation range")
    try:
        values = _convolutions(v0, tau, 0.0, tuple(range(1, 2 * K + 2, 2)))[0]
    except QuadratureError as exc:
        k = exc.sample
        raise QuadratureError(f"{exc}, seed order k={k}", _IPOW[k % 4] * exc.value,
                              exc.err_estimate, k) from exc
    return np.array(_IPOW)[np.arange(K + 1) % 4] * values
