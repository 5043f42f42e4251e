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

Away from the wall every integral is of order 0.  The trace's v_xx(t,1),
which the beam's hinge moment reads, is the integral of d^2_x F = d^2_y F
against v0; integrated by parts twice it is the free evolution of v0''
plus closed-form terms at the points where v0 or v0' jumps, so u and v_xx
are the order-0 integrals of v0 and v0'', samples of one batch.

One helper, _convolutions, poses every integral against a datum v0, and
against v0'' too where asked.  A datum names its support and its
breakpoints (PiecewiseProfile: [0, 1]; beam.ExtendedDatum: [0, 2]): the
support is rescaled to the quadrature's unit interval and the breakpoints
become panel edges.  The factors v0(y), or v0(y) and v0''(y) from one
with_curvature call, depend on the node alone, not on the sample, so the
helper evaluates them first, once per distinct panel of each integrand
call, and multiplies them in after the kernel part; the quadrature itself
knows nothing of them.  The kernel runs only on the rows whose panel some
datum does not vanish on, such as the reference datum's zero piece
[0, 0.2]: there the product is zero whatever the kernel returns.

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

_EPS = np.finfo(np.float64).eps

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
            if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)):
                raise ValueError("piece coefficients must be finite, non-empty 1-d arrays")
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

    def derivative(self, n=1):
        """The n-th derivative, piece by piece, on the same breakpoints."""
        pieces = []
        for c in self.pieces:
            for _ in range(n):
                c = c[1:] * np.arange(1, c.size)
            pieces.append(c if c.size else [0.0])
        return PiecewiseProfile(self.breakpoints, pieces)

    def with_curvature(self, x):
        """The profile and its second derivative at x, stacked."""
        return np.stack([self(x), self.derivative(2)(x)])

    def _jumps(self):
        """Right limit minus left limit at 0, each breakpoint and 1, with
        the profile zero outside [0, 1]."""
        right = horner(self._table, self.edges[:-1])
        left = horner(self._table, self.edges[1:])
        return np.append(right, 0.0) - np.insert(left, 0, 0.0)

    def jumps(self):
        """(points, [p], [p']): the jumps of the profile and of its
        derivative at 0, the breakpoints and 1 (see _jumps)."""
        return self.edges, self._jumps(), self.derivative()._jumps()

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
    err holds the quadrature error estimate in phase 1, of u and, where
    du is synthesized, of du too, and the magnitude of the last retained
    series term in phase 2.
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


def _convolutions(v0, t, x, orders, abs_tol=1e-10, edges=None, curvature=False):
    """(values, errs, panels, edges): flat arrays of the odd-folded
    convolutions of d^m_x (E(t,x-y) - E(t,x+y)) v(y) over y in
    [0, support], at the points (t[j], x[j]), for the datum v = v0 (d = 0)
    and, with curvature, v = v0'' (d = 1), and every derivative order m of
    orders, with their error estimates and panel counts (sample
    (j*n + d)*len(orders) + i is datum d of n and order orders[i] at point
    j), and the interior panel edges the batch converged on, on the
    quadrature's unit interval.  The orders are (0,), or any orders at the
    wall x = 0 (odd_kernel).

    The support is rescaled to the quadrature's unit interval.  Every
    sample starts from the interior panel edges `edges` on that interval,
    by default the rescaled datum breakpoints; edges that refine them, such
    as the converged edges of another call, keep every panel off the
    datum's discontinuities.  The derivative tables of the
    points are built once per call and handed to odd_kernel.  Within each
    integrand call the data are evaluated first, by one call of
    v0.with_curvature or v0, once per distinct panel of the call.  The
    kernel then runs, for all orders at once,
    only on the (point, panel) rows where some sample's datum values are
    not all exactly zero; the other rows are exact zeros, and every
    sample's row picks its own order.  A batch of one sample per point
    hands its work-list rows to the kernel as they are, each a distinct
    (point, panel) row; a batch of several first finds its distinct rows.
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
    per_point = (2 if curvature else 1) * n_orders
    tables = derivative_coefficients(t, orders)
    support = v0.support
    if edges is None:
        edges = tuple(b / support for b in v0.breakpoints if 0.0 < b / support < 1.0)

    def integrand(sig, s):
        point, which = np.divmod(s[:, 0], per_point)

        def kernel(rows):
            p = point[rows, None]
            return odd_kernel(t[p], x[p], support * sig[rows], tables[:, p])

        # a datum row is a panel alone, named by its end nodes
        first, inverse = _distinct_panels(sig[:, 0], sig[:, -1])
        nodes = support * sig[first]
        datum = v0.with_curvature(nodes) if curvature else v0(nodes)[None]
        d = which // n_orders
        live = datum.any(axis=2)[d, inverse]
        if per_point == 1:
            # each work-list row is a distinct (point, panel) row already
            rows = slice(None)
            hot_rows = live
        else:
            # a kernel row is a panel of a point, shared by its samples
            rows, to_row = _distinct_panels(point, sig[:, 0], sig[:, -1])
            hot_rows = np.zeros(rows.size, dtype=bool)
            hot_rows[to_row[live]] = True
        # the kernel runs only where some datum is not all zero: elsewhere
        # the product is zero whatever the kernel returns
        if hot_rows.all():
            vals = kernel(rows)
        else:
            vals = np.zeros((n_orders, hot_rows.size, sig.shape[1]), dtype=np.complex128)
            hot = np.flatnonzero(hot_rows)
            if hot.size:
                vals[:, hot] = kernel(hot if per_point == 1 else rows[hot])
        # a named operand, not a temporary: numpy would reuse a temporary's
        # buffer for the product, and the in-place complex multiply rounds
        # differently
        values = vals[0] if per_point == 1 else vals[which % n_orders, to_row]
        return values * datum[d, inverse]

    try:
        values, errs, panels, edges = integrate_batch(integrand, t.size * per_point,
                                                      edges, abs_tol)
    except QuadratureError as exc:
        j, i = divmod(exc.sample, per_point)
        name = f"m={orders[i % n_orders]}" + (f", datum {i // n_orders}" if curvature else "")
        raise QuadratureError(
            f"{exc} at t={float(t[j])!r}, x={float(x[j])!r}, {name}",
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


def _trace_edges(v0, t_grid, abs_tol, curvature):
    """The panel edges every sample of a trace over t_grid starts from.

    The latest time is integrated alone from the datum's breakpoints, with
    the trace's abs_tol and data (v0, and v0'' with curvature), and the
    edges it converges on (the union over its data) are returned.  A grid
    of at most one time returns None, the datum's breakpoints, so its one
    time is integrated once.  If the latest time exhausts the panel
    budget, the QuadratureError's sample is its index in the trace's batch.
    """
    latest = t_grid.size - 1
    if latest < 1:
        return None
    try:
        return _convolutions(v0, t_grid[latest:], 1.0, (0,), abs_tol, None, curvature)[3]
    except QuadratureError as exc:
        exc.sample += latest * (2 if curvature else 1)
        raise


def _jump_terms(v0, t, x):
    """(terms, rounding): the sum over the jumps b of v0 of
    F(t,x,b) [v0'](b) - F_y(t,x,b) [v0](b) at every time of t, and a
    bound on its rounding error.

    These are the boundary terms of integrating the convolution of
    d^2_x F = d^2_y F against v0 by parts twice, with v0 zero outside its
    support; [.] is the right limit minus the left one.  F_y is
    -E'(t,x-y) - E'(t,x+y), and E'(t,z) = (i z / 2t) E(t,z).  Each
    translate E(t,z) carries the rounding of its phase z^2/4t, a few ulps
    of a number that grows like 1/t, on top of a few ulps of its own; the
    bound sums both over the magnitudes of the terms before they cancel.
    At b = 0 the two translates are the same numbers, so F is an exact 0.
    """
    b, dg, dg1 = v0.jumps()
    t = t[:, None]
    near, far = (np.exp(1j * z * z / (4.0 * t)) / np.sqrt(4j * np.pi * t)
                 for z in (x - b, x + b))
    f_y = -0.5j / t * ((x - b) * near + (x + b) * far)
    terms = ((near - far) * dg1 - f_y * dg).sum(axis=1)
    amplitude = 1.0 / np.sqrt(4.0 * np.pi * t)
    slope_jumps = np.abs(np.where(b == 0.0, 0.0, dg1))
    rounding = sum(_EPS * (8.0 + 0.75 * z * z / t) * amplitude
                   * (slope_jumps + 0.5 * np.abs(z) / t * np.abs(dg))
                   for z in (x - b, x + b))
    return terms, rounding.sum(axis=1)


def boundary_trace(v0, t_grid, derivative=True, abs_tol=1e-10):
    """Phase-1 control samples u(t)=v(t,1) and u'(t)=i*v_xx(t,1).

    v0 is the datum the free evolution smooths, integrated over its own
    support.  Every sample starts from the panel edges that the latest
    time converges on from the datum's breakpoints (_trace_edges), and
    then subdivides by its own rules to its own tolerance; the times are
    increasing, as ControlTrace requires.  derivative=False skips the v_xx
    integrals when only u itself is needed.

    v_xx(t,1) is the integral of d^2_y F against v0; two integrations by
    parts make it the free evolution of v0's second derivative plus the
    closed-form terms of v0's jumps (_jump_terms).  u and v_xx at every
    time are then the interleaved samples of one order-0 batch, which
    share the kernel's exponentials wherever their panels coincide; one
    v0.with_curvature call gives both data on a panel.  abs_tol is each
    integral's absolute tolerance.  err bounds both u and v_xx: it sums
    both samples' estimates and the jump terms' rounding.  A sample that
    exhausts the quadrature's panel budget raises QuadratureError naming
    its time, with the time's index in t_grid as the sample.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_grid <= 0):
        raise ValueError("trace times must be positive")
    n_data = 2 if derivative else 1
    try:
        edges = _trace_edges(v0, t_grid, abs_tol, derivative)
        values, errs, _, _ = _convolutions(v0, t_grid, 1.0, (0,), abs_tol, edges, derivative)
    except QuadratureError as exc:
        # batch sample j * n_data + d is datum d at t_grid[j]
        exc.sample //= n_data
        raise
    values = values.reshape(t_grid.size, n_data)
    err = errs.reshape(t_grid.size, n_data).sum(axis=1)
    if derivative:
        terms, rounding = _jump_terms(v0, t_grid, 1.0)
        du = 1j * (values[:, 1] + terms)
        err = err + rounding
    else:
        du = np.zeros(t_grid.size, dtype=np.complex128)
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
