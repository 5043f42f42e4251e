"""Phase 1: free evolution of the odd extension and flat-output seeds.

Between t=0 and t=tau the boundary value is the trace at x=1 of the free
Schrodinger evolution of the odd extension of a datum v0,

    v(t,x) = integral over [0, v0.support] of (E(t,x-y) - E(t,x+y)) v0(y) dy,

which smooths arbitrary L2 data into an entire function of x.  The paper
writes the state through its flat output,
theta(t,x) = sum_k (-i)^k y^(k)(t) x^(2k+1)/(2k+1)!, so at t=tau the seed of
the phase-2 flat output is the same free evolution read at the wall:
y_k = i^k d^(2k+1)_x v(tau, 0).  The seed orders, like each round of the
trace's time samples, are the samples of one batched quadrature, and the
seed is the plain array y_0..y_K that flatness.FlatOutput takes beside tau.

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
helper asks for them once per generation of the quadrature, on the node
table of its distinct panels, and multiplies them in after the kernel
part; the quadrature itself knows nothing of them.  The kernel runs only
on the rows whose panel some datum does not vanish on, such as the
reference datum's zero piece [0, 0.2]: there the product is zero whatever
the kernel returns.  A synthesis (flatness.synthesize) hands phase 1 and
the seed its datum through _PanelMemo, so the datum is evaluated once per
distinct panel per synthesis, not once per generation: the later
generations, the other trace batches and the seed hold mostly panels of
the first, and gather their rows.

The trace is analytic in t > 0, and its features shrink like t.  So
boundary_trace splits (0, tau] into the dyadic intervals
(tau/2^(j+1), tau/2^j] and integrates, on each interval that holds enough
grid times, only the Chebyshev-Lobatto points of an interpolant, whose
degree the decay of its Chebyshev coefficients chooses; it integrates the
other grid times directly.

Every sample starts from the datum's breakpoints, with panels sized to
its own kernel: the phase (x+y)^2/4t of the far translate turns faster as
t falls, so _convolutions bisects each sample's breakpoint panels until
the phase turns through at most _PHASE_SPAN radians across each
(integrate_batch's width), which spares the sample the generations that
would bisect down to them.
"""
import math
from dataclasses import dataclass

import numpy as np

from .kernel import MAX_ORDER, derivative_coefficients, horner, odd_kernel
from .quadrature import NODES, QuadratureError, _distinct_panels, integrate_batch
from .schrodinger_sim import check_integer, check_real

_EPS = np.finfo(np.float64).eps

# i^k, indexed by k mod 4
_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# highest seed order K, whose 2K+1 kernel derivatives stay within MAX_ORDER
MAX_SEED_ORDER = min(30, (MAX_ORDER - 1) // 2)

# the trace's interpolants: Chebyshev-Lobatto points x_k = cos(pi k / 128),
# k = 0..128, from 1 down to -1 (every smaller set of 2^m + 1 points is a
# stride of them), the first interpolant's number of points, the multiple
# of eps * max|value| that the coefficient tail may keep, and a bound on
# the Lebesgue constant of every interpolant (_lebesgue(129) = 4.09)
_LOBATTO = np.sin(np.pi * np.arange(128, -129, -2) / 256)
_FIRST_POINTS = 33
_TAIL_ROUNDING = 32.0

# the radians through which the kernel's far translate may turn across one
# starting panel of a convolution: 12 and 16 ran as fast, and 12 gives the
# reference trace's largest err 1.4e-9 where 16 gives 6.5e-9
_PHASE_SPAN = 12.0

# the quadrature's centre node, exactly 0: a panel's node there is its midpoint
_CENTRE = NODES.size // 2


def _lebesgue(n):
    """A bound on the Lebesgue constant of n Chebyshev-Lobatto points."""
    return 1.0 + 2.0 / np.pi * math.log(n - 1)


_LEBESGUE = _lebesgue(_LOBATTO.size)

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
    row's coefficients broadcast along it; rows that all lie in one piece
    take its own coefficients, with nothing broadcast.  Any other input is
    evaluated per element.  All give every node the same Horner steps, so
    the same bits.

    antiderivative() and the sums a + b, a - b and c * a, on the union of
    both breakpoints, are the algebra of the beam's lift eta0 + i psi.
    """

    support = 1.0
    # numpy scalars defer to the operators below instead of broadcasting
    __array_ufunc__ = None

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

    def _piece_index(self, x):
        """The piece each x lies in: a breakpoint starts the piece on its
        right, and x outside [0, 1) takes the nearer end piece."""
        return np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, len(self.pieces) - 1)

    def _by_rows(self, xa):
        """The values at a 2-D xa whose every row lies strictly inside one
        piece, or None if some row does not."""
        if xa.ndim != 2 or xa.size == 0:
            return None
        piece = self._piece_index(xa[:, 0])
        if not (np.all(xa > self.edges[piece, None])
                and np.all(xa < self.edges[piece + 1, None])):
            return None
        if piece.min() == piece.max():
            return horner(self.pieces[piece[0]], xa)
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
        idx = self._piece_index(xa)
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

    def antiderivative(self):
        """The antiderivative zero at x = 0: each piece's constant takes it
        to the previous piece's value at their common breakpoint."""
        pieces, value = [], 0.0
        for a, b, c in zip(self.edges[:-1], self.edges[1:], self.pieces):
            p = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
            p[0] = value - horner(p, a)
            value = horner(p, b)
            pieces.append(p)
        return PiecewiseProfile(self.breakpoints, pieces)

    def _plus(self, other, factor):
        """self + factor * other, each merged piece adding those at its midpoint."""
        breakpoints = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        edges = np.array([0.0, *breakpoints, 1.0])
        mid = 0.5 * (edges[:-1] + edges[1:])
        pieces = []
        for i, j in zip(self._piece_index(mid), other._piece_index(mid)):
            a, b = self.pieces[i], other.pieces[j]
            c = np.zeros(max(a.size, b.size), dtype=np.complex128)
            c[:a.size] += a
            c[:b.size] += factor * b
            pieces.append(c)
        return PiecewiseProfile(breakpoints, pieces)

    def __add__(self, other):
        return self._plus(other, 1.0)

    def __sub__(self, other):
        return self._plus(other, -1.0)

    def __rmul__(self, factor):
        return PiecewiseProfile(self.breakpoints, [factor * p for p in self.pieces])

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


class _PanelMemo:
    """The datum v0 of one synthesis, evaluated once per quadrature panel.

    Every generation of every trace batch and of the seed hands its node
    table, a row of nodes per distinct panel, to the datum.  The later
    tables hold mostly panels an earlier one held, and a call of a datum
    such as beam.ExtendedDatum has a fixed cost whatever its number of
    rows.  The memo calls v0 only on the rows it has not seen, one call
    per table, keeps each call's values as a block, and gathers every row
    from the blocks, which it never copies or grows.  A row is known by
    its exact centre node, the panel's midpoint (NODES[_CENTRE] is 0, and
    a dyadic panel's midpoint names it within one set of breakpoints), and
    by its first node, with no tolerance.  With curvature it keeps
    v0.with_curvature's stack, whose row 0 has the bits of v0's own
    values, and serves both calls from it; without, only __call__.  It
    takes 2-D node tables only, and it lives for one synthesis's phase 1
    and seed, so it holds at most the panels they evaluate.
    """

    def __init__(self, v0, curvature):
        self.support, self.breakpoints, self.jumps = v0.support, v0.breakpoints, v0.jumps
        self._evaluate = v0.with_curvature if curvature else lambda y: v0(y)[None]
        # each call's new values, a block with a row per panel on axis 1
        self._blocks = []
        # each kept row's key, the complex number centre + i first node, in
        # sorted (lexicographic) order, and its block and row there; the
        # last key is infinite, found by no row, and ends every search
        self._keys = np.array([complex(np.inf, np.inf)])
        self._where = np.zeros((2, 1), dtype=np.intp)

    def _stack(self, y):
        key = np.empty(y.shape[0], dtype=np.complex128)
        key.real, key.imag = y[:, _CENTRE], y[:, 0]
        at = np.searchsorted(self._keys, key)
        block, row = self._where[:, at]
        miss = np.flatnonzero(self._keys[at] != key)
        if miss.size:
            block[miss], row[miss] = len(self._blocks), np.arange(miss.size)
            self._blocks.append(self._evaluate(y[miss]))
            keys = np.concatenate([self._keys, key[miss]])
            order = np.argsort(keys, kind="stable")
            self._keys = keys[order]
            self._where = np.concatenate([self._where, [block[miss], row[miss]]], axis=1)[:, order]
            if miss.size == key.size:
                # the table's rows are all new: their block is their values
                return self._blocks[-1]
        if len(self._blocks) == 1:
            return np.take(self._blocks[0], row, axis=1)
        out = np.empty((self._blocks[0].shape[0],) + y.shape, dtype=self._blocks[0].dtype)
        for b, values in enumerate(self._blocks):
            # by integer index: a boolean mask on the row axis gathers
            # several times slower
            rows = np.flatnonzero(block == b)
            out[:, rows] = np.take(values, row[rows], axis=1)
        return out

    def __call__(self, y):
        return self._stack(y)[0]

    def with_curvature(self, y):
        return self._stack(y)


def _convolutions(v0, t, x, orders, abs_tol=1e-10, curvature=False, tol_scale=1.0):
    """(values, errs, panels): flat arrays of the odd-folded convolutions
    of d^m_x (E(t,x-y) - E(t,x+y)) v(y) over y in [0, support], at the
    points (t[j], x[j]), for the datum v = v0 (d = 0) and, with curvature,
    v = v0'' (d = 1), and every derivative order m of orders, with their
    error estimates and panel counts (sample (j*n + d)*len(orders) + i is
    datum d of n and order orders[i] at point j).  The orders are (0,), or
    any orders at the wall x = 0 (odd_kernel).

    The support is rescaled to the quadrature's unit interval, and every
    sample starts from the datum's breakpoints on it, so no panel straddles
    one of the datum's discontinuities.  Each point's panels are then
    bisected until the far translate's phase (|x| + y)^2/4t turns through
    at most _PHASE_SPAN radians across each: on the unit interval, a width
    of 2 _PHASE_SPAN t / ((|x| + support) support), up to one row call of
    panels (integrate_batch).  The derivative tables of the
    points are built once per call and handed to odd_kernel.  Once per
    generation of the quadrature, the data are asked for on the node table
    of the generation's distinct panels, by one call of v0.with_curvature
    or v0, and the panels where every datum vanishes are marked; within a
    synthesis v0 is a _PanelMemo, which evaluates the datum only on the
    panels no earlier table of that synthesis held.  In each
    bounded call of the generation's rows the kernel then runs, for all
    orders at once, only on the (point, panel) rows where some sample's
    datum values are not all exactly zero, with the nodes gathered from
    the table; the other rows are exact zeros, and every sample's row
    picks its own order.  A batch of one sample per point hands its
    work-list rows to the kernel as they are, each a distinct (point,
    panel) row; a batch of several first finds its distinct rows by the
    integer key point * (panels in the table) + panel.  The datum factor
    is multiplied in after the kernel part.  Each sample is still
    subdivided as if integrated alone, to its tolerance times tol_scale, a
    number or one per point (integrate_batch).  Values and errors are
    scaled back by the support, also the best value and estimate of a
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
    tol_scale = np.broadcast_to(tol_scale, t.shape)
    support = v0.support
    width = 2.0 * _PHASE_SPAN * t / ((np.abs(x) + support) * support)
    breakpoints = tuple(b / support for b in v0.breakpoints if 0.0 < b / support < 1.0)

    def integrand(nodes):
        # the node-only work, once per generation: the datum factors and
        # the panels where every datum vanishes
        y = support * nodes
        datum = v0.with_curvature(y) if curvature else v0(y)[None]
        live_panels = datum.any(axis=2)
        n_panels = y.shape[0]

        def rows(panel, s):
            point, which = np.divmod(s, per_point)
            d = which // n_orders
            live = live_panels[d, panel]
            if per_point == 1:
                # each work-list row is a distinct (point, panel) row already
                row_point, row_panel = point, panel
                hot = np.flatnonzero(live)
            else:
                # a kernel row is a panel of a point, shared by its samples
                first, to_row = _distinct_panels(point * n_panels + panel)
                row_point, row_panel = point[first], panel[first]
                hot_rows = np.zeros(first.size, dtype=bool)
                hot_rows[to_row[live]] = True
                hot = np.flatnonzero(hot_rows)
            # the kernel runs only where some datum is not all zero:
            # elsewhere the product is zero whatever the kernel returns
            p = row_point[hot, None]
            if hot.size == row_point.size:
                vals = odd_kernel(t[p], x[p], y[row_panel], tables[:, p])
            else:
                vals = np.zeros((n_orders, row_point.size, y.shape[1]), dtype=np.complex128)
                if hot.size:
                    vals[:, hot] = odd_kernel(t[p], x[p], y[row_panel[hot]], tables[:, p])
            # a named operand, not a temporary: numpy would reuse a
            # temporary's buffer for the product, and the in-place complex
            # multiply rounds differently
            values = vals[0] if per_point == 1 else vals[which % n_orders, to_row]
            return values * datum[d, panel]

        return rows

    try:
        values, errs, panels = integrate_batch(integrand, t.size * per_point, breakpoints,
                                               abs_tol, np.repeat(tol_scale, per_point),
                                               np.repeat(width, per_point))
    except QuadratureError as exc:
        j, i = divmod(exc.sample, per_point)
        name = f"m={orders[i % n_orders]}" + (f", datum {i // n_orders}" if curvature else "")
        raise QuadratureError(
            f"{exc} at t={float(t[j])!r}, x={float(x[j])!r}, {name}",
            support * exc.value, support * exc.err_estimate, exc.sample) from exc
    return support * values, support * errs, panels


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


def _dyadic_intervals(t):
    """(tops, index): the upper ends tau/2^j of the dyadic intervals
    (tau/2^(j+1), tau/2^j] that cover the increasing positive times t, with
    tau = t[-1], and the index j of each time's interval, found by exact
    comparison with the ends."""
    tau = t[-1]
    tops = np.ldexp(tau, -np.arange(int(np.ceil(np.log2(tau / t[0]))) + 2))
    return tops, np.searchsorted(-tops, -t, side="right") - 1


def _lobatto_times(top):
    """The _LOBATTO points on [top/2, top], from top down, with exact ends;
    every k-th of them, for k a power of two, are the 128/k + 1 points."""
    return top * (3.0 + _LOBATTO) / 4.0


def _chebyshev_tails(values, errs):
    """(passed, tail) of the interpolants through the columns of values,
    each a datum's samples at n Lobatto points from the top down
    (_lobatto_times), with their error estimates errs.

    The Chebyshev coefficients are the discrete cosine transform of the
    values: per degree, a weighted sum over the points of cosines read
    from the points themselves, with no matrix product, so that their bits
    do not depend on the BLAS.  tail sums the magnitudes of each column's
    top quarter of coefficients.  The interpolants pass when, in every
    column, none of those exceeds the larger of the smallest error
    estimate and _TAIL_ROUNDING * eps * the largest magnitude of its
    samples.
    """
    n = values.shape[0]
    x = _LOBATTO[::(_LOBATTO.size - 1) // (n - 1)]
    phase = np.outer(np.arange(n), np.arange(n)) % (2 * n - 2)
    cosines = x[np.minimum(phase, 2 * n - 2 - phase)]
    ends = np.ones((n, 1))
    ends[[0, -1]] = 0.5
    coeffs = (2.0 / (n - 1)) * ends * (cosines[:, :, None] * (ends * values)).sum(axis=1)
    top = np.abs(coeffs[3 * (n - 1) // 4:])
    floor = np.maximum(errs.min(axis=0), _TAIL_ROUNDING * _EPS * np.abs(values).max(axis=0))
    return bool(np.all(top <= floor)), top.sum(axis=0)


def _trace_batch(v0, times, owners, scales, abs_tol, curvature):
    """(t, values, errs): one _convolutions batch of the distinct times of
    times, sorted, with the samples of each time as a row, each integrated
    to the tolerance times the least of the scales given for its time.  If
    a sample exhausts the panel budget, the QuadratureError's sample is
    the least of the owners (indices in the trace's grid) given for its
    time."""
    n_data = 2 if curvature else 1
    first, inverse = _distinct_panels(times)
    owner = np.full(first.size, np.iinfo(np.intp).max)
    np.minimum.at(owner, inverse, owners)
    scale = np.ones(first.size)
    np.minimum.at(scale, inverse, scales)
    t = times[first]
    try:
        values, errs, _ = _convolutions(v0, t, 1.0, (0,), abs_tol, curvature, scale)
    except QuadratureError as exc:
        # batch sample j * n_data + d is datum d at t[j]
        exc.sample = int(owner[exc.sample // n_data])
        raise
    return t, values.reshape(t.size, n_data), errs.reshape(t.size, n_data)


def _interpolate(points, values, errs, tail, t):
    """(values, errs) at the times t of the barycentric interpolants
    through values, samples at the n Lobatto points `points` from the top
    down with their error estimates errs, and of their coefficient tail.

    With the weights (-1)^k, halved at both ends, the interpolant at t is
    sum_k q_k values[k] / sum_k q_k, q_k = w_k / (t - points[k]); the sums
    over the points are plain weighted sums of the real and imaginary
    parts, not matrix products.  A time equal to a point takes that
    point's own samples and estimates.  Elsewhere err sums over the data
    the Lebesgue constant of the points, at most _lebesgue(n), times the
    largest estimate plus eps times the largest magnitude of the samples,
    which bounds the interpolant's response to the samples' errors and
    rounding, and adds the tail.
    """
    n = points.size
    ascending = points[::-1]
    at = np.minimum(np.searchsorted(ascending, t), n - 1)
    hit = ascending[at] == t
    out = np.empty((t.size, values.shape[1]), dtype=np.complex128)
    out[hit] = values[::-1][at[hit]]
    weights = np.where(np.arange(n) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    # a named operand: numpy would divide into the temporary's own buffer,
    # a path several times slower than a fresh output
    gap = t[~hit, None] - points
    q = weights / gap
    total = q.sum(axis=1)
    # a real column at a time: one (times, points) temporary; adding 0.0
    # turns the -0.0 of a zero datum's quotients into 0.0
    parts = [(q * column).sum(axis=1) / total + 0.0
             for column in values.view(np.float64).T]
    out[~hit] = np.stack(parts, axis=1).view(np.complex128)
    bound = _lebesgue(n) * (errs.max(axis=0) + _EPS * np.abs(values).max(axis=0)) + tail
    err = np.full(t.size, bound.sum())
    err[hit] = errs[::-1][at[hit]].sum(axis=1)
    return out, err


def boundary_trace(v0, t_grid, derivative=True, abs_tol=1e-10):
    """(trace, integrals): the phase-1 control samples u(t)=v(t,1) and
    u'(t)=i*v_xx(t,1), and the number of times integrated, the
    interpolants' points and the direct samples.

    v0 is the datum the free evolution smooths, integrated over its own
    support; the times t_grid are increasing, as ControlTrace requires.
    derivative=False skips the v_xx integrals when only u itself is
    needed.  abs_tol is each integral's absolute tolerance.

    The grid splits into the dyadic intervals (tau/2^(j+1), tau/2^j]
    below its last time tau (_dyadic_intervals).  On an interval of at
    least 65 grid times, enough for one doubling, the trace is the
    barycentric interpolant through its samples at 33 Chebyshev-Lobatto
    points (_interpolate); neighbouring intervals share their ends, and
    tau is a point.  An interpolant whose top Chebyshev coefficients do
    not fall to its samples' error or rounding level (_chebyshev_tails)
    doubles to 65, then 129 points, integrating only the new ones.  An
    interval whose points would outnumber its grid times, or that fails
    at 129, is integrated directly at its grid times, as is every interval
    of at most 64.  Each round of points and direct samples is one
    _convolutions batch, every sample starting from the datum's
    breakpoints, bisected to the width its kernel's phase asks for, and
    subdividing by its own rules to its own tolerance.

    v_xx(t,1) is the integral of d^2_y F against v0; two integrations by
    parts make it the free evolution of v0's second derivative plus the
    closed-form terms of v0's jumps (_jump_terms).  u and v_xx at every
    point are then the interleaved samples of one order-0 batch, which
    share the kernel's exponentials wherever their panels coincide; one
    v0.with_curvature call gives both data on a panel.  v_xx is
    interpolated as u is, and the jump terms are evaluated at the grid
    times themselves.

    err bounds both u and v_xx.  At a direct sample, and at a grid time
    equal to a point (tau among them), it sums both integrals' estimates.
    At an interpolated time it sums over u and v_xx the Lebesgue constant
    (at most 1 + (2/pi) log(n - 1), 4.09 at n = 129) times the sum of the
    largest estimate and eps times the largest magnitude at the points,
    plus the coefficient tail (_interpolate).  The points are integrated
    to the tolerance over 4.09, so that this stays within the tolerance
    a direct sample meets.  Where v_xx is
    synthesized, the jump terms' rounding is added.  A sample that
    exhausts the quadrature's panel budget raises QuadratureError naming
    its time; the sample is the time's index in t_grid, or, for a point,
    the index of the first grid time of its interval (of the earlier one,
    for a point two intervals share).
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_grid <= 0):
        raise ValueError("trace times must be positive")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("trace times must be strictly increasing")
    n_data = 2 if derivative else 1
    values = np.zeros((t_grid.size, n_data), dtype=np.complex128)
    err = np.zeros(t_grid.size)
    integrals = 0
    if t_grid.size:
        tops, index = _dyadic_intervals(t_grid)
        counts = np.bincount(index, minlength=tops.size)
        # each interval's grid times are a run of t_grid from first[j]
        first = np.searchsorted(-index, -np.arange(tops.size))
        grid = [np.arange(f, f + c) for f, c in zip(first, counts)]
        # stride[j]: interval j's interpolant takes every stride-th of the
        # _LOBATTO.size points, whose samples fill nodes[j] as they come;
        # an interval too short to double its first points goes direct
        stride = {j: (_LOBATTO.size - 1) // (_FIRST_POINTS - 1)
                  for j in np.flatnonzero(counts >= 2 * _FIRST_POINTS - 1).tolist()}
        nodes = {}
        direct = [grid[j] for j in np.flatnonzero(counts).tolist() if j not in stride]
        while stride or direct:
            # a doubled interpolant integrates only its new points
            new = {j: slice(k, None, 2 * k) if j in nodes else slice(None, None, k)
                   for j, k in stride.items()}
            points = {j: _lobatto_times(tops[j])[new[j]] for j in new}
            rows = np.concatenate([np.zeros(0, dtype=np.intp), *direct])
            times = np.concatenate([t_grid[rows], *points.values()])
            owners = np.concatenate([rows, *(np.full(p.size, first[j])
                                             for j, p in points.items())])
            # a point's estimate reaches an interpolated sample amplified by
            # up to the Lebesgue constant: the points take that much less
            scales = np.ones(times.size)
            scales[rows.size:] = 1.0 / _LEBESGUE
            t, batch_values, batch_errs = _trace_batch(v0, times, owners, scales, abs_tol,
                                                       derivative)
            integrals += t.size
            at = np.searchsorted(t, t_grid[rows])
            values[rows], err[rows] = batch_values[at], batch_errs[at].sum(axis=1)
            direct = []
            for j, k in list(stride.items()):
                node_values, node_errs = nodes.setdefault(j, (
                    np.zeros((_LOBATTO.size, n_data), dtype=np.complex128),
                    np.zeros((_LOBATTO.size, n_data))))
                at = np.searchsorted(t, points[j])
                node_values[new[j]], node_errs[new[j]] = batch_values[at], batch_errs[at]
                passed, tail = _chebyshev_tails(node_values[::k], node_errs[::k])
                if passed:
                    del stride[j]
                    values[grid[j]], err[grid[j]] = _interpolate(
                        _lobatto_times(tops[j])[::k], node_values[::k], node_errs[::k], tail,
                        t_grid[grid[j]])
                elif k > 1 and 2 * (_LOBATTO.size - 1) // k + 1 <= counts[j]:
                    # doubled, within its grid times: integrate the new points
                    stride[j] = k // 2
                else:
                    del stride[j]
                    direct.append(grid[j])
    if derivative:
        terms, rounding = _jump_terms(v0, t_grid, 1.0)
        du = 1j * (values[:, 1] + terms)
        err = err + rounding
    else:
        du = np.zeros(t_grid.size, dtype=np.complex128)
    phase = np.full(t_grid.size, PHASE_SMOOTHING, dtype=np.uint8)
    return ControlTrace(t_grid, values[:, 0], du, phase, err), integrals


def flat_coefficients(v0, tau, K):
    """The flat-output seed of the datum v0 at t=tau: the array y_0..y_K.

    y_k = i^k d^(2k+1)_x v(tau, 0), the odd-power Taylor data of the
    smoothed state at the wall: the orders 1, 3, ..., 2K+1 of the free
    evolution's convolution at x = 0, one batch of K+1 samples.  An order
    that exhausts the quadrature's panel budget raises QuadratureError
    naming k, with sample = k and the best estimate of y_k and its error.
    """
    check_real("tau", tau)
    if not tau > 0:
        raise ValueError(f"tau: need tau > 0, got {tau}")
    check_integer("K", K)
    if not 0 <= K <= MAX_SEED_ORDER:
        raise ValueError(f"K: need 0 <= K <= {MAX_SEED_ORDER}, got {K}")
    try:
        values = _convolutions(v0, tau, 0.0, tuple(range(1, 2 * K + 2, 2)))[0]
    except QuadratureError as exc:
        k = exc.sample
        raise QuadratureError(f"{exc}, seed order k={k}", _IPOW[k % 4] * exc.value,
                              exc.err_estimate, k) from exc
    return np.array(_IPOW)[np.arange(K + 1) % 4] * values
