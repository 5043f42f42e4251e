"""Adaptive Gauss-Kronrod quadrature for complex integrands on [0,1].

Each panel is integrated by QUADPACK's G10/K21 rule: the 21-point Kronrod
sum is the value, and its distance from the embedded 10-point Gauss sum
the error estimate.  The rule is exact for polynomials of degree 31.

integrate_batch is the package's one integration entry point.  One
adaptive loop integrates a whole batch of integrands (samples): its work
list holds (sample, panel) pairs, and the pending panels of all samples
form one refinement generation, evaluated in a few vectorized calls, which
keeps the Python overhead away from the innermost kernel evaluations.  The
samples may be time points of one convolution or the orders of the
flat-output seed.  Each sample is subdivided by the rules it would follow
if integrated alone from the batch's breakpoints, bisected to its own
starting width, and its value equals a lone integral's to rounding; a
single integral is the one-sample case.
The equality is not bitwise: the panel sums are matrix products, whose
per-row rounding under BLAS depends on the number of rows in the call.
Declared breakpoints are the starting panel edges, so no panel ever
straddles a discontinuity of the integrand.
Summation order is fixed (each sample's panels sorted by left edge),
making results bit-reproducible for a given problem: a sample's value is
numpy's pairwise sum of its sorted panels, the summation of a lone
integral, taken for all samples with the same panel count at once as the
rows of one array.

The integrand works in two stages.  Once per generation, the quadrature
finds the generation's distinct panels (samples of a batch share most of
theirs) and hands their node table to the integrand, which does there the
work that depends on the node alone.  The function that call returns then
gives the values of the generation's rows, in calls of at most
PANELS_PER_CALL rows, 2**14 points, which bounds the memory of one call
whatever the batch size; each row names its panel in the table and its
sample.  No sample starts from more panels than one call holds.
"""
import math

import numpy as np

# QUADPACK's 21-point Kronrod extension of 10-point Gauss (qk21): positive
# half of the nodes, descending; the Gauss nodes are every second one.
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# full symmetric node/weight vectors on [-1,1], nodes ascending; the Gauss
# nodes sit at the odd positions
NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
WEIGHTS_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS_IDX = np.arange(1, NODES.size, 2)
WEIGHTS_GAUSS = np.concatenate([_WG, _WG[::-1]])

# Both sums as one real matrix product: a row of complex values viewed as
# float64 interleaves real and imaginary parts, and the columns of
# _SUM_WEIGHTS give the Kronrod sum's real and imaginary parts, then the
# Gauss sum's.  A complex matrix-vector product goes to OpenBLAS zgemv,
# which runs multithreaded at these sizes and, with the thread count not
# pinned, up to 100 times slower on a busy 2-core host.
_SUM_WEIGHTS = np.zeros((2 * NODES.size, 4))
_SUM_WEIGHTS[0::2, 0] = _SUM_WEIGHTS[1::2, 1] = WEIGHTS_KRONROD
_SUM_WEIGHTS[2 * GAUSS_IDX, 2] = _SUM_WEIGHTS[2 * GAUSS_IDX + 1, 3] = WEIGHTS_GAUSS

# Work-list rows per call of the integrand's row stage, and the most
# panels a sample starts from: a bound of 2**14 points.  The integrand's
# temporaries scale with it, and so does the peak resident memory of a
# run.  Since samples start from panels sized to their integrands, the
# first generation holds most rows, and calls of 2**16 points were both
# slower and larger in memory.
PANELS_PER_CALL = 2 ** 14 // NODES.size

# A panel whose error estimate is at the rounding floor of its own L1 mass
# cannot improve under bisection; integrands with large oscillatory
# cancellation (kernel derivatives at small t) would otherwise exhaust the
# budget chasing unreachable tolerances.
_FLOOR_FACTOR = 100.0 * np.finfo(np.float64).eps

# Every sample's relative tolerance, and its budget of panel evaluations:
# one budget for every integral the package poses.
REL_TOL = 1e-8
MAX_SUBDIVISIONS = 2 ** 16


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best value obtained.

    sample is the index of the failing integral within its batch.
    """

    def __init__(self, message, value, err_estimate, sample=0):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate
        self.sample = sample


def _panel_sums(values, half):
    """(Kronrod sum, error estimate, L1 scale) of the panels of half-widths
    half whose values at the nodes are the rows of values."""
    fv = np.asarray(values, dtype=np.complex128).reshape(half.size, NODES.size)
    sums = (np.ascontiguousarray(fv).view(np.float64) @ _SUM_WEIGHTS).view(np.complex128)
    kron = half * sums[:, 0]
    gauss = half * sums[:, 1]
    diff = kron - gauss
    err = np.abs(diff.real) + np.abs(diff.imag)
    scale = half * (np.abs(fv) @ WEIGHTS_KRONROD)
    return kron, err, scale


def _distinct_panels(*keys):
    """(first, inverse): one row index per distinct tuple of keys, such as
    a panel's end points, in sorted order, and the index into first of
    every row's tuple.  One key is sorted by np.argsort, several by
    np.lexsort, which is several times slower."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.ones(order.size, dtype=bool)
    new[1:] = False
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _evaluate(integrand, lo, hi, sample):
    """The panel sums of one generation's rows: one integrand call on the
    node table of the distinct panels, then one call of the function it
    returns per PANELS_PER_CALL rows.  Each call's values are summed, and
    freed, before the next call runs."""
    # samples that start from panels of other widths hold panels of other
    # depths in one generation, and two of those may share a left edge:
    # both ends name a panel
    first, panel = _distinct_panels(lo, hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    rows = integrand(mid[first, None] + half[first, None] * NODES[None, :])
    chunks = []
    for a in range(0, lo.size, PANELS_PER_CALL):
        b = a + PANELS_PER_CALL
        chunks.append(_panel_sums(rows(panel[a:b], sample[a:b]), half[a:b]))
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def _sample_sums(owner, lo, vals, errs, samples):
    """Per-sample sums of panel values and errors, panels in left-edge order.

    Each sample's sum is numpy's pairwise .sum() of its sorted panels, the
    summation of a lone integral.  Samples with the same panel count are
    gathered into one C-contiguous (rows, n) block and summed with
    .sum(axis=1), which applies that routine to each row, so the loop runs
    once per distinct count, not once per sample.  A sequential sum
    (np.add.reduceat, np.bincount) would round differently on samples of
    more than a few panels.
    """
    order = np.lexsort((lo, owner))
    vals, errs = vals[order], errs[order]
    counts = np.bincount(owner, minlength=samples)
    starts = np.cumsum(counts) - counts
    by_count = np.argsort(counts, kind="stable")
    sorted_counts = counts[by_count]
    cuts = np.flatnonzero(sorted_counts[1:] != sorted_counts[:-1]) + 1
    values = np.zeros(samples, dtype=np.complex128)
    sums = np.zeros(samples)
    for a, b in zip([0, *cuts], [*cuts, samples]):
        rows = by_count[a:b]
        idx = starts[rows][:, None] + np.arange(sorted_counts[a])
        values[rows] = vals[idx].sum(axis=1)
        sums[rows] = errs[idx].sum(axis=1)
    return values, sums


def _starting_panels(edges, samples, width):
    """(lo, hi, sample) of every sample's starting panels: the panels
    between edges, bisected a round at a time, as refinement bisects, until
    none is wider than its sample's width.  A sample whose next round would
    take it past PANELS_PER_CALL panels starts from the panels it has."""
    lo = np.tile(edges[:-1], samples)
    hi = np.tile(edges[1:], samples)
    smp = np.repeat(np.arange(samples), edges.size - 1)
    while True:
        wide = hi - lo > width[smp]
        grown = np.bincount(smp, minlength=samples) + np.bincount(smp[wide], minlength=samples)
        wide &= grown[smp] <= PANELS_PER_CALL
        if not wide.any():
            return lo, hi, smp
        mid = 0.5 * (lo[wide] + hi[wide])
        lo = np.concatenate([lo[~wide], lo[wide], mid])
        hi = np.concatenate([hi[~wide], mid, hi[wide]])
        smp = np.concatenate([smp[~wide], smp[wide], smp[wide]])


def integrate_batch(integrand, samples, breakpoints=(), abs_tol=1e-10, tol_scale=1.0,
                    width=math.inf):
    """Integrals over [0,1] of a batch of integrands in one adaptive loop.

    The integrand is called once per refinement generation as
    integrand(nodes), where nodes holds one row of Gauss-Kronrod nodes per
    distinct panel of the generation.  It returns a function
    rows(panel, sample), which the quadrature calls on at most
    PANELS_PER_CALL work-list rows at a time: panel holds each row's index
    into nodes and sample its sample index, and rows returns one row of
    values per work-list row, its sample's integrand at its panel's nodes.
    The work list holds (sample, panel) pairs and every sample keeps its
    own decisions: the tolerance tol_scale * max(abs_tol, REL_TOL * its
    own total), with tol_scale a number or one per sample, the rounding
    floor, the summed-error shortcut, the two-generation stall and the
    budget of MAX_SUBDIVISIONS panels.  Per-sample sums over the work
    list come from np.bincount, so each sample is subdivided by the rules
    of a lone integral.  The budget only decides when to raise.

    Each sample starts from the panels between 0, the breakpoints and 1,
    bisected until none is wider than width, a number or one per sample
    (_starting_panels): an integrand that turns faster may start from
    narrower panels and skip the generations that would bisect down to
    them.  The default, inf, bisects nothing.  No sample starts from more
    than PANELS_PER_CALL panels, and its starting panels count against its
    budget.

    Returns (values, errs, panels): the integrals, their error estimates
    and the number of panels evaluated, one entry per sample.  A sample
    that exhausts its budget raises QuadratureError with its index.
    """
    bps = tuple(float(b) for b in breakpoints)
    if any(not (0.0 < b < 1.0) for b in bps):
        raise ValueError("breakpoints must lie strictly inside (0,1)")
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if abs_tol <= 0:
        raise ValueError("tolerance must be positive")
    edges = np.array([0.0, *bps, 1.0])
    lo, hi, smp = _starting_panels(edges, samples, np.broadcast_to(width, samples))
    used = np.zeros(samples, dtype=np.int64)
    acc_re = np.zeros(samples)
    acc_im = np.zeros(samples)
    acc_err = np.zeros(samples)
    prev_errsum = np.full(samples, math.inf)
    stalled = np.zeros(samples, dtype=np.int64)
    kept = []

    def per_sample(owner, weights):
        return np.bincount(owner, weights=weights, minlength=samples)

    while lo.size:
        used += np.bincount(smp, minlength=samples)
        kron, err, scale = _evaluate(integrand, lo, hi, smp)
        over = np.flatnonzero(used > MAX_SUBDIVISIONS)
        if over.size:
            s = int(over[0])
            best, best_err = _sample_sums(*(np.concatenate(c) for c in zip(
                *kept, (smp, lo, kron, err))), samples)
            raise QuadratureError(
                f"no convergence within {MAX_SUBDIVISIONS} panel evaluations",
                complex(best[s]), float(best_err[s]), s)

        total = np.hypot(acc_re + per_sample(smp, kron.real),
                         acc_im + per_sample(smp, kron.imag))
        tol = tol_scale * np.maximum(abs_tol, REL_TOL * total)
        gen_err = per_sample(smp, err)
        errsum = acc_err + gen_err
        # the width-proportional budget is only a splitting heuristic; once
        # the summed estimate meets the target there is nothing left to chase
        done = errsum <= tol
        # two generations without material improvement mean the estimate sits
        # on the integrand's own noise floor; a genuine unresolved feature
        # keeps halving the sum.  Return the best value with an honest err.
        # Guard: only panels already in the asymptotic regime count, else an
        # unresolved oscillation (err comparable to the panel L1 mass) would
        # stall too and a confidently wrong value would be accepted.
        resolved = gen_err <= 1e-6 * per_sample(smp, scale)
        stalled = np.where(resolved & (errsum > 0.7 * prev_errsum), stalled + 1, 0)
        done |= stalled >= 2
        prev_errsum = errsum

        ok = ((err <= tol[smp] * (hi - lo)) | (err <= _FLOOR_FACTOR * scale)
              | done[smp])
        kept.append((smp[ok], lo[ok], kron[ok], err[ok]))
        acc_re += per_sample(smp[ok], kron[ok].real)
        acc_im += per_sample(smp[ok], kron[ok].imag)
        acc_err += per_sample(smp[ok], err[ok])

        bad = ~ok
        bad_lo, bad_hi, bad_smp = lo[bad], hi[bad], smp[bad]
        mid = 0.5 * (bad_lo + bad_hi)
        lo = np.concatenate([bad_lo, mid])
        hi = np.concatenate([mid, bad_hi])
        smp = np.concatenate([bad_smp, bad_smp])

    if not kept:
        return np.zeros(samples, dtype=np.complex128), np.zeros(samples), used
    values, errs = _sample_sums(*(np.concatenate(c) for c in zip(*kept)), samples)
    return values, errs, used
