"""Per-sample reference implementations of the batched synthesis.

The package evaluates the two phases of the control over a whole time grid
at once: phase 1 through one adaptive Gauss-Kronrod loop whose work list
holds (sample, panel) pairs, phase 2 as jet arithmetic with a trailing
sample axis.  The functions here are the one-sample-at-a-time versions the
batched code replaced, kept as oracles: an adaptive quadrature per
integral, and scalar Taylor recurrences per time sample.
"""
import math

import numpy as np

from schroflat.gevrey import _SNAP_EXPONENT, _kappa
from schroflat.kernel import odd_kernel
from schroflat.quadrature import (_FLOOR_FACTOR, GAUSS_IDX, NODES15, WEIGHTS7,
                                  WEIGHTS15, IntegrationProblem, QuadratureError)
from schroflat.smoothing import _MIPOW


# ------------------------------------------------------------- phase 1

def _panel_sums(f, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * NODES15[None, :]
    fv = np.asarray(f(xs.ravel()), dtype=np.complex128).reshape(xs.shape)
    kron = half * (fv @ WEIGHTS15)
    gauss = half * (fv[:, GAUSS_IDX] @ WEIGHTS7)
    diff = kron - gauss
    err = np.abs(diff.real) + np.abs(diff.imag)
    scale = half * (np.abs(fv) @ WEIGHTS15)
    return kron, err, scale


def integrate_one(problem):
    """One adaptive integral -> (value, err, panels evaluated)."""
    f = problem.integrand
    edges = np.array([0.0, *problem.breakpoints, 1.0])
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    acc_lo = []
    acc_val = []
    acc_err = []
    used = 0
    prev_errsum = math.inf
    stalled = 0

    while lo.size:
        used += lo.size
        if used > problem.max_subdivisions:
            kron, err, _ = _panel_sums(f, lo, hi)
            order = np.argsort(np.concatenate([np.array(acc_lo), lo]), kind="stable")
            vals = np.concatenate([np.array(acc_val, dtype=np.complex128), kron])
            errs = np.concatenate([np.array(acc_err), err])
            raise QuadratureError(
                f"no convergence within {problem.max_subdivisions} panel evaluations",
                complex(vals[order].sum()), float(errs[order].sum()))
        kron, err, scale = _panel_sums(f, lo, hi)

        total = kron.sum() + (np.sum(acc_val) if acc_val else 0.0)
        tol = max(problem.abs_tol, problem.rel_tol * abs(total))
        ok = (err <= tol * (hi - lo)) | (err <= _FLOOR_FACTOR * scale)
        errsum = err.sum() + (np.sum(acc_err) if acc_err else 0.0)
        if errsum <= tol:
            ok = np.ones_like(ok)
        resolved = err.sum() <= 1e-6 * scale.sum()
        stalled = stalled + 1 if (resolved and errsum > 0.7 * prev_errsum) else 0
        if stalled >= 2:
            ok = np.ones_like(ok)
        prev_errsum = errsum

        acc_lo.extend(lo[ok].tolist())
        acc_val.extend(kron[ok].tolist())
        acc_err.extend(err[ok].tolist())

        bad_lo, bad_hi = lo[~ok], hi[~ok]
        mid = 0.5 * (bad_lo + bad_hi)
        lo = np.concatenate([bad_lo, mid])
        hi = np.concatenate([mid, bad_hi])

    order = np.argsort(np.array(acc_lo), kind="stable")
    vals = np.array(acc_val, dtype=np.complex128)[order]
    errs = np.array(acc_err)[order]
    return complex(vals.sum()), float(errs.sum()), used


def convolution_one(v0, t, x, m=0, support=1.0, breakpoints=(), abs_tol=1e-10,
                    rel_tol=1e-8, max_subdivisions=2 ** 14):
    """(value, err, panels) of one odd-folded kernel convolution."""
    def integrand(sig):
        y = support * sig
        return odd_kernel(t, x, y, m) * v0(y)

    bps = tuple(b / support for b in breakpoints if 0.0 < b / support < 1.0)
    value, err, used = integrate_one(IntegrationProblem(
        integrand, bps, abs_tol=abs_tol, rel_tol=rel_tol,
        max_subdivisions=max_subdivisions))
    return support * value, support * err, used


def boundary_trace_per_sample(v0, t_grid, support=1.0, breakpoints=(),
                              derivative=True, abs_tol=1e-10, rel_tol=1e-8,
                              max_subdivisions=2 ** 14):
    """u, du, err and per-sample panel counts (m=0 and m=2), one sample at a time."""
    n = len(t_grid)
    u = np.zeros(n, dtype=np.complex128)
    du = np.zeros(n, dtype=np.complex128)
    err = np.zeros(n)
    panels = np.zeros((2, n), dtype=np.int64)
    settings = (support, breakpoints, abs_tol, rel_tol, max_subdivisions)
    for i, t in enumerate(t_grid):
        u[i], err[i], panels[0, i] = convolution_one(v0, t, 1.0, 0, *settings)
        if derivative:
            v2, e2, panels[1, i] = convolution_one(v0, t, 1.0, 2, *settings)
            du[i] = 1j * v2
            err[i] = err[i] + e2
    return u, du, err, panels


# ------------------------------------------------------------- phase 2

def _div(a, b):
    n = a.shape[0]
    q = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        acc = a[j]
        for k in range(1, j + 1):
            acc -= b[k] * q[j - k]
        q[j] = acc / b[0]
    return q


def _exp(u):
    n = u.shape[0]
    h = np.zeros(n, dtype=np.complex128)
    h[0] = np.exp(u[0])
    for j in range(1, n):
        acc = 0.0 + 0.0j
        for k in range(1, j + 1):
            acc += k * u[k] * h[j - k]
        h[j] = acc / j
    return h


def _pow(u, alpha):
    n = u.shape[0]
    w = np.zeros(n, dtype=np.complex128)
    w[0] = u[0] ** alpha
    for j in range(1, n):
        acc = 0.0 + 0.0j
        for k in range(1, j + 1):
            acc += ((alpha + 1.0) * k - j) * u[k] * w[j - k]
        w[j] = acc / (j * u[0])
    return w


def step_jet_one(t, s, order):
    """Normalized Taylor coefficients of phi_s at one t."""
    kappa = _kappa(s)
    c = np.zeros(order + 1, dtype=np.complex128)
    if t <= 0.0:
        c[0] = 1.0
        return c
    if t >= 1.0:
        return c
    log_snap = math.log(_SNAP_EXPONENT)
    a_under = -kappa * math.log1p(-t) > log_snap
    b_under = -kappa * math.log(t) > log_snap
    if a_under and b_under:
        raise ValueError(f"both exponentials of phi_s underflow at t={t}")
    if a_under:
        return c
    if b_under:
        c[0] = 1.0
        return c
    tt = np.zeros(order + 1, dtype=np.complex128)
    tt[0] = t
    if order >= 1:
        tt[1] = 1.0
    one = np.zeros(order + 1, dtype=np.complex128)
    one[0] = 1.0
    a = _exp(-_pow(one - tt, -kappa))
    b = _exp(-_pow(tt, -kappa))
    return _div(a, a + b)


def flat_output_derivatives_one(fo, t):
    """y^(m)(t), m = 0..jet_order, by scalar Taylor arithmetic at one t."""
    dt = t - fo.tau
    K = fo.seed.K
    n = fo.jet_order
    ybar = np.zeros(n + 1, dtype=np.complex128)
    for m in range(min(n, K) + 1):
        acc = 0.0 + 0.0j
        for j in range(K, m, -1):
            acc += fo.seed.y[j] * dt ** (j - m) / math.factorial(j - m)
        ybar[m] = acc + fo.seed.y[m]
    delta = fo.T - fo.tau
    orders = np.arange(n + 1)
    facts = np.array([math.factorial(j) for j in orders], dtype=np.float64)
    phi = step_jet_one((t - fo.tau) / delta, fo.s, n) * facts * (1.0 / delta) ** orders
    out = np.zeros(n + 1, dtype=np.complex128)
    for m in range(n + 1):
        acc = 0.0 + 0.0j
        for k in range(m + 1):
            acc += float(math.comb(m, k)) * phi[k] * ybar[m - k]
        out[m] = acc
    return out


def control_series_one(fo, t, truncation):
    """(u, du, tail, terms, dterms) of the control series at one t."""
    derivs = flat_output_derivatives_one(fo, t)
    terms = np.zeros(truncation + 1, dtype=np.complex128)
    dterms = np.zeros(truncation + 1, dtype=np.complex128)
    for k in range(truncation + 1):
        fact = math.factorial(2 * k + 1)
        terms[k] = _MIPOW[k % 4] * derivs[k] / fact
        dterms[k] = _MIPOW[k % 4] * derivs[k + 1] / fact
    return (complex(np.sum(terms)), complex(np.sum(dterms)),
            float(abs(terms[truncation])), terms, dterms)
