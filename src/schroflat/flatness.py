"""Phase 2: flat output on [tau,T] and the boundary-control series.

The flat output multiplies the analytic continuation of the seed data,
ybar(t) = sum y_k (t-tau)^k / k!, by a Gevrey step in the rescaled time
sigma = (t-tau)/(T-tau).  The step factor is exactly 1 (all derivatives
zero) at tau and exactly 0 at T, so the product matches the seed jets at
tau and vanishes identically at T.  Control and state come from the same
truncated series

    u(t)       = sum_k (-i)^k y^(k)(t) / (2k+1)!
    theta(t,x) = sum_k (-i)^k y^(k)(t) x^(2k+1) / (2k+1)!

evaluated through one shared term computation, so the state at x=1
reproduces the control bit for bit.

One setting, FlatOutput.K_u, fixes the truncation: the series keep
orders k <= K_u, and the flat output's derivatives are carried up to
jet_order = K_u + JET_ORDER_MARGIN, which leaves room for u' (order
K_u+1) and for residual checks.

Every quantity is a plain coefficient array, orders first and samples on
a trailing axis: a whole time grid goes through one pass of the step's
Taylor recurrences (gevrey.step_jet), the Leibniz rule and the series,
and a single time is the one-sample case of the same code.  Sums over the
order axis run in a fixed order, so a sample's value does not depend on
the batch it was computed in.

Derivatives are carried unnormalized (y^(0), y^(1), ...) and combined with
an explicit Leibniz rule.  At the endpoints the step factor's derivative
vector is exactly (1,0,...) or (0,0,...), and multiplying by exact ones
and zeros keeps the endpoint identities y^(k)(tau)=y_k and y^(k)(T)=0
bit-exact; a normalized-coefficient representation would lose that to the
y/k!*k! round trip.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gevrey import MAX_JET_ORDER, check_order, step_jet
from .smoothing import (MAX_SEED_ORDER, PHASE_FLATNESS, ControlTrace, _PanelMemo,
                        boundary_trace, flat_coefficients)

# (-i)^k, indexed by k mod 4
_MIPOW = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)

DEFAULT_SERIES_TRUNCATION = 15
# headroom above the series truncation for u' and residual checks
JET_ORDER_MARGIN = 6
MAX_SERIES_TRUNCATION = MAX_JET_ORDER - JET_ORDER_MARGIN


def check_settings(tau, T, s, K, K_u):
    """Raise ValueError, its message starting with the setting's name,
    unless the two-phase control can be built from these settings:
    2T/3 < tau < T (the analytic part converges on [tau, T]), a Gevrey
    order s with jets at every time (gevrey.check_order), a seed order
    0 <= K <= MAX_SEED_ORDER and a series truncation
    0 <= K_u <= MAX_SERIES_TRUNCATION, both integers (numpy's too, but not
    bools).  It does no numerical work.
    """
    for name, value in (("K", K), ("K_u", K_u)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}: need an integer, got {value!r}")
    if not tau < T:
        raise ValueError(f"tau: need tau < T = {T}, got {tau}")
    if not tau > 2.0 * T / 3.0:
        raise ValueError(
            f"tau: need tau > 2T/3 = {2 * T / 3:.6g} for the analytic part to "
            f"converge on [tau, T], got {tau}")
    try:
        check_order(s)
    except ValueError as exc:
        raise ValueError(f"s: {exc}") from exc
    if not 0 <= K <= MAX_SEED_ORDER:
        raise ValueError(f"K: need 0 <= K <= {MAX_SEED_ORDER}, got {K}")
    if not 0 <= K_u <= MAX_SERIES_TRUNCATION:
        raise ValueError(f"K_u: need 0 <= K_u <= {MAX_SERIES_TRUNCATION}, got {K_u}")


@dataclass(eq=False)
class FlatOutput:
    """y(t) = phi_s((t-tau)/(T-tau)) * sum_k y_k (t-tau)^k / k! on [tau, T].

    y is the seed y_0..y_K (smoothing.flat_coefficients), a non-empty 1-d
    array; the settings follow check_settings, and tau > 0 from
    2T/3 < tau < T.
    """

    tau: float
    y: np.ndarray
    T: float
    s: float
    K_u: int = DEFAULT_SERIES_TRUNCATION

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.complex128)
        if self.y.ndim != 1 or self.y.size == 0:
            raise ValueError("seed needs a non-empty 1-d array of coefficients")
        check_settings(self.tau, self.T, self.s, self.K, self.K_u)

    @property
    def K(self):
        return self.y.size - 1

    @property
    def bound_constant(self):
        """max_k |y_k| tau^k / (2^k k!), the least C with |y_k| <= C (2/tau)^k k!."""
        return max(float(abs(self.y[k])) * self.tau ** k / (2.0 ** k * math.factorial(k))
                   for k in range(self.K + 1))

    @property
    def jet_order(self):
        return self.K_u + JET_ORDER_MARGIN

    def _times(self, t):
        """t as a 1-d array of samples, each checked to lie in [tau, T]."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        outside = ~((t >= self.tau) & (t <= self.T))
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside [tau, T] = [{self.tau}, {self.T}]")
        return t


def _orders(values):
    # a per-order vector as a column against the sample axis
    return np.asarray(values, dtype=np.float64)[:, None]


def _sum_orders(terms):
    """Sum over the order axis in increasing order, sample by sample.

    An explicit loop keeps every sample's result independent of how many
    samples share the batch (a numpy reduction would pick its summation
    order from the array's shape).
    """
    total = np.zeros(terms.shape[1:], dtype=np.complex128)
    for term in terms:
        total += term
    return total


def _analytic_derivatives(fo: FlatOutput, t: np.ndarray, order: int) -> np.ndarray:
    """ybar^(m)(t) = sum_{j>=m} y_j (t-tau)^(j-m)/(j-m)!, m = 0..order."""
    dt = t - fo.tau
    K = fo.K
    # the seed's real and imaginary parts as rows against the real powers:
    # the products and the quotients by (j-m)! round as the complex ones
    yri = np.stack([fo.y.real, fo.y.imag], axis=1)[..., None]
    powers = [dt ** p for p in range(K + 1)]
    out = np.zeros((order + 1,) + t.shape, dtype=np.complex128)
    for m in range(min(order, K) + 1):
        acc = np.zeros((2,) + t.shape, dtype=np.float64)
        for j in range(K, m, -1):
            acc += (yri[j] * powers[j - m]) * (1.0 / math.factorial(j - m))
        out.real[m], out.imag[m] = acc + yri[m]
    return out


def _step_derivatives(fo: FlatOutput, t: np.ndarray, order: int) -> np.ndarray:
    """Derivatives in t of phi_s((t-tau)/(T-tau)), orders 0..order."""
    delta = fo.T - fo.tau
    phi = step_jet((t - fo.tau) / delta, fo.s, order)
    orders = np.arange(order + 1)
    facts = [math.factorial(j) for j in orders]
    return phi * _orders(facts) * _orders((1.0 / delta) ** orders)


def flat_output_derivatives(fo: FlatOutput, t, order=None) -> np.ndarray:
    """y^(m)(t) for m = 0..order (rows) at each sample of t (columns).

    t is a scalar or an array of times in [tau, T]; order defaults to
    jet_order.  Each y^(m) is the Leibniz sum, in increasing k, of
    C(m,k) phi^(k) ybar^(m-k), the same for every order >= m; both series
    below consume these rows up to K_u + 1.
    """
    t = fo._times(t)
    n = fo.jet_order if order is None else order
    ybar = _analytic_derivatives(fo, t, n)
    phi = _step_derivatives(fo, t, n)
    out = np.zeros_like(ybar)
    for k in range(n + 1):
        comb = _orders([math.comb(m, k) for m in range(k, n + 1)])
        out[k:] += comb * phi[k] * ybar[: n + 1 - k]
    return out


def _series_terms(fo: FlatOutput, t):
    """Per-order contributions to u and u' (rows) at each sample (columns)."""
    derivs = flat_output_derivatives(fo, t, fo.K_u + 1)
    k = np.arange(fo.K_u + 1)
    mipow = np.array(_MIPOW)[k % 4][:, None]
    facts = _orders([math.factorial(2 * j + 1) for j in k])
    terms = mipow * derivs[: fo.K_u + 1] / facts
    dterms = mipow * derivs[1: fo.K_u + 2] / facts
    return terms, dterms


def state_series(fo: FlatOutput, t: float, x):
    """Interior state theta(t,x); identical to the control at x=1."""
    terms, _ = _series_terms(fo, float(t))
    xa = np.asarray(x, dtype=np.float64)
    value = np.zeros(xa.shape, dtype=np.complex128)
    for k, term in enumerate(terms[:, 0]):
        value += term * xa ** (2 * k + 1)
    return complex(value) if np.ndim(x) == 0 else value


def control_trace(fo: FlatOutput, t_grid) -> ControlTrace:
    """Sample the phase-2 control on a time grid, all samples at once.

    err holds the tail indicator: the magnitude of the last retained
    series term (order K_u), the natural resolution limit of the
    truncation.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    terms, dterms = _series_terms(fo, t_grid)
    phase = np.full(t_grid.size, PHASE_FLATNESS, dtype=np.uint8)
    return ControlTrace(t_grid, _sum_orders(terms), _sum_orders(dterms), phase,
                        np.abs(terms[-1]))


# the synthesis diagnostics, in report order
DIAGNOSTICS = ("continuity_gap", "gap_budget", "tail_max", "quad_err_max",
               "seed_bound_constant", "phase1_integrals")


def synthesize(v0, times, tau, T, s, K, K_u, derivative=False, abs_tol=1e-10):
    """(trace, fo, diags): the two-phase control of the datum v0 on times.

    Phase 1 samples the free evolution's trace on (0, tau] (derivative and
    abs_tol set its quadrature), phase 2 the flat output's series on
    (tau, T].  tau is the last sample of the phase-1 batch and the first of
    the phase-2 batch; the returned trace keeps it, in phase 1, only where
    it is one of the times.  A trace sample or seed order that exhausts the
    quadrature's panel budget raises QuadratureError naming it.

    diags, keyed by DIAGNOSTICS: continuity_gap |u(tau+) - u(tau-)| between
    those two samples, its gap_budget (the series tail plus the trace's
    own error estimate at tau, which with derivative=True bounds v_xx as
    well as u, so the budget is wider than u's gap needs), tail_max and
    quad_err_max over the returned samples of each phase,
    seed_bound_constant, and phase1_integrals, the number of times phase
    1 integrated (smoothing.boundary_trace): its interpolants' points and
    its direct samples.  Settings outside check_settings' ranges raise
    ValueError before phase 1.  Phase 1 and the seed evaluate v0 once per
    distinct quadrature panel (smoothing._PanelMemo), and keep its values
    only until the seed is made.
    """
    check_settings(tau, T, s, K, K_u)
    times = np.asarray(times, dtype=np.float64)
    t1 = times[(times > 0) & (times < tau)]
    t2 = times[times > tau]
    memo = _PanelMemo(v0, derivative)
    trace1, integrals = boundary_trace(memo, np.append(t1, tau), derivative, abs_tol)
    fo = FlatOutput(tau, flat_coefficients(memo, tau, K), T, s, K_u)
    # phase 2 reads no datum: its rows are freed before the series runs
    del memo
    trace2 = control_trace(fo, np.insert(t2, 0, tau))
    phase1 = trace1[: t1.size + int(np.any(times == tau))]
    phase2 = trace2[1:]
    diags = dict(zip(DIAGNOSTICS, (
        float(abs(trace2.u[0] - trace1.u[-1])),
        float(trace2.err[0] + trace1.err[-1]),
        float(np.max(phase2.err, initial=0.0)),
        float(np.max(phase1.err, initial=0.0)),
        fo.bound_constant,
        integrals,
    )))
    return ControlTrace.concat(phase1, phase2), fo, diags
