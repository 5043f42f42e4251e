"""Gevrey step profile and its truncated Taylor coefficients.

The step profile

    phi_s(t) = exp(-(1-t)^(-kappa)) / (exp(-(1-t)^(-kappa)) + exp(-t^(-kappa)))

with kappa = 1/(s-1) decreases smoothly from 1 at t=0 to 0 at t=1 and is
Gevrey of order s for 1 < s < 2.  Derivatives of any order are obtained
without symbolic differentiation by propagating normalized Taylor
coefficients c_j = f^(j)/j! through the defining formula.  A coefficient
array holds the orders j on its first axis and samples on any trailing
axes, so one pass of the recurrences serves a whole time grid (Taylor
arithmetic over a batch; Griewank & Walther, "Evaluating Derivatives",
2008, ch. 13).  Near the endpoints the exponentials drop below the
smallest positive normal double; there the profile is flat to machine
precision and the coefficients snap to an exact constant.

The coefficients are real and the recurrences run in float64.  Each step
is the one the complex recurrences once took with zero imaginary parts: a
complex product then rounds as the real one, and a complex quotient is a
product with the divisor's reciprocal (numpy's Smith division), so the
quotients are written that way.  Only the two seeds, exp(u_0) and
u_0^alpha, stay complex evaluations, since their real counterparts differ
in the last bit on many arguments; so the coefficients keep their bytes.
"""
import math

import numpy as np

MAX_JET_ORDER = 40

# -log of smallest positive normal double; beyond this the exponentials
# underflow and the profile is constant in floating point.
_SNAP_EXPONENT = -math.log(np.finfo(np.float64).tiny)


# The recurrences below act on real coefficient arrays, orders first.  Every
# sum runs over k in increasing order, so each sample gets exactly the
# arithmetic it would get alone.

def _div(a, b):
    n = a.shape[0]
    q = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    inv = 1.0 / b[0]
    for j in range(n):
        acc = a[j]
        for k in range(1, j + 1):
            acc = acc - b[k] * q[j - k]
        q[j] = acc * inv
    return q


def _exp(u):
    n = u.shape[0]
    h = np.zeros(u.shape, dtype=np.float64)
    # a complex evaluation: the real np.exp differs in the last bit on ~5% of arguments
    h[0] = np.exp(u[0] + 0j).real
    ku = [k * u[k] for k in range(n)]
    for j in range(1, n):
        acc = 0.0
        for k in range(1, j + 1):
            acc = acc + ku[k] * h[j - k]
        h[j] = acc * (1.0 / j)
    return h


def _pow(u, alpha):
    # only the orders k >= 1 where u is nonzero somewhere enter the sums:
    # the others add exact zeros, and for the linear series of step_jet the
    # loop is O(n) instead of O(n^2)
    n = u.shape[0]
    w = np.zeros(u.shape, dtype=np.float64)
    # a complex evaluation: the real power differs in the last bit on most arguments
    w[0] = ((u[0] + 0j) ** alpha).real
    live = [k for k in range(1, n) if np.any(u[k] != 0)]
    for j in range(1, n):
        acc = 0.0
        for k in live:
            if k > j:
                break
            acc = acc + ((alpha + 1.0) * k - j) * u[k] * w[j - k]
        w[j] = acc * (1.0 / (j * u[0]))
    return w


def _kappa(s):
    if not 1.0 < s < 2.0:
        raise ValueError(f"Gevrey order s={s} must lie in (1, 2)")
    return 1.0 / (s - 1.0)


def check_order(s):
    """Raise ValueError unless step_jet evaluates phi_s at every t.

    s must lie in (1, 2), and not so close to 1 that both exponentials
    underflow together.  Their exponents (1-t)^-kappa and t^-kappa peak
    together at t = 1/2, at 2^kappa, so the rule is kappa ln 2 <=
    ln(-ln tiny), that is s >= 1 + ln 2 / ln(708.396) = 1.105614...; it is
    step_jet's own test at t = 1/2.
    """
    kappa = _kappa(s)
    if -kappa * math.log(0.5) > math.log(_SNAP_EXPONENT):
        raise ValueError(
            f"both exponentials of phi_s underflow at t=0.5 for s={s}; "
            "need s >= 1 + ln 2 / ln(-ln tiny) = 1.105614...")


def _finite(c):
    if not np.all(np.isfinite(c)):
        raise ValueError("jet coefficients must be finite")
    return c


def step_jet(t, s, order):
    """Taylor coefficients c_j = phi_s^(j)(t)/j!, j = 0..order.

    t is a scalar or an array of samples; the result is a float64 array
    of shape (order+1,) + shape(t).  The coefficients come from the two-exponential
    ratio a/(a+b) directly: both factors stay in (0,1], so the recurrences
    cannot overflow the way the sigmoid form's exp((1-t)^(-kappa) -
    t^(-kappa)) does inside the boundary layers.  Wherever an exponent
    passes the underflow threshold the profile is constant in double
    precision and the coefficients snap exactly.
    """
    kappa = _kappa(s)
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in [0, {MAX_JET_ORDER}]")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    inner = (t > 0.0) & (t < 1.0)
    # compare the would-be exponents in log space: the powers themselves
    # overflow the float range long before the comparison is decided
    log_snap = math.log(_SNAP_EXPONENT)
    ti = np.where(inner, t, 0.5)
    a_under = inner & (-kappa * np.log1p(-ti) > log_snap)   # exp(-(1-t)^-kappa) == 0
    b_under = inner & (-kappa * np.log(ti) > log_snap)      # exp(-t^-kappa) == 0
    both = a_under & b_under
    if np.any(both):
        raise ValueError(
            f"both exponentials of phi_s underflow at t={t[both][0]} for s={s}; "
            "jets need s further from 1")
    coeffs = np.zeros((order + 1,) + t.shape, dtype=np.float64)
    coeffs[0, (t <= 0.0) | b_under] = 1.0
    live = inner & ~a_under & ~b_under
    if np.any(live):
        # t and 1-t as coefficient arrays of the variable at the samples
        x = t[live]
        tt = np.zeros((order + 1, x.size), dtype=np.float64)
        one_minus = np.zeros_like(tt)
        tt[0], tt[1:2] = x, 1.0
        one_minus[0], one_minus[1:2] = 1.0 - x, -1.0
        a = _finite(_exp(-_finite(_pow(one_minus, -kappa))))
        b = _finite(_exp(-_finite(_pow(tt, -kappa))))
        coeffs[:, live] = _finite(_div(a, _finite(a + b)))
    return coeffs[:, 0] if scalar else coeffs
