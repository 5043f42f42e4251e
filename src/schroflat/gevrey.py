"""Gevrey step profile and truncated-Taylor (jet) arithmetic.

The step profile

    phi_s(t) = exp(-(1-t)^(-kappa)) / (exp(-(1-t)^(-kappa)) + exp(-t^(-kappa)))

with kappa = 1/(s-1) decreases smoothly from 1 at t=0 to 0 at t=1 and is
Gevrey of order s for 1 < s < 2.  Derivatives of any order are obtained
without symbolic differentiation by propagating normalized Taylor
coefficients c_j = f^(j)/j! through the defining formula.  The jet
recurrences carry a trailing sample axis, so one pass serves a whole time
grid (Taylor arithmetic over a batch; Griewank & Walther, "Evaluating
Derivatives", 2008, ch. 13), and a single jet is the one-sample case.
Near the
endpoints the exponentials drop below the smallest positive normal double;
there the profile is flat to machine precision and the jet snaps to an
exact constant.
"""
import math
from dataclasses import dataclass

import numpy as np

MAX_JET_ORDER = 40

# -log of smallest positive normal double; beyond this the exponentials
# underflow and the profile is constant in floating point.
_SNAP_EXPONENT = -math.log(np.finfo(np.float64).tiny)


# The recurrences below act on arrays whose first axis is the order j and
# whose trailing axes, if any, are samples.  Every sum runs over k in
# increasing order, so each sample gets exactly the arithmetic of a
# one-sample jet.

def _mul(a, b):
    n = a.shape[0]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for j in range(n):
        for k in range(j + 1):
            c[j] += a[k] * b[j - k]
    return c


def _div(a, b):
    n = a.shape[0]
    q = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for j in range(n):
        acc = a[j]
        for k in range(1, j + 1):
            acc = acc - b[k] * q[j - k]
        q[j] = acc / b[0]
    return q


def _exp(u):
    n = u.shape[0]
    h = np.zeros(u.shape, dtype=np.complex128)
    h[0] = np.exp(u[0])
    for j in range(1, n):
        acc = 0.0
        for k in range(1, j + 1):
            acc = acc + k * u[k] * h[j - k]
        h[j] = acc / j
    return h


def _pow(u, alpha):
    n = u.shape[0]
    w = np.zeros(u.shape, dtype=np.complex128)
    w[0] = u[0] ** alpha
    for j in range(1, n):
        acc = 0.0
        for k in range(1, j + 1):
            acc = acc + ((alpha + 1.0) * k - j) * u[k] * w[j - k]
        w[j] = acc / (j * u[0])
    return w


@dataclass(eq=False)
class ComplexJet:
    """Normalized Taylor coefficients c_j = f^(j)(center)/j!.

    A jet may carry a batch: with centers of shape S, coeffs has shape
    (order+1,) + S and every operation acts on all samples at once.
    """

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim == 0 or self.coeffs.shape[0] == 0:
            raise ValueError("coeffs must be a nonempty array, orders first")
        if self.coeffs.shape[1:] != np.shape(self.center):
            raise ValueError("coeffs must carry one column per center")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("jet coefficients must be finite")

    @classmethod
    def constant(cls, value, center, order):
        c = np.zeros((order + 1,) + np.shape(center), dtype=np.complex128)
        c[0] = value
        return cls(center, c)

    @classmethod
    def variable(cls, center, order):
        c = np.zeros((order + 1,) + np.shape(center), dtype=np.complex128)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return cls(center, c)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k):
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet range")
        return self.coeffs[k] * math.factorial(k)

    def _check(self, other):
        if not np.array_equal(self.center, other.center) or self.order != other.order:
            raise ValueError("jet centers and orders must match")

    def __add__(self, other):
        self._check(other)
        return ComplexJet(self.center, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return ComplexJet(self.center, self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, ComplexJet):
            self._check(other)
            return ComplexJet(self.center, _mul(self.coeffs, other.coeffs))
        return ComplexJet(self.center, self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        self._check(other)
        if np.any(other.coeffs[0] == 0):
            raise ZeroDivisionError("jet division by zero constant term")
        return ComplexJet(self.center, _div(self.coeffs, other.coeffs))

    def __neg__(self):
        return ComplexJet(self.center, -self.coeffs)

    def exp(self):
        return ComplexJet(self.center, _exp(self.coeffs))

    def power(self, alpha):
        if np.any(self.coeffs[0] == 0):
            raise ZeroDivisionError("jet power needs nonzero constant term")
        return ComplexJet(self.center, _pow(self.coeffs, float(alpha)))


def _kappa(s):
    if not 1.0 < s < 2.0:
        raise ValueError(f"Gevrey order s={s} must lie in (1, 2)")
    return 1.0 / (s - 1.0)


def step_function(t, s):
    """Evaluate phi_s pointwise; scalar or array argument.

    Dividing numerator and denominator by the first exponential turns the
    ratio into a sigmoid in d = (1-t)^(-kappa) - t^(-kappa), which avoids
    0/0 when both exponentials underflow.
    """
    kappa = _kappa(s)
    t_arr = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t_arr)
    out[t_arr <= 0.0] = 1.0
    inner = (t_arr > 0.0) & (t_arr < 1.0)
    ti = t_arr[inner]
    d = (1.0 - ti) ** (-kappa) - ti ** (-kappa)
    with np.errstate(over="ignore", under="ignore"):
        out[inner] = 1.0 / (1.0 + np.exp(d))
    return out if np.ndim(t) else float(out)


def step_jet(t, s, order):
    """Jet of phi_s at t, snapping to an exact constant in the flat tails.

    t is a scalar or an array of samples; an array gives one batched jet
    with a column per sample.  Jets use the two-exponential ratio a/(a+b)
    directly: both factors stay in (0,1], so coefficient recurrences cannot
    overflow the way the sigmoid form's exp((1-t)^(-kappa) - t^(-kappa))
    does inside the boundary layers.  Wherever an exponent passes the
    underflow threshold the profile is constant in double precision and
    the jet snaps exactly.
    """
    kappa = _kappa(s)
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in [0, {MAX_JET_ORDER}]")
    center = np.asarray(t, dtype=np.float64) if np.ndim(t) else float(t)
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
    coeffs = np.zeros((order + 1,) + t.shape, dtype=np.complex128)
    coeffs[0, (t <= 0.0) | b_under] = 1.0
    live = inner & ~a_under & ~b_under
    if np.any(live):
        tt = ComplexJet.variable(t[live], order)
        one_minus = ComplexJet.constant(1.0, t[live], order) - tt
        a = (-one_minus.power(-kappa)).exp()
        b = (-tt.power(-kappa)).exp()
        coeffs[:, live] = (a / (a + b)).coeffs
    return ComplexJet(center, coeffs if np.ndim(center) else coeffs[:, 0])

