"""Reference implementations of the batched synthesis and the modal marches.

The package evaluates the two phases of the control over a whole time grid
at once: phase 1 through one adaptive Gauss-Kronrod loop whose work list
holds (sample, panel) pairs, phase 2 as Taylor-coefficient arrays with a
trailing sample axis.  The functions here are the one-sample-at-a-time
versions the batched code replaced, kept as oracles: an adaptive quadrature
per integral (and the seed as one integral per order), and scalar Taylor
recurrences per time sample.  The package's phase-1 trace integrates only
the points of Chebyshev interpolants in time and the grid times too early
to interpolate; the batched trace that integrates every grid time
(boundary_trace_every_time) is kept as its oracle, and so is the synthesis
that hands the datum itself to phase 1 and to the seed, which evaluate it
again on every quadrature generation's node table (synthesize_raw), where
the package evaluates each panel once.  The free propagator E(t,x) and its
derivatives as translates (fundamental_solution, kernel_derivative), which
the package evaluates only in product form, the per-order odd kernel that
builds its own tables (odd_kernel), the order-0 kernel on interleaved
complex buffers that the package's contiguous real one replaced
(order0_kernel_interleaved), the kernel at any x and order with
its shifted tables (general_odd_kernel, shifted_coefficients), which give
the beam's hinge moment as the order-2 integral against the datum itself,
the one-integral interface of the package's batched loop
(IntegrationProblem, integrate) and a per-row integrand posed in that
loop's two stages (per_row), the one-sample
control series (control_at) and the checks that only tests need (the
free evolution at any points (free_evolution), the seed's state series,
the phase-2 state series over x (state_series), the Cauchy product of
coefficient arrays, Gevrey bounds on Taylor coefficients, the step
profile in its closed sigmoid form) live here as well.

The package also marches both equations in sine modes, chunks of steps at
a time.  The step-by-step banded solves of the same two schemes are kept
here, with a grid solve of the beam's Poisson lift; they need scipy, which
the package itself does not import.  So are the marches' tables computed
entry by entry (sine_modes_direct), which the package gathers from their
distinct values, and the Schrodinger march that always forms the full
table of powers and a forcing product per chunk (march_chunked), which the
package skips when the boundary data vanish, and the beam march that
rebuilds every step on the grid for its energy (beam_simulate_grid), where
the package reads the energy from the modes.
"""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from schroflat.gevrey import _SNAP_EXPONENT, _kappa
from schroflat.kernel import MAX_ORDER, KernelError, derivative_coefficients, horner
from schroflat import kernel, quadrature
from schroflat.quadrature import (_FLOOR_FACTOR, GAUSS_IDX, NODES, WEIGHTS_GAUSS,
                                  WEIGHTS_KRONROD, QuadratureError, integrate_batch)
from schroflat.beam import BeamResult, BeamSnapshot
from schroflat.sine_modes import (CHUNK, apply_sine, chunk_states, complex_product,
                                  power_rows, sine_modes)
from schroflat.flatness import _MIPOW, FlatOutput, _series_terms, control_trace
from schroflat.smoothing import (_IPOW, _PHASE_SPAN, PHASE_SMOOTHING, ControlTrace,
                                 _convolutions, _jump_terms, boundary_trace,
                                 flat_coefficients)


# ------------------------------------------------------------- kernel

def _check_times(t):
    t = np.asarray(t, dtype=np.float64)
    if np.any(t == 0):
        raise KernelError("kernel is singular at t = 0")
    return t


def fundamental_solution(t, x):
    """E(t,x) = e^{i x^2 / 4t} / sqrt(4 pi i t), principal branch of the root.

    t (nonzero) and x are scalars or arrays that broadcast together.
    """
    t = _check_times(t)
    x = np.asarray(x, dtype=np.float64)
    return np.exp(1j * x * x / (4.0 * t)) / np.sqrt(4j * np.pi * t)


def derivative_coefficients_one(t, order):
    """Coefficients of p_order, ascending in x, for each time in t.

    Returns an array of shape np.shape(t) + (order+1,), from its own run
    of the recurrence p_{m+1} = p_m' + (i x / 2t) p_m.
    """
    if order < 0 or order > MAX_ORDER:
        raise KernelError(f"derivative order {order} outside [0, {MAX_ORDER}]")
    t = np.asarray(t, dtype=np.float64)
    c = np.zeros(t.shape + (order + 1,), dtype=np.complex128)
    c[..., 0] = 1.0
    half = 1j / (2.0 * t[..., None])
    for m in range(order):
        nxt = np.zeros_like(c)
        nxt[..., : m + 1] = np.arange(1, m + 2) * c[..., 1 : m + 2]
        nxt[..., 1 : m + 2] += half * c[..., : m + 1]
        c = nxt
    if not np.all(np.isfinite(c)):
        raise KernelError(f"coefficient overflow at order {order}")
    return c


def taylor_shift(c, x):
    """Ascending coefficients of q(y) = p(x+y) from those of p, pointwise.

    Entry k is p^(k)(x)/k!; x broadcasts against c without its last axis.
    """
    d = c.copy()
    n = d.shape[-1]
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            d[..., j] += x * d[..., j + 1]
    return d


def kernel_derivative(t, x, m):
    """d^m/dx^m E(t,x) = p_m(x) E(t,x) for scalar or array x (and t).

    t is one time or one time per point of x.  The odd kernel's two
    translates, whose difference odd_kernel forms in product form.
    """
    t = _check_times(t)
    scalar = np.ndim(x) == 0 and t.ndim == 0
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if m == 0:
        vals = fundamental_solution(t, x)
    else:
        vals = horner(derivative_coefficients_one(t, m), x) * fundamental_solution(t, x)
    return vals[0] if scalar else vals


def shifted_coefficients(t, x, orders):
    """Tables of q_m(y) = p_m(x+y), ascending in y, for each order m in orders.

    t and x broadcast together.  Returns an array of shape (len(orders),)
    + that shape + (max(orders)+1,): order m's table holds p_m^(k)(x)/k!,
    zero-padded above degree m, from one pass of the recurrence
    q_0 = 1, q_{m+1} = q_m' + (i (x+y) / 2t) q_m.  The package builds the
    tables at the wall x = 0 only (kernel.derivative_coefficients).
    """
    top = max(orders)
    if min(orders) < 0 or top > MAX_ORDER:
        raise KernelError(f"derivative order outside [0, {MAX_ORDER}] in {tuple(orders)}")
    t, x = np.broadcast_arrays(_check_times(t), np.asarray(x, dtype=np.float64))
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


def _even_poly(c, y2):
    acc = c[..., -1]
    for j in range(c.shape[-1] - 2, -1, -1):
        acc = acc * y2 + c[..., j]
    return acc


def general_odd_kernel(t, x, y, m=0):
    """d^m/dx^m (E(t,x-y) - E(t,x+y)) at any x and order m, in product form.

    With C = e^{i(x^2+y^2)/4t} / sqrt(4 pi i t) and theta = xy/2t, split
    p_m(x+-y) = A(y) +- B(y) into its even and odd parts in y, read off the
    tables of shifted_coefficients:

        d^m F = -2 C (i A sin(theta) + B cos(theta)).

    The package's kernel has order 0 at any x and the orders at the wall;
    this one gives the hinge moment as the order-2 integral against the
    datum itself.  t, x and y broadcast together; m is one order.
    """
    t = _check_times(t)
    y = np.asarray(y, dtype=np.float64)
    t, x, y = np.broadcast_arrays(t, np.asarray(x, dtype=np.float64), y)
    c = shifted_coefficients(t, x, (m,))[0] * (-2.0 / np.sqrt(4j * np.pi * t))[..., None]
    theta = x * y / (2.0 * t)
    y2 = y * y
    even, odd = 1j * c[..., 0::2], c[..., 1::2]
    value = _even_poly(even, y2) * np.sin(theta)
    if m > 0:
        value = value + _even_poly(odd, y2) * y * np.cos(theta)
    return value * np.exp(1j * (x * x + y2) / (4.0 * t))


def odd_kernel(t, x, y, m=0):
    """d^m/dx^m (E(t,x-y) - E(t,x+y)) through the package's kernel.odd_kernel,
    with the tables built here: order 0 at any x, any order at x = 0.

    t, x and y are scalars or arrays that broadcast together (t and x
    against y's trailing axes); a scalar y gives a scalar value.  m is one
    order, or a tuple of orders stacked on a leading axis.
    """
    t = _check_times(t)
    orders = (m,) if np.ndim(m) == 0 else tuple(m)
    ya = np.atleast_1d(np.asarray(y, dtype=np.float64))
    t, xa = np.broadcast_arrays(t, np.asarray(x, dtype=np.float64))
    vals = kernel.odd_kernel(t, xa, ya, derivative_coefficients(t, orders))
    vals = vals if np.ndim(m) else vals[0]
    return vals[..., 0] if np.ndim(y) == 0 else vals


def order0_kernel_interleaved(t, x, y):
    """kernel.odd_kernel at order 0 as the package once computed it: the
    same real operations in the same order, but with G written into the
    real and imaginary parts of a complex array and the phase factor's
    argument into the imaginary part of complex zeros.  Shape (1,) + the
    broadcast shape of t and y, as odd_kernel's.
    """
    shape = np.broadcast_shapes(t.shape, y.shape)
    vals = np.empty((1,) + shape, dtype=np.complex128)
    amplitude = -2.0 / np.sqrt(4j * np.pi * t)
    sin_t = x * y
    sin_t /= 2.0 * t
    np.sin(sin_t, out=sin_t)
    y2 = y * y
    i_amp = 1j * amplitude
    np.multiply(i_amp.real, sin_t, out=vals.real)
    np.multiply(i_amp.imag, sin_t, out=vals.imag)
    rot = np.zeros(shape, dtype=np.complex128)
    np.add(y2, x * x, out=rot.imag)
    rot.imag /= 4.0 * t
    np.exp(rot, out=rot)
    gi_s = vals.imag * rot.imag
    gr_s = vals.real * rot.imag
    vals.real *= rot.real
    vals.real -= gi_s
    vals.imag *= rot.real
    vals.imag += gr_s
    return vals


# ------------------------------------------------------- one integral

@dataclass(frozen=True)
class IntegrationProblem:
    integrand: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple = ()
    abs_tol: float = 1e-10
    width: float = math.inf


def per_row(f):
    """integrate_batch's two-stage integrand from a per-row one: f(x, s)
    takes one row of nodes per work-list row, gathered from the
    generation's node table, and the column of the rows' samples."""
    return lambda nodes: lambda panel, sample: f(nodes[panel], sample[:, None])


def integrate(problem: IntegrationProblem):
    """Integral of problem.integrand over [0,1] -> (value, err_estimate).

    The one-sample case of integrate_batch.
    """
    values, errs, _ = integrate_batch(
        per_row(lambda x, s: problem.integrand(x.ravel())), 1, problem.breakpoints,
        problem.abs_tol, width=problem.width)
    return complex(values[0]), float(errs[0])


def integrate_function(f, breakpoints=(), **kwargs):
    """integrate with the problem built inline."""
    return integrate(IntegrationProblem(f, tuple(breakpoints), **kwargs))


# ------------------------------------------------------------- phase 1

def panel_sums(f, lo, hi):
    """(Kronrod sum, error estimate, L1 scale) per panel as complex
    matrix-vector products; the package forms the same sums as one real
    matrix product (quadrature._panel_sums)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * NODES[None, :]
    fv = np.asarray(f(xs.ravel()), dtype=np.complex128).reshape(xs.shape)
    kron = half * (fv @ WEIGHTS_KRONROD)
    gauss = half * (fv[:, GAUSS_IDX] @ WEIGHTS_GAUSS)
    diff = kron - gauss
    err = np.abs(diff.real) + np.abs(diff.imag)
    scale = half * (np.abs(fv) @ WEIGHTS_KRONROD)
    return kron, err, scale


def _panel_sums(f, lo, hi):
    # the package's panel sums: this oracle checks the adaptive loop around
    # them, and panel_sums checks the sums themselves
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return quadrature._panel_sums(f((mid[:, None] + half[:, None] * NODES).ravel()), half)


def integrate_one(problem):
    """One adaptive integral -> (value, err, panels evaluated), with the
    package's relative tolerance and panel budget.  The panels between the
    breakpoints are bisected, a round at a time, until none is wider than
    problem.width, unless a round would leave more than PANELS_PER_CALL."""
    f = problem.integrand
    edges = np.array([0.0, *problem.breakpoints, 1.0])
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    wide = hi - lo > problem.width
    while wide.any() and lo.size + wide.sum() <= quadrature.PANELS_PER_CALL:
        mid = 0.5 * (lo + hi)
        lo, hi = (np.concatenate([lo, mid[wide]]),
                  np.concatenate([np.where(wide, mid, hi), hi[wide]]))
        wide = hi - lo > problem.width
    acc_lo = []
    acc_val = []
    acc_err = []
    used = 0
    prev_errsum = math.inf
    stalled = 0

    while lo.size:
        used += lo.size
        if used > quadrature.MAX_SUBDIVISIONS:
            kron, err, _ = _panel_sums(f, lo, hi)
            order = np.argsort(np.concatenate([np.array(acc_lo), lo]), kind="stable")
            vals = np.concatenate([np.array(acc_val, dtype=np.complex128), kron])
            errs = np.concatenate([np.array(acc_err), err])
            raise QuadratureError(
                f"no convergence within {quadrature.MAX_SUBDIVISIONS} panel evaluations",
                complex(vals[order].sum()), float(errs[order].sum()))
        kron, err, scale = _panel_sums(f, lo, hi)

        total = kron.sum() + (np.sum(acc_val) if acc_val else 0.0)
        tol = max(problem.abs_tol, quadrature.REL_TOL * abs(total))
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


def convolution_one(v0, t, x, m=0, support=1.0, breakpoints=(), abs_tol=1e-10):
    """(value, err, panels) of one odd-folded kernel convolution: through
    the package's kernel where it has the order m at x, else through
    general_odd_kernel.  Its panels start no wider than those over which
    the kernel's far translate turns through _PHASE_SPAN radians."""
    kern = odd_kernel if m == 0 or x == 0.0 else general_odd_kernel
    width = 2.0 * _PHASE_SPAN * t / ((abs(x) + support) * support)

    def integrand(sig):
        y = support * sig
        return kern(t, x, y, m) * v0(y)

    bps = tuple(b / support for b in breakpoints if 0.0 < b / support < 1.0)
    value, err, used = integrate_one(IntegrationProblem(integrand, bps, abs_tol, width))
    return support * value, support * err, used


def free_evolution(theta0, t, x):
    """Smoothed state v(t,x) for the odd extension of theta0.

    t and x may be arrays that broadcast together: all points then go
    through one batched quadrature, and the values take their shape.
    """
    values = _convolutions(theta0, t, x, (0,))[0]
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    return complex(values[0]) if shape == () else values.reshape(shape)


def jump_terms_one(v0, t, x=1.0):
    """sum over the jumps b of v0 of F(t,x,b) [v0'](b) - F_y(t,x,b) [v0](b),
    with F and F_y = -E'(t,x-y) - E'(t,x+y) from the translates."""
    b, dg, dg1 = v0.jumps()
    f = kernel_derivative(t, x - b, 0) - kernel_derivative(t, x + b, 0)
    f_y = -kernel_derivative(t, x - b, 1) - kernel_derivative(t, x + b, 1)
    return complex(np.sum(f * dg1 - f_y * dg))


class CurvatureDatum:
    """The second derivative of a datum v0 as a datum of its own: row 1
    of v0.with_curvature, on v0's support and breakpoints."""

    def __init__(self, v0):
        self.v0, self.support, self.breakpoints = v0, v0.support, v0.breakpoints

    def __call__(self, y):
        return self.v0.with_curvature(y)[1]


class RestartedDatum:
    """A datum v0 posed with other breakpoints, on its own support: every
    quadrature sample against it starts from the panels between them.
    Its values and jumps are v0's."""

    def __init__(self, v0, breakpoints):
        self.v0, self.support, self.breakpoints = v0, v0.support, tuple(breakpoints)

    def __call__(self, y):
        return self.v0(y)

    def with_curvature(self, y):
        return self.v0.with_curvature(y)

    def jumps(self):
        return self.v0.jumps()


def boundary_trace_per_sample(v0, t_grid, support=1.0, breakpoints=(),
                              derivative=True, abs_tol=1e-10):
    """u, du, err and per-sample panel counts (of v0 and of its second
    derivative), one sample at a time: v_xx(t,1) as the convolution of the
    second derivative plus the jump terms, as the package forms it."""
    n = len(t_grid)
    u = np.zeros(n, dtype=np.complex128)
    du = np.zeros(n, dtype=np.complex128)
    err = np.zeros(n)
    panels = np.zeros((2, n), dtype=np.int64)
    settings = (support, breakpoints, abs_tol)
    curvature = CurvatureDatum(v0)
    for i, t in enumerate(t_grid):
        u[i], err[i], panels[0, i] = convolution_one(v0, t, 1.0, 0, *settings)
        if derivative:
            v2, e2, panels[1, i] = convolution_one(curvature, t, 1.0, 0, *settings)
            du[i] = 1j * (v2 + jump_terms_one(v0, t))
            err[i] = err[i] + e2
    return u, du, err, panels


def boundary_trace_every_time(v0, t_grid, derivative=True, abs_tol=1e-10):
    """The phase-1 trace with every grid time integrated: one batch of all
    times, from the datum's breakpoints, as the package's trace integrates
    its interpolants' points and direct samples."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_grid <= 0):
        raise ValueError("trace times must be positive")
    n_data = 2 if derivative else 1
    try:
        values, errs, _ = _convolutions(v0, t_grid, 1.0, (0,), abs_tol, derivative)
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


def synthesize_raw(v0, times, tau, T, s, K, K_u, derivative=False, abs_tol=1e-10):
    """(trace, seed): flatness.synthesize's trace and seed, with the datum
    v0 itself handed to phase 1 and to the seed."""
    times = np.asarray(times, dtype=np.float64)
    t1 = times[(times > 0) & (times < tau)]
    trace1, _ = boundary_trace(v0, np.append(t1, tau), derivative, abs_tol)
    seed = flat_coefficients(v0, tau, K)
    fo = FlatOutput(tau, seed, T, s, K_u)
    trace2 = control_trace(fo, np.insert(times[times > tau], 0, tau))
    phase1 = trace1[: t1.size + int(np.any(times == tau))]
    return ControlTrace.concat(phase1, trace2[1:]), seed


def flat_coefficients_per_order(v0, tau, K):
    """Seed y_0..y_K of v0 at tau, one adaptive integral per order."""
    support = v0.support
    bps = tuple(b / support for b in v0.breakpoints if 0.0 < b / support < 1.0)
    y = np.zeros(K + 1, dtype=np.complex128)
    for k in range(K + 1):
        def integrand(sig, order=2 * k + 1):
            ys = support * sig
            return -2.0 * kernel_derivative(tau, ys, order) * v0(ys)

        value, _ = integrate(IntegrationProblem(integrand, bps))
        y[k] = _IPOW[k % 4] * support * value
    return y


def seed_series(y, x):
    """Sum y_k (-i)^k x^(2k+1)/(2k+1)! -- the smoothed state at t=tau."""
    total = 0.0 + 0.0j
    for k in range(y.size - 1, -1, -1):
        total += y[k] * _MIPOW[k % 4] * x ** (2 * k + 1) / math.factorial(2 * k + 1)
    return total


# ------------------------------------------------------------- phase 2

def _mul(a, b):
    """Cauchy product of two coefficient arrays, orders first."""
    n = a.shape[0]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    for j in range(n):
        for k in range(j + 1):
            c[j] += a[k] * b[j - k]
    return c


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


def step_function(t, s):
    """Evaluate phi_s pointwise; scalar or array argument.  The oracle of
    step_jet's value, which the package takes from the ratio a/(a+b).

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
    K = fo.K
    n = fo.jet_order
    ybar = np.zeros(n + 1, dtype=np.complex128)
    for m in range(min(n, K) + 1):
        acc = 0.0 + 0.0j
        for j in range(K, m, -1):
            acc += fo.y[j] * dt ** (j - m) / math.factorial(j - m)
        ybar[m] = acc + fo.y[m]
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


def control_at(fo, t):
    """(u, du, tail) of the package's phase-2 control at the one time t."""
    trace = control_trace(fo, [t])
    return trace.u[0], trace.du[0], trace.err[0]


def state_series(fo: FlatOutput, t: float, x):
    """Interior state theta(t,x); identical to the control at x=1."""
    terms, _ = _series_terms(fo, float(t))
    xa = np.asarray(x, dtype=np.float64)
    value = np.zeros(xa.shape, dtype=np.complex128)
    for k, term in enumerate(terms[:, 0]):
        value += term * xa ** (2 * k + 1)
    return complex(value) if np.ndim(x) == 0 else value


def control_series_one(fo, t):
    """(u, du, tail, terms, dterms) of the control series at one t."""
    derivs = flat_output_derivatives_one(fo, t)
    terms = np.zeros(fo.K_u + 1, dtype=np.complex128)
    dterms = np.zeros(fo.K_u + 1, dtype=np.complex128)
    for k in range(fo.K_u + 1):
        fact = math.factorial(2 * k + 1)
        terms[k] = _MIPOW[k % 4] * derivs[k] / fact
        dterms[k] = _MIPOW[k % 4] * derivs[k + 1] / fact
    return (complex(np.sum(terms)), complex(np.sum(dterms)),
            float(abs(terms[fo.K_u])), terms, dterms)


@dataclass(frozen=True)
class GevreyBound:
    """|f^(j)| <= M * (j!)^s / R^j for all tabulated orders."""

    M: float
    R: float
    s: float

    def log_limit(self, j):
        return math.log(self.M) + self.s * math.lgamma(j + 1) - j * math.log(self.R)


def verify_gevrey_bound(t, coeffs, bound):
    """Check Taylor coefficients (orders by samples t) against the bound.

    The check runs in log space, sample by sample.  Returns (ok, witness)
    where witness is (t, order) of the first violation, or None.
    """
    for i, center in enumerate(t):
        for j, c in enumerate(coeffs[:, i]):
            mag = abs(c)
            if mag == 0.0:
                continue
            log_deriv = math.log(mag) + math.lgamma(j + 1)
            if log_deriv > bound.log_limit(j):
                return False, (center, j)
    return True, None


# ------------------------------------------------------------- marches

def sine_modes_direct(nx, lam):
    """sine_modes' tables entry by entry: one sine per entry of S, and r^j
    as the complex exponential of i j phase."""
    k = np.arange(1, nx)
    S = np.sin(np.pi / nx * (np.outer(k, k) % (2 * nx)))
    theta = 2.0 * lam * np.sin(0.5 * np.pi / nx * k) ** 2
    phase = -2.0 * np.arctan(theta)
    powers = np.exp(1j * np.arange(CHUNK + 1)[:, None] * phase[None, :])
    return S, theta, powers


def march_chunked(theta, ub, lam, snap_idx):
    """Crank-Nicolson frames in sine modes with the full table of powers
    r^0 .. r^CHUNK and a forcing product every chunk, zero or not.

    The package's march skips both where the boundary data vanish: it adds
    no forcing product and builds only the powers it reads.
    """
    nx = theta.size - 1
    S, th, phase = sine_modes(nx, lam)
    angle = np.arange(CHUNK + 1)[:, None] * phase
    powers = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=powers.real)
    np.sin(angle, out=powers.imag)
    kick = 1j * lam / nx / (1.0 + 1j * th)
    c = (2.0 / nx) * apply_sine(S, theta[1:-1])
    c += kick * S[0] * theta[0] * powers[1].conj()
    gain = kick * S[-1] * powers[CHUNK - 1::-1]
    f = ub[:-1] + ub[1:]
    out = np.empty((snap_idx.size, theta.size), dtype=np.complex128)
    step = 0
    for i, idx in enumerate(snap_idx):
        while step < idx:
            n = min(CHUNK, idx - step)
            c = powers[n] * c + complex_product(f[step:step + n], gain[CHUNK - n:])
            step += n
        if idx == 0:
            out[i] = theta
        else:
            out[i, 0] = 0.0
            out[i, 1:-1] = apply_sine(S, c)
            out[i, -1] = ub[idx]
    return out


def march_banded(theta, ub, lam, snap_idx):
    """Crank-Nicolson frames by one tridiagonal solve per step."""
    from scipy.linalg import solve_banded

    half = 0.5j * lam
    n = theta.size - 2
    ab = np.zeros((3, n), dtype=np.complex128)
    ab[0, 1:] = -half
    ab[1, :] = 1.0 + 1j * lam
    ab[2, :-1] = -half
    out = np.empty((snap_idx.size, theta.size), dtype=np.complex128)
    ptr = 0
    if snap_idx[ptr] == 0:
        out[ptr] = theta
        ptr += 1
    theta = theta.copy()
    theta[-1] = ub[0]
    for step in range(ub.size - 1):
        rhs = theta[1:-1] + half * (theta[:-2] - 2.0 * theta[1:-1] + theta[2:])
        rhs[-1] += half * ub[step + 1]
        theta[1:-1] = solve_banded((1, 1), ab, rhs)
        theta[-1] = ub[step + 1]
        theta[0] = 0.0
        if ptr < snap_idx.size and snap_idx[ptr] == step + 1:
            out[ptr] = theta
            ptr += 1
    return out


def _fourth_difference_banded(n):
    """Upper-banded storage of the hinged fourth-difference matrix T^2."""
    ab = np.zeros((3, n))
    ab[0, 2:] = 1.0
    ab[1, 1:] = -4.0
    ab[2, :] = 6.0
    ab[2, 0] = 5.0
    ab[2, n - 1] = 5.0
    return ab


def _apply_fourth_difference(eta):
    out = 6.0 * eta
    out[0] -= eta[0]
    out[-1] -= eta[-1]
    out[:-1] -= 4.0 * eta[1:]
    out[1:] -= 4.0 * eta[:-1]
    out[:-2] += eta[2:]
    out[2:] += eta[:-2]
    return out


def beam_simulate_banded(data, u1, u2, cfg, u2_avg=None):
    """beam_simulate by one banded Cholesky solve per step."""
    from scipy.linalg import cho_solve_banded, cholesky_banded

    x = np.linspace(0.0, 1.0, cfg.Nx + 1)
    h = cfg.dx
    dt = cfg.dt
    eta = np.asarray(data.eta0(x[1:-1])).real.astype(np.float64)
    p = np.asarray(data.eta1(x[1:-1])).real.astype(np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    du1 = np.gradient(u1, dt)

    n = cfg.Nx - 1
    mu = dt * dt / (4.0 * h ** 4)
    lhs = _fourth_difference_banded(n) * mu
    lhs[2, :] += 1.0
    chol = cholesky_banded(lhs, lower=False)

    def boundary_step_sum(k):
        b = np.zeros(n)
        b[n - 2] = u1[k] + u1[k + 1]
        moment = u2[k] + u2[k + 1] if u2_avg is None else 2.0 * u2_avg[k]
        b[n - 1] = -2.0 * (u1[k] + u1[k + 1]) + h * h * moment
        return b

    def energy(eta_v, p_v, k):
        full = np.concatenate([[0.0], eta_v, [u1[k]]])
        exx = np.zeros(cfg.Nx + 1)
        exx[1:-1] = (full[:-2] - 2.0 * full[1:-1] + full[2:]) / (h * h)
        exx[-1] = u2[k]
        pw = np.concatenate([[0.0], p_v, [du1[k]]])
        quad = pw ** 2 + exx ** 2
        return 0.5 * h * float(np.sum(quad) - 0.5 * quad[0] - 0.5 * quad[-1])

    def snapshot(k, eta_v, p_v):
        return BeamSnapshot(float(times[k]), x,
                            np.concatenate([[0.0], eta_v, [u1[k]]]),
                            np.concatenate([[0.0], p_v, [du1[k]]]))

    snap_idx = cfg.snapshot_indices()
    times = cfg.times()
    energies = np.zeros(cfg.Nt + 1)
    energies[0] = energy(eta, p, 0)
    snapshots = []
    ptr = 0
    if snap_idx[ptr] == 0:
        snapshots.append(snapshot(0, eta, p))
        ptr += 1
    for k in range(cfg.Nt):
        b_step = boundary_step_sum(k)
        rhs = eta - mu * _apply_fourth_difference(eta) + dt * p - mu * b_step
        eta_next = cho_solve_banded((chol, False), rhs)
        a_sum = _apply_fourth_difference(eta + eta_next)
        p_next = p - dt / (2.0 * h ** 4) * (a_sum + b_step)
        eta, p = eta_next, p_next
        energies[k + 1] = energy(eta, p, k + 1)
        if ptr < snap_idx.size and snap_idx[ptr] == k + 1:
            snapshots.append(snapshot(k + 1, eta, p))
            ptr += 1
    return BeamResult(snapshots, times, energies)


def _energies(eta, p, u1, u2, du1, h):
    """E = (1/2) integral (eta_t^2 + eta_xx^2) dx, trapezoidal in x, per row.

    eta and p hold interior values, one time level per row; u1, u2 and du1
    are that level's displacement, moment and velocity at x = 1.  Both
    integrands vanish at the hinge x = 0.
    """
    full = np.concatenate([np.zeros((eta.shape[0], 1)), eta, u1[:, None]], axis=1)
    exx = (full[:, :-2] - 2.0 * full[:, 1:-1] + full[:, 2:]) / (h * h)
    inner = np.sum(p ** 2 + exx ** 2, axis=1)
    return 0.5 * h * (inner + 0.5 * (du1 ** 2 + u2 ** 2))


def beam_simulate_grid(data, u1, u2, cfg, u2_avg):
    """beam_simulate with every step's state rebuilt on the grid.

    The same modal march, but each chunk of states goes back to the grid
    through two dense Nx x Nx products, and the energy is the trapezoidal
    sum of finite differences there (_energies).  Snapshots are rows of
    those products.
    """
    x = np.linspace(0.0, 1.0, cfg.Nx + 1)
    h = cfg.dx
    dt = cfg.dt
    eta = np.asarray(data.eta0(x[1:-1])).real.astype(np.float64)
    p = np.asarray(data.eta1(x[1:-1])).real.astype(np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.shape != (cfg.Nt + 1,) or u2.shape != (cfg.Nt + 1,):
        raise ValueError("controls must be sampled on the simulation time grid")
    # hinge velocity at x=1 for diagnostics; central in the interior, one
    # sided at the ends
    du1 = np.gradient(u1, dt)
    u2_avg = np.asarray(u2_avg, dtype=np.float64)
    if u2_avg.shape != (cfg.Nt,):
        raise ValueError("u2_avg must hold one average per time step")
    moment = 2.0 * u2_avg

    nx = cfg.Nx
    S, th, phase = sine_modes(nx, dt / (h * h))
    powers = power_rows(phase, np.arange(CHUNK + 1))
    w = 2.0 * th / dt
    z = (2.0 / nx) * (w * (S @ eta) + 1j * (S @ p))
    # step k's boundary rows: b[-2] = U, b[-1] = -2U + h^2 M with
    # U = u1[k] + u1[k+1] and M the moment sum; they enter the velocity
    # update as -(dt / 2h^4) b
    kick = -1j * dt / (nx * h ** 4) / (1.0 + 1j * th)
    from_u1 = kick * (S[-2] - 2.0 * S[-1])
    from_moment = kick * h * h * S[-1]
    u1_sum = u1[:-1] + u1[1:]

    times = cfg.times()
    snap_idx = cfg.snapshot_indices()
    energies = np.empty(cfg.Nt + 1)
    energies[0] = _energies(eta[None, :], p[None, :], u1[:1], u2[:1], du1[:1], h)[0]
    snapshots = []

    def snapshot(k, eta_v, p_v):
        return BeamSnapshot(float(times[k]), x,
                            np.concatenate([[0.0], eta_v, [u1[k]]]),
                            np.concatenate([[0.0], p_v, [du1[k]]]))

    if snap_idx[0] == 0:
        snapshots.append(snapshot(0, eta, p))
    for m in range(0, cfg.Nt, CHUNK):
        n = min(CHUNK, cfg.Nt - m)
        forcing = (np.outer(u1_sum[m:m + n], from_u1)
                   + np.outer(moment[m:m + n], from_moment))
        zs = chunk_states(z, powers, forcing)
        z = zs[-1]
        eta_c = (zs.real / w) @ S
        p_c = zs.imag @ S
        k = slice(m + 1, m + n + 1)
        energies[k] = _energies(eta_c, p_c, u1[k], u2[k], du1[k], h)
        for idx in snap_idx[(snap_idx > m) & (snap_idx <= m + n)]:
            snapshots.append(snapshot(idx, eta_c[idx - m - 1], p_c[idx - m - 1]))
    return BeamResult(snapshots, times, energies)


def poisson_solve_grid(eta1, n):
    """Second-order finite-difference solve of -psi'' = eta1 on n+1 points.

    Cross-check for beam.poisson_profile; returns (x, psi).
    """
    from scipy.linalg import solveh_banded

    x = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    rhs = np.asarray(eta1(x[1:-1])).real.astype(np.float64) * h * h
    ab = np.zeros((2, n - 1))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    psi = np.zeros(n + 1)
    psi[1:-1] = solveh_banded(ab, rhs)
    return x, psi
