"""Hinged beam: data lifting, odd extension, implicit march, dual controls."""
import mpmath
import numpy as np
import pytest

from schroflat import (BeamData, SimConfig, beam_controls, beam_simulate, boundary_trace,
                       extend_odd_smooth, lift_initial_data)
from schroflat.beam import EXTENSION_SUPPORT, BeamError, poisson_profile
from schroflat.smoothing import PiecewiseProfile, _jump_terms
from schroflat.cli import builtin_scenarios, main, pulse_datum, reference_datum, sine_profile

from oracles import (convolution_one, jump_terms_one, kernel_derivative, poisson_solve_grid,
                     step_function)


# ------------------------------------------------------------ data lifting

def test_poisson_profile_constant_load():
    # -psi'' = 1 with hinged ends: psi = x(1-x)/2
    psi = poisson_profile(PiecewiseProfile((), [[1.0]]))
    for x in (0.0, 0.25, 0.5, 1.0):
        assert abs(psi(x) - x * (1.0 - x) / 2.0) < 1e-15


def test_poisson_profile_linear_load():
    # -psi'' = x: psi = (x - x^3)/6
    psi = poisson_profile(PiecewiseProfile((), [[0.0, 1.0]]))
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(psi(xs), (xs - xs ** 3) / 6.0, rtol=0, atol=1e-15)


def test_poisson_profile_piecewise_matches_grid_solve():
    eta1 = PiecewiseProfile((0.5,), [[1.0], [-1.0]])
    psi = poisson_profile(eta1)
    x, psi_fd = poisson_solve_grid(eta1, 2000)
    assert np.max(np.abs(psi(x).real - psi_fd)) < 1e-5
    # boundary values pinned by construction
    assert psi(0.0) == 0.0 and abs(psi(1.0)) < 1e-15


def test_poisson_profile_hat_load_closed_form():
    # -psi'' = 2x on (0, 1/2), 2 - 2x on (1/2, 1): psi = x/4 - x^3/3, then
    # x^3/3 - x^2 + 3x/4 - 1/12, symmetric about 1/2
    eta1 = PiecewiseProfile((0.5,), [[0.0, 2.0], [2.0, -2.0]])
    psi = poisson_profile(eta1)
    assert psi.breakpoints == (0.5,)
    xs = np.linspace(0.0, 1.0, 41)
    want = np.where(xs <= 0.5, xs / 4 - xs ** 3 / 3, xs ** 3 / 3 - xs ** 2 + 3 * xs / 4 - 1 / 12)
    np.testing.assert_allclose(psi(xs), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("eta1", [
    PiecewiseProfile((0.5,), [[0.0, 2.0], [2.0, -2.0]]),
    PiecewiseProfile((0.3, 0.6), [[1.0], [0.5, -1j], [2.0, 0.0, 3.0]]),
])
def test_poisson_profile_solves_the_hinged_problem(eta1):
    # -psi'' = eta1 piece by piece, psi and psi' continuous, psi(0) = psi(1) = 0,
    # all to rounding
    psi = poisson_profile(eta1)
    assert psi.breakpoints == eta1.breakpoints
    for got, load in zip(psi.derivative(2).pieces, eta1.pieces):
        np.testing.assert_allclose(got[:load.size], -load, rtol=1e-15, atol=1e-15)
        assert np.all(np.abs(got[load.size:]) <= 1e-15)
    _, jumps, slope_jumps = psi.jumps()
    assert psi(0.0) == 0.0 and abs(psi(1.0)) <= 1e-15
    assert np.all(np.abs(jumps[1:-1]) <= 1e-15) and np.all(np.abs(slope_jumps[1:-1]) <= 1e-15)


def test_lift_combines_displacement_and_potential():
    eta0 = PiecewiseProfile((), [[0.0, 1.0, -1.0]])   # x(1-x)
    eta1 = PiecewiseProfile((), [[1.0]])
    theta0 = lift_initial_data(BeamData(eta0, eta1))
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(theta0(xs).real, xs * (1 - xs), atol=1e-15)
    np.testing.assert_allclose(theta0(xs).imag, xs * (1 - xs) / 2.0, atol=1e-15)


def test_beam_data_requires_hinged_displacement():
    with pytest.raises(BeamError):
        BeamData(PiecewiseProfile((), [[1.0]]), PiecewiseProfile.zero())


def test_profile_derivative_gives_the_moment_at_right():
    # beam_controls takes u2(0) = eta0''(1) from the piece derivatives
    cubic = PiecewiseProfile((), [[0.0, 0.0, 0.0, 1.0]])
    assert cubic.derivative(2)(1.0) == 6.0  # (x^3)'' at x=1
    # piece by piece on the same breakpoints; a constant's derivative is 0
    prof = PiecewiseProfile((0.5,), [[1.0, 2.0, 3.0], [4.0]])
    d1 = prof.derivative()
    assert d1.breakpoints == (0.5,)
    assert d1(0.25) == 2.0 + 6.0 * 0.25 and d1(0.75) == 0.0
    assert prof.derivative(2)(0.25) == 6.0 and prof.derivative(3)(0.25) == 0.0
    # the jumps of the profile and of its slope, zero outside [0, 1]
    points, dp, dp1 = prof.jumps()
    assert np.array_equal(points, [0.0, 0.5, 1.0])
    assert np.array_equal(dp, [1.0, 4.0 - 2.75, -4.0])
    assert np.array_equal(dp1, [2.0, -5.0, 0.0])


# ------------------------------------------------------------ odd extension

def test_extension_is_odd_and_compact():
    ext = extend_odd_smooth(pulse_datum(), cutoff_s=1.6)
    y = np.linspace(0.05, EXTENSION_SUPPORT + 0.5, 40)
    np.testing.assert_allclose(ext(-y), -ext(y), rtol=0, atol=1e-15)
    assert np.all(ext(y[y >= EXTENSION_SUPPORT]) == 0.0)
    assert ext(0.0) == 0.0


def test_extension_matches_datum_inside():
    prof = pulse_datum()
    ext = extend_odd_smooth(prof)
    xs = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(ext(xs), prof(xs), rtol=0, atol=1e-15)


def test_extension_fades_reflection():
    prof = pulse_datum()
    ext = extend_odd_smooth(prof, cutoff_s=1.6)
    # the reflection times the closed-form step profile: just past the wall
    # the fade factor is ~1 and the reflection dominates, and the fade
    # spans the whole outer interval
    y = np.array([1.0 + 1e-3, 1.25, 1.5, 1.75, 1.9])
    fade = step_function(y - 1.0, 1.6)
    assert fade[0] == 1.0 and np.all(np.diff(fade) < 0.0) and fade[-1] > 0.0
    expect = -prof(2.0 - y) * fade
    assert np.all(np.abs(ext(y) - expect) <= 1e-15 * np.abs(prof(2.0 - y)))
    assert ext(EXTENSION_SUPPORT) == 0.0


def test_extension_breakpoints_include_reflections():
    prof = PiecewiseProfile((0.2, 0.5), [[0.0], [0.25], [0.0]])
    ext = extend_odd_smooth(prof)
    assert ext.breakpoints == (0.2, 0.5, 1.0, 1.5, 1.8)


def _broken_extension():
    """The odd extension of a theta0 that jumps and kinks at 0.5: on
    (0, 0.5) 2x + 0.3i x(1-x), on (0.5, 1) 1.5(1-x).  Its reflection
    jumps and kinks at 1.5."""
    theta0 = PiecewiseProfile((0.5,), [[0.0, 2.0 + 0.3j, -0.3j], [1.5, -1.5]])
    return extend_odd_smooth(theta0, cutoff_s=1.6)


def _extension_leibniz_terms(ext, y):
    """(terms, scales) of g and of g'' at y: their Leibniz terms as
    mpmath numbers, and the size of each term's rounding.

    On (1, 2) g is -theta0(z) phi with z = 2-y and the sigmoid form of the
    cutoff phi = phi(y-1); g'' is the sum of -theta0''(z) phi,
    2 theta0'(z) phi' and -theta0(z) phi''.  On [0, 1] g is theta0 and g''
    is theta0''; g is odd.  theta0's piece polynomials are exact, and phi's
    derivatives come from mpmath.diff.  A term's scale takes theta0's
    factor as its Horner sum sum_j |c_j| z^j, which bounds the rounding of
    the polynomial's value, and phi's factor as at least 1: step_jet forms
    phi's coefficients from the O(1) Taylor coefficients of its two
    exponentials, so it rounds them relative to 1 at least, and a
    derivative far below that, as in the flat layer past y = 1, keeps only
    an absolute accuracy.
    """
    theta0 = ext.theta0
    sign, r = (-1, -y) if y < 0 else (1, y)
    outer = r > 1.0
    z = 2.0 - r if outer else r
    coeffs = theta0.pieces[int(np.searchsorted(theta0.edges, z, side="right")) - 1]
    coeffs = [mpmath.mpc(complex(c)) for c in coeffs]
    z = mpmath.mpf(2) - mpmath.mpf(r) if outer else mpmath.mpf(r)
    theta, size = [], []
    for _ in range(3):
        theta.append(mpmath.polyval(coeffs[::-1], z))
        size.append(mpmath.polyval([abs(c) for c in coeffs[::-1]], z))
        coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [mpmath.mpc(0)]
    if not outer:
        return [[sign * theta[0]], [sign * theta[2]]], [[size[0]], [size[2]]]
    kappa = mpmath.mpf(1.0 / (ext.cutoff_s - 1.0))

    def phi(u):
        return 1 / (1 + mpmath.exp((1 - u) ** -kappa - u ** -kappa))

    p = [mpmath.diff(phi, mpmath.mpf(r) - 1, k) for k in range(3)]
    q = [max(abs(p_k), 1) for p_k in p]
    return ([[-sign * theta[0] * p[0]],
             [-sign * theta[2] * p[0], 2 * sign * theta[1] * p[1], -sign * theta[0] * p[2]]],
            [[size[0] * q[0]], [size[2] * q[0], 2 * size[1] * q[1], size[0] * q[2]]])


@pytest.mark.parametrize("ext", [_broken_extension(), extend_odd_smooth(pulse_datum())],
                         ids=["broken", "pulse"])
def test_extension_with_curvature_matches_mpmath(ext):
    # g and g'' against a 30-digit oracle on both halves of the support and
    # for y < 0, away from the breakpoints, within 1e-13 of the sum of the
    # rounding scales of their Leibniz terms
    y = np.array([0.1, 0.7, 1.05, 1.3, 1.7, 1.9, -0.3, -1.6])
    jet = ext.with_curvature(y)
    with mpmath.workdps(30):
        for k, y_k in enumerate(y):
            for row, (terms, scales) in enumerate(zip(*_extension_leibniz_terms(ext, y_k))):
                exact = complex(mpmath.fsum(terms))
                assert abs(jet[row, k] - exact) <= 1e-13 * float(mpmath.fsum(scales)), (row, y_k)
    # panel rows as the quadrature passes them give the point-by-point bits,
    # and so does a row across y = 1; row 0 is the extension's own value
    for rows in ([[0.6, 0.7, 0.8], [1.1, 1.2, 1.3], [1.55, 1.6, 1.65]], [[0.9, 1.0, 1.1]]):
        rows = np.array(rows)
        jet = ext.with_curvature(rows)
        assert np.array_equal(jet, ext.with_curvature(rows.ravel()).reshape(jet.shape))
        assert np.array_equal(jet[0], ext(rows))
    assert np.all(ext.with_curvature(2.5) == 0.0)


def test_extension_jumps_match_one_sided_limits():
    # [g] and [g'] at 0, the break, y = 1 and the reflected break against
    # one-sided extrapolations of g; left of y = 0 the datum counts as zero
    ext = _broken_extension()
    points, dg, dg1 = ext.jumps()
    assert np.array_equal(points, [0.0, 0.5, 1.0, 1.5])
    h = 1e-5

    def limit(b, side):
        """(value, slope) of g at b from the side -1 or +1."""
        if b == 0.0 and side < 0:
            return 0.0, 0.0
        near, far = ext(b + side * h), ext(b + 2 * side * h)
        return 2.0 * near - far, side * (far - near) / h

    for b, jump, jump1 in zip(points, dg, dg1):
        (left, left1), (right, right1) = limit(b, -1), limit(b, 1)
        assert abs(jump - (right - left)) <= 1e-8, b
        assert abs(jump1 - (right1 - left1)) <= 1e-3, b
    # the datum jumps at its break and at the reflection, and kinks there
    assert abs(dg[1]) > 0.1 and abs(dg[3]) > 0.1 and abs(dg1[3]) > 0.1


def test_extension_rejects_nonvanishing_endpoint():
    with pytest.raises(BeamError):
        extend_odd_smooth(reference_datum())


@pytest.mark.parametrize("cutoff_s", [True, "1.9", None, 1.9 + 0j])
def test_extension_rejects_a_cutoff_order_that_is_not_real(cutoff_s):
    with pytest.raises(ValueError, match="^cutoff_s: need a real number, got "):
        extend_odd_smooth(pulse_datum(), cutoff_s)


def test_extension_takes_a_numpy_cutoff_order():
    assert extend_odd_smooth(pulse_datum(), np.float64(1.6)).cutoff_s == 1.6


# -------------------------------------------------------------- beam march

def test_manufactured_linear_solution_exact():
    # eta = b t x^3 solves eta_tt + eta_xxxx = 0 with u1 = b t, u2 = 6 b t;
    # the trapezoidal march must reproduce it to rounding
    b = 0.7
    cfg = SimConfig(Nx=32, Nt=64, T=1.0, snapshot_count=3)
    data = BeamData(PiecewiseProfile.zero(),
                    PiecewiseProfile((), [[0.0, 0.0, 0.0, b]]))
    t = cfg.times()
    u1 = b * t
    u2 = 6.0 * b * t
    result = beam_simulate(data, u1, u2, cfg, (u2[:-1] + u2[1:]) / 2)
    last = result.snapshots[-1]
    exact = b * cfg.T * last.grid ** 3
    assert np.max(np.abs(last.eta - exact)) < 1e-10
    # per-step averages of a linear moment equal the endpoint means
    avg = 6.0 * b * 0.5 * (t[:-1] + t[1:])
    result2 = beam_simulate(data, u1, u2, cfg, u2_avg=avg)
    assert np.max(np.abs(result2.snapshots[-1].eta - exact)) < 1e-10


def test_free_beam_conserves_energy():
    cfg = SimConfig(Nx=128, Nt=1024, T=0.5, snapshot_count=3)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    zeros = np.zeros(cfg.Nt + 1)
    result = beam_simulate(data, zeros, zeros, cfg, np.zeros(cfg.Nt))
    drift = np.max(np.abs(result.energy - result.energy[0])) / result.energy[0]
    assert drift < 1e-14
    # bending energy of sin(pi x) is pi^4 / 4
    assert abs(result.energy[0] - np.pi ** 4 / 4.0) < 0.01


def test_free_beam_eigenmode_second_order():
    # exact standing wave cos(pi^2 t) sin(pi x)
    errors = []
    for lvl in range(3):
        cfg = SimConfig(Nx=32 * 2 ** lvl, Nt=128 * 2 ** lvl, T=0.25,
                        snapshot_count=3)
        data = BeamData(sine_profile(), PiecewiseProfile.zero())
        zeros = np.zeros(cfg.Nt + 1)
        result = beam_simulate(data, zeros, zeros, cfg, np.zeros(cfg.Nt))
        last = result.snapshots[-1]
        exact = np.cos(np.pi ** 2 * last.t) * np.sin(np.pi * last.grid)
        errors.append(np.max(np.abs(last.eta - exact)))
    rates = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(abs(r - 2.0) < 0.2 for r in rates)


def test_simulate_validates_control_shapes():
    cfg = SimConfig(Nx=32, Nt=64, T=1.0)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    good = np.zeros(cfg.Nt + 1)
    with pytest.raises(ValueError):
        beam_simulate(data, good[:-1], good, cfg, good[1:])
    with pytest.raises(ValueError):
        beam_simulate(data, good, good, cfg, u2_avg=np.zeros(cfg.Nt + 1))


# ------------------------------------------------------------ dual controls

@pytest.fixture(scope="module")
def controls():
    cfg = SimConfig(Nx=32, Nt=250, T=2.0, snapshot_count=3)
    data = BeamData(sine_profile(), PiecewiseProfile.zero())
    return beam_controls(data, 1.4, 2.0, 1.6, cfg=cfg), cfg


def test_controls_grid_and_shapes(controls):
    ctl, cfg = controls
    assert ctl.u1.shape == (cfg.Nt + 1,)
    assert ctl.u2.shape == (cfg.Nt + 1,)
    assert ctl.u2_avg.shape == (cfg.Nt,)


def test_controls_compatibility_at_start(controls):
    ctl, _ = controls
    # u1(0) = eta0(1) = 0 and u2(0) = eta0''(1) = 0 for the sine datum
    assert ctl.u1[0] == 0.0
    assert abs(ctl.u2[0]) < 1e-6


def test_controls_vanish_at_terminal_time(controls):
    ctl, _ = controls
    assert ctl.u1[-1] == 0.0 and ctl.u2[-1] == 0.0


def test_controls_continuity_at_switch(controls):
    ctl, _ = controls
    assert ctl.diags["continuity_gap"] < 1e-12


def test_controls_phase_split(controls):
    ctl, _ = controls
    tr = ctl.trace
    assert np.all(tr.t[tr.phase == 0] <= 1.4)
    assert np.all(tr.t[tr.phase == 1] > 1.4)
    assert np.any(tr.phase == 0) and np.any(tr.phase == 1)


def test_averaged_moment_consistent_where_smooth(controls):
    # away from the ringing layer at t ~ 0 the step average must agree
    # with the endpoint mean to discretization accuracy
    ctl, cfg = controls
    times = cfg.times()
    t_mid = 0.5 * (times[:-1] + times[1:])
    sel = (t_mid > 1.0) & (t_mid < 1.3)
    mean = 0.5 * (ctl.u2[:-1] + ctl.u2[1:])
    assert np.max(np.abs(ctl.u2_avg[sel] - mean[sel])) < 1e-2


# ------------------------------------------------------- the hinge moment

# v_xx(t,1) of the builtin beam's extended datum: the integral over [0, 2]
# of (p_2 E)(t,1-y) - (p_2 E)(t,1+y), p_2(z) = i/2t - z^2/4t^2, against the
# datum, by mpmath.quad at 30 digits on int(3/(4t)) + 40 equal panels (43 s
# and 209 s on one core), with the sine fit's double coefficients and the
# cutoff's closed form
HINGE_ORACLES = {
    1e-3: 0.0324141633832505 - 0.0148116313695645j,
    2.5e-4: -3.7567821801144e-5 - 6.79320253586822e-5j,
}


def _builtin_extension():
    sc = builtin_scenarios()["beam"]
    return extend_odd_smooth(lift_initial_data(BeamData(sc.eta0, sc.eta1)), sc.cutoff_s)


def test_hinge_moment_matches_high_precision_oracle():
    # at these times the order-2 integral of the datum lost 6.5e-8 and
    # 1.6e-4 to cancellation; the second derivative's integral keeps
    # within its own error estimate
    times = np.array(sorted(HINGE_ORACLES))
    trace, _ = boundary_trace(_builtin_extension(), times, abs_tol=1e-8)
    for t, du, err in zip(times, trace.du, trace.err):
        assert abs(du / 1j - HINGE_ORACLES[t]) <= err, t
        assert err <= 2e-8


def _lifted_extension(theta0):
    return extend_odd_smooth(lift_initial_data(BeamData(theta0, PiecewiseProfile.zero())))


@pytest.mark.parametrize("t", [0.05, 0.3])
def test_kinked_eta0_jump_terms_match_the_order_two_integral(t):
    # a hat eta0 kinks at 0.3 and its reflection at 1.7: the terms
    # F [g'] of the two kinks are far above the error estimates, and with
    # them the trace agrees with the order-2 integral of the datum itself
    hat = PiecewiseProfile((0.3,), [[0.0, 1.0], [0.3 / 0.7, -0.3 / 0.7]])
    ext = _lifted_extension(hat)
    points, dg, dg1 = ext.jumps()
    assert np.count_nonzero(np.abs(dg1[1:]) > 0.1) == 2
    trace, _ = boundary_trace(ext, [t], abs_tol=1e-8)
    v2, err2, _ = convolution_one(ext, t, 1.0, 2, ext.support, ext.breakpoints, abs_tol=1e-8)
    jumps = jump_terms_one(ext, t)
    assert abs(jumps) > 1e3 * (trace.err[0] + err2)
    assert abs(trace.du[0] / 1j - v2) <= trace.err[0] + err2


@pytest.mark.parametrize("t", [1e-5, 1e-3, 0.3])
def test_jump_terms_rounding_bound_holds_against_mpmath(t):
    # the hat's kinks at 0.3 and 1.7: the translates' phases (1 -+ b)^2/4t
    # carry the rounding that grows like 1/t, 6.5e-10 of 217 at t = 1e-5;
    # the bound holds it and stays far below the terms themselves
    hat = PiecewiseProfile((0.3,), [[0.0, 1.0], [0.3 / 0.7, -0.3 / 0.7]])
    ext = _lifted_extension(hat)
    points, dg, dg1 = ext.jumps()
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)

        def translate(z, m):
            e = mpmath.exp(1j * z * z / (4 * tm)) / mpmath.sqrt(4j * mpmath.pi * tm)
            return e * (1j * z / (2 * tm)) ** m

        exact = complex(mpmath.fsum(
            (translate(1 - b, 0) - translate(1 + b, 0)) * complex(j1)
            + (translate(1 - b, 1) + translate(1 + b, 1)) * complex(j0)
            for b, j0, j1 in zip(map(mpmath.mpf, points), dg, dg1)))
    terms, rounding = _jump_terms(ext, np.array([t]), 1.0)
    assert abs(terms[0] - exact) <= rounding[0] <= 1e-9 * abs(exact)


def test_wall_jump_term_counts_a_nonzero_theta0_at_zero():
    # extend_odd_smooth accepts |theta0(0)| <= 1e-8, and the odd extension
    # then jumps by 2 theta0(0) across y = 0: its term 2 E'(t,1) theta0(0),
    # here 2.8e-7, is far above the error estimates, and with it the trace
    # agrees with the order-2 integral of the datum itself
    theta0 = PiecewiseProfile((), [[1e-9, 1.0 - 1e-9, -1.0]])
    ext = extend_odd_smooth(theta0)
    points, dg, dg1 = ext.jumps()
    assert points[0] == 0.0 and dg[0] == 1e-9
    t = 0.01
    trace, _ = boundary_trace(ext, [t], abs_tol=1e-8)
    v2, err2, _ = convolution_one(ext, t, 1.0, 2, ext.support, ext.breakpoints, abs_tol=1e-8)
    wall = 2.0 * kernel_derivative(t, 1.0, 1) * 1e-9
    assert abs(wall) > 10 * (trace.err[0] + err2)
    assert abs(trace.du[0] / 1j - v2) <= trace.err[0] + err2


def test_builtin_beam_runs_at_32000_steps(tmp_path):
    # dt = 6.25e-5: the order-2 integral of the datum exhausted its panel
    # budget at the first sample; the second derivative's takes 7,460
    cfg = tmp_path / "beam.yaml"
    cfg.write_text("equation: beam\ntau: 1.4\nT: 2.0\ns: 1.6\n"
                   "sim: {Nx: 16, Nt: 32000, snapshot_count: 3}\n"
                   "eta0: sine\neta1: zero\n")
    assert main(["run", "--scenario", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    assert float(report.split("quad_err_max=")[1].split()[0]) <= 1e-7
