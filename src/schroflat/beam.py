"""Hinged Euler-Bernoulli beam: data lifting, dual controls, simulation.

Writing theta = eta + i*beta turns i theta_t + theta_xx = 0 into the beam
system eta_tt + eta_xxxx = 0.  Beam data (eta0, eta1) lift to a Schrodinger
datum theta0 = eta0 + i*psi with -psi'' = eta1 and psi(0)=psi(1)=0; the
complex boundary control u for theta0 then steers the beam through the
pair u1 = Re u (displacement at x=1) and u2 = Im u' (bending moment at
x=1, since theta_xx = -i theta_t on the boundary).

Both controls come from the Schrodinger control's two-phase synthesis
(flatness.synthesize), applied to a compactly supported odd extension of
the lifted datum: theta0 on (0,1) continues as -theta0(2-x) damped to zero
by a smooth cutoff over (1, 2), then extends oddly to the negatives.  The
extension names its own support [0, 2] and its breakpoints, and gives the
derivative trace its jumps and g'' beside g (with_curvature): the free
evolution of g'' is the hinge moment up to the jumps' terms.

The certification march is the implicit trapezoidal rule for the beam,
applied exactly in the sine modes of the hinged fourth difference (see
sine_modes): no linear system is solved, and every step's state is
rebuilt on the grid for the energy history.
"""
from dataclasses import dataclass

import numpy as np

from .flatness import DEFAULT_SERIES_TRUNCATION, synthesize
from .gevrey import step_jet
from .kernel import horner
from .schrodinger_sim import SimConfig
from .sine_modes import CHUNK, chunk_states, sine_modes
from .smoothing import ControlTrace, PiecewiseProfile

EXTENSION_SUPPORT = 2.0

_ENDPOINT_TOL = 1e-8


class BeamError(ValueError):
    pass


def _poly_antiderivative(coeffs):
    c = np.asarray(coeffs, dtype=np.complex128)
    return np.concatenate([[0.0], c / np.arange(1, c.size + 1)])


@dataclass(eq=False)
class BeamData:
    """Initial displacement and velocity; eta0 must vanish at both ends."""

    eta0: PiecewiseProfile
    eta1: PiecewiseProfile

    def __post_init__(self):
        for xe in (0.0, 1.0):
            if abs(self.eta0(xe)) > _ENDPOINT_TOL:
                raise BeamError(f"eta0({xe}) = {self.eta0(xe)} must vanish")


def poisson_profile(eta1: PiecewiseProfile) -> PiecewiseProfile:
    """Closed-form solution of -psi'' = eta1, psi(0) = psi(1) = 0.

    With R the double antiderivative of eta1 (R(0)=R'(0)=0, continuous
    across pieces), psi(x) = R(1)*x - R(x).
    """
    r_pieces = []
    r_val = 0.0 + 0.0j
    r_slope = 0.0 + 0.0j
    edges = eta1.edges
    for (a, b), c in zip(zip(edges[:-1], edges[1:]), eta1.pieces):
        p = _poly_antiderivative(c)
        q = _poly_antiderivative(p)
        pa = horner(p, np.array([a]))[0]
        qa = horner(q, np.array([a]))[0]
        # R(x) = Q(x) + (slope - P(a)) x + const on this piece
        lin = r_slope - pa
        const = r_val - qa - lin * a
        rp = q.copy()
        rp[1] += lin
        rp[0] += const
        r_pieces.append(rp)
        r_val = horner(rp, np.array([b]))[0]
        pb = horner(p, np.array([b]))[0]
        r_slope = r_slope + (pb - pa)
    r1 = r_val
    psi_pieces = []
    for rp in r_pieces:
        pp = -rp.copy()
        if pp.size < 2:
            pp = np.concatenate([pp, [0.0]])
        pp[1] += r1
        psi_pieces.append(pp)
    return PiecewiseProfile(eta1.breakpoints, psi_pieces)


def _merge_breakpoints(a: PiecewiseProfile, b: PiecewiseProfile):
    return tuple(sorted(set(a.breakpoints) | set(b.breakpoints)))


def _piece_on(profile: PiecewiseProfile, a, b):
    mid = 0.5 * (a + b)
    idx = int(np.searchsorted(profile.edges, mid, side="right")) - 1
    idx = min(max(idx, 0), len(profile.pieces) - 1)
    return profile.pieces[idx]


def lift_initial_data(data: BeamData) -> PiecewiseProfile:
    """theta0 = eta0 + i*psi on the merged piece layout."""
    psi = poisson_profile(data.eta1)
    bps = _merge_breakpoints(data.eta0, psi)
    edges = [0.0, *bps, 1.0]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        pe = _piece_on(data.eta0, a, b)
        pp = _piece_on(psi, a, b)
        n = max(pe.size, pp.size)
        c = np.zeros(n, dtype=np.complex128)
        c[:pe.size] += pe
        c[:pp.size] += 1j * pp
        pieces.append(c)
    return PiecewiseProfile(bps, pieces)


@dataclass(eq=False)
class ExtendedDatum:
    """Odd, compactly supported extension g of theta0 to the line.

    Callable on the whole line: a negative y takes minus the value at -y,
    so the extension is odd, and |y| >= 2 gives zero; the reflected copy
    -theta0(2-y) is faded out over the whole of (1, 2).
    A wide, shallow fade matters: the boundary traces pick up Fresnel
    ringing that scales with the cutoff layer's frequency content, and a
    transition squeezed into a subinterval leaves the hinge moment
    oscillating too fast for any reasonable time grid to follow.
    """

    theta0: PiecewiseProfile
    cutoff_s: float = 1.9
    support = EXTENSION_SUPPORT

    def __post_init__(self):
        self._slope = self.theta0.derivative()
        self._curvature = self._slope.derivative()

    @property
    def breakpoints(self):
        # the reflected copy on (1, support) inherits the original kinks at 2-b
        pts = set(self.theta0.breakpoints) | {1.0}
        pts |= {2.0 - b for b in self.theta0.breakpoints
                if 1.0 < 2.0 - b < EXTENSION_SUPPORT}
        return tuple(sorted(pts))

    def _jet(self, y, order):
        """g, and for order 2 also g'', at y, stacked on a leading axis.

        With z = |y| and phi = 1 on [0, 1], and z = 2-|y| and the cutoff
        phi = phi(|y|-1) on (1, 2), g = theta0(z) phi and g'' = theta0''(z)
        phi - 2 theta0'(z) phi' + theta0(z) phi'', both negated on (1, 2) and
        for y < 0, and zero from |y| >= 2 on (theta0 is zero outside [0, 1]
        and phi is 0).  A quadrature panel never straddles y = 1, so its row
        of z lies inside one piece of theta0, evaluated by rows.
        """
        y = np.asarray(y, dtype=np.float64)
        r = np.abs(y)
        outer = r > 1.0
        z = np.where(outer, 2.0 - r, r)
        phi = step_jet(r - 1.0, self.cutoff_s, order).real
        theta = self.theta0(z)
        jet = [theta * phi[0]]
        if order:
            jet.append(self._curvature(z) * phi[0] - 2.0 * self._slope(z) * phi[1]
                       + theta * (2.0 * phi[2]))
        return np.where(outer != (y < 0.0), -1.0, 1.0) * np.stack(jet)

    def __call__(self, y):
        g = self._jet(y, 0)[0]
        return complex(g) if np.ndim(y) == 0 else g

    def with_curvature(self, y):
        """g and g'' at y, stacked: the data of the trace's u and v_xx."""
        return self._jet(y, 2)

    def jumps(self):
        """(points, [g], [g']): the jumps of the extension g and of g' on
        [0, 2], right limit minus left one, with g zero for y < 0.

        At y = 0 and theta0's breakpoints b they are theta0's own.  At y = 1
        the reflection starts at -theta0(1) with slope theta0'(1), since the
        cutoff phi is 1 with zero slope there.  At its images 2-b, where
        the reflected copy z = 2-y passes b downwards, they are
        phi [theta0](b) and phi' [theta0](b) - phi [theta0'](b), phi and phi'
        taken at y - 1 = 1 - b.  At y = 2 every derivative of phi vanishes.
        """
        b, dg, dg1 = self.theta0.jumps()
        phi = step_jet(1.0 - b[1:-1], self.cutoff_s, 1).real
        return (np.concatenate([b, 2.0 - b[1:-1]]),
                np.concatenate([dg[:-1], [2.0 * dg[-1]], phi[0] * dg[1:-1]]),
                np.concatenate([dg1[:-1], [0.0], phi[1] * dg[1:-1] - phi[0] * dg1[1:-1]]))


def extend_odd_smooth(theta0: PiecewiseProfile, cutoff_s: float = 1.9) -> ExtendedDatum:
    if abs(theta0(0.0)) > _ENDPOINT_TOL or abs(theta0(1.0)) > _ENDPOINT_TOL:
        raise BeamError("extension requires theta0 vanishing at both ends")
    return ExtendedDatum(theta0, cutoff_s)


@dataclass(eq=False)
class BeamControls:
    """Dual boundary controls on the simulation time grid.

    u2_avg holds exact per-step averages of the hinge moment, obtained from
    increments of Im u: since v_t = i v_xx, the antiderivative of Re v_xx
    along x=1 is Im u.  The pointwise moment rings at frequency ~1/(4t^2)
    near t=0, which no fixed step size can sample; the averages carry the
    correct impulse regardless.  diags are the synthesis diagnostics of
    flatness.synthesize.
    """

    u1: np.ndarray
    u2: np.ndarray
    u2_avg: np.ndarray
    trace: ControlTrace
    diags: dict


def beam_controls(data: BeamData, tau, T, s, K=DEFAULT_SERIES_TRUNCATION,
                  K_u=DEFAULT_SERIES_TRUNCATION, *, cfg: SimConfig,
                  cutoff_s=1.9) -> BeamControls:
    """The beam's two boundary controls on the time grid of cfg."""
    ext = extend_odd_smooth(lift_initial_data(data), cutoff_s)
    times = cfg.times()
    # the hinge controls are O(1)-O(10); 1e-8 absolute on the trace integrals
    # is far below the time-discretization error of the beam march.
    full, _, diags = synthesize(ext, times, tau, T, s, K, K_u, derivative=True,
                                abs_tol=1e-8)
    u1 = np.zeros(times.size)
    u2 = np.zeros(times.size)
    u1[1:] = full.u.real
    u2[1:] = full.du.imag
    # compatibility values at t=0: u1 = eta0(1) = 0, u2 = eta0''(1)
    u2[0] = data.eta0.derivative(2)(1.0).real
    w = np.zeros(times.size)
    w[1:] = full.u.imag
    u2_avg = np.diff(w) / cfg.dt
    return BeamControls(u1, u2, u2_avg, full, diags)


@dataclass(eq=False)
class BeamSnapshot:
    t: float
    grid: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray


@dataclass(eq=False)
class BeamResult:
    snapshots: list
    times: np.ndarray
    energy: np.ndarray


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


def beam_simulate(data, u1, u2, cfg: SimConfig, u2_avg):
    """Implicit trapezoidal march of eta_tt + eta_xxxx = 0, hinged at x=0.

    Boundary rows impose eta = u1 and eta_xx = u2 at x=1 by ghost-point
    elimination.  Each step's boundary term takes the moment from u2_avg,
    its per-step averages, not from the mean of the endpoint samples u2:
    the two agree to O(dt^2) for smooth moments, but only the averages carry
    the right impulse through the fast ringing the synthesized moment shows
    near t=0.  Returns a BeamResult with per-step energy history
    E(t) = (1/2) integral (eta_t^2 + eta_xx^2) dx (trapezoidal in x).

    The march runs in sine modes: with eta = S eta_hat, p = S p_hat and w_k
    the eigenvalues of the second difference, z = w eta_hat + i p_hat obeys
    z <- r z + forcing, the forcing being the two boundary rows projected
    onto the modes.  Each chunk of steps is rebuilt on the grid at once for
    the energy history.
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
    S, th, powers = sine_modes(nx, dt / (h * h))
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


def beam_terminal_report(result: BeamResult, dx):
    last = result.snapshots[-1]
    eta_l2 = float(np.sqrt(dx * np.sum(last.eta[1:-1] ** 2)))
    etat_l2 = float(np.sqrt(dx * np.sum(last.eta_t[1:-1] ** 2)))
    e0 = result.energy[0]
    eT = result.energy[-1]
    return {
        "terminal_eta_l2": eta_l2,
        "terminal_etat_l2": etat_l2,
        "initial_energy": float(e0),
        "terminal_energy": float(eT),
        "energy_ratio": float(eT / e0) if e0 > 0 else 0.0,
    }
