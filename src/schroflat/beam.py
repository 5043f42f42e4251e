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
sine_modes): no linear system is solved, the energy history is read from
the modes, and the state is rebuilt on the grid only at the snapshots.
"""
from dataclasses import dataclass

import numpy as np

from .flatness import DEFAULT_SERIES_TRUNCATION, synthesize
from .gevrey import check_order, step_jet
from .schrodinger_sim import SimConfig, check_real
from .sine_modes import CHUNK, chunk_states, power_rows, sine_modes, sine_row, sine_transform
from .smoothing import ControlTrace, PiecewiseProfile

EXTENSION_SUPPORT = 2.0

# the Gevrey order of the cutoff that fades the extension's reflected copy
# over (1, 2)
DEFAULT_CUTOFF_S = 1.9

_ENDPOINT_TOL = 1e-8


class BeamError(ValueError):
    pass


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
    r = eta1.antiderivative().antiderivative()
    return PiecewiseProfile((), [[0.0, r(1.0)]]) - r


def lift_initial_data(data: BeamData) -> PiecewiseProfile:
    """theta0 = eta0 + i*psi on the union of their breakpoints."""
    return data.eta0 + 1j * poisson_profile(data.eta1)


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
    cutoff_s: float
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
        and phi is 0).  phi and its derivatives are step_jet's real
        coefficients (phi''/2 for phi''), which scale theta0's complex values.
        A quadrature panel never straddles y = 1, so its row of z lies
        inside one piece of theta0, evaluated by rows.
        """
        y = np.asarray(y, dtype=np.float64)
        r = np.abs(y)
        outer = r > 1.0
        z = np.where(outer, 2.0 - r, r)
        phi = step_jet(r - 1.0, self.cutoff_s, order)
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
        phi = step_jet(1.0 - b[1:-1], self.cutoff_s, 1)
        return (np.concatenate([b, 2.0 - b[1:-1]]),
                np.concatenate([dg[:-1], [2.0 * dg[-1]], phi[0] * dg[1:-1]]),
                np.concatenate([dg1[:-1], [0.0], phi[1] * dg[1:-1] - phi[0] * dg1[1:-1]]))


def extend_odd_smooth(theta0: PiecewiseProfile,
                      cutoff_s: float = DEFAULT_CUTOFF_S) -> ExtendedDatum:
    check_real("cutoff_s", cutoff_s)
    check_order(cutoff_s)
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
                  cutoff_s=DEFAULT_CUTOFF_S) -> BeamControls:
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


def beam_simulate(data, u1, u2, cfg: SimConfig, u2_avg):
    """Implicit trapezoidal march of eta_tt + eta_xxxx = 0, hinged at x=0.

    Boundary rows impose eta = u1 and eta_xx = u2 at x=1 by ghost-point
    elimination.  Each step's boundary term takes the moment from u2_avg,
    its per-step averages, not from the mean of the endpoint samples u2:
    the two agree to O(dt^2) for smooth moments, but only the averages carry
    the right impulse through the fast ringing the synthesized moment shows
    near t=0.  Returns a BeamResult with per-step energy history
    E(t) = (1/2) integral (eta_t^2 + eta_xx^2) dx (trapezoidal in x).

    The march runs in sine modes: with S the sine transform
    (sine_transform), eta = S eta_hat, p = S p_hat and w_k the eigenvalues
    of the second difference, z = w eta_hat + i p_hat obeys z <- r z +
    forcing, the forcing being the two boundary rows projected onto the
    modes.  The transform is its own inverse up to a factor, S S = (Nx/2)
    I, so it projects the data onto the modes as well as rebuilding them,
    and the energy is read from the modes: the interior p is S Im z, and
    the interior second difference, with u1 at x = 1, is -S (Re z - u1
    lift), lift = (2 / (Nx h^2)) times the last row of S.
    The lift is subtracted in each mode before squaring: expanding the
    square instead cancels |Re z|^2 against its cross term and loses up to
    seven digits on fine grids.  The state is rebuilt on the grid only at
    the snapshots.
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
    sines, th, phase = sine_modes(nx, dt / (h * h))
    powers = power_rows(phase, np.arange(CHUNK + 1))
    w = 2.0 * th / dt
    eta_hat, p_hat = sine_transform(np.stack([eta, p]))
    z = (2.0 / nx) * (w * eta_hat + 1j * p_hat)
    # step k's boundary rows: b[-2] = U, b[-1] = -2U + h^2 M with
    # U = u1[k] + u1[k+1] and M the moment sum; they enter the velocity
    # update as -(dt / 2h^4) b
    kick = -1j * dt / (nx * h ** 4) / (1.0 + 1j * th)
    last = sine_row(sines, nx - 1)
    from_u1 = kick * (sine_row(sines, nx - 2) - 2.0 * last)
    from_moment = kick * h * h * last
    u1_sum = u1[:-1] + u1[1:]
    lift = (2.0 / (nx * h * h)) * last

    def modal_energy(zs, k):
        # trapezoidal in x: both integrands vanish at the hinge x = 0
        exx = zs.real - u1[k, None] * lift
        inner = 0.5 * nx * (np.sum(exx ** 2, axis=1) + np.sum(zs.imag ** 2, axis=1))
        return 0.5 * h * (inner + 0.5 * (du1[k] ** 2 + u2[k] ** 2))

    times = cfg.times()
    snap_idx = cfg.snapshot_indices()
    energies = np.empty(cfg.Nt + 1)
    energies[:1] = modal_energy(z[None, :], slice(0, 1))
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
        energies[m + 1:m + n + 1] = modal_energy(zs, slice(m + 1, m + n + 1))
        for idx in snap_idx[(snap_idx > m) & (snap_idx <= m + n)]:
            zk = zs[idx - m - 1]
            snapshots.append(snapshot(idx, *sine_transform(np.stack([zk.real / w, zk.imag]))))
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
