"""Exact sine-mode propagator shared by the Schrodinger and beam marches.

Both marches discretize a constant-coefficient operator with Dirichlet ends
on Nx + 1 points: the second difference A = tridiag(-1, 2, -1) / h^2 for
the Schrodinger equation, and A^2 for the hinged beam.  The sine vectors
S[j, k] = sin(jk pi / Nx), j, k = 1 .. Nx-1, diagonalize A with eigenvalues
w_k = 4 sin^2(k pi / 2Nx) / h^2, and S @ S = (Nx/2) I (Strang, "The
discrete cosine transform", SIAM Review 41, 1999).  An implicit
trapezoidal (Crank-Nicolson) step of either scheme therefore decouples into
one scalar recurrence per mode,

    z_k <- r_k z_k + forcing_k,   r_k = (1 - i theta_k) / (1 + i theta_k),

with theta_k = dt w_k / 2 = 2 (dt/h^2) sin^2(k pi / 2Nx) and |r_k| = 1, so
the recurrence is exact up to rounding and needs no linear solve.  The
callers advance it in chunks of at most CHUNK steps, each chunk in a few
array operations whose scratch arrays hold at most CHUNK rows of Nx - 1
modes.  The dense S costs O(Nx^2) memory and needs no FFT module, but only
2 Nx sines: its entries repeat the values sin(m pi / Nx), m = jk mod 2 Nx.
The powers r_k^j of a chunk are the cosines and sines of the real angles
j phi_k, phi_k = -2 atan(theta_k), with no complex exponential.  They are
built row by row on request (power_rows): a march with boundary forcing
reads every row j = 0 .. CHUNK, a march without it only r^1 and the r^n
of the chunk lengths n it steps.
"""
import numpy as np

CHUNK = 256


def sine_modes(nx, lam):
    """(S, theta, phase) for a grid of nx intervals and lam = dt/h^2.

    S[j-1, k-1] = sin(jk pi / nx) is symmetric and takes only the 2 nx
    values sin(m pi / nx), m = jk mod 2 nx: they are computed once and
    gathered, every entry rounded once from an argument below 2 pi.  The
    index jk is formed in int32, half the size of a default integer table:
    jk < nx^2, and (schrodinger_sim.MAX_NX - 1)^2 < 2^31.
    theta[k-1] = 2 lam sin^2(k pi / 2nx), and phase = -2 atan(theta) is
    the phase of the Cayley factor r (see power_rows).
    """
    k32 = np.arange(1, nx, dtype=np.int32)
    index = np.multiply.outer(k32, k32)
    index %= 2 * nx
    S = np.sin(np.pi / nx * np.arange(2 * nx))[index]
    k = np.arange(1, nx)
    theta = 2.0 * lam * np.sin(0.5 * np.pi / nx * k) ** 2
    return S, theta, -2.0 * np.arctan(theta)


def power_rows(phase, j):
    """r^j for an integer array j, one row each: the cosine and sine of the
    real angle j phase, rather than a product of repeated multiplications.

    A row depends only on its j, so rows built on request equal the rows
    of the full table power_rows(phase, np.arange(CHUNK + 1)) bit for bit.
    """
    angle = j[:, None] * phase
    powers = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=powers.real)
    np.sin(angle, out=powers.imag)
    return powers


def complex_product(a, b):
    """a @ b for a complex vector a and complex matrix b, as one real
    matrix product.

    Complex BLAS products of these sizes take a multithreaded OpenBLAS path
    that ran over 100 times slower than with one thread on a shared 2-core
    Xeon host; real products of the same sizes stay single-threaded.
    """
    w = np.stack([a.real, a.imag]) @ b.view(np.float64)
    return w[0].view(np.complex128) + 1j * w[1].view(np.complex128)


def apply_sine(S, v):
    """S @ v for a complex v through two real products (see complex_product)."""
    return S @ v.real + 1j * (S @ v.imag)


def chunk_states(z, powers, forcing):
    """Every state of L steps of z <- r z + forcing[l], l = 0 .. L-1.

    Returns an (L, modes) array whose row l is the state after step l + 1:
    r^(l+1) (z + sum_{i <= l} r^-(i+1) forcing[i]), using |r| = 1.
    """
    q = powers[1:forcing.shape[0] + 1]
    return q * (z + np.cumsum(q.conj() * forcing, axis=0))
