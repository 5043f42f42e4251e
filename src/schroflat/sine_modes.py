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
modes.  S itself is never formed.  Its product with a vector is the
discrete sine transform DST-I, one FFT of the vector's odd extension of
length 2 Nx (sine_transform), O(Nx log Nx) time and O(Nx) memory.  The few
rows of S the boundary terms read take only the 2 Nx values sin(m pi / Nx),
m = jk mod 2 Nx, and are gathered from that table (sine_row).
The powers r_k^j of a chunk are the cosines and sines of the real angles
j phi_k, phi_k = -2 atan(theta_k), with no complex exponential.  They are
built row by row on request (power_rows): a march with boundary forcing
reads every row j = 0 .. CHUNK, a march without it only r^1 and the r^n
of the chunk lengths n it steps.
"""
import numpy as np
from numpy.fft import fft, rfft

CHUNK = 256


def sine_modes(nx, lam):
    """(table, theta, phase) for a grid of nx intervals and lam = dt/h^2.

    table[m] = sin(m pi / nx), m = 0 .. 2 nx - 1, holds every value of S,
    each rounded once from an argument below 2 pi (see sine_row).
    theta[k-1] = 2 lam sin^2(k pi / 2nx), and phase = -2 atan(theta) is
    the phase of the Cayley factor r (see power_rows).
    """
    table = np.sin(np.pi / nx * np.arange(2 * nx))
    k = np.arange(1, nx)
    theta = 2.0 * lam * np.sin(0.5 * np.pi / nx * k) ** 2
    return table, theta, -2.0 * np.arctan(theta)


def sine_row(table, j):
    """Row j of S, sin(jk pi / nx) for k = 1 .. nx-1, gathered from
    sine_modes' table at jk mod 2 nx."""
    nx = table.size // 2
    return table[j * np.arange(1, nx) % (2 * nx)]


def sine_transform(v):
    """S @ v along v's last axis of nx - 1 values, real or complex.

    The FFT of the odd extension [0, v, 0, -v reversed] is -2i S v at
    its entries 1 .. nx-1.  For a real v the half spectrum (rfft) holds
    them, and S v is -1/2 its imaginary part.  Rows of a stacked v are
    transformed independently.
    """
    zero = np.zeros(v.shape[:-1] + (1,), dtype=v.dtype)
    odd = np.concatenate([zero, v, zero, -v[..., ::-1]], axis=-1)
    n = v.shape[-1]
    if np.iscomplexobj(v):
        return 0.5j * fft(odd)[..., 1:n + 1]
    return -0.5 * rfft(odd).imag[..., 1:n + 1]


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


def chunk_states(z, powers, forcing):
    """Every state of L steps of z <- r z + forcing[l], l = 0 .. L-1.

    Returns an (L, modes) array whose row l is the state after step l + 1:
    r^(l+1) (z + sum_{i <= l} r^-(i+1) forcing[i]), using |r| = 1.
    """
    q = powers[1:forcing.shape[0] + 1]
    return q * (z + np.cumsum(q.conj() * forcing, axis=0))
