"""Coherent states of the fixed-n shell and their angular observables.

A shell state is stored as dense coefficient blocks a[l][l+m] over the |l m>
basis, 0 <= l <= n-1, |m| <= l. The two commuting spins j = (n-1)/2 that
generate the shell give the angular momentum L = J1 + J2 and the scaled
Runge-Lenz vector K = J2 - J1. In the two-spin picture a state is one
amplitude table psi[j+m1, j+m2]; the first spin acts on its rows and the
second on its columns, so L_i psi = J_i psi + psi J_i^T and
K_i psi = psi J_i^T - J_i psi with the three spin-j matrices J_i. Every K
matrix element is evaluated that way, never through position-space
integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import MAX_N, HalfInt, clebsch_gordan, coherent_coeffs, small_d_matrices
from .geometry import EulerAngles, UnitVector

_NORM_TOL = 1e-8


@dataclass
class WaveFunction:
    """Normalized n-shell state; blocks[l] holds a_{lm} for m = -l .. l."""

    n: int
    blocks: list

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [2, MAX_N = {MAX_N}], got {self.n}")
        if len(self.blocks) != self.n:
            raise ValueError(f"expected {self.n} l-blocks, got {len(self.blocks)}")
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]
        for l, b in enumerate(self.blocks):
            if b.shape != (2 * l + 1,):
                raise ValueError(f"block l={l} has shape {b.shape}")
        if abs(self.norm() - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1")

    def norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(b, b).real) for b in self.blocks))

    def m0_amplitudes(self) -> np.ndarray:
        """The a_{l0} column, one complex amplitude per l."""
        return np.array([self.blocks[l][l] for l in range(self.n)])

    def to_json_dict(self) -> dict:
        entries = []
        for l in range(self.n):
            for m in range(-l, l + 1):
                c = self.blocks[l][l + m]
                entries.append({"l": l, "m": m, "re": float(c.real), "im": float(c.imag)})
        return {"n": self.n, "entries": entries}


@dataclass(frozen=True)
class EllipticSpec:
    """Shell number and the two classical directions defining a coherent state."""

    n: int
    u1: UnitVector
    u2: UnitVector


@lru_cache(maxsize=None)
def coupling_tensor(n: int) -> np.ndarray:
    """C^{jj l}_{m1 m2, m1+m2} for j = (n-1)/2, indexed [l, j+m1, j+m2].

    Built one total projection M >= 0 at a time: in the |m1, M-m1> basis the
    coupled L^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ is a real
    symmetric tridiagonal block whose eigenvalues l(l+1), l = M .. 2j, ascend
    with l. Condon-Shortley phases make the m1 = +j entry of every |l M>
    positive, but that entry can lie below rounding (about 1e-30 for l = 2j,
    M = 0 at n = 101), so signs are fixed through quantities of order one.
    The highest-weight state |M M> has entries of sign (-1)^(j-m1), so its
    alternating sum is positive. Every other |l M> takes the sign that makes
    its overlap with L- |l M+1> positive, an overlap of magnitude
    sqrt((l+M+1)(l-M)) >= 1. Negative M follows from
    C(-m1, -m2) = (-1)^(2j-l) C(m1, m2). The exact Racah sum
    (`angmom.clebsch_gordan`) is the test oracle, not part of the build.
    """
    j = (n - 1) / 2.0
    m = np.arange(n) - j
    ladder = np.append(_ladder_factors(n), 0.0)  # <m+1| J+ |m> at index j+m
    out = np.zeros((n, n, n))
    above = np.zeros((n, n + 1))  # [l, j+m1] amplitudes of |l M+1>
    for big_m in range(n - 1, -1, -1):
        i1 = np.arange(big_m, n)
        i2 = big_m + n - 1 - i1
        # J1+ J2- couples |i1, i2> to |i1+1, i2-1>
        coupling = ladder[i1[:-1]] * ladder[i2[1:]]
        block = (
            np.diag(2.0 * j * (j + 1.0) + 2.0 * m[i1] * m[i2])
            + np.diag(coupling, 1)
            + np.diag(coupling, -1)
        )
        ls = np.arange(big_m, n)
        vecs = np.linalg.eigh(block)[1].T  # row k is l = M + k
        # L- = J1- + J2- applied to |l M+1>
        lowered = (ladder[i1] * above[ls[:, None], i1 + 1]
                   + ladder[i2] * above[ls[:, None], i1])
        signs = np.sign(np.einsum("la,la->l", vecs, lowered))
        signs[0] = np.sign(vecs[0] @ (-1.0) ** (n - 1 - i1))
        vecs *= signs[:, None]
        out[ls[:, None], i1[None, :], i2[None, :]] = vecs
        above[ls[:, None], i1[None, :]] = vecs
    lower = np.add.outer(np.arange(n), np.arange(n)) < n - 1
    parity = (-1.0) ** (n - 1 - np.arange(n))
    out[:, lower] = parity[:, None] * out[:, ::-1, ::-1][:, lower]
    out.setflags(write=False)
    return out


def from_product_amplitudes(n: int, psi: np.ndarray) -> WaveFunction:
    """Couple a two-spin amplitude table psi[j+m1, j+m2] into |l m> blocks."""
    weighted = coupling_tensor(n) * psi[None, :, :]
    # shear row i1 right by i1, so column i1 + i2 = m + (n-1) collects all
    # m1 + m2 = m; the pad column keeps wrapped entries out of the sums
    sheared = np.zeros((n, n, 2 * n), dtype=complex)
    sheared[:, :, :n] = weighted
    sheared = sheared.reshape(n, 2 * n * n)[:, : n * (2 * n - 1)]
    sums = sheared.reshape(n, n, 2 * n - 1).sum(axis=1)
    return WaveFunction(n, [sums[l, n - 1 - l : n + l] for l in range(n)])


def to_product_amplitudes(state: WaveFunction) -> np.ndarray:
    """Amplitude table psi[j+m1, j+m2] of a shell state in the two-spin basis.

    The inverse of the shear in `from_product_amplitudes`: the blocks padded
    into one table[l, m + n-1] are read at column i1 + i2.
    """
    n = state.n
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for l, block in enumerate(state.blocks):
        table[l, n - 1 - l : n + l] = block
    total = np.add.outer(np.arange(n), np.arange(n))
    return (coupling_tensor(n) * table[:, total]).sum(axis=0)


def product_amplitudes(spec: EllipticSpec) -> np.ndarray:
    """Two-spin amplitude table c1 (x) c2 of the coherent state for (u1, u2)."""
    j = HalfInt(spec.n - 1)
    c1 = coherent_coeffs(j, *spec.u1.spherical())
    c2 = coherent_coeffs(j, *spec.u2.spherical())
    return np.outer(c1, c2)


def build_elliptic(spec: EllipticSpec) -> WaveFunction:
    """Shell coherent state for directions (u1, u2), expanded over |l m>.

    Coefficients are a_{lm} = sum over m1+m2=m of
    D^j_{m1}(theta1, phi1) D^j_{m2}(theta2, phi2) C^{jj l}_{m1 m2 m}.
    """
    return from_product_amplitudes(spec.n, product_amplitudes(spec))


def circular_state(n: int) -> WaveFunction:
    """The |l=n-1, m=n-1> state: zero eccentricity, maximal angular momentum."""
    blocks = [np.zeros(2 * l + 1, dtype=complex) for l in range(n)]
    blocks[n - 1][2 * (n - 1)] = 1.0
    return WaveFunction(n, blocks)


def extreme_stark(n: int) -> WaveFunction:
    """Eigenstate of K_z with eigenvalue n-1: coefficients C^{jj l}_{-j j 0} at m=0."""
    j = HalfInt(n - 1)
    blocks = [np.zeros(2 * l + 1, dtype=complex) for l in range(n)]
    for l in range(n):
        blocks[l][l] = clebsch_gordan(j, j, l, HalfInt(-(n - 1)), j, 0)
    return WaveFunction(n, blocks)


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    if a.n != b.n:
        raise ValueError("states live in different shells")
    return complex(sum(np.vdot(ba, bb) for ba, bb in zip(a.blocks, b.blocks)))


def rotate(state: WaveFunction, angles: EulerAngles) -> WaveFunction:
    """Apply the active rotation U(psi, theta, phi) block by block."""
    blocks = []
    for l in range(state.n):
        d = small_d_matrices(l, [angles.theta])[0]
        m_vals = np.arange(-l, l + 1)
        dmat = (
            np.exp(-1j * m_vals * angles.psi)[:, None]
            * d
            * np.exp(-1j * m_vals * angles.phi)[None, :]
        )
        blocks.append(dmat @ state.blocks[l])
    return WaveFunction(state.n, blocks)


# ---------------------------------------------------------------------------
# L and K observables through the two-spin representation.

def _ladder_factors(n: int) -> np.ndarray:
    j = (n - 1) / 2.0
    m = np.arange(n - 1) - j
    return np.sqrt((j - m) * (j + m + 1.0))


def _spin_matrices(n: int):
    """Jx, Jy, Jz of spin j = (n-1)/2 over |j m>, m ascending."""
    jplus = np.diag(_ladder_factors(n), -1)
    jz = np.diag(np.arange(n) - (n - 1) / 2.0)
    return (jplus + jplus.T) / 2.0, (jplus - jplus.T) / 2j, jz


def lk_moments(state):
    """First and second moments of L and K for a shell state.

    Returns (Lvec, Kvec, L2, K2, LK_sym) where LK_sym = <L.K + K.L>.
    Accepts a WaveFunction or a two-spin amplitude table psi[j+m1, j+m2].
    """
    psi = state if isinstance(state, np.ndarray) else to_product_amplitudes(state)
    lvec = np.zeros(3)
    kvec = np.zeros(3)
    l2 = k2 = lk = 0.0
    for i, spin in enumerate(_spin_matrices(psi.shape[0])):
        first, second = spin @ psi, psi @ spin.T
        lpsi, kpsi = first + second, second - first
        lvec[i] = np.vdot(psi, lpsi).real
        kvec[i] = np.vdot(psi, kpsi).real
        l2 += np.vdot(lpsi, lpsi).real
        k2 += np.vdot(kpsi, kpsi).real
        lk += 2.0 * np.vdot(lpsi, kpsi).real
    return lvec, kvec, l2, k2, lk


def dispersion_sum(state) -> float:
    """(Delta L)^2 + (Delta K)^2; equals 2(n-1) exactly on coherent states."""
    lvec, kvec, l2, k2, _ = lk_moments(state)
    return l2 + k2 - float(lvec @ lvec) - float(kvec @ kvec)
