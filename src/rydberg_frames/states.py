"""Coherent states of the fixed-n shell and their angular observables.

A shell state is stored as dense coefficient blocks a[l][l+m] over the |l m>
basis, 0 <= l <= n-1, |m| <= l. The two commuting spins j = (n-1)/2 that
generate the shell give the angular momentum L = J1 + J2 and the scaled
Runge-Lenz vector K = J2 - J1; every K matrix element here is evaluated in
that product representation, never through position-space integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import MAX_N, HalfInt, clebsch_gordan, coherent_coeffs, small_d_matrices
from .geometry import EulerAngles, UnitVector, perpendicular_unit

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

    def coeff(self, l: int, m: int) -> complex:
        return complex(self.blocks[l][l + m])

    def block_norms(self) -> np.ndarray:
        return np.array([np.linalg.norm(b) for b in self.blocks])

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "WaveFunction":
        n = int(data["n"])
        blocks = [np.zeros(2 * l + 1, dtype=complex) for l in range(n)]
        for entry in data["entries"]:
            l, m = int(entry["l"]), int(entry["m"])
            blocks[l][l + m] = float(entry["re"]) + 1j * float(entry["im"])
        return cls(n, blocks)


@dataclass
class ProductState:
    """Two-spin product state c1 (x) c2 of the shell, factors unit norm."""

    n: int
    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        self.c1 = np.asarray(self.c1, dtype=complex)
        self.c2 = np.asarray(self.c2, dtype=complex)
        for c in (self.c1, self.c2):
            if c.shape != (self.n,):
                raise ValueError(f"factor shape {c.shape}, expected ({self.n},)")
            if abs(np.linalg.norm(c) - 1.0) > _NORM_TOL:
                raise ValueError("product factor is not normalized")


@dataclass(frozen=True)
class EllipticSpec:
    """Shell number and the two classical directions defining a coherent state."""

    n: int
    u1: UnitVector
    u2: UnitVector

    def zeta(self) -> float:
        """Half the angle between u1 and u2."""
        return 0.5 * self.u1.angle_to(self.u2)

    def frame(self):
        """Orthonormal (k, ell, w) with k along u2-u1, ell along u1+u2, w = ell x k.

        For the degenerate alignments u1 = u2 or u1 = -u2 the missing axis is
        chosen deterministically orthogonal to the defined one; downstream
        fidelities do not depend on that choice.
        """
        u1, u2 = self.u1.as_array(), self.u2.as_array()
        total, diff = u1 + u2, u2 - u1
        if np.linalg.norm(diff) < 1e-9:
            ell = UnitVector.from_array(total / np.linalg.norm(total))
            k = perpendicular_unit(ell)
        elif np.linalg.norm(total) < 1e-9:
            k = UnitVector.from_array(diff / np.linalg.norm(diff))
            ell = perpendicular_unit(k)
        else:
            ell = UnitVector.from_array(total / np.linalg.norm(total))
            k = UnitVector.from_array(diff / np.linalg.norm(diff))
        w = UnitVector.from_array(np.cross(ell.as_array(), k.as_array()))
        return k, ell, w


def eccentricity(spec: EllipticSpec) -> float:
    """e = sin(zeta) in [0, 1]; 0 for aligned directions, 1 for opposite ones."""
    return math.sin(spec.zeta())


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


def to_product_amplitudes(state) -> np.ndarray:
    """Amplitude table psi[j+m1, j+m2] of a shell state in the two-spin basis."""
    if isinstance(state, ProductState):
        return np.outer(state.c1, state.c2)
    n = state.n
    cg = coupling_tensor(n)
    psi = np.zeros((n, n), dtype=complex)
    for l in range(n):
        pad = np.zeros(2 * n - 1, dtype=complex)
        pad[(n - 1) - l : (n - 1) + l + 1] = state.blocks[l]
        i1, i2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        psi += cg[l] * pad[i1 + i2]
    return psi


def product_state(spec: EllipticSpec) -> ProductState:
    theta1, phi1 = spec.u1.spherical()
    theta2, phi2 = spec.u2.spherical()
    j = HalfInt(spec.n - 1)
    return ProductState(
        spec.n, coherent_coeffs(j, theta1, phi1), coherent_coeffs(j, theta2, phi2)
    )


def build_elliptic(spec: EllipticSpec) -> WaveFunction:
    """Shell coherent state for directions (u1, u2), expanded over |l m>.

    Coefficients are a_{lm} = sum over m1+m2=m of
    D^j_{m1}(theta1, phi1) D^j_{m2}(theta2, phi2) C^{jj l}_{m1 m2 m}.
    """
    prod = product_state(spec)
    return from_product_amplitudes(spec.n, np.outer(prod.c1, prod.c2))


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


def _apply_spin(psi: np.ndarray, axis: int, comp: str) -> np.ndarray:
    """Apply J_comp of the first (axis=0) or second (axis=1) spin to psi."""
    n = psi.shape[0]
    out = np.zeros_like(psi)
    if comp == "z":
        m = np.arange(n) - (n - 1) / 2.0
        return psi * (m[:, None] if axis == 0 else m[None, :])
    f = _ladder_factors(n)
    if comp == "+":
        if axis == 0:
            out[1:, :] = f[:, None] * psi[:-1, :]
        else:
            out[:, 1:] = f[None, :] * psi[:, :-1]
    elif comp == "-":
        if axis == 0:
            out[:-1, :] = f[:, None] * psi[1:, :]
        else:
            out[:, :-1] = f[None, :] * psi[:, 1:]
    else:
        raise ValueError(f"unknown component {comp!r}")
    return out


def _apply_cartesian(psi: np.ndarray, axis: int, comp: str) -> np.ndarray:
    if comp == "z":
        return _apply_spin(psi, axis, "z")
    plus = _apply_spin(psi, axis, "+")
    minus = _apply_spin(psi, axis, "-")
    if comp == "x":
        return (plus + minus) / 2.0
    return (plus - minus) / 2j


def _apply_L(psi: np.ndarray, comp: str) -> np.ndarray:
    return _apply_cartesian(psi, 0, comp) + _apply_cartesian(psi, 1, comp)


def _apply_K(psi: np.ndarray, comp: str) -> np.ndarray:
    return _apply_cartesian(psi, 1, comp) - _apply_cartesian(psi, 0, comp)


def lk_moments(state):
    """First and second moments of L and K for a shell state.

    Returns (Lvec, Kvec, L2, K2, LK_sym) where LK_sym = <L.K + K.L>.
    Accepts a WaveFunction or a ProductState.
    """
    psi = to_product_amplitudes(state)
    lvec = np.zeros(3)
    kvec = np.zeros(3)
    l2 = k2 = lk = 0.0
    for i, comp in enumerate("xyz"):
        lpsi = _apply_L(psi, comp)
        kpsi = _apply_K(psi, comp)
        lvec[i] = np.vdot(psi, lpsi).real
        kvec[i] = np.vdot(psi, kpsi).real
        l2 += np.vdot(lpsi, lpsi).real
        k2 += np.vdot(kpsi, kpsi).real
        lk += 2.0 * np.vdot(lpsi, kpsi).real
    return lvec, kvec, l2, k2, lk


def expectation_LK(state):
    """Expectation vectors (<L>, <K>) for a WaveFunction or ProductState."""
    lvec, kvec, _, _, _ = lk_moments(state)
    return lvec, kvec


def dispersion_sum(state) -> float:
    """(Delta L)^2 + (Delta K)^2; equals 2(n-1) exactly on coherent states."""
    lvec, kvec, l2, k2, _ = lk_moments(state)
    return l2 + k2 - float(lvec @ lvec) - float(kvec @ kvec)
