"""Test-side views of the shell-state table a[l, n-1+m] and random states on it."""

import numpy as np

from rydberg_frames.states import WaveFunction


def block(table, l):
    """Row l of a state or fiducial table restricted to m = -l .. l."""
    n = table.shape[0]
    return table[l, n - 1 - l : n + l]


def random_wavefunction(n, rng):
    """Complex Gaussian a_{lm} in every |m| <= l entry, drawn l by l, normalized."""
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    for l in range(n):
        block(table, l)[:] = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
    return WaveFunction(n, table / np.linalg.norm(table))


def random_m0_state(n, rng):
    """Complex Gaussian a_{l0} column, normalized; zero wherever m != 0."""
    table = np.zeros((n, 2 * n - 1), dtype=complex)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    table[:, n - 1] = amps / np.linalg.norm(amps)
    return WaveFunction(n, table)
