"""Shared random-state generators for the test suite (always seeded)."""

import itertools

import numpy as np


def random_pure_jones(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_density(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def signed_zero_matrices(rng, n=4000):
    """n complex 2x2 matrices of signed zeros, subnormals and a few exact values, the 256 sign patterns of zeros first.

    Signed zeros are where re01 - (-re10) could differ from re01 + re10, and
    where a Hermitian average or a clamp could move a sign bit.
    """
    grid = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.5, -0.25])
    signed = rng.choice(grid, size=(n, 2, 2)) + 1j * rng.choice(grid, size=(n, 2, 2))
    signed[:256] = np.array(list(itertools.product([0.0, -0.0], repeat=8))).view(complex).reshape(256, 2, 2)
    return signed
