"""Brute-force reference model of the time-bin engine (test-only).

The time register is a dense lattice of L = 1 + (sum of crystal delays)
bins, so no amplitude ever leaves it.  Every element acts as a unitary
on C^2 (x) C^L: a wave plate as J (x) 1, and a crystal as
P_fast (x) 1 + P_slow (x) S^d with S the cyclic shift by one bin (a
permutation, hence unitary).  Time is then traced out with the Gaussian
kernel gamma**(d*d) over every lag d whose weight is nonzero in floating
point, so nothing is cut off at 2**-60 as in the engine.

It shares no code with ``depolsim.temporal``: no sparse bin index, no
merging of equal bins, no Kraus operators and no banded contraction.
"""

import numpy as np


def hwp(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(2 * t), np.sin(2 * t)], [np.sin(2 * t), -np.cos(2 * t)]], dtype=complex)


def qwp(angle_deg):
    t = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return rot @ np.diag([1.0, 1.0j]) @ rot.T


def lattice_size(elements):
    return 1 + sum(e.delay_bins for e in elements if e.kind == "crystal")


def apply(element, psi):
    """The element's unitary on C^2 (x) C^L applied to psi, shape (2, L)."""
    if element.kind == "crystal":
        a = np.deg2rad(element.angle_deg)
        e_slow = np.array([np.cos(a), np.sin(a)])
        p_slow = np.outer(e_slow, e_slow)
        p_fast = np.eye(2) - p_slow
        return p_fast @ psi + p_slow @ np.roll(psi, element.delay_bins, axis=1)
    if element.kind == "hwp":
        return hwp(element.angle_deg) @ psi
    if element.kind == "qwp":
        return qwp(element.angle_deg) @ psi
    return element.unitary @ psi


def propagate(elements, jones):
    """Dense time-bin amplitude of a pure input: shape (2, L), input in bin 0."""
    psi = np.zeros((2, lattice_size(elements)), dtype=complex)
    psi[:, 0] = jones
    for element in elements:
        psi = apply(element, psi)
    return psi


def kernel_trace(psi, gamma):
    """rho = sum_{t,u} gamma**((t-u)**2) psi_t psi_u^dagger, lag by lag until the weight underflows."""
    rho = psi @ psi.conj().T
    for lag in range(1, psi.shape[1]):
        w = gamma ** (lag * lag)
        if w == 0.0:
            break
        cross = psi[:, lag:] @ psi[:, :-lag].conj().T
        rho = rho + w * (cross + cross.conj().T)
    return rho


def output(elements, gamma, jones):
    return kernel_trace(propagate(elements, jones), gamma)
