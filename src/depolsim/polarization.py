"""Qubit polarization states, Stokes vectors, and fidelity metrics.

Basis and sign conventions used throughout the package:

    |h> = (1, 0)                 horizontal
    |v> = (0, 1)                 vertical
    |p> = (|h> + |v>)/sqrt(2)    diagonal (+45 deg linear)
    |m> = (-|h> + |v>)/sqrt(2)   antidiagonal
    |r> = (|h> + i|v>)/sqrt(2)   right circular
    |l> = (i|h> + |v>)/sqrt(2)   left circular

Stokes components are expectation values of the three operators

    SIGMA1 = |h><h| - |v><v|
    SIGMA2 = |p><p| - |m><m|
    SIGMA3 = |r><r| - |l><l|

i.e. S_i = tr(rho * SIGMA_i).  In the h/v matrix representation SIGMA1,
SIGMA2, SIGMA3 are the Pauli Z, X, Y matrices.  Every other module uses
these constants; they are the single source of truth for all signs.  The
handedness implied by the |l> definition above is fixed; any alternative
display convention must relabel at the presentation layer only.
"""

from __future__ import annotations

import numpy as np

NORM_ATOL = 1e-10
PSD_ATOL = 1e-10

JONES_H = np.array([1.0, 0.0], dtype=complex)
JONES_V = np.array([0.0, 1.0], dtype=complex)
JONES_P = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
JONES_M = np.array([-1.0, 1.0], dtype=complex) / np.sqrt(2.0)
JONES_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
JONES_L = np.array([1.0j, 1.0], dtype=complex) / np.sqrt(2.0)

JONES_STATES = {
    "h": JONES_H,
    "v": JONES_V,
    "p": JONES_P,
    "m": JONES_M,
    "r": JONES_R,
    "l": JONES_L,
}

# exact matrix forms of |h><h|-|v><v|, |p><p|-|m><m|, |r><r|-|l><l|
# (a unit test asserts they match the outer-product definitions)
SIGMA1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMAS = (SIGMA1, SIGMA2, SIGMA3)

IDENTITY = np.eye(2, dtype=complex)


def check_normalized(j: np.ndarray) -> None:
    """Raise ValueError unless |j|^2 = 1 within NORM_ATOL, for a complex Jones vector or each column of a (2, n) stack.

    A vector and a stack's column are judged by the same expression,
    |a|^2 + |b|^2 summed from the squared real and imaginary parts in
    Python floats; a norm too large to square reads as inf and fails.
    """
    for a, b in j.T.tolist() if j.ndim == 2 else [j.tolist()]:
        norm2 = (a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag)
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise ValueError(f"Jones vector is not normalized: |j|^2 = {norm2!r}")


def as_jones(vec) -> np.ndarray:
    """Coerce to a normalized complex 2-vector, raising if the norm is off."""
    j = np.asarray(vec, dtype=complex).reshape(2)
    check_normalized(j)
    return j


def density_from_jones(j) -> np.ndarray:
    """Rank-1 projector |j><j| of a normalized Jones vector."""
    j = as_jones(j)
    return np.outer(j, j.conj())


def stokes_from_density(rho) -> np.ndarray:
    """Stokes vector (S1, S2, S3) of a density matrix, S_i = tr(rho SIGMA_i).

    Also takes a (..., 2, 2) stack and returns the (..., 3) Stokes vectors.
    The traces are read off the entries: S1 = Re rho00 - Re rho11,
    S2 = Re rho01 + Re rho10 and S3 = Im rho10 - Im rho01.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrices must be 2x2, got shape {rho.shape}")
    re, im = rho.real, rho.imag
    s = np.empty(rho.shape[:-2] + (3,))
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=s[..., 0])
    np.add(re[..., 0, 1], re[..., 1, 0], out=s[..., 1])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=s[..., 2])
    return s


def _stokes_to_density(s) -> np.ndarray:
    """(I + S1*SIGMA1 + S2*SIGMA2 + S3*SIGMA3) / 2 for any three numbers, unvalidated."""
    return (IDENTITY + s[0] * SIGMA1 + s[1] * SIGMA2 + s[2] * SIGMA3) / 2.0


def density_from_stokes(s) -> np.ndarray:
    """Density matrix (I + S1*SIGMA1 + S2*SIGMA2 + S3*SIGMA3) / 2.

    Raises ValueError if |s| > 1 (no physical state lies outside the
    Poincare sphere).
    """
    s = np.asarray(s, dtype=float).reshape(3)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which the check rejects
        norm = float(np.linalg.norm(s))
    if not norm <= 1.0 + NORM_ATOL:
        raise ValueError(f"Stokes vector of length {norm!r} lies outside the unit ball")
    return _stokes_to_density(s)


def jones_from_stokes(s, atol: float = 1e-6) -> np.ndarray:
    """Jones vector of the pure state with unit Stokes vector `s`.

    Only unit-length Stokes vectors describe pure states, so `s` must have
    norm 1 within `atol`.
    """
    s = np.asarray(s, dtype=float).reshape(3)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which the check rejects
        norm = np.linalg.norm(s)
    if not abs(norm - 1.0) <= atol:
        raise ValueError("only unit Stokes vectors correspond to pure states")
    rho = density_from_stokes(s / norm)
    vals, vecs = np.linalg.eigh(rho)
    j = vecs[:, np.argmax(vals)]
    # fix the global phase so the largest component is real positive
    k = int(np.argmax(np.abs(j)))
    j = j * np.exp(-1j * np.angle(j[k]))
    return as_jones(j)


def dop(rho):
    """Degree of polarization: the length of the Stokes vector, in [0, 1].

    A float for one density matrix, an array for a (..., 2, 2) stack.
    Computed from the Stokes components rather than via sqrt(1 - 4 det rho);
    the two agree analytically, but the determinant form loses half the
    significant digits near D = 0 where the radicand cancels.
    """
    s = stokes_from_density(rho)
    d = np.minimum(np.sqrt(np.vecdot(s, s)), 1.0)
    return float(d) if d.ndim == 0 else d


def dop_from_determinant(rho) -> float:
    """Degree of polarization via sqrt(1 - 4 det rho).

    Tiny negative radicands (>= -1e-10, floating-point noise around the
    fully mixed state) are clamped to zero; anything more negative means
    the input was not a physical state.
    """
    rho = np.asarray(rho, dtype=complex)
    radicand = 1.0 - 4.0 * np.linalg.det(rho).real
    if radicand < -1e-10:
        raise ValueError(f"1 - 4 det(rho) = {radicand!r}; not a physical state")
    return min(np.sqrt(max(radicand, 0.0)), 1.0)


def _sqrtm_psd(h: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, clipping eigenvalue noise."""
    vals, vecs = np.linalg.eigh(h)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(a, b) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(a) b sqrt(a)))^2 between two states."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra = _sqrtm_psd(a)
    f = _sqrtm_psd(ra @ b @ ra).trace().real ** 2
    return float(min(max(f, 0.0), 1.0))
