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

import cmath
import math
import numbers
import reprlib

import numpy as np

try:
    # numpy's einsum kernel, bound once.  np.einsum(..., optimize=False) is this very call behind two Python
    # frames, the __array_function__ dispatcher and einsumfunc.einsum; on the few dozen entries of the
    # engine's products they are a quarter of the call (interleaved timeit medians on a (1, 2, 2) x
    # (1, 2, 2, 32) product: 4.3 us through np.einsum, 3.3 us here).  Same kernel, same operands: same bytes.
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

try:
    # LAPACK's Hermitian eigensolver, bound once: the gufunc np.linalg.eigh ends in for a complex matrix, with its
    # signature and its error state (no convergence raises LinAlgError, and no RuntimeWarning escapes).  Its
    # wrapper's _makearray, _commonType, astype and EighResult are a third or more of the call on a 4x4 chi
    # (interleaved best of 41 rounds: 8.1 us through np.linalg.eigh, 4.8 us here).  Same kernel, same operands:
    # same bytes.  The errstate decorator builds the error state on every call, about 0.5 us on a 4x4 chi, which
    # the tomography pool does not resolve (seed 1, 6 interleaved runs: 4 054 ops/s with the state pre-built,
    # 4 029 decorated, against 3 592-4 237 from run to run).
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

    def _raise_nonconvergence(err, flag):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    @np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
    def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvectors as columns) of a complex Hermitian matrix, from its lower
        triangle."""
        return _eigh_lo(h, signature="D->dD")
except ImportError:
    _eigh = np.linalg.eigh

NORM_ATOL = 1e-10
PSD_ATOL = 1e-10
UNIT_STOKES_ATOL = 1e-6  # of `jones_from_stokes`

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

# the operator basis (I, X, Y, Z) of chi matrices (see `depolsim.tomography`)
CHI_BASIS = (IDENTITY, SIGMA2, SIGMA3, SIGMA1)

# A qubit channel E is held as its Choi matrix S[2b + a, 2d + c] = E(|b><d|)[a, c], the layout the time-bin
# engine writes, and every read-out is one of these constant linear maps, applied by numpy's einsum kernel (`_einsum`):
# * CHOI_TO_PTM: S's (4, 8) float view -> the real Pauli transfer matrix R[i, j] = tr(P_i E(P_j)) / 2 over
#   P = (I, SIGMA1, SIGMA2, SIGMA3), whose Stokes map is b = R[1:, 0], M = R[1:, 1:];
# * CHOI_TO_CHI: S -> chi[m, n] = sum conj(E_m[a, b]) S[2b + a, 2d + c] E_n[c, d] / 4 over CHI_BASIS, so that
#   E(rho) = sum_{m,n} chi[m, n] E_m rho E_n^dagger;
# * OUTPUTS_TO_CHOI: the outputs rho_k of the h, v, p, r inputs -> S, by E(|b><d|) = sum_k w[k, b, d] rho_k:
#   E(|h><h|) = rho_h, E(|v><v|) = rho_v, and with A = 2 rho_p - rho_h - rho_v and C = 2 rho_r - rho_h - rho_v,
#   E(|h><v|) = (A + iC)/2 and E(|v><h|) = (A - iC)/2.
_PAULIS = np.array((IDENTITY,) + SIGMAS)
_PTM = _einsum("ica,jbd->ijbadc", _PAULIS, _PAULIS).reshape(4, 4, 4, 4) / 2.0
CHOI_TO_PTM = np.stack((_PTM.real, -_PTM.imag), axis=-1).reshape(4, 4, 4, 8)  # Re(k s) = Re k Re s - Im k Im s
CHOI_TO_CHI = _einsum("mab,ncd->mnbadc", np.conj(CHI_BASIS), CHI_BASIS).reshape(4, 4, 4, 4) / 4.0
_W = np.array([[[1, -0.5 - 0.5j], [-0.5 + 0.5j, 0]], [[0, -0.5 - 0.5j], [-0.5 + 0.5j, 1]],  # h, v
               [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])  # p, r
OUTPUTS_TO_CHOI = _einsum("kbd,ap,cq->badckpq", _W, IDENTITY, IDENTITY).reshape(4, 4, 4, 2, 2)
for _map in (CHOI_TO_PTM, CHOI_TO_CHI, OUTPUTS_TO_CHOI):
    _map.flags.writeable = False


def _as_integer(value, name: str, least: int, most: int | None = None) -> int:
    """`value` as an int in [least, most] (no upper bound for None), else ValueError naming `name` and the range.

    A bool, Python's or numpy's, is refused: True is not the integer 1 here.
    """
    try:
        number = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < least or (most is not None and number > most):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return number


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


# positions in the float view (re00, im00, re01, im01, re10, im10, re11, im11) of a density matrix:
# S = x[minuend] - x[subtrahend] * signs, that is re00 - re11, re01 - (-re10) and im10 - im01
_STOKES_MINUEND = np.array([0, 2, 5])
_STOKES_SUBTRAHEND = np.array([6, 4, 3])
_STOKES_SIGNS = np.array([1.0, -1.0, 1.0])


def stokes_from_density(rho) -> np.ndarray:
    """Stokes vector (S1, S2, S3) of a density matrix, S_i = tr(rho SIGMA_i).

    Also takes a (..., 2, 2) stack and returns the (..., 3) Stokes vectors.
    The traces are read off the entries: S1 = Re rho00 - Re rho11,
    S2 = Re rho01 + Re rho10 and S3 = Im rho10 - Im rho01.  For a stack,
    all three are one subtraction on the (..., 8) float view of a
    C-contiguous stack; S2 as Re rho01 - (Re rho10 * -1.0), which is the
    same IEEE operation.  One 2x2 matrix takes the same operations in
    Python floats on its four entries, without the array set-up: the same
    bits, a NaN's sign included (a multiplication by -1.0 keeps it, where
    Python's unary minus would flip it).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        (a, b), (c, d) = rho.tolist()
        return np.array([a.real - d.real, b.real - c.real * -1.0, c.imag - b.imag])
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrices must be 2x2, got shape {rho.shape}")
    x = np.ascontiguousarray(rho).reshape(rho.shape[:-2] + (4,)).view(float)
    return x.take(_STOKES_MINUEND, axis=-1) - x.take(_STOKES_SUBTRAHEND, axis=-1) * _STOKES_SIGNS


def _stokes_to_density(s) -> np.ndarray:
    """(I + S1*SIGMA1 + S2*SIGMA2 + S3*SIGMA3) / 2 for any three finite numbers, unvalidated.

    Built from its four entries, with the bits of the matrix sum: a zero
    real part of an off-diagonal entry, and a zero imaginary part, is +0.0
    as the complex additions leave it, so each is formed as 0.0 + y,
    0.0 - z or z + 0.0.
    """
    x, y, z = s[0], s[1], s[2]
    re = (y + 0.0) * 0.5
    return np.array(
        [complex((1.0 + x) * 0.5, 0.0), complex(re, (0.0 - z) * 0.5), complex(re, (z + 0.0) * 0.5),
         complex((1.0 - x) * 0.5, 0.0)]
    ).reshape(2, 2)


def density_from_stokes(s) -> np.ndarray:
    """Density matrix (I + S1*SIGMA1 + S2*SIGMA2 + S3*SIGMA3) / 2.

    Raises ValueError if |s| > 1 (no physical state lies outside the
    Poincare sphere).
    """
    s = np.asarray(s, dtype=float).reshape(3).tolist()
    norm = math.hypot(*s)  # a norm beyond the float range is inf, which the check rejects
    if not norm <= 1.0 + NORM_ATOL:
        raise ValueError(f"Stokes vector of length {norm!r} lies outside the unit ball")
    return _stokes_to_density(s)


def jones_from_stokes(s) -> np.ndarray:
    """Jones vector of the pure state with unit Stokes vector `s`.

    Only unit-length Stokes vectors describe pure states, so `s` must have
    norm 1 within UNIT_STOKES_ATOL.  After s /= |s| it is (a, (S2 + i S3) / 2a) with
    a = sqrt((1 + S1) / 2) for S1 >= 0, else ((S2 - i S3) / 2b, b) with
    b = sqrt((1 - S1) / 2): the larger component real positive, h on a tie.
    """
    x, y, z = np.asarray(s, dtype=float).reshape(3).tolist()
    norm = math.hypot(x, y, z)
    if not abs(norm - 1.0) <= UNIT_STOKES_ATOL:
        raise ValueError("only unit Stokes vectors correspond to pure states")
    x, y, z = x / norm, y / norm, z / norm
    if x >= 0.0:
        a = math.sqrt((1.0 + x) / 2.0)
        return as_jones([a, complex(y / (2.0 * a), z / (2.0 * a))])
    b = math.sqrt((1.0 - x) / 2.0)
    return as_jones([complex(y / (2.0 * b), -z / (2.0 * b)), b])


def dop(rho):
    """Degree of polarization: the length of the Stokes vector, in [0, 1].

    A float for one density matrix, an array for a (..., 2, 2) stack.
    Computed from the Stokes components rather than via sqrt(1 - 4 det rho);
    the two agree analytically, but the determinant form loses half the
    significant digits near D = 0 where the radicand cancels.

    The sum of squares is numpy's einsum kernel for one matrix and for a
    stack alike, so a matrix of a stack gets the bits of the single call;
    the kernel adds the three squares in its own order, not Python's
    left to right.  One matrix then takes `math.sqrt` and a Python clamp
    to 1.0 that keeps a NaN, as `np.minimum` does, instead of two ufuncs.
    """
    s = stokes_from_density(rho)
    sum_sq = _einsum("...i,...i->...", s, s)
    if s.ndim == 1:
        d = math.sqrt(sum_sq)
        return 1.0 if d > 1.0 else d
    return np.minimum(np.sqrt(sum_sq), 1.0)


def dop_from_determinant(rho) -> float:
    """Degree of polarization via sqrt(1 - 4 det rho).

    det rho = a d - b c of one 2x2 matrix, in Python complex numbers.  Tiny negative radicands (>= -1e-10, noise
    around the fully mixed state) are clamped to zero; anything more negative, or a non-finite entry, means the
    input was not a physical state.
    """
    a, b, c, d = _check_finite(_one_state(rho), "the state rho")
    radicand = 1.0 - 4.0 * (a * d - b * c).real
    if radicand < -1e-10:
        raise ValueError(f"1 - 4 det(rho) = {radicand!r}; not a physical state")
    return min(math.sqrt(max(radicand, 0.0)), 1.0)


def _sqrtm_psd(h: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, clipping eigenvalue noise."""
    vals, vecs = _eigh(h)
    return _einsum("ik,k,jk->ij", vecs, np.sqrt(np.maximum(vals, 0.0)), vecs.conj())


def _hermitian_average(matrix: np.ndarray) -> np.ndarray:
    """(matrix + matrix^dagger) / 2 over the last two axes, in place, with the out-of-place bits: the conjugate is a
    fresh array."""
    matrix += matrix.conj().mT
    matrix /= 2.0
    return matrix


def _trace(matrix: np.ndarray) -> float:
    """Re tr(matrix), its real diagonal added left to right in Python floats: not `sum`, which compensates from
    Python 3.12, nor `math.fsum`, which raises OverflowError where this sum is inf."""
    total = 0.0
    for entry in matrix.diagonal().real.tolist():
        total += entry
    return total


def _one_state(rho) -> np.ndarray:
    """`rho` as one complex 2x2 matrix, else ValueError."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"the state rho must be one 2x2 matrix, got shape {rho.shape}")
    return rho


def _check_finite(matrix: np.ndarray, what: str) -> list:
    """Raise ValueError unless every entry of `matrix` is finite, before any arithmetic on it: LAPACK's eigh reads
    only the lower triangle, so a NaN above the diagonal would pass unseen, and one below it would raise
    LinAlgError.  Returns the entries it read, as one flat list."""
    entries = matrix.ravel().tolist()
    if not all(map(cmath.isfinite, entries)):
        raise ValueError(f"{what} must be finite, got {matrix!r}")
    return entries


def _numbers(value, kinds: str) -> np.ndarray:
    """`value` as an array of a dtype kind in `kinds` with no bool in it, else ValueError saying why, which its caller
    prefixes with what it requires: the one array rule of the value types.  An ndarray is judged by its dtype alone,
    anything else entry by entry too, as numpy reads a True or False among numbers as 1 or 0 and keeps no trace."""
    if isinstance(value, np.ndarray):
        array = value
    else:
        try:
            array = np.asarray(value)
        except ValueError:  # ragged, or nested past numpy's 64 dimensions
            raise ValueError(f"got {reprlib.repr(value)}") from None
        if array.dtype.kind in kinds and any(
                isinstance(entry, (bool, np.bool_)) for entry in np.asarray(value, dtype=object).ravel().tolist()):
            raise ValueError("not true or false")
    kind = array.dtype.kind
    if kind not in kinds:
        raise ValueError("not true or false" if kind == "b" else f"got {reprlib.repr(value)}")
    return array


def _number_array(value, shape: tuple[int, ...], dtype: type, what: str) -> np.ndarray:
    """`value` as a read-only `dtype` (float or complex) copy, so that no later write gets past the check, by
    `_numbers`' rule: exactly `shape`, every entry finite and an int or a `dtype` number, not a bool, a string or an
    object; else ValueError naming `what`."""
    try:
        array = _numbers(value, "iuf" if dtype is float else "iufc")
        if array.shape != shape:
            raise ValueError(f"got shape {array.shape}")
    except ValueError as exc:
        names = "int or float" if dtype is float else "int, float or complex"
        raise ValueError(f"{what} must be a {shape} array of {names} numbers, {exc}") from None
    array = np.array(array, dtype=dtype)
    _check_finite(array, what)
    array.setflags(write=False)
    return array


def _real(value) -> float | None:
    """`value` as a float if it is a real number that a float holds: an int or a float, numpy's too, or a 0-d array of
    one; not a bool, which float() reads as 1 or 0, nor a numeric string.  Else None.  A NaN or inf is returned."""
    if type(value) is float:
        return value
    if isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf":
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return None


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` as given, without `__post_init__`: its caller
    guarantees that every field of `cls` is there, each in the form the checked constructor stores (dtype, shape,
    finite entries), since nothing is checked, copied or converted."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def state_fidelity(a, b) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(a) b sqrt(a)))^2 between two states; a non-finite entry raises ValueError."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    _check_finite(a, "the state a")
    _check_finite(b, "the state b")
    return _fidelity(a, b)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """`state_fidelity` of two finite complex matrices, unchecked."""
    ra = _sqrtm_psd(a)
    f = _trace(_sqrtm_psd(_einsum("ij,jk,kl->il", ra, b, ra))) ** 2
    return min(max(f, 0.0), 1.0)
