"""Test-only reference models: a brute-force time-bin engine, a Cholesky-parametrized likelihood
and the chi-matrix maps term by term.

Time-bin engine.  The time register is a dense lattice of
L = 1 + (sum of crystal delays) bins, so no amplitude ever leaves it.
Every element acts as a unitary on C^2 (x) C^L: a wave plate as
J (x) 1, and a crystal as P_fast (x) 1 + P_slow (x) S^d with S the
cyclic shift by one bin (a permutation, hence unitary).  Time is then
traced out with the Gaussian kernel gamma**(d*d) over every lag d whose
weight is nonzero in floating point, so nothing is cut off at 2**-60 as
in the engine.

It shares no code with ``depolsim.temporal``: no sparse bin index, no
merging of equal bins, no Kraus operators and no banded contraction.

Likelihood.  The Poisson log-likelihood of a measurement record is
evaluated setting by setting from the basis states' Jones vectors, and
over the parametrization rho(T) = T^dag T / tr(T^dag T) with T lower
triangular, which covers every density matrix.  It shares no code with
the per-axis closed form in ``depolsim.tomography``.

Chi maps.  The channel action sum_{m,n} chi[m,n] E_m rho E_n^dag and the
trace-preservation sum sum_{m,n} chi[m,n] E_n^dag E_m are summed one
Pauli pair at a time over the basis (I, X, Y, Z) written out here.  The
library has no chi action, since chi is only ever computed from channel
outputs, and ``depolsim.tomography`` folds the trace-preservation sum
into one precomputed contraction.
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
    raise ValueError(f"unknown element kind {element.kind!r}")


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


# --- Poisson likelihood over every setting ------------------------------

SETTING_STATES = {
    "h": np.array([1.0, 0.0]),
    "v": np.array([0.0, 1.0]),
    "p": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "m": np.array([-1.0, 1.0]) / np.sqrt(2.0),
    "r": np.array([1.0, 1.0j]) / np.sqrt(2.0),
    "l": np.array([1.0j, 1.0]) / np.sqrt(2.0),
}


def setting_projectors(settings):
    return np.stack([np.outer(SETTING_STATES[lbl], SETTING_STATES[lbl].conj()) for lbl in settings])


def log_likelihood(rho, record):
    """sum_j n_j log p_j - shots sum_j p_j with p_j = tr(rho P_j), taking 0 log 0 = 0."""
    p = np.einsum("sij,ji->s", setting_projectors(record.settings), np.asarray(rho, dtype=complex)).real
    counts = record.counts.astype(float)
    hit = counts > 0
    if np.any(p[hit] <= 0.0):
        return -np.inf
    return float(counts[hit] @ np.log(p[hit]) - record.shots * p.sum())


_DT = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
    np.array([[0, 0], [1, 0]], dtype=complex),
    np.array([[0, 0], [1j, 0]], dtype=complex),
)


def _t_matrix(t: np.ndarray) -> np.ndarray:
    return np.array([[t[0], 0.0], [t[2] + 1j * t[3], t[1]]], dtype=complex)


def rho_from_params(t) -> np.ndarray:
    """rho(T) = T^dag T / tr(T^dag T) for the lower-triangular 4-parameter T."""
    tm = _t_matrix(np.asarray(t, dtype=float))
    b = tm.conj().T @ tm
    return b / np.trace(b).real


def negative_log_likelihood(t, counts, projectors, shots) -> tuple[float, np.ndarray]:
    """Poisson negative log-likelihood per recorded count, with gradient.

    The model is counts[j] ~ Poisson(shots * p_j(rho(t))).  The value and
    gradient are scaled by 1/sum(counts) so the stationarity tolerance is
    independent of the shot budget.
    """
    t = np.asarray(t, dtype=float)
    tm = _t_matrix(t)
    b = tm.conj().T @ tm
    tau = np.trace(b).real
    rho = b / tau
    p = np.einsum("sij,ji->s", projectors, rho).real
    p_safe = np.clip(p, 1e-15, None)
    scale = max(1.0, float(counts.sum()))
    value = -(float(counts @ np.log(p_safe)) - shots * float(p.sum())) / scale
    coeff = counts / p_safe - shots
    grad = np.empty(4)
    for k, dt in enumerate(_DT):
        db = dt.conj().T @ tm + tm.conj().T @ dt
        drho = (db - rho * np.trace(db).real) / tau
        dp = np.einsum("sij,ji->s", projectors, drho).real
        grad[k] = -float(coeff @ dp) / scale
    return value, grad


# --- chi-matrix maps, one Pauli pair at a time ---------------------------

PAULI_BASIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def apply_chi(chi, rho):
    """sum_{m,n} chi[m,n] E_m rho E_n^dag."""
    out = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            out += chi[m, n] * (PAULI_BASIS[m] @ rho @ PAULI_BASIS[n].conj().T)
    return out


def trace_preservation_residual(chi):
    """Frobenius norm of sum_{m,n} chi[m,n] E_n^dag E_m - I."""
    acc = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            acc += chi[m, n] * (PAULI_BASIS[n].conj().T @ PAULI_BASIS[m])
    return float(np.linalg.norm(acc - np.eye(2)))
