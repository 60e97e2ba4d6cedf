"""Test-only reference models: a brute-force time-bin engine, the engine's band plan without its
early stop, the channel as a spectral average of Jones unitaries, its Stokes map read from probe
outputs, a Cholesky-parametrized likelihood and the chi-matrix maps term by term.

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

Full band.  ``full_band_plan`` is the engine's band plan without its
early stop and with its dead pairs: it lists the pairs of every position
k up to min(half-width, B - 1), with one Python float power per pair,
floored to 0 below 2**-60.  Patched in for ``depolsim.temporal._band_plan``,
it gives the output the engine must match bit for bit.

Spectral average.  ``spectral_channel`` is the channel as the paper
builds it: at spectral phase omega per bin, a crystal of delay tau is
the unitary P_fast + exp(-i omega tau) P_slow and a wave plate its Jones
matrix, so the channel is rho -> sum_k p_k U(omega_k) rho U(omega_k)^dag,
with p_k samples of the wrapped normal spectrum whose characteristic
function at integer d is the kernel gamma**(d*d).  It shares no code
with ``depolsim.temporal``: no time bins, no Kraus operators, no Choi
matrix.  ``affine_from_outputs`` reads a Stokes map off the outputs of
the h, v, p, r inputs, by traces with the Pauli matrices written out here.

Wrapped tomography.  ``wrapped_sample_counts``, ``wrapped_qpt`` and
``wrapped_state_fidelity`` are ``sample_counts``, ``qpt`` and
``state_fidelity`` through numpy's Python wrappers: ``np.linalg.eigh``,
``np.einsum`` on the library's subscripts, array reductions over six
numbers and out-of-place Hermitian averages, with the traces added left
to right in Python floats (``trace``).  The library calls the same LAPACK
and einsum kernels on the same operands, so it must give their output
bit for bit.  ``stacked_probabilities`` is the Born rule as one stacked
product of rho with the six projectors (``PROJECTORS``), clamped by
``np.clip``: the former form of ``measurement.probabilities``, whose
entry path must give its bits up to the sign of a zero.

Likelihood.  The Poisson log-likelihood of a measurement record is
evaluated setting by setting from the basis states' Jones vectors, and
over the parametrization rho(T) = T^dag T / tr(T^dag T) with T lower
triangular, which covers every density matrix.  It shares no code with
the per-axis closed form in ``depolsim.tomography``.

Boundary MLE.  ``sphere_mle`` maximizes the likelihood of per-axis
counts on the sphere |s| = 1 by nested bisection in 40-digit decimals:
on the multiplier, and on each axis' stationarity condition.  It shares
no code with the closed forms and Newton steps of
``depolsim.tomography``.

Chi maps.  The channel action sum_{m,n} chi[m,n] E_m rho E_n^dag and the
trace-preservation sum sum_{m,n} chi[m,n] E_n^dag E_m are summed one
Pauli pair at a time over the basis (I, X, Y, Z) written out here.  The
library has no chi action, since chi is only ever computed from channel
outputs or the Choi matrix, and ``depolsim.tomography`` folds the
trace-preservation sum into one precomputed contraction.
"""

import decimal
import math
from unittest import mock

import numpy as np

from depolsim import channels, measurement, polarization, temporal, tomography


def hwp(angle_deg):
    t = np.deg2rad(angle_deg)
    return np.array([[np.cos(2 * t), np.sin(2 * t)], [np.sin(2 * t), -np.cos(2 * t)]], dtype=complex)


def qwp(angle_deg):
    t = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return rot @ np.diag([1.0, 1.0j]) @ rot.T


def lattice_size(elements):
    return 1 + sum(e.delay_bins for e in elements if e.kind == "crystal")


def slow_projector(angle_deg):
    a = np.deg2rad(angle_deg)
    e_slow = np.array([np.cos(a), np.sin(a)])
    return np.outer(e_slow, e_slow)


def apply(element, psi):
    """The element's unitary on C^2 (x) C^L applied to psi, shape (2, L)."""
    if element.kind == "crystal":
        p_slow = slow_projector(element.angle_deg)
        return (np.eye(2) - p_slow) @ psi + p_slow @ np.roll(psi, element.delay_bins, axis=1)
    return (hwp if element.kind == "hwp" else qwp)(element.angle_deg) @ psi


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


# --- the band plan over the full band --------------------------------------

FLOOR = 2.0**-60


def band_halfwidth(gamma):
    """The engine's half-width, at least the largest bin distance d with gamma**(d*d) >= FLOOR (0 at gamma = 0)."""
    if gamma == 0.0:
        return 0
    return math.isqrt(int(math.log(FLOOR) / math.log(gamma))) + 1


def full_band_plan(bins, gamma):
    """The (left, right, w) pairs of every position k <= min(half-width, B - 1), in the engine's layout:
    position k pairs bins[i] with bins[i + k], and each floored weight appears twice."""
    lefts, rights, weights = [], [], []
    for k in range(1, min(band_halfwidth(gamma), len(bins) - 1) + 1):
        lefts.append(np.arange(len(bins) - k))
        rights.append(np.arange(k, len(bins)))
        weights.append([gamma ** float(d * d) for d in (bins[k:] - bins[:-k]).tolist()])
    if not weights:
        return ()
    w = np.repeat(np.concatenate(weights).astype(float), 2)
    w[w < FLOOR] = 0.0
    return np.concatenate(lefts), np.concatenate(rights), w


def full_band_run_scheme(config, j):
    """``depolsim.temporal.run_scheme`` with the full-band plan, on emptied plan and Choi memos, both emptied
    again after the call so that no full-band plan or channel outlives it."""
    with mock.patch.object(temporal, "_band_plan", full_band_plan):
        temporal._cached_plan.cache_clear()
        temporal._choi.cache_clear()
        try:
            return temporal.run_scheme(config, j)
        finally:
            temporal._cached_plan.cache_clear()
            temporal._choi.cache_clear()


# --- the channel read from probe outputs ----------------------------------

# the h, v, p, r inputs as columns
PROBES = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0j]]) / np.sqrt([1.0, 1.0, 2.0, 2.0])


def affine_from_outputs(rho_h, rho_v, rho_p, rho_r):
    """The Stokes map of a channel from its outputs for the h, v, p, r inputs, which fix it by linearity:
    b = (s_h + s_v)/2 and the columns s_h - b, s_p - b, s_r - b, each s_i = Re tr(rho SIGMA_i) over STOKES_BASIS."""
    outputs = np.array([rho_h, rho_v, rho_p, rho_r], dtype=complex)
    s_h, s_v, s_p, s_r = np.einsum("iab,kba->ki", STOKES_BASIS[1:], outputs).real
    b = (s_h + s_v) / 2.0
    return channels.StokesChannel(np.column_stack([s_h - b, s_p - b, s_r - b]), b)


# --- the channel as a spectral average of Jones unitaries -------------------


def kernel_cut(gamma):
    """The largest bin distance d with gamma**(d*d) >= FLOOR (0 at gamma = 0): the engine keeps no farther pair."""
    cut = 0
    while gamma ** float((cut + 1) ** 2) >= FLOOR:
        cut += 1
    return cut


def spectral_weights(gamma, n):
    """(omega_k, p_k) at omega_k = 2 pi k / n: p_k = (2 pi / n) f(omega_k), f the wrapped normal of variance
    -2 ln gamma (uniform at gamma = 0), whose characteristic function at integer d is gamma**(d*d).  By Poisson
    summation p is the DFT of the kernel and its aliases: sum_k p_k exp(-i omega_k d) = sum_j gamma**((d + j n)**2).
    f sums positive Gaussians over the windings within sqrt(120 ln 2) sigma (the rest weigh under 2**-60 of the
    peak), so no p_k is negative, where the kernel's cosine series cancels to noise of either sign near omega = pi
    at gamma = 0.99 (f is about 1e-107 there)."""
    omega = 2.0 * np.pi * np.arange(n) / n
    if gamma == 0.0:
        return omega, np.full(n, 1.0 / n)
    sigma = math.sqrt(-2.0 * math.log(gamma))
    last = math.ceil(sigma * math.sqrt(120.0 * math.log(2.0)) / (2.0 * np.pi)) + 1
    windings = 2.0 * np.pi * np.arange(-last, last + 1)
    f = np.exp(-((omega[:, None] - windings) ** 2) / (2.0 * sigma * sigma)).sum(axis=1) / (sigma * math.sqrt(2 * np.pi))
    return omega, 2.0 * np.pi / n * f


def jones(element, omega):
    """The element's Jones matrices at the phases omega, shape (n, 2, 2): a crystal's P_fast + exp(-i omega tau)
    P_slow, a plate's own at every phase."""
    if element.kind == "crystal":
        p_slow = slow_projector(element.angle_deg)
        return (np.eye(2) - p_slow) + np.exp(-1j * omega * element.delay_bins)[:, None, None] * p_slow
    return np.broadcast_to((hwp if element.kind == "hwp" else qwp)(element.angle_deg), (len(omega), 2, 2))


def spectral_channel(config):
    """(M, b, chi) of rho -> sum_k p_k U(omega_k) rho U(omega_k)^dag for a single config, U(omega) the product of its
    elements' Jones matrices in order.  With n = D + cut + 1 phases, for D the sum of the delays and cut =
    `kernel_cut(gamma)`, every bin distance |d| <= D has |d + j n| > cut for j != 0, so the weights give its kernel
    gamma**(d*d) to 2**-60.  R[i, j] = tr(P_i E(P_j)) / 2 over STOKES_BASIS gives M = R[1:, 1:] and b = R[1:, 0];
    with U = sum_m c_m E_m over PAULI_BASIS, chi = sum_k p_k c c^dag."""
    delays = sum(e.delay_bins for e in config.elements if e.kind == "crystal")
    omega, p = spectral_weights(config.coherence, delays + kernel_cut(config.coherence) + 1)
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(omega), 2, 2))
    for element in config.elements:
        u = jones(element, omega) @ u
    r = np.einsum("k,iab,kbc,jcd,kad->ij", p, STOKES_BASIS, u, STOKES_BASIS, u.conj()).real / 2.0
    c = np.einsum("mab,kba->km", PAULI_BASIS, u) / 2.0
    return r[1:, 1:], r[1:, 0], np.einsum("k,km,kn->mn", p, c, c.conj())


# --- the tomography pipeline through numpy's wrappers -----------------------


# the six projectors as one (6, 2, 2) stack, in DEFAULT_SETTINGS order
PROJECTORS = np.stack([measurement.projector(label) for label in measurement.DEFAULT_SETTINGS])


def stacked_probabilities(rho):
    """The six Born-rule probabilities of rho from the stacked product rho @ PROJECTORS, clamped by `np.clip`."""
    products = np.asarray(rho, dtype=complex) @ PROJECTORS
    return np.clip((products[:, 0, 0] + products[:, 1, 1]).real, 0.0, 1.0)


def trace(matrix):
    """Re tr(matrix), the real diagonal added left to right in Python floats."""
    total = 0.0
    for entry in np.diagonal(matrix).real.tolist():
        total += entry
    return total


def wrapped_sample_counts(rho, shots, seed, exact=False):
    """`measurement.sample_counts` from `stacked_probabilities`, checking the int64 range with `means.max()`."""
    shots, seed = polarization._as_integer(shots, "shots", 1), polarization._as_integer(seed, "seed", 0)
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise ValueError(f"the state rho must be finite, got {rho!r}")
    means = shots * stacked_probabilities(rho)
    if not means.max() < 2.0**63:
        raise ValueError(f"shots = {shots!r} gives mean counts beyond the int64 range")
    if exact:
        counts = np.rint(means).astype(np.int64)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        counts = np.array(list(map(rng.poisson, means.tolist())), dtype=np.int64)
    return measurement.MeasurementRecord(counts, shots, seed)


def wrapped_qpt(rho_h, rho_v, rho_p, rho_r):
    """`tomography.qpt` through `np.einsum` and `np.linalg.eigh`: (chi, clipped mass)."""
    outputs = np.array((rho_h, rho_v, rho_p, rho_r), dtype=complex)
    chi = np.einsum("mnkac,kac->mn", tomography._CHI_FROM_OUTPUTS, outputs)
    vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2.0)
    clipped = float(0.0 - vals[vals < 0].sum())
    chi_psd = np.einsum("ik,k,jk->ij", vecs, np.maximum(vals, 0.0), vecs.conj())
    chi_psd = (chi_psd + chi_psd.conj().T) / 2.0
    return chi_psd / trace(chi_psd), clipped


def _wrapped_sqrtm_psd(h):
    vals, vecs = np.linalg.eigh(h)
    return np.einsum("ik,k,jk->ij", vecs, np.sqrt(np.maximum(vals, 0.0)), vecs.conj())


def wrapped_state_fidelity(a, b):
    """`polarization.state_fidelity` through `np.linalg.eigh` and `np.einsum`."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra = _wrapped_sqrtm_psd(a)
    f = trace(_wrapped_sqrtm_psd(np.einsum("ij,jk,kl->il", ra, b, ra))) ** 2
    return float(min(max(f, 0.0), 1.0))


# --- Poisson likelihood over every setting ------------------------------

SETTING_STATES = {
    "h": np.array([1.0, 0.0]),
    "v": np.array([0.0, 1.0]),
    "p": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "m": np.array([-1.0, 1.0]) / np.sqrt(2.0),
    "r": np.array([1.0, 1.0j]) / np.sqrt(2.0),
    "l": np.array([1.0j, 1.0]) / np.sqrt(2.0),
}


# the projectors of a record's six settings, in DEFAULT_SETTINGS order
SETTING_PROJECTORS = np.stack([np.outer(SETTING_STATES[lbl], SETTING_STATES[lbl].conj())
                               for lbl in measurement.DEFAULT_SETTINGS])


def log_likelihood(rho, record):
    """sum_j n_j log p_j - shots sum_j p_j with p_j = tr(rho P_j), taking 0 log 0 = 0."""
    p = np.einsum("sij,ji->s", SETTING_PROJECTORS, np.asarray(rho, dtype=complex)).real
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
# the same matrices in the Stokes order (I, SIGMA_1, SIGMA_2, SIGMA_3) = (I, Z, X, Y)
STOKES_BASIS = np.array([PAULI_BASIS[0], PAULI_BASIS[3], PAULI_BASIS[1], PAULI_BASIS[2]])


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


# --- the boundary MLE by nested bisection in 40 digits ----------------------

# each root is bisected down to a bracket this wide, far below a float's resolution
ROOT_WIDTH = decimal.Decimal(2) ** -72


def _decimal_axis_root(a, b, mu, lo=-1, hi=1):
    """The maximizer over [-1, 1] of a log(1+s) + b log(1-s) - mu s**2, in the current decimal context.

    It is the end point where F(s) = a/(1+s) - b/(1-s) - 2 mu s keeps one
    sign on (-1, 1), else the root of the decreasing F, bisected within
    [lo, hi].
    """
    if b == 0 and a / 2 - 2 * mu >= 0:
        return decimal.Decimal(1)
    if a == 0 and 2 * mu - b / 2 <= 0:
        return decimal.Decimal(-1)
    lo, hi = decimal.Decimal(lo), decimal.Decimal(hi)
    while hi - lo > ROOT_WIDTH:
        s = (lo + hi) / 2
        if a / (1 + s) - b / (1 - s) - 2 * mu * s > 0:
            lo = s
        else:
            hi = s
    return (lo + hi) / 2


def sphere_mle(axes) -> list[float]:
    """The Stokes vector maximizing the likelihood on |s| = 1, for per-axis counts (a, b).

    The multiplier mu solves sum_i s_i(mu)**2 = 1 by 120 bisections of
    [0, N/2] for N counts in all, each s_i(mu) by bisection on F, all in
    40-digit decimals; s is normalized at the end.  Each s_i is monotone
    in mu, so while mu is bracketed by [lo, hi], s_i(mu) is bracketed by
    s_i(lo) and s_i(hi), widened by the roots' own width.  It shares no
    code with the closed forms and the Newton steps of
    ``depolsim.tomography``.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        axes = [(decimal.Decimal(a), decimal.Decimal(b)) for a, b in axes]
        lo, hi = decimal.Decimal(0), sum(a + b for a, b in axes) / 2
        at_lo, at_hi = ([_decimal_axis_root(a, b, mu) for a, b in axes] for mu in (lo, hi))
        for _ in range(120):
            mu = (lo + hi) / 2
            s = [
                _decimal_axis_root(a, b, mu, max(-1, min(x, y) - ROOT_WIDTH), min(1, max(x, y) + ROOT_WIDTH))
                for (a, b), x, y in zip(axes, at_lo, at_hi)
            ]
            if sum(x * x for x in s) > 1:
                lo, at_lo = mu, s
            else:
                hi, at_hi = mu, s
        norm = sum(x * x for x in at_hi).sqrt()
        return [float(x / norm) for x in at_hi]
