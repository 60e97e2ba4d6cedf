"""Test-only reference models: a brute-force time-bin engine, the engine's band plan without its
early stop, a Cholesky-parametrized likelihood and the chi-matrix maps term by term.

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

Probe channel.  ``probe_channel`` is the Stokes map as it was read
before the Choi maps: from the Stokes vectors of the h, v, p, r outputs
of ``run_scheme``, b = (s_h + s_v)/2 and the columns s_h - b, s_p - b,
s_r - b.  ``former_outputs_to_chi`` is the former outputs -> chi matrix
of ``qpt``, through the superoperator, ``np.linalg.inv`` and ``np.kron``.  ``former_theory_chi`` is
the theory chi of ``tomo`` as the tomography module read it from the engine's Choi matrix, before
``channels.extract_chi`` took that read-out over.

Former forms.  ``former_stokes_from_density`` reads the Stokes
vector off the real and imaginary views with three ``out=`` ufuncs,
where the library now makes one subtraction on the float view.
``former_stokes_to_density`` is the density matrix of a Stokes vector as
a sum of Pauli matrices, which the library now builds from its four
entries.  The library's forms do the same floating-point operations, so
patched in, the former ones must give its output bit for bit.

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

import contextlib
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


def probe_channel(config):
    """The Stokes map of a single config from the Stokes vectors of its h, v, p, r outputs."""
    s_h, s_v, s_p, s_r = polarization.stokes_from_density(temporal.run_scheme(config, PROBES))
    b = (s_h + s_v) / 2.0
    return channels.StokesChannel(np.column_stack([s_h - b, s_p - b, s_r - b]), b)


def former_outputs_to_chi():
    """The former (16, 16) map of `qpt` from the stacked (h, v, p, r) outputs to the raw chi matrix: the images
    of I, X, Y, Z by linearity, the superoperator S = [vec images] inv([vec basis]) on column-stacked matrices,
    and chi[m, n] = tr(kron(conj(E_n), E_m)^dag S) / 4."""
    images_from_outputs = np.array([[1, 1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2], [1, -1, 0, 0]], dtype=float)
    basis_cols = np.column_stack([b.flatten(order="F") for b in PAULI_BASIS])
    basis_inv = np.linalg.inv(basis_cols)
    pauli_pairs = np.array([[np.kron(en.conj(), em) for en in PAULI_BASIS] for em in PAULI_BASIS])
    # pauli_pairs[m, n, i, j] with i = row + 2 col of the column-stacked vec: split i into (col, row)
    pairs = pauli_pairs.conj().reshape(4, 4, 2, 2, 4) / 4.0
    return np.einsum("mncrj,qj,qk->mnkrc", pairs, basis_inv, images_from_outputs).reshape(16, 16)


def former_theory_chi(config):
    """The chi matrix of a single config as `tomography._chi_from_choi(temporal._choi(config)[0])` gave it: the
    Choi -> chi map on the held S, then the Hermitian average in place."""
    chi = np.einsum("mnxy,xy->mn", polarization.CHOI_TO_CHI, temporal._choi(config)[0])
    chi += chi.conj().T
    chi /= 2.0
    return chi


# --- the library's former numpy forms --------------------------------------


def former_stokes_from_density(rho):
    """`polarization.stokes_from_density` as three `out=` ufuncs on the real and imaginary views."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrices must be 2x2, got shape {rho.shape}")
    re, im = rho.real, rho.imag
    s = np.empty(rho.shape[:-2] + (3,))
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=s[..., 0])
    np.add(re[..., 0, 1], re[..., 1, 0], out=s[..., 1])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=s[..., 2])
    return s


def former_stokes_to_density(s):
    """`polarization._stokes_to_density` as the matrix sum (I + S1 SIGMA1 + S2 SIGMA2 + S3 SIGMA3) / 2."""
    sigma1, sigma2, sigma3 = polarization.SIGMAS
    return (polarization.IDENTITY + s[0] * sigma1 + s[1] * sigma2 + s[2] * sigma3) / 2.0


def former_forms():
    """A context manager patching the former forms of the Stokes read-out and the density matrix of a Stokes
    vector into the library, in every module that binds them at import."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(polarization, "stokes_from_density", former_stokes_from_density))
    for module in (polarization, tomography):
        stack.enter_context(mock.patch.object(module, "_stokes_to_density", former_stokes_to_density))
    return stack


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
    return measurement.MeasurementRecord(measurement.DEFAULT_SETTINGS, counts, shots, seed)


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
