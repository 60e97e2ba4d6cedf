"""State and process reconstruction from measurement records.

State tomography comes in two flavors, both exact and closed form.  The
linear Stokes estimate may be unphysical under noise.  The
maximum-likelihood estimate maximizes the Poisson likelihood of the
counts over the Bloch ball.  Each of the six settings (h, v, p, m, r, l)
is the projector (I +- sigma_i) / 2 on one Stokes axis, so the log
likelihood splits into one concave term per axis,

    l_i(s_i) = a_i log(1 + s_i) + b_i log(1 - s_i),

with a_i and b_i the counts of the axis' + and - labels.  If the
per-axis maximizers lie in the ball they are the MLE, and that is
exactly the linear estimate.  Otherwise the optimum lies on the sphere
|s| = 1, where the Lagrange condition l_i'(s_i) = 2 mu s_i gives one
monotone 1-D root per axis for each multiplier mu, and |s(mu)| shrinks
as mu grows (see `qst_mle`).

Process tomography expresses a channel as

    E(rho) = sum_{m,n} chi[m, n] E_m rho E_n^dag

in the fixed operator basis (E0, E1, E2, E3) = (I, X, Y, Z), where
X = SIGMA2 (the bit flip in h/v, +1 eigenstates p/m), Y = SIGMA3
(eigenstates r/l) and Z = SIGMA1 = |h><h| - |v><v|.  With this ordering
the chi diagonal reads directly as (no error, bit flip, bit-phase flip,
phase flip) probabilities for Pauli channels.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measurement import SETTING_PAIRS, MeasurementRecord
from .polarization import IDENTITY, PSD_ATOL, SIGMA1, SIGMA2, SIGMA3, _stokes_to_density, state_fidelity

CHI_BASIS = (IDENTITY, SIGMA2, SIGMA3, SIGMA1)
CHI_BASIS_LABELS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class LinearEstimate:
    """Linear-inversion state estimate; `physical` is False if it left the PSD cone."""

    rho: np.ndarray
    physical: bool


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix in the (I, X, Y, Z) basis, with the mass removed by CP projection."""

    matrix: np.ndarray
    clipped_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex).reshape(4, 4))

    def to_json(self) -> dict:
        return {
            "basis": list(CHI_BASIS_LABELS),
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
            "clipped_mass": float(self.clipped_mass),
        }

    @classmethod
    def from_json(cls, data) -> "ChiMatrix":
        if isinstance(data, str):
            data = json.loads(data)
        if list(data.get("basis", CHI_BASIS_LABELS)) != list(CHI_BASIS_LABELS):
            raise ValueError("chi matrix uses an unexpected operator basis")
        mat = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
        return cls(mat, float(data.get("clipped_mass", 0.0)))


def _axis_counts(record: MeasurementRecord) -> list[tuple[int, int]]:
    """Per Stokes axis, the counts (a, b) of its + and - labels; every axis must have counts."""
    axes = []
    for plus, minus in SETTING_PAIRS:
        a, b = record.count(plus), record.count(minus)
        if a + b == 0:
            raise ValueError(f"no counts in the ({plus}, {minus}) pair; Stokes estimate undefined")
        axes.append((a, b))
    return axes


def _linear_stokes(axes) -> list[float]:
    # S = (a - b) / (a + b) per axis, in exact integers
    return [(a - b) / (a + b) for a, b in axes]


def qst_linear(record: MeasurementRecord) -> LinearEstimate:
    """Stokes estimate S_i = (a - b)/(a + b) per complementary pair of counts a, b.

    This is the interior point of `qst_mle`.  The returned matrix has
    unit trace and is Hermitian but may have a negative eigenvalue when
    counts are noisy; `physical` flags that.
    """
    rho = _stokes_to_density(_linear_stokes(_axis_counts(record)))
    physical = bool(np.linalg.eigvalsh(rho).min() >= -PSD_ATOL)
    return LinearEstimate(rho, physical)


# --- maximum likelihood ------------------------------------------------

# cap on safeguarded-Newton steps per root; each step shrinks a bracket,
# and the loops stop earlier once the iterate stops changing
_MAX_STEPS = 200


def _axis_maximizer(a: int, b: int, mu: float, s: float) -> tuple[float, float]:
    """Maximizer over [-1, 1] of a log(1+s) + b log(1-s) - mu s**2, and its d/d mu.

    The derivative F(s) = a/(1+s) - b/(1-s) - 2 mu s is strictly
    decreasing.  Where it keeps one sign on (-1, 1) the maximizer is an
    end point (only possible when a = 0 or b = 0).  Otherwise it is the
    root of F, found by safeguarded Newton from the guess `s` on the
    cubic P(s) = (1 - s**2) F(s), which has the sign of F inside the
    interval and no poles.
    """
    if a == 0 and 2.0 * mu - b / 2.0 <= 0.0:
        return -1.0, 0.0
    if b == 0 and a / 2.0 - 2.0 * mu >= 0.0:
        return 1.0, 0.0
    lo, hi = -1.0, 1.0
    if not lo < s < hi:
        s = 0.0  # P vanishes at the end points, so start inside
    for _ in range(_MAX_STEPS):
        p = a * (1.0 - s) - b * (1.0 + s) - 2.0 * mu * s * ((1.0 - s) * (1.0 + s))
        if p > 0.0:
            lo = s
        elif p < 0.0:
            hi = s
        else:
            break
        slope = -float(a) - b - 2.0 * mu * (1.0 - 3.0 * s * s)
        new = s - p / slope if slope < 0.0 else s
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if new == s:
            break
        s = new
    # implicit derivative of F(s(mu); mu) = 0, with F' = P' / (1 - s**2) at the root
    slope = -float(a) - b - 2.0 * mu * (1.0 - 3.0 * s * s)
    return s, (2.0 * s * (1.0 - s) * (1.0 + s) / slope if slope < 0.0 else 0.0)


def qst_mle(record: MeasurementRecord) -> np.ndarray:
    """Maximum-likelihood state estimate from a six-setting record, in closed form.

    Maximizes the Poisson log-likelihood of the counts over the Bloch
    ball; the Poisson law is exact for the counting model in
    `sample_counts`.  The likelihood separates per Stokes axis (see the
    module docstring), so:

    * interior case: if the per-axis maximizers s(0) lie in the ball,
      they are the MLE, exactly `qst_linear(record).rho`.
    * boundary case: otherwise the multiplier mu > 0 solves
      |s(mu)| = 1, where s_i(mu) maximizes l_i(s) - mu s**2 on its axis.
      |s(mu)| is non-increasing in mu and at most 1 once mu >= N / 2
      for N counts in total, so mu is found by safeguarded Newton on
      that bracket, and s is normalized at the end.

    An axis whose + (or -) label has no counts starts at s_i = -1 (or
    +1) and leaves it only as mu grows.  The result is deterministic:
    both root searches are plain float iterations with fixed stopping
    rules.  Raises ValueError if an axis has no counts.
    """
    axes = _axis_counts(record)
    s = _linear_stokes(axes)
    if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] <= 1.0:
        return _stokes_to_density(s)
    roots = [_axis_maximizer(a, b, 0.0, si) for (a, b), si in zip(axes, s)]
    excess = sum(si * si for si, _ in roots) - 1.0
    if excess <= 0.0:
        return _stokes_to_density([si for si, _ in roots])
    lo, hi = 0.0, sum(float(a + b) for a, b in axes) / 2.0
    mu = 0.0
    for _ in range(_MAX_STEPS):
        if excess > 0.0:
            lo = mu
        elif excess < 0.0:
            hi = mu
        else:
            break
        slope = 2.0 * sum(si * dsi for si, dsi in roots)
        new = mu - excess / slope if slope < 0.0 else mu
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if new == mu:
            break
        mu = new
        roots = [_axis_maximizer(a, b, mu, si) for (a, b), (si, _) in zip(axes, roots)]
        excess = sum(si * si for si, _ in roots) - 1.0
    norm = math.sqrt(excess + 1.0)
    return _stokes_to_density([si / norm for si, _ in roots])


# --- process tomography ------------------------------------------------


def _outputs_to_chi() -> np.ndarray:
    """The linear map from the (h, v, p, r) outputs to the raw chi matrix, as a (16, 16) matrix.

    The outputs give the channel images of I, X, Y and Z by linearity;
    the superoperator on column-stacked matrices is S = [vec images]
    inv([vec basis]), and chi[m, n] = tr(kron(conj(E_n), E_m)^dag S) / 4.
    Folding those constant factors leaves one product per call.
    """
    # rows I, X, Y, Z of the images in terms of the outputs h, v, p, r
    images_from_outputs = np.array([[1, 1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2], [1, -1, 0, 0]], dtype=float)
    basis_cols = np.column_stack([b.flatten(order="F") for b in CHI_BASIS])
    basis_inv = np.linalg.inv(basis_cols)
    pauli_pairs = np.array([[np.kron(en.conj(), em) for en in CHI_BASIS] for em in CHI_BASIS])
    # pauli_pairs[m, n, i, j] with i = row + 2 col of the column-stacked vec: split i into (col, row)
    pairs = pauli_pairs.conj().reshape(4, 4, 2, 2, 4) / 4.0
    tensor = np.einsum("mncrj,qj,qk->mnkrc", pairs, basis_inv, images_from_outputs)
    return tensor.reshape(16, 16)


_CHI_FROM_OUTPUTS = _outputs_to_chi()
_CHI_FROM_OUTPUTS.flags.writeable = False


def _chi_tp_map() -> np.ndarray:
    """vec chi -> vec sum_{m,n} chi[m,n] E_n^dag E_m, as a (16, 4) matrix on the flattened chi."""
    basis = np.array(CHI_BASIS)
    # [m, n, i, l] = (E_n^dag E_m)[i, l]
    return np.einsum("nji,mjl->mnil", basis.conj(), basis).reshape(16, 4)


_CHI_TP = _chi_tp_map()
_CHI_TP.flags.writeable = False


def _chi_matrix(chi) -> np.ndarray:
    return chi.matrix if isinstance(chi, ChiMatrix) else np.asarray(chi, dtype=complex)


def qpt(rho_h, rho_v, rho_p, rho_r) -> ChiMatrix:
    """Process matrix from the channel outputs for the h, v, p, r inputs.

    Linearity turns the four outputs into the channel images of I, X, Y
    and Z, which fix the superoperator; chi follows by projecting onto
    the Pauli product basis.  Both steps are constant linear maps, folded
    at import into one (16, 16) matrix applied to the stacked outputs.
    The raw solution is then projected onto the completely positive cone
    (negative eigenvalues clipped, trace renormalized to 1) and the
    clipped mass is kept as a quality diagnostic; more than 0.1 of
    clipped mass signals inconsistent inputs and triggers a warning.
    """
    outputs = np.array((rho_h, rho_v, rho_p, rho_r), dtype=complex)
    if outputs.shape != (4, 2, 2):
        raise ValueError(f"qpt needs four 2x2 output states, got shape {outputs.shape}")
    chi = (_CHI_FROM_OUTPUTS @ outputs.reshape(16)).reshape(4, 4)
    chi = (chi + chi.conj().T) / 2.0

    vals, vecs = np.linalg.eigh(chi)
    clipped = float(-vals[vals < 0].sum())
    vals = np.clip(vals, 0.0, None)
    chi_psd = (vecs * vals) @ vecs.conj().T
    chi_psd /= np.trace(chi_psd).real
    if clipped > 0.1:
        warnings.warn(
            f"chi reconstruction clipped {clipped:.3f} of negative mass; inputs look inconsistent",
            stacklevel=2,
        )
    return ChiMatrix(chi_psd, clipped)


def process_fidelity(a, b) -> float:
    """Uhlmann fidelity between two trace-normalized chi matrices.

    Treats the chi matrices as states on the 4-dimensional operator
    space (`state_fidelity`); equals 1 exactly when the channels coincide.
    """
    mat_a, mat_b = _chi_matrix(a), _chi_matrix(b)
    return state_fidelity(mat_a / np.trace(mat_a).real, mat_b / np.trace(mat_b).real)


def trace_preservation_residual(chi) -> float:
    """Norm of sum_{m,n} chi[m,n] E_n^dag E_m - I (zero for TP channels)."""
    acc = (_chi_matrix(chi).reshape(16) @ _CHI_TP).reshape(2, 2)
    return float(np.linalg.norm(acc - IDENTITY))
