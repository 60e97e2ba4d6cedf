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
monotone root per axis for each multiplier mu, and |s(mu)| shrinks as
mu grows.  Each root is a closed form, a square root where the axis has
a zero count and otherwise the middle root of a cubic, so only mu is
searched, by Newton from the largest corner where a zero-count axis
leaves its end point (see `qst_mle`).

Process tomography expresses a channel as

    E(rho) = sum_{m,n} chi[m, n] E_m rho E_n^dag

in the fixed operator basis (E0, E1, E2, E3) = (I, X, Y, Z), where
X = SIGMA2 (the bit flip in h/v, +1 eigenstates p/m), Y = SIGMA3
(eigenstates r/l) and Z = SIGMA1 = |h><h| - |v><v|.  With this ordering
the chi diagonal reads directly as (no error, bit flip, bit-phase flip,
phase flip) probabilities for Pauli channels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measurement import DEFAULT_SETTINGS, SETTING_PAIRS, MeasurementRecord
from .polarization import CHI_BASIS, CHOI_TO_CHI, IDENTITY, OUTPUTS_TO_CHOI, PSD_ATOL, _check_finite, _eigh, _einsum
from .polarization import _fidelity, _hermitian_average, _number_array, _real, _stokes_to_density, _trace, _unchecked

CHI_BASIS_LABELS = ("I", "X", "Y", "Z")


@dataclass(frozen=True, eq=False)
class LinearEstimate:
    """Linear-inversion state estimate: a finite 2x2 rho, and `physical`, a bool, False if it left the PSD cone."""

    rho: np.ndarray
    physical: bool

    def __post_init__(self):
        object.__setattr__(self, "rho", _number_array(self.rho, (2, 2), complex, "LinearEstimate rho"))
        if not isinstance(self.physical, bool):
            raise ValueError(f"LinearEstimate physical must be a bool, got {self.physical!r}")


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Process matrix in the (I, X, Y, Z) basis: a 4x4 matrix of finite int, float or complex entries, with the mass
    removed by CP projection (finite and >= 0)."""

    matrix: np.ndarray
    clipped_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _number_array(self.matrix, (4, 4), complex, "chi matrix"))
        clipped = _real(self.clipped_mass)
        if clipped is None or not 0.0 <= clipped < math.inf:
            raise ValueError(f"clipped_mass must be a finite number >= 0, got {self.clipped_mass!r}")
        object.__setattr__(self, "clipped_mass", clipped)

    def to_json(self) -> dict:
        return {
            "basis": list(CHI_BASIS_LABELS),
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
            "clipped_mass": float(self.clipped_mass),
        }


def _axis_counts(record: MeasurementRecord) -> list[tuple[int, int]]:
    """Per Stokes axis, the counts (a, b) of its + and - labels; every axis must have counts."""
    counts = record.counts.tolist()
    if record.settings != DEFAULT_SETTINGS:  # into DEFAULT_SETTINGS order, which lists SETTING_PAIRS pair by pair
        by_label = dict(zip(record.settings, counts))
        counts = [by_label[label] for label in DEFAULT_SETTINGS]
    h, v, p, m, r, l = counts
    axes = [(h, v), (p, m), (r, l)]
    if h + v == 0 or p + m == 0 or r + l == 0:
        plus, minus = SETTING_PAIRS[[a + b for a, b in axes].index(0)]
        raise ValueError(f"no counts in the ({plus}, {minus}) pair; Stokes estimate undefined")
    return axes


def _linear_stokes(axes) -> list[float]:
    # S = (a - b) / (a + b) per axis, in exact integers
    return [(a - b) / (a + b) for a, b in axes]


def qst_linear(record: MeasurementRecord) -> LinearEstimate:
    """Stokes estimate S_i = (a - b)/(a + b) per complementary pair of counts a, b.

    This is the interior point of `qst_mle`.  The returned matrix has
    unit trace and is Hermitian but may have a negative eigenvalue when
    counts are noisy; `physical` flags that.  The eigenvalues of rho are
    (1 +- |S|)/2, so rho is physical within PSD_ATOL exactly when
    |S| <= 1 + 2 PSD_ATOL.
    """
    s = _linear_stokes(_axis_counts(record))
    physical = s[0] * s[0] + s[1] * s[1] + s[2] * s[2] <= (1.0 + 2.0 * PSD_ATOL) ** 2
    return LinearEstimate(_stokes_to_density(s), physical)


# --- maximum likelihood ------------------------------------------------

# cap on Newton steps per root; the loops stop far earlier
_MAX_STEPS = 200

# keeps a trigonometric start inside [0, 1), so that its gap 1 - s is positive
_BELOW_ONE = math.nextafter(1.0, 0.0)

# a Newton step on an axis root ends the polish once the relative error it leaves is estimated below this
_NEWTON_DONE = 2.0**-60

# |s(mu)|**2 - 1 is rounded to a few units in the last place of its terms (see `_excess`), so Newton on mu
# wanders in that noise rather than settle; from within this much of 0, relative to the terms, one more
# step squares the error to far below the noise, and the search stops after it
_LAST_STEP_FROM = 2.0**-40


def _increasing_root(c3: float, c2: float, c1: float, c0: float, t: float) -> tuple[float, float]:
    """Root in (0, 1] of the cubic f(t) = c3 t**3 + c2 t**2 + c1 t + c0, which increases through it, and f' there.

    Newton from the guess `t`, keeping a sign bracket and bisecting only
    when a step would leave it, until the error a step leaves,
    |f''/(2 f')| step**2, is estimated below _NEWTON_DONE relative to t.
    """
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_STEPS):
        f = ((c3 * t + c2) * t + c1) * t + c0
        if f < 0.0:
            lo = t
        elif f > 0.0:
            hi = t
        else:
            break
        slope = (3.0 * c3 * t + 2.0 * c2) * t + c1
        step = -f / slope if slope > 0.0 else math.inf  # no Newton step: bisect
        new = t + step
        if new == t:
            break
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                break
            t = new
            continue
        t = new
        if abs((3.0 * c3 * t + c2) / slope) * step * step <= _NEWTON_DONE * t:
            break
    return t, (3.0 * c3 * t + 2.0 * c2) * t + c1


def _axis_root(a: int, b: int, mu: float) -> tuple[float, float, float]:
    """Maximizer s over [-1, 1] of a log(1+s) + b log(1-s) - mu s**2 for mu >= 0: (s, 1 - |s|, ds/dmu).

    The derivative F(s) = a/(1+s) - b/(1-s) - 2 mu s is strictly
    decreasing, and P(s) = (1 - s**2) F(s) = 2 mu s**3 - (2 mu + a + b) s
    + (a - b) has its sign inside the interval.  Say a >= b, so s >= 0
    (a < b mirrors it), and let u = 1 - s.  In closed form:

    * b = 0: P = (1 - s)(a - 2 mu s (1 + s)), so s is the end point 1 up
      to the corner mu = a/4, and past it
      u = (4 mu - a) / (mu (3 + sqrt(1 + 2a/mu)));
    * otherwise s is the middle of P's three real roots (P(-1) = 2a > 0 >
      -2b = P(1)), in trigonometric form, polished by Newton in the
      smaller of s and u, so that it keeps its digits: on -P(s), or near
      the pole on P(1 - u) = -2 mu u**3 + 6 mu u**2 + (a + b - 4 mu) u - 2b,
      whose coefficients do not cancel; both increase through the root.

    The derivative is ds/dmu = 2 s (1 - s**2) / P'(s); at a corner it is
    the right one, -s (1 + s) / (mu (2s + 1)) with s = 1.
    """
    sign = 1.0
    if a < b:
        a, b, sign = b, a, -1.0
    if a == b:
        return 0.0, 1.0, 0.0
    if b == 0:
        if 4.0 * mu < a:
            return sign, 0.0, 0.0
        u = (4.0 * mu - a) / (mu * (3.0 + math.sqrt(1.0 + 2.0 * a / mu)))
        s = 1.0 - u
        return sign * s, u, sign * -s * (1.0 + s) / (mu * (2.0 * s + 1.0))
    if mu == 0.0:
        s, u, slope = (a - b) / (a + b), 2 * b / (a + b), float(a + b)
    else:
        # s**3 - 3 m s + q = 0 with m = (2 mu + a + b)/(6 mu) and q = (a - b)/(2 mu): s = 2 sqrt(m) cos(phi/3 - 2 pi/3)
        m = (2.0 * mu + a + b) / (6.0 * mu)
        root_m = math.sqrt(m)
        cos_3t = (b - a) / (4.0 * mu * m * root_m)
        s = 2.0 * root_m * math.cos((math.acos(max(-1.0, cos_3t)) - 2.0 * math.pi) / 3.0)
        s = min(max(s, 0.0), _BELOW_ONE)
        if s <= 0.5:
            s, slope = _increasing_root(-2.0 * mu, 0.0, 2.0 * mu + a + b, float(b - a), s)
            u = 1.0 - s
        else:
            u, slope = _increasing_root(-2.0 * mu, 6.0 * mu, a + b - 4.0 * mu, -2.0 * b, 1.0 - s)
            s = 1.0 - u
    return sign * s, u, sign * -2.0 * s * u * (2.0 - u) / slope


def _excess(roots) -> tuple[float, float]:
    """(|s|**2 - 1, w) for the (s, 1 - |s|, ds/dmu) of the three axes, with w = 1 - s**2 of the axis nearest a pole.

    That axis enters as -w = -u (2 - u), so a Stokes vector near its pole
    keeps the digits that s**2 - 1 would cancel; the excess is the
    difference of two terms of size about w, so it is rounded to about w
    times a unit in the last place.
    """
    (_, u, _), (s1, _, _), (s2, _, _) = sorted(roots, key=lambda root: root[1])
    w = u * (2.0 - u)
    return (s1 * s1 + s2 * s2) - w, w


def _sphere_mle(axes) -> tuple[list[float], float, tuple[str, ...]]:
    """The MLE on the sphere |s| = 1 for per-axis counts (a, b): (s, mu, steps).

    The multiplier mu solves g(mu) = |s(mu)|**2 - 1 = 0, with s_i(mu)
    from `_axis_root` and g from `_excess`.  g is non-increasing, and at
    most 0 once mu >= N/2 for N counts in total.  An axis with a zero
    count sits at its end point up to its corner mu = (a + b)/4, where g
    has a kink; at every corner that axis alone gives |s|**2 >= 1, so the
    root lies at or past the largest corner, and g is smooth there.
    Newton runs from that corner (from 0 if no axis has a zero count)
    with the right derivative.  It stops when its step rounds to zero, or
    one step after |g| falls within _LAST_STEP_FROM of 0 relative to
    g's terms, and bisects only when a step would leave the bracket.  s is
    normalized at the end.

    `steps` names each multiplier iteration in turn: "newton" or "bisect"
    for a step taken, then how the search stopped: "converged" (after the
    last step), "zero step" (the Newton step rounded to zero), "root" (g
    is exactly 0) or "bracket" (no float is left strictly inside the
    bracket).
    """
    mu = max([(a + b) / 4.0 for a, b in axes if a == 0 or b == 0], default=0.0)
    lo, hi = mu, sum(a + b for a, b in axes) / 2.0
    roots = [_axis_root(a, b, mu) for a, b in axes]
    excess, width = _excess(roots)
    steps = []
    for _ in range(_MAX_STEPS):
        if excess > 0.0:
            lo = mu
        elif excess < 0.0:
            hi = mu
        else:
            steps.append("root")
            break
        slope = 2.0 * sum(s * ds for s, _, ds in roots)
        new = mu - excess / slope if slope < 0.0 else math.inf  # no Newton step: bisect
        if new == mu:
            steps.append("zero step")
            break
        if lo < new < hi:
            steps.append("newton")
        else:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                steps.append("bracket")
                break
            steps.append("bisect")
        last = steps[-1] == "newton" and abs(excess) <= _LAST_STEP_FROM * width
        mu = new
        roots = [_axis_root(a, b, mu) for a, b in axes]
        excess, width = _excess(roots)
        if last:
            steps.append("converged")
            break
    norm = math.sqrt(excess + 1.0)
    return [s / norm for s, _, _ in roots], mu, tuple(steps)


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
      Each s_i(mu) is a closed form: a square root where the axis has a
      zero count, else the middle root of a cubic in trigonometric form,
      polished by Newton.  mu is found by Newton from the largest corner
      mu = (a + b)/4 of a zero-count axis, past which |s(mu)| is smooth,
      and s is normalized at the end (see `_sphere_mle`).

    An axis whose + (or -) label has no counts sits at s_i = -1 (or +1)
    up to its corner and leaves it only as mu grows past it.  The result
    is deterministic: every iteration is a plain float loop with fixed
    stopping rules.  Raises ValueError if an axis has no counts.
    """
    axes = _axis_counts(record)
    s = _linear_stokes(axes)
    if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] <= 1.0:
        return _stokes_to_density(s)
    return _stokes_to_density(_sphere_mle(axes)[0])


# --- process tomography ------------------------------------------------


# the (h, v, p, r) outputs -> chi: the outputs' Choi matrix (OUTPUTS_TO_CHOI), read as chi (CHOI_TO_CHI)
_CHI_FROM_OUTPUTS = _einsum("mnxy,xykac->mnkac", CHOI_TO_CHI, OUTPUTS_TO_CHOI)
_CHI_FROM_OUTPUTS.flags.writeable = False


# chi -> sum_{m,n} chi[m,n] E_n^dag E_m, as [m, n, i, l] = (E_n^dag E_m)[i, l]
_CHI_TP = _einsum("nji,mjl->mnil", np.conj(CHI_BASIS), CHI_BASIS)
_CHI_TP.flags.writeable = False


def _chi_matrix(chi) -> np.ndarray:
    if isinstance(chi, ChiMatrix):
        return chi.matrix
    matrix = np.asarray(chi, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError(f"a chi matrix must be 4x4, got shape {matrix.shape}")
    return matrix


def qpt(rho_h, rho_v, rho_p, rho_r) -> ChiMatrix:
    """Process matrix from the channel outputs for the h, v, p, r inputs.

    Linearity turns the four outputs into the channel's Choi matrix, and
    chi is a constant linear map of that; the two maps are folded at
    import into one, applied to the stacked outputs by numpy's einsum kernel.
    The raw solution is then projected onto the completely positive cone
    (negative eigenvalues clipped, trace renormalized to 1) and the
    clipped mass is kept as a quality diagnostic; more than 0.1 of
    clipped mass signals inconsistent inputs and triggers a warning.
    A non-finite output entry raises ValueError before any arithmetic, and a
    projected chi without positive finite trace raises it before the division.
    """
    outputs = np.array((rho_h, rho_v, rho_p, rho_r), dtype=complex)
    if outputs.shape != (4, 2, 2):
        raise ValueError(f"qpt needs four 2x2 output states, got shape {outputs.shape}")
    _check_finite(outputs, "qpt's output states")
    vals, vecs = _eigh(_hermitian_average(_einsum("mnkac,kac->mn", _CHI_FROM_OUTPUTS, outputs)))
    # eigh sorts its eigenvalues ascending, so only the first needs a look; with nothing clipped the mass is +0.0
    clipped = float(0.0 - vals[vals < 0].sum()) if vals[0] < 0.0 else 0.0
    # np.maximum also turns a -0.0 eigenvalue into +0.0; the average makes the diagonal real (the rebuild leaves ~1e-21)
    chi_psd = _hermitian_average(_einsum("ik,k,jk->ij", vecs, np.maximum(vals, 0.0), vecs.conj()))
    trace = _trace(chi_psd)
    if not 0.0 < trace < math.inf:
        raise ValueError(f"qpt needs outputs whose chi has a positive finite trace, got trace {trace!r}")
    chi_psd /= trace
    if clipped > 0.1:
        warnings.warn(
            f"chi reconstruction clipped {clipped:.3f} of negative mass; inputs look inconsistent",
            stacklevel=2,
        )
    return _unchecked(ChiMatrix, matrix=chi_psd, clipped_mass=clipped)


def process_fidelity(a, b) -> float:
    """Uhlmann fidelity between two trace-normalized chi matrices.

    Treats the chi matrices as states on the 4-dimensional operator
    space (`state_fidelity`); equals 1 exactly when the channels coincide.
    Raises ValueError if a matrix is not 4x4, if a trace is not positive
    and finite, or if an entry is not finite.
    """
    mats = _chi_matrix(a), _chi_matrix(b)
    traces = [_trace(mat) for mat in mats]
    for trace in traces:
        if not 0.0 < trace < math.inf:
            raise ValueError(f"process_fidelity needs chi matrices of positive finite trace, got trace {trace!r}")
    for mat in mats:
        _check_finite(mat, "a chi matrix of process_fidelity")
    return _fidelity(mats[0] / traces[0], mats[1] / traces[1])


def trace_preservation_residual(chi) -> float:
    """Frobenius norm, in Python floats, of sum_{m,n} chi[m,n] E_n^dag E_m - I (zero for TP channels) of a 4x4 chi."""
    residual = _einsum("mn,mnil->il", _chi_matrix(chi), _CHI_TP) - IDENTITY
    return math.hypot(*residual.view(float).ravel().tolist())
