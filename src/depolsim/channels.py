"""Depolarizer scheme builders and their affine Stokes-space channel maps.

Every element sequence induces a quantum channel on the qubit; on the
Poincare sphere that channel acts as an affine map s -> M s + b which
sends the unit sphere to an ellipsoid.  This module builds the standard
crystal-based depolarizer assemblies, reads their (M, b) maps and chi
matrices off the engine's Choi matrix, and gives closed-form cross-checks.

Scheme summary (theta is the tuning angle, in degrees):

* ``single_crystal(phi)``: one crystal; projects the Stokes vector onto
  the axis u = (cos 2*phi, sin 2*phi, 0).
* ``lyot``: crystal + twice-as-long crystal at 45 deg; two perpendicular
  projections, so every input ends at the sphere center.
* ``scheme1(theta)``: two equal crystals, perpendicular at theta = 0,
  with the first one effectively rotated by theta via a pair of
  half-wave plates.  Continuously tunable and generally anisotropic.
* ``scheme2(theta)``: two perpendicular equal crystals with a
  quarter-wave plate at theta between them.  The output DOP depends on
  the input only through S1 (see ``analytic_scheme2_dop``).
* ``scheme3(theta)``: scheme 2 with the second crystal doubled, which
  appends one more S1 projection and extends the reachable DOP down to
  zero (a Lyot depolarizer at theta = 45 deg).
* ``isotropic_triple(theta)``: three two-crystal units with delays
  (1,1), (3,3), (9,9) addressing the three Stokes axes; an isotropic
  channel with shrink factor |cos 2*theta| * cos(theta)**4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import CHOI_TO_CHI, CHOI_TO_PTM, OUTPUTS_TO_CHOI, _einsum, _hermitian_average, _number_array
from .polarization import _real, _trace, _unchecked
from .temporal import SchemeConfig, _check_single, _choi, crystal, half_wave, quarter_wave
from .tomography import ChiMatrix

SCHEME_NAMES = (
    "scheme1",
    "scheme2",
    "scheme3",
    "lyot",
    "single_crystal",
    "isotropic_triple",
)

ISOTROPIC_POINT_DEG = float(np.degrees(np.arctan(np.sqrt(2.0))))  # 54.7356...
ISOTROPY_TOL = 1e-6  # of `isotropy_report`


@dataclass(frozen=True, eq=False)
class StokesChannel:
    """Affine map s -> m @ s + b on Stokes space: m a 3x3 and b a 3-vector of finite int or float entries."""

    m: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _number_array(self.m, (3, 3), float, "StokesChannel m"))
        object.__setattr__(self, "b", _number_array(self.b, (3,), float, "StokesChannel b"))

    def apply(self, s) -> np.ndarray:
        """m @ s + b of one Stokes vector, or of each row of an (n, 3) stack, by numpy's einsum kernel (no BLAS)."""
        return _einsum("...j,ij->...i", np.asarray(s, dtype=float), self.m) + self.b

    def to_json(self) -> dict:
        return {"m": self.m.tolist(), "b": self.b.tolist()}


def s1_projection_channel() -> StokesChannel:
    return StokesChannel(np.diag([1.0, 0.0, 0.0]), np.zeros(3))


def compose(outer: StokesChannel, inner: StokesChannel) -> StokesChannel:
    """Channel applying `inner` first, then `outer`: m by numpy's einsum kernel, and b = outer.apply(inner.b)."""
    return StokesChannel(_einsum("ij,jk->ik", outer.m, inner.m), outer.apply(inner.b))


# the named schemes' fixed elements, built once: elements are frozen, so every config shares them
_CRYSTAL_0_1, _CRYSTAL_90_1, _CRYSTAL_45_2 = crystal(0.0, 1), crystal(90.0, 1), crystal(45.0, 2)
_CRYSTAL_90_2, _CRYSTAL_45_3, _CRYSTAL_0_9 = crystal(90.0, 2), crystal(45.0, 3), crystal(0.0, 9)
_QWP_45 = quarter_wave(45.0)


def scheme1_elements(theta_deg: float):
    """Half-wave-plate sandwich realizing an effective first-crystal rotation.

    Counter-rotating the plates by theta/2 is equivalent (after the trace
    over time bins) to rotating the first crystal by theta; see
    ``scheme1_rotated_crystal`` for the equivalent direct construction.
    """
    return (
        half_wave(theta_deg / 2.0),
        _CRYSTAL_0_1,
        half_wave(-theta_deg / 2.0),
        _CRYSTAL_90_1,
    )


def scheme1_rotated_crystal(theta_deg: float) -> SchemeConfig:
    """Rotated-crystal form of scheme 1: [crystal(theta, 1), crystal(90, 1)]."""
    return SchemeConfig((crystal(theta_deg, 1), _CRYSTAL_90_1))


def isotropic_triple_elements(theta_deg: float):
    """Three two-crystal units of delays (1,1), (3,3), (9,9) plus one QWP.

    The 1:3:9 delays keep the units on disjoint time-bin classes, so the
    composite channel is the product of the three unit channels.  Unit 2
    sits at 45 deg so it addresses S2, and the quarter-wave plate at
    45 deg swaps S1 and S3 so unit 3 addresses S3.  Units 2 and 3 are
    tuned on their second crystal: that places each unit's residual
    in-plane rotation where it cannot misalign the next unit's axis, and
    the product then shrinks all three Stokes axes by the same factor
    |cos 2*theta| * cos(theta)**4 at every theta.
    """
    unit1 = scheme1_elements(theta_deg)
    unit2 = (_CRYSTAL_45_3, crystal(135.0 + theta_deg, 3))
    unit3 = (_CRYSTAL_0_9, crystal(90.0 + theta_deg, 9))
    return unit1 + unit2 + (_QWP_45,) + unit3


def build_scheme(kind: str, angle_deg: float | np.ndarray | None = None, coherence: float = 0.0) -> SchemeConfig:
    """Element list for a named depolarizer scheme.

    `angle_deg` is the tuning angle (crystal axis for ``single_crystal``,
    wave-plate or effective rotation angle for the others); ``lyot``
    takes none and ignores one.  A 1-D array of T angles gives a config
    with ``batch`` T (the elements check the angles).
    """
    if kind not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme {kind!r}; expected one of {SCHEME_NAMES}")
    if kind == "lyot":
        elements = (_CRYSTAL_0_1, _CRYSTAL_45_2)
    else:
        if angle_deg is None:
            raise ValueError(f"scheme {kind!r} requires an angle")
        theta = angle_deg if isinstance(angle_deg, np.ndarray) else _real(angle_deg)
        if theta is None:
            raise ValueError(f"scheme {kind!r} needs a number of degrees or a 1-D array of them, got {angle_deg!r}")
        if kind == "scheme1":
            elements = scheme1_elements(theta)
        elif kind == "scheme2":
            elements = (_CRYSTAL_0_1, quarter_wave(theta), _CRYSTAL_90_1)
        elif kind == "scheme3":
            elements = (_CRYSTAL_0_1, quarter_wave(theta), _CRYSTAL_90_2)
        elif kind == "single_crystal":
            elements = (crystal(theta, 1),)
        else:
            elements = isotropic_triple_elements(theta)
    return SchemeConfig(elements, coherence=coherence)


# the four inputs whose outputs fix a qubit channel, in the argument order of
# `affine_from_outputs` and `tomography.qpt`
PROBE_LABELS = ("h", "v", "p", "r")


def _affine_from_choi(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, b) = (R[1:, 1:], R[1:, 0]) of the Pauli transfer matrix R of a C-contiguous Choi matrix, M C-contiguous."""
    r = _einsum("ijxy,xy->ij", CHOI_TO_PTM, s.view(float))
    return np.ascontiguousarray(r[1:, 1:]), r[1:, 0]


def affine_from_outputs(rho_h, rho_v, rho_p, rho_r) -> StokesChannel:
    """Affine Stokes map of a channel from its outputs for the h, v, p, r inputs, which fix it by linearity."""
    outputs = np.array((rho_h, rho_v, rho_p, rho_r), dtype=complex)
    if outputs.shape != (4, 2, 2):
        raise ValueError(f"affine_from_outputs needs four 2x2 output states, got shape {outputs.shape}")
    return StokesChannel(*_affine_from_choi(_einsum("xykac,kac->xy", OUTPUTS_TO_CHOI, outputs)))


def extract_channel(config: SchemeConfig) -> StokesChannel:
    """Affine Stokes map of a single scheme, read from its Choi matrix: S is finite, so the map is not checked again."""
    _check_single(config.batch, "extract_channel")
    m, b = _affine_from_choi(_choi(config)[0])
    return _unchecked(StokesChannel, m=m, b=b)


def extract_chi(config: SchemeConfig) -> ChiMatrix:
    """Chi matrix of a single scheme, read from its Choi matrix, Hermitian-averaged: PSD as S is, nothing is clipped."""
    _check_single(config.batch, "extract_chi")
    chi = _hermitian_average(_einsum("mnxy,xy->mn", CHOI_TO_CHI, _choi(config)[0]))
    return _unchecked(ChiMatrix, matrix=chi, clipped_mass=0.0)


def analytic_scheme2_dop(theta_deg: float, s1: float) -> float:
    """Closed-form output DOP of scheme 2 for quarter-wave angle theta.

    D^2 = (19/8 + 3/2 cos 4t + 1/8 cos 8t) / 4
        + (s1^2 / 4) (-7/8 + 1/2 cos 4t + 3/8 cos 8t)

    depends on the input only through S1; all inputs sharing |S1| are
    depolarized identically.  A theta or s1 that is no finite number, a
    bool or a string among them, raises ValueError.
    """
    theta = _real(theta_deg)
    if theta is None or not math.isfinite(theta):
        raise ValueError(f"theta must be a finite number of degrees, got {theta_deg!r}")
    s = _real(s1)
    if s is None or not abs(s) <= 1.0 + 1e-12:
        raise ValueError(f"s1 must be a number with |s1| <= 1, got {s1!r}")
    t = np.deg2rad(theta)
    c4, c8 = np.cos(4 * t), np.cos(8 * t)
    d2 = 0.25 * (19.0 / 8.0 + 1.5 * c4 + 0.125 * c8)
    d2 += (s * s / 4.0) * (-7.0 / 8.0 + 0.5 * c4 + 0.375 * c8)
    return float(np.sqrt(max(d2, 0.0)))


def mutually_unbiased_triad(s1_target: float):
    """Three unit Stokes vectors with equal S1, symmetric about the S1 axis.

    The vectors sit on a cone around the S1 axis at azimuths 0, 120 and
    240 degrees in the S2/S3 plane, so their pairwise dot products are
    all (3*s1^2 - 1)/2.  At s1 = +-1/sqrt(3) they are exactly pairwise
    orthogonal, i.e. the corresponding qubit bases are mutually unbiased;
    that is the only |s1| where an equal-S1 orthogonal triad exists,
    because the squared first components of any orthonormal triad sum
    to 1.  Any other s1, or one that is no number (a bool or a string),
    raises ValueError.
    """
    s1 = _real(s1_target)
    limit = 1.0 / np.sqrt(3.0)
    if s1 is None or not abs(s1) <= limit + 1e-12:
        raise ValueError(f"s1 must be a number with |s1| <= 1/sqrt(3), for which a triad exists, got {s1_target!r}")
    r = np.sqrt(max(1.0 - s1 * s1, 0.0))
    triad = []
    for k in range(3):
        az = 2.0 * np.pi * k / 3.0
        triad.append(np.array([s1, r * np.cos(az), r * np.sin(az)]))
    return triad


def isotropy_report(channel: StokesChannel) -> tuple[bool, float]:
    """Whether a channel is an isotropic shrink, and its shrink factor.

    Isotropic means b = 0 and M^T M = lambda^2 I within ISOTROPY_TOL: the sphere
    maps to a smaller sphere of radius lambda, possibly rotated.
    Returns (is_isotropic, lambda); the trace, the diagonal's lambda^2 and the norms are Python floats, so an M^T M
    that overflows to inf gives (False, inf) without a floating-point warning.
    """
    mtm = _einsum("ji,jk->ik", channel.m, channel.m)
    lam2 = _trace(mtm) / 3.0
    rows = mtm.tolist()
    for i in range(3):
        rows[i][i] -= lam2
    residual = math.hypot(*rows[0], *rows[1], *rows[2]) + math.hypot(*channel.b.tolist())
    return residual < ISOTROPY_TOL, math.sqrt(max(lam2, 0.0))
