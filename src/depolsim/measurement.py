"""Projective polarization measurements with finite count statistics.

Measurements follow the six-setting scheme (h, v, p, m, r, l): each
setting is an independent acquisition window, so counts are Poisson
with mean shots * tr(rho P).  The over-complete set over-determines the
state, which conditions the maximum-likelihood reconstruction well.  A
record holds each of the six settings exactly once, in any order.

Counts are drawn from numpy's PCG64 generator so that a record is fully
reproducible from (state, shots, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import IDENTITY, SIGMAS, _as_integer, _check_finite, _numbers, _one_state, _unchecked

DEFAULT_SETTINGS = ("h", "v", "p", "m", "r", "l")

# complementary projector pairs; each pair resolves one Stokes component
SETTING_PAIRS = (("h", "v"), ("p", "m"), ("r", "l"))

# label -> (Stokes axis, eigenvalue); projector is (I + sign * SIGMA_axis) / 2,
# exactly the rank-1 projector onto the named basis state
_LABEL_AXIS = {label: (axis, sign) for axis, pair in enumerate(SETTING_PAIRS) for label, sign in zip(pair, (1, -1))}


def _as_counts(values) -> np.ndarray:
    """`values` as a read-only int64 copy: by `_numbers`' rule int or float entries, not a bool, and each one
    integral."""
    try:
        counts = _numbers(values, "iuf")
    except ValueError as exc:
        raise ValueError(f"counts must be integers, {exc}") from None
    with np.errstate(invalid="ignore"):  # a NaN, inf or out-of-range value casts to garbage, which the test rejects
        as_int = counts.astype(np.int64)
    if not (as_int == counts).all():
        raise ValueError(f"counts must be integers, got {counts!r}")
    as_int.setflags(write=False)
    return as_int


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Raw counts of the six projector settings, a tuple or list holding each label exactly once in any order, with
    integral shots >= 1 and seed >= 0, as `sample_counts` takes them."""

    settings: tuple[str, ...]
    counts: np.ndarray
    shots: int
    seed: int

    def __post_init__(self):
        settings = tuple(self.settings) if isinstance(self.settings, (tuple, list)) else None
        if settings is None or (settings != DEFAULT_SETTINGS and not (
            len(settings) == len(_LABEL_AXIS)
            and all(isinstance(label, str) for label in settings)
            and set(settings) == _LABEL_AXIS.keys()
        )):
            raise ValueError(f"settings must be the six labels h, v, p, m, r, l once each, got {self.settings!r}")
        object.__setattr__(self, "settings", settings)
        counts = _as_counts(self.counts)
        if counts.shape != (len(self.settings),):
            raise ValueError("need exactly one count per setting")
        if min(counts.tolist()) < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", _as_integer(self.shots, "shots", 1))
        object.__setattr__(self, "seed", _as_integer(self.seed, "seed", 0))

    def count(self, label: str) -> int:
        """Counts of the setting `label`."""
        return int(self.counts[self.settings.index(label)])


def projector(label: str) -> np.ndarray:
    """Rank-1 projector onto the named basis state (h, v, p, m, r or l)."""
    if label not in _LABEL_AXIS:
        raise ValueError(f"unknown projector label {label!r}")
    axis, sign = _LABEL_AXIS[label]
    return (IDENTITY + sign * SIGMAS[axis]) / 2.0


def probabilities(rho) -> np.ndarray:
    """Born-rule probabilities tr(rho P_j) of one 2x2 matrix, in DEFAULT_SETTINGS order (`_entry_probabilities`)."""
    return np.array(_entry_probabilities(*_one_state(rho).ravel().tolist()))


def _entry_probabilities(a: complex, b: complex, c: complex, d: complex) -> list[float]:
    """The six probabilities tr(rho P_j) of the matrix [[a, b], [c, d]], read off its entries in Python floats.

    These are the operations, in the same order, that the products rho P_j
    make on the projectors' entries 1, +-0.5 and +-0.5i, so that a finite
    value has their bits: with x' = x * 0.5, p_h = Re a, p_v = Re d,
    p_p = (a' + b') + (c' + d') and p_m = (a' - b') + (d' - c') on real
    parts, p_r = (Re a' - Im b') + (Im c' + Re d') and p_l = (Re a' +
    Im b') + (Re d' - Im c'), each clamped to [0, 1].  Only the sign of a
    zero can differ, which no count carries.
    """
    a_re, d_re = a.real * 0.5, d.real * 0.5
    b_re, b_im, c_re, c_im = b.real * 0.5, b.imag * 0.5, c.real * 0.5, c.imag * 0.5
    p = (a.real, d.real, (a_re + b_re) + (c_re + d_re), (a_re - b_re) + (d_re - c_re),
         (a_re - b_im) + (c_im + d_re), (a_re + b_im) + (d_re - c_im))
    return [0.0 if x < 0.0 else (1.0 if x > 1.0 else x) for x in p]


def sample_counts(rho, shots: int, seed: int, exact: bool = False) -> MeasurementRecord:
    """Simulate photon counting: Poisson counts with mean shots * p_j, in DEFAULT_SETTINGS order.

    With ``exact=True`` the Poisson draw is skipped and counts are
    round(shots * p_j), the deterministic noiseless limit; the seed is
    stored but unused.  Identical inputs and seed give identical records.
    Raises ValueError if `shots` is not an integer >= 1, if `seed` is not
    an integer >= 0 (in either mode), if `rho` is not one finite 2x2
    matrix, or if a mean count shots * p_j does not fit in int64.

    The means are ``shots * probabilities(rho)``, kept in Python floats
    (`_entry_probabilities` on rho's four entries) with no array set-up.
    """
    shots, seed = _as_integer(shots, "shots", 1), _as_integer(seed, "seed", 0)
    entries = _check_finite(_one_state(rho), "the state rho")
    try:
        scale = float(shots)  # as numpy's product converts a Python int: rounded to nearest
    except OverflowError:  # past the float range every nonzero mean is inf, and a zero one NaN: both fail below
        scale = math.inf
    means = [scale * p for p in _entry_probabilities(*entries)]
    if not all(mean < 2.0**63 for mean in means):  # a NaN mean fails the test too
        raise ValueError(f"shots = {shots!r} gives mean counts beyond the int64 range")
    if exact:
        counts = list(map(round, means))  # round half to even, as np.rint
    else:
        # one scalar draw per setting, in order: the stream of one array call, without its array checks
        counts = list(map(np.random.Generator(np.random.PCG64(seed)).poisson, means))
    counts = np.array(counts, dtype=np.int64)
    return _unchecked(MeasurementRecord, settings=DEFAULT_SETTINGS, counts=counts, shots=shots, seed=seed)
