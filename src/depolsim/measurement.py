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

import cmath
import json
from dataclasses import dataclass

import numpy as np

from .polarization import IDENTITY, SIGMAS, _as_integer, _has_bool

DEFAULT_SETTINGS = ("h", "v", "p", "m", "r", "l")

# complementary projector pairs; each pair resolves one Stokes component
SETTING_PAIRS = (("h", "v"), ("p", "m"), ("r", "l"))

# label -> (Stokes axis, eigenvalue); projector is (I + sign * SIGMA_axis) / 2,
# exactly the rank-1 projector onto the named basis state
_LABEL_AXIS = {label: (axis, sign) for axis, pair in enumerate(SETTING_PAIRS) for label, sign in zip(pair, (1, -1))}


def _as_counts(values) -> np.ndarray:
    """`values` as int64 counts: an int64 array as it is, anything else only if every value is integral."""
    counts = np.asarray(values)
    if counts.dtype == np.int64:
        return counts
    try:
        with np.errstate(invalid="ignore"):  # a NaN, inf or out-of-range value casts to garbage, which the test rejects
            as_int = counts.astype(np.int64)
        integral = bool((as_int == counts).all())
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"counts must be integers, got {counts!r}")
    return as_int


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Raw counts of the six projector settings, each label exactly once in any order, with integral shots >= 1
    and seed >= 0, as `sample_counts` takes them."""

    settings: tuple[str, ...]
    counts: np.ndarray
    shots: int
    seed: int

    def __post_init__(self):
        settings = tuple(self.settings)
        if settings != DEFAULT_SETTINGS and not (
            len(settings) == len(_LABEL_AXIS)
            and all(isinstance(label, str) for label in settings)
            and set(settings) == _LABEL_AXIS.keys()
        ):
            raise ValueError(f"settings must be the six labels h, v, p, m, r, l once each, got {settings!r}")
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

    def to_json(self) -> dict:
        return {
            "settings": list(self.settings),
            "counts": [int(c) for c in self.counts],
            "shots": int(self.shots),
            "seed": int(self.seed),
        }

    @classmethod
    def from_json(cls, data) -> "MeasurementRecord":
        """Parse the JSON form, given as text or as a decoded dict; a malformed document raises ValueError.

        JSON true and false are refused as counts, shots and seed.
        """
        try:
            if isinstance(data, str):
                data = json.loads(data)
            counts, shots, seed = data["counts"], data["shots"], data["seed"]
            if _has_bool([counts, shots, seed]):
                raise ValueError("measurement record JSON counts, shots and seed must be numbers, not true or false")
            return cls(tuple(data["settings"]), np.array(counts), shots, seed)
        except (KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed measurement record JSON ({type(exc).__name__}: {exc})") from None


def projector(label: str) -> np.ndarray:
    """Rank-1 projector onto the named basis state (h, v, p, m, r or l)."""
    if label not in _LABEL_AXIS:
        raise ValueError(f"unknown projector label {label!r}")
    axis, sign = _LABEL_AXIS[label]
    return (IDENTITY + sign * SIGMAS[axis]) / 2.0


# the six projectors as one read-only (6, 2, 2) stack, in DEFAULT_SETTINGS order
_PROJECTORS = np.stack([projector(label) for label in DEFAULT_SETTINGS])
_PROJECTORS.flags.writeable = False


def probabilities(rho) -> np.ndarray:
    """Born-rule probabilities tr(rho P_j) of the six settings in DEFAULT_SETTINGS order, from one stacked product."""
    products = np.asarray(rho, dtype=complex) @ _PROJECTORS
    # np.clip's bits, -0.0 and NaN included, without its Python-level wrapper: the bound goes first
    return np.minimum(np.maximum(0.0, (products[:, 0, 0] + products[:, 1, 1]).real), 1.0)


def sample_counts(rho, shots: int, seed: int, exact: bool = False) -> MeasurementRecord:
    """Simulate photon counting: Poisson counts with mean shots * p_j, in DEFAULT_SETTINGS order.

    With ``exact=True`` the Poisson draw is skipped and counts are
    round(shots * p_j), the deterministic noiseless limit; the seed is
    stored but unused.  Identical inputs and seed give identical records.
    Raises ValueError if `shots` is not an integer >= 1, if `seed` is not
    an integer >= 0 (in either mode), if `rho` is not finite, or if a mean
    count shots * p_j does not fit in int64.
    """
    shots, seed = _as_integer(shots, "shots", 1), _as_integer(seed, "seed", 0)
    rho = np.asarray(rho, dtype=complex)
    if not all(map(cmath.isfinite, rho.ravel().tolist())):
        raise ValueError(f"the state rho must be finite, got {rho!r}")
    means = shots * probabilities(rho)
    mean_list = means.tolist()
    if not all(mean < 2.0**63 for mean in mean_list):  # a NaN mean fails the test too
        raise ValueError(f"shots = {shots!r} gives mean counts beyond the int64 range")
    if exact:
        counts = np.rint(means).astype(np.int64)
    else:
        # one scalar draw per setting, in order: the stream of one array call, without its array checks
        rng = np.random.Generator(np.random.PCG64(seed))
        counts = np.array(list(map(rng.poisson, mean_list)), dtype=np.int64)
    return MeasurementRecord(DEFAULT_SETTINGS, counts, shots, seed)
