"""Projective polarization measurements with finite count statistics.

Measurements follow the six-setting scheme (h, v, p, m, r, l): each
setting is an independent acquisition window, so counts are Poisson
with mean shots * tr(rho P).  The over-complete set over-determines the
state, which conditions the maximum-likelihood reconstruction well.

Counts are drawn from numpy's PCG64 generator so that a record is fully
reproducible from (state, settings, shots, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .polarization import IDENTITY, SIGMAS

DEFAULT_SETTINGS = ("h", "v", "p", "m", "r", "l")

# complementary projector pairs; each pair resolves one Stokes component
SETTING_PAIRS = (("h", "v"), ("p", "m"), ("r", "l"))

# label -> (Stokes axis, eigenvalue); projector is (I + sign * SIGMA_axis) / 2,
# exactly the rank-1 projector onto the named basis state
_LABEL_AXIS = {"h": (0, 1), "v": (0, -1), "p": (1, 1), "m": (1, -1), "r": (2, 1), "l": (2, -1)}


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Raw counts for a list of projector settings."""

    settings: tuple[str, ...]
    counts: np.ndarray
    shots: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.settings),):
            raise ValueError("need exactly one count per setting")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        if self.shots < 1:
            raise ValueError("shots must be >= 1")

    def count(self, label: str) -> int:
        """Counts of `label`, summed over every setting that repeats it."""
        if label not in self.settings:
            raise ValueError(f"record has no {label!r} setting")
        return int(sum(n for lbl, n in zip(self.settings, self.counts.tolist()) if lbl == label))

    def to_json(self) -> dict:
        return {
            "settings": list(self.settings),
            "counts": [int(c) for c in self.counts],
            "shots": int(self.shots),
            "seed": int(self.seed),
        }

    @classmethod
    def from_json(cls, data) -> "MeasurementRecord":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            tuple(data["settings"]),
            np.array(data["counts"], dtype=np.int64),
            int(data["shots"]),
            int(data["seed"]),
        )


def projector(label: str) -> np.ndarray:
    """Rank-1 projector onto the named basis state (h, v, p, m, r or l)."""
    if label not in _LABEL_AXIS:
        raise ValueError(f"unknown projector label {label!r}")
    axis, sign = _LABEL_AXIS[label]
    return (IDENTITY + sign * SIGMAS[axis]) / 2.0


# the six projectors as one read-only (6, 2, 2) stack, in DEFAULT_SETTINGS order
_PROJECTORS = np.stack([projector(label) for label in DEFAULT_SETTINGS])
_PROJECTORS.flags.writeable = False
_PROJECTOR_INDEX = {label: k for k, label in enumerate(DEFAULT_SETTINGS)}


def probabilities(rho, settings=DEFAULT_SETTINGS) -> np.ndarray:
    """Born-rule probabilities tr(rho P_j) for each setting, from one stacked product."""
    rho = np.asarray(rho, dtype=complex)
    try:
        index = [_PROJECTOR_INDEX[label] for label in settings]
    except KeyError as exc:
        raise ValueError(f"unknown projector label {exc.args[0]!r}") from None
    products = rho @ _PROJECTORS
    p = (products[:, 0, 0] + products[:, 1, 1]).real[index]
    return np.clip(p, 0.0, 1.0)


def sample_counts(rho, shots: int, seed: int, settings=DEFAULT_SETTINGS, exact: bool = False) -> MeasurementRecord:
    """Simulate photon counting: Poisson counts with mean shots * p_j.

    With ``exact=True`` the Poisson draw is skipped and counts are
    round(shots * p_j), the deterministic noiseless limit; the seed is
    stored but unused.  Identical inputs and seed give identical records.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = probabilities(rho, settings)
    if exact:
        counts = np.rint(shots * p).astype(np.int64)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        counts = rng.poisson(shots * p).astype(np.int64)
    return MeasurementRecord(tuple(settings), counts, int(shots), int(seed))
