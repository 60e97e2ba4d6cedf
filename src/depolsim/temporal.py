"""Time-binned forward model of birefringent crystals and wave plates.

Light is tracked on a lattice of integer time bins.  A crystal delays
the component along its slow axis by an integer number of bins; wave
plates rotate every bin in place.  Tracing out the bin index at the end
gives the output polarization density matrix: amplitudes that end up in
the same bin add coherently, amplitudes in different bins add
incoherently.

The engine is linear in its input, so it propagates the 2x2 identity
once instead of one Jones vector per input.  What arrives in occupied
bin t is a Jones matrix K_t, and the induced channel is

    rho -> sum_{t,u} gamma**((t - u)**2) K_t rho K_u^dagger,

which for gamma = 0 is the Kraus form rho -> sum_t K_t rho K_t^dagger
(see `kraus_operators` and `run_scheme`).  The dict-based functions
(`initial_state`, `apply_*`, `collapse`, `collapse_with_coherence`) track
a single wave packet as {bin: (h, v) amplitude}; they are thin adapters
over the same crystal step and the same trace-out.

Conventions fixed here:

* Time is quantized to exact integer bins of the shortest walk-off, so
  bin coincidence is exact rather than float-fuzzy.  All crystal delays
  in a scheme must therefore be integer multiples of the shortest one.
* The slow axis of a crystal is the axis named by its `angle_deg`; the
  orthogonal fast axis keeps its bin.
* The common propagation phase per unit delay is omitted: all paths that
  meet in one bin share the same total delay, so it would be a global
  phase per bin (see the carrier-phase invariance test).
* Wave-plate Jones matrices, including their global phases, are
      HWP(t) = [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
      QWP(t) = R(t) diag(1, i) R(-t)
  with R(t) the real rotation matrix.  Only relative phases are
  observable, but fixing the global ones makes results bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .polarization import as_jones

# bins: map from non-negative integer bin index to complex (h, v) amplitude
TimeBinState = dict[int, np.ndarray]

CRYSTAL = "crystal"
HWP = "hwp"
QWP = "qwp"
UNITARY = "unitary"

_WAVE_PLATES = (HWP, QWP)
_KINDS = (CRYSTAL, HWP, QWP, UNITARY)

# keeps every bin index, and every sum of delays, far inside int64
MAX_DELAY_BINS = 2**31

# cross-bin pairs whose kernel weight gamma**(d*d) falls below this are dropped
KERNEL_FLOOR = 2.0**-60

# most occupied bins a propagation may hold: (B, 2, 2) Kraus operators are 64 MB at 2**20
MAX_BINS = 2**20


def _as_delay(value) -> int:
    try:
        delay = int(value)
    except (TypeError, ValueError, OverflowError):
        delay = None
    if delay is None or delay != value or not 1 <= delay <= MAX_DELAY_BINS:
        raise ValueError(f"crystal delay must be an integer in [1, {MAX_DELAY_BINS}], got {value!r}")
    return delay


@dataclass(frozen=True, eq=False)
class OpticalElement:
    """One element of a depolarizer: a crystal, a wave plate, or a unitary."""

    kind: str
    angle_deg: float = 0.0
    delay_bins: int | None = None
    unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        angle = float(self.angle_deg)
        if not math.isfinite(angle):
            raise ValueError(f"element angle must be finite, got {angle!r}")
        object.__setattr__(self, "angle_deg", angle)
        if self.kind == CRYSTAL:
            object.__setattr__(self, "delay_bins", _as_delay(self.delay_bins))
        elif self.delay_bins is not None:
            raise ValueError(f"{self.kind} elements carry no delay")
        if self.kind == UNITARY:
            u = np.asarray(self.unitary, dtype=complex)
            if u.shape != (2, 2) or not np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12:
                raise ValueError("general element requires a 2x2 unitary matrix")
            object.__setattr__(self, "unitary", u)
        elif self.unitary is not None:
            raise ValueError(f"{self.kind} elements carry no unitary matrix")


def crystal(angle_deg: float, delay_bins: int) -> OpticalElement:
    """Birefringent crystal with slow axis at `angle_deg` from horizontal."""
    return OpticalElement(CRYSTAL, angle_deg=angle_deg, delay_bins=delay_bins)


def half_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(HWP, angle_deg=angle_deg)


def quarter_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(QWP, angle_deg=angle_deg)


def unitary_element(u) -> OpticalElement:
    return OpticalElement(UNITARY, unitary=np.asarray(u, dtype=complex))


def _element_from_json(d) -> OpticalElement:
    kind = d["kind"]
    if kind == CRYSTAL:
        return crystal(d["angle_deg"], d["delay_bins"])
    if kind in _WAVE_PLATES:
        return OpticalElement(kind, angle_deg=d["angle_deg"])
    raise ValueError(f"unknown element kind {kind!r}")


@dataclass(frozen=True)
class SchemeConfig:
    """Ordered element list plus an optional residual-coherence parameter.

    `coherence` is the off-diagonal weight gamma in [0, 1) between
    adjacent time bins; gamma = 0 is the fully walked-off limit where
    bins are perfectly distinguishable.
    """

    elements: tuple[OpticalElement, ...]
    coherence: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("scheme needs at least one element")
        if not 0.0 <= self.coherence < 1.0:
            raise ValueError("coherence must lie in [0, 1)")

    def to_json(self) -> dict:
        """JSON form: {"coherence": g, "elements": [{kind, angle_deg, ...}]}."""
        elems = []
        for e in self.elements:
            if e.kind == UNITARY:
                raise ValueError("general unitary elements have no JSON form")
            d = {"kind": e.kind, "angle_deg": e.angle_deg}
            if e.kind == CRYSTAL:
                d["delay_bins"] = e.delay_bins
            elems.append(d)
        return {"coherence": self.coherence, "elements": elems}

    @classmethod
    def from_json(cls, data) -> "SchemeConfig":
        """Parse the JSON form; any malformed document raises ValueError."""
        if isinstance(data, str):
            data = json.loads(data)
        try:
            elems = tuple(_element_from_json(d) for d in data["elements"])
            coherence = float(data.get("coherence", 0.0))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed scheme JSON ({type(exc).__name__}: {exc})") from None
        return cls(elems, coherence=coherence)


def hwp_matrix(angle_deg: float) -> np.ndarray:
    t = math.radians(angle_deg)
    c, s = math.cos(2 * t), math.sin(2 * t)
    return np.array([c, s, s, -c], dtype=complex).reshape(2, 2)


def qwp_matrix(angle_deg: float) -> np.ndarray:
    # R(t) diag(1, i) R(-t), multiplied out
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    off = complex(c * s, -s * c)
    return np.array([[complex(c * c, s * s), off], [off, complex(s * s, c * c)]])


def _jones(element: OpticalElement) -> np.ndarray:
    if element.kind == HWP:
        return hwp_matrix(element.angle_deg)
    if element.kind == QWP:
        return qwp_matrix(element.angle_deg)
    return element.unitary


# The propagation state is (bins, amps): a sorted int64 array of the B
# occupied bins and a (2, B, m) complex array whose column amps[:, k, n]
# is the (h, v) amplitude in bin bins[k] of the n-th propagated column
# (m = 2 identity columns for Kraus operators, m = 1 for a dict state).


def _rotate(amps: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """Apply one 2x2 Jones matrix to every bin: a single matrix product."""
    _, n_bins, m = amps.shape
    return (jmat @ amps.reshape(2, n_bins * m)).reshape(2, n_bins, m)


def _crystal_step(bins: np.ndarray, amps: np.ndarray, axis_deg: float, delay: int):
    """Delay the slow-axis component of every bin by `delay` bins.

    The slow axis is e_s = (cos a, sin a) for axis angle a; the fast-axis
    component e_f = (-sin a, cos a) keeps its bin.  Both projections come
    from one matrix product, the slow half is shifted by `delay`, and
    amplitudes landing in the same output bin are summed (coherently).
    Bins whose amplitude is exactly zero are dropped.
    """
    a = math.radians(axis_deg)
    c, s = math.cos(a), math.sin(a)
    # rows: the fast projector e_f e_f^T, then the slow projector e_s e_s^T
    projectors = np.array(
        [s * s, -s * c, -s * c, c * c, c * c, c * s, c * s, s * s], dtype=complex
    ).reshape(4, 2)
    _, n_bins, m = amps.shape
    split = (projectors @ amps.reshape(2, n_bins * m)).reshape(2, 2, n_bins, m)
    merged = split.transpose(1, 0, 2, 3).reshape(2, 2 * n_bins, m)
    bins = np.concatenate((bins, bins + delay))
    if n_bins and delay <= bins[n_bins - 1] - bins[0]:
        # the delayed copies interleave with the occupied bins: sort, then sum equal bins
        order = np.argsort(bins, kind="stable")
        bins = bins[order]
        first = np.empty(bins.shape, dtype=bool)
        first[:1] = True
        np.not_equal(bins[1:], bins[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        bins, merged = bins[starts], np.add.reduceat(merged[:, order], starts, axis=1)
    occupied = merged.any(axis=(0, 2))
    if occupied.all():
        return bins, merged
    return bins[occupied], merged[:, occupied]


def _step(bins: np.ndarray, amps: np.ndarray, element: OpticalElement):
    if element.kind == CRYSTAL:
        return _crystal_step(bins, amps, element.angle_deg, element.delay_bins)
    return bins, _rotate(amps, _jones(element))


def _band_halfwidth(gamma: float) -> int:
    """Largest bin distance d with gamma**(d*d) >= KERNEL_FLOOR (0 at gamma = 0)."""
    if gamma == 0.0:
        return 0
    return math.isqrt(int(math.log(KERNEL_FLOOR) / math.log(gamma))) + 1


def _trace_out(bins: np.ndarray, a: np.ndarray, gamma: float) -> np.ndarray:
    """Trace out time from per-input bin amplitudes: the banded contraction.

    `a` has shape (n, B, 2), with a[n, k] the amplitude of input n in bin
    bins[k]; the result is the (n, 2, 2) stack

        rho_n = sum_{t,u} w(t - u) a_t a_u^dagger,   w(d) = gamma**(d*d),

    keeping only pairs with w(d) >= KERNEL_FLOOR = 2**-60, i.e. the band
    |d| <= `_band_halfwidth(gamma)` (only d = 0 at gamma = 0).  For a
    normalized input sum_t |a_t|**2 = 1, so by Cauchy-Schwarz the dropped
    pairs change rho by at most 2**-60 * (sum_t |a_t|)**2 <= B * 2**-60
    in spectral or Frobenius norm.  Bins are sorted and distinct, so pairs
    k positions apart are at least k bins apart and the band is covered
    by k = 1 .. halfwidth.
    """
    at = a.transpose(0, 2, 1)
    ac = a.conj()
    rho = at @ ac
    for k in range(1, min(_band_halfwidth(gamma), len(bins) - 1) + 1):
        w = gamma ** np.square(bins[k:] - bins[:-k], dtype=float)
        w[w < KERNEL_FLOOR] = 0.0
        cross = (at[:, :, :-k] * w) @ ac[:, k:]
        rho = rho + cross + cross.conj().transpose(0, 2, 1)
    return (rho + rho.conj().transpose(0, 2, 1)) / 2.0


# the starting state: the identity in bin 0 (read-only, as wave plates pass `bins` through)
_IDENTITY_BINS = np.zeros(1, dtype=np.int64)
_IDENTITY_AMPS = np.eye(2, dtype=complex).reshape(2, 1, 2)
_IDENTITY_BINS.flags.writeable = False
_IDENTITY_AMPS.flags.writeable = False


def kraus_operators(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Occupied time bins and their Kraus operators, from one propagation.

    Propagates the 2x2 identity through the element list and returns
    `(bins, ops)`: a sorted int64 array of the B occupied bins and a
    (B, 2, 2) complex array whose ops[k] is the Jones matrix K_t taking
    the input into bin t = bins[k].  The gamma = 0 channel is
    rho -> sum_t K_t rho K_t^dagger, and sum_t K_t^dagger K_t = I.

    A crystal at most doubles B, so a crystal step that could take B past
    MAX_BINS raises ValueError before it allocates anything.
    """
    bins, amps = _IDENTITY_BINS, _IDENTITY_AMPS
    for element in config.elements:
        if element.kind == CRYSTAL and 2 * len(bins) > MAX_BINS:
            raise ValueError(
                f"scheme needs more than {MAX_BINS} occupied time bins ({len(bins)} before a crystal)"
            )
        bins, amps = _step(bins, amps, element)
    return bins, np.ascontiguousarray(amps.transpose(1, 0, 2))


def run_scheme(config: SchemeConfig, j) -> np.ndarray:
    """Propagate pure inputs through the element list and trace out time.

    `j` is one normalized Jones vector (result: its (2, 2) output density
    matrix) or a (2, n) stack of them as columns (result: the (n, 2, 2)
    outputs).  The element list is propagated once for all inputs (see
    `kraus_operators`), and time is traced out with the scheme's
    coherence gamma.  Bin pairs whose weight gamma**(d*d) is below
    2**-60 are dropped, which moves the output by at most B * 2**-60
    for B occupied bins (see `_trace_out`).
    """
    j = np.asarray(j, dtype=complex)
    if j.ndim == 1:
        cols = as_jones(j)[:, None]
    elif j.ndim == 2 and j.shape[0] == 2:
        for column in j.T:
            as_jones(column)
        cols = j
    else:
        raise ValueError(f"inputs must be a Jones vector or a (2, n) stack of them, got shape {j.shape}")
    bins, ops = kraus_operators(config)
    # a[n, k] = K_{bins[k]} j_n
    a = (cols.T @ ops.reshape(2 * len(bins), 2).T).reshape(cols.shape[1], len(bins), 2)
    rho = _trace_out(bins, a, config.coherence)
    return rho[0] if j.ndim == 1 else rho


# --- single-wave-packet dict adapters over the same step and trace-out ---


def _from_state(state: TimeBinState):
    ts = sorted(state)
    amps = np.array([state[t] for t in ts], dtype=complex).reshape(len(ts), 2)
    return np.array(ts, dtype=np.int64), amps.T.reshape(2, len(ts), 1)


def _to_state(bins: np.ndarray, amps: np.ndarray) -> TimeBinState:
    return dict(zip(bins.tolist(), np.ascontiguousarray(amps[:, :, 0].T)))


def initial_state(j) -> TimeBinState:
    """All amplitude in bin 0, holding the (normalized) input Jones vector."""
    return {0: np.asarray(j, dtype=complex).reshape(2).copy()}


def total_norm(state: TimeBinState) -> float:
    return float(sum(np.vdot(a, a).real for a in state.values()))


def apply_crystal(state: TimeBinState, axis_deg: float, delay: int) -> TimeBinState:
    """Delay the slow-axis component of every bin by `delay` bins."""
    return _to_state(*_crystal_step(*_from_state(state), axis_deg, _as_delay(delay)))


def apply_waveplate(state: TimeBinState, kind: str, angle_deg: float) -> TimeBinState:
    """Multiply every bin by the wave plate's Jones matrix."""
    if kind not in _WAVE_PLATES:
        raise ValueError(f"unknown wave plate kind {kind!r}")
    return apply_element(state, OpticalElement(kind, angle_deg=angle_deg))


def apply_unitary(state: TimeBinState, u) -> TimeBinState:
    bins, amps = _from_state(state)
    return _to_state(bins, _rotate(amps, np.asarray(u, dtype=complex)))


def apply_element(state: TimeBinState, element: OpticalElement) -> TimeBinState:
    return _to_state(*_step(*_from_state(state), element))


def collapse(state: TimeBinState) -> np.ndarray:
    """Trace out the bin index: rho = sum_t |a_t><a_t| over bin amplitudes."""
    return collapse_with_coherence(state, 0.0)


def collapse_with_coherence(state: TimeBinState, gamma: float) -> np.ndarray:
    """Trace out bins keeping partial cross-bin coherence.

    rho = sum_{t,t'} K(|t - t'|) |a_t><a_t'| with the Gaussian kernel
    K(d) = gamma**(d*d), truncated where K < 2**-60 (see `_trace_out`).
    Gaussian kernels are positive definite, so the result is a valid
    state for any gamma in [0, 1); gamma = 0 is `collapse` exactly and
    gamma -> 1 restores full coherence.  Physically gamma models crystals
    short enough to leave the two wave packets partially overlapping.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    bins, amps = _from_state(state)
    return _trace_out(bins, amps.transpose(2, 1, 0), gamma)[0]
