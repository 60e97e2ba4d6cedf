"""Time-binned forward model of birefringent crystals and wave plates.

Light is tracked on a lattice of integer time bins.  A crystal delays
the component along its slow axis by an integer number of bins; wave
plates rotate every bin in place.  Tracing out the bin index at the end
gives the output polarization density matrix: amplitudes that end up in
the same bin add coherently, amplitudes in different bins add
incoherently.

The engine is linear in its input, so it propagates the 2x2 identity
once instead of one Jones vector per input.  What arrives in bin t is
a Jones matrix K_t, and the induced channel is

    rho -> sum_{t,u} gamma**((t - u)**2) K_t rho K_u^dagger,

which for gamma = 0 is the Kraus form rho -> sum_t K_t rho K_t^dagger
(see `kraus_operators` and `run_scheme`).  The dict-based functions
(`initial_state`, `apply_crystal`, `apply_element`, `collapse`,
`collapse_with_coherence`) track a single wave packet as
{bin: (h, v) amplitude}; they are thin adapters over the same crystal
step and the same trace-out.

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

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .polarization import as_jones, check_normalized

# bins: map from non-negative integer bin index to complex (h, v) amplitude
TimeBinState = dict[int, np.ndarray]

CRYSTAL = "crystal"
HWP = "hwp"
QWP = "qwp"

_KINDS = (CRYSTAL, HWP, QWP)

# keeps every bin index, and every sum of delays, far inside int64
MAX_DELAY_BINS = 2**31

# cross-bin pairs whose kernel weight gamma**(d*d) falls below this are dropped
KERNEL_FLOOR = 2.0**-60

# most bins a propagation may hold (they follow from the crystal delays alone):
# (B, 2, 2) Kraus operators are 64 MB at 2**20
MAX_BINS = 2**20

# crystal merge plans and coherent-band plans are memoized for bin arrays up to this length
# (a few kB per merge plan)
_PLAN_CACHE_BINS = 1024

# band plans are memoized only while they hold at most this many weights (32 kB of floats)
_BAND_CACHE_WEIGHTS = 2**12

# (config, bins, amps) of the last single config propagated on at most _PLAN_CACHE_BINS bins, with amps
# read-only: tomography calls run_scheme once per probe on one config object, and only the first call
# propagates.  The key is the config object itself, held so that its id cannot be reused; a single
# config is frozen, so its propagation cannot change.  At most 64 kB of amplitudes.  The entry is one
# tuple, read and replaced whole, so a thread never sees the bins of one config with another's amplitudes.
_last_propagation: tuple = (None, None, None)


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
    """One element of a depolarizer, a crystal or a wave plate; `angle_deg` may hold per-config angles."""

    kind: str
    angle_deg: float | np.ndarray = 0.0
    delay_bins: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if isinstance(self.angle_deg, np.ndarray) and self.angle_deg.ndim:
            angle = np.array(self.angle_deg, dtype=float)  # a copy: the caller's array is neither frozen nor shared
            angle.flags.writeable = False
            valid = angle.ndim == 1 and angle.size and np.isfinite(angle).all()
        else:
            angle = float(self.angle_deg)
            valid = math.isfinite(angle)
        if not valid:
            raise ValueError(f"element angle must be a finite float or a non-empty 1-D array of them, got {angle!r}")
        object.__setattr__(self, "angle_deg", angle)
        if self.kind == CRYSTAL:
            object.__setattr__(self, "delay_bins", _as_delay(self.delay_bins))
        elif self.delay_bins is not None:
            raise ValueError(f"{self.kind} elements carry no delay")


def crystal(angle_deg: float, delay_bins: int) -> OpticalElement:
    """Birefringent crystal with slow axis at `angle_deg` from horizontal."""
    return OpticalElement(CRYSTAL, angle_deg=angle_deg, delay_bins=delay_bins)


def half_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(HWP, angle_deg=angle_deg)


def quarter_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(QWP, angle_deg=angle_deg)


def _json_number(value, name: str):
    """A JSON number of a scheme document: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"scheme JSON {name} must be a number, got {type(value).__name__}")
    return value


def _element_from_json(d) -> OpticalElement:
    angle = _json_number(d["angle_deg"], "angle_deg")
    if d["kind"] == CRYSTAL:
        return crystal(angle, _json_number(d["delay_bins"], "delay_bins"))
    return OpticalElement(d["kind"], angle_deg=angle)


def _check_single(batch, consumer: str) -> None:
    if batch is not None:
        raise ValueError(f"{consumer} needs scalar angles, got a batch of {batch}")


@dataclass(frozen=True)
class SchemeConfig:
    """Ordered element list plus an optional residual-coherence parameter.

    `coherence` is the off-diagonal weight gamma in [0, 1) between
    adjacent time bins; gamma = 0 is the fully walked-off limit where
    bins are perfectly distinguishable.

    `batch` is derived, not passed: None when every angle is a float, else
    the length T that all array angles share, for T configs that differ in
    their angles only.
    """

    elements: tuple[OpticalElement, ...]
    coherence: float = 0.0
    batch: int | None = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("scheme needs at least one element")
        if not 0.0 <= self.coherence < 1.0:
            raise ValueError("coherence must lie in [0, 1)")
        lengths = {len(e.angle_deg) for e in self.elements if isinstance(e.angle_deg, np.ndarray)}
        if len(lengths) > 1:
            raise ValueError(f"array angles of one scheme must share their length, got {sorted(lengths)}")
        object.__setattr__(self, "batch", lengths.pop() if lengths else None)

    def to_json(self) -> dict:
        """JSON form: {"coherence": g, "elements": [{kind, angle_deg, ...}]}."""
        _check_single(self.batch, "to_json")
        elems = []
        for e in self.elements:
            d = {"kind": e.kind, "angle_deg": e.angle_deg}
            if e.kind == CRYSTAL:
                d["delay_bins"] = e.delay_bins
            elems.append(d)
        return {"coherence": self.coherence, "elements": elems}

    @classmethod
    def from_json(cls, data) -> "SchemeConfig":
        """Parse the JSON form, given as text or as a decoded dict; a malformed document raises ValueError.

        Angles, delays and the coherence must be JSON numbers (int or float, not bool).
        """
        try:
            if isinstance(data, str):
                data = json.loads(data)
            elems = tuple(_element_from_json(d) for d in data["elements"])
            coherence = float(_json_number(data.get("coherence", 0.0), "coherence"))
        except (KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed scheme JSON ({type(exc).__name__}: {exc})") from None
        return cls(elems, coherence=coherence)


def _hwp_entries(angle_deg: float) -> list:
    t = math.radians(angle_deg)
    c, s = math.cos(2 * t), math.sin(2 * t)
    return [c, s, s, -c]


def _qwp_entries(angle_deg: float) -> list:
    # R(t) diag(1, i) R(-t), multiplied out
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    off = complex(c * s, -s * c)
    return [complex(c * c, s * s), off, off, complex(s * s, c * c)]


def _projector_entries(axis_deg: float) -> list:
    """Row 0 of the fast projector e_f e_f^T, row 0 of the slow one e_s e_s^T, then row 1 of each."""
    a = math.radians(axis_deg)
    c, s = math.cos(a), math.sin(a)
    return [s * s, -s * c, c * c, c * s, -s * c, c * c, c * s, s * s]


_ENTRIES = {CRYSTAL: _projector_entries, HWP: _hwp_entries, QWP: _qwp_entries}


# The propagation state of T configs is (bins, amps): a sorted int64
# array of B bins, which follow from the crystal delays alone, and a
# (T, 2, B, m) complex array whose column amps[t, :, k, n] is the (h, v)
# amplitude in bin bins[k] of the n-th propagated column under config t
# (m = 2 identity columns for Kraus operators, m = 1 for a dict state).
# A bin may hold zero amplitude, as where a crystal at exactly 0 deg
# sends nothing into it.


def _element_table(elements, n_configs: int, rows: int) -> np.ndarray:
    """(len(elements), T, rows, 2) matrices of elements from one array call: crystal projectors (rows = 4)
    or wave-plate Jones matrices (rows = 2), not both.

    The entries come from the scalar entry code per angle (a float angle's
    entries are repeated), so every matrix has the bits of its single-config table.
    """
    flat = []
    for element in elements:
        entries, angle = _ENTRIES[element.kind], element.angle_deg
        if isinstance(angle, float):
            flat += entries(angle) * n_configs
        else:
            flat += [x for a in angle.tolist() for x in entries(a)]
    return np.array(flat, dtype=complex).reshape(len(elements), n_configs, rows, 2)


def _rotate(amps: np.ndarray, jmats: np.ndarray) -> np.ndarray:
    """Apply a (T, 2, 2) stack of Jones matrices, jmats[t] to every bin of config t."""
    n_configs, _, n_bins, m = amps.shape
    return (jmats @ amps.reshape(n_configs, 2, n_bins * m)).reshape(-1, 2, n_bins, m)


def _merge_plan(bins: np.ndarray, delay: int):
    """Where a crystal sends the bins: (new_bins, order, starts), read-only.

    new_bins are the sorted distinct bins of `bins` followed by
    `bins + delay`.  If the delayed copies interleave with the occupied
    bins, `order` sorts that concatenation stably and `starts` indexes the
    first entry of each run of equal bins, so np.add.reduceat sums the
    amplitudes meeting in one bin; otherwise order and starts are None.
    """
    new_bins = np.concatenate((bins, bins + delay))
    order = starts = None
    if len(bins) and delay <= bins[-1] - bins[0]:
        order = np.argsort(new_bins, kind="stable")
        new_bins = new_bins[order]
        first = np.empty(new_bins.shape, dtype=bool)
        first[:1] = True
        np.not_equal(new_bins[1:], new_bins[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        new_bins = new_bins[starts]
    for array in (new_bins, order, starts):
        if array is not None:
            array.flags.writeable = False
    return new_bins, order, starts


@functools.lru_cache(maxsize=256)
def _cached_merge_plan(bins_key: bytes, delay: int):
    # a sweep, an extraction or a tomography run meets the same bins at every angle
    return _merge_plan(np.frombuffer(bins_key, dtype=np.int64), delay)


def _crystal_step(bins: np.ndarray, amps: np.ndarray, projectors: np.ndarray, delay: int):
    """Delay the slow-axis component of every bin by `delay` bins.

    `projectors` is the (T, 4, 2) stack of per-config axis projectors (see
    `_projector_entries`): for axis angle a the slow axis is
    e_s = (cos a, sin a), and the fast-axis component e_f = (-sin a, cos a)
    keeps its bin.  Both projections come from one matrix product, the
    slow half is shifted by `delay`, and amplitudes landing in the same
    output bin are summed (coherently).  Returns (bins, amps) with every
    bin of the merge plan, even one whose amplitude is zero, so the bins
    depend on the input bins and the delay only.
    """
    n_configs, _, n_bins, m = amps.shape
    # the projector rows alternate fast and slow, so the product is laid out as (T, h or v, fast or slow, B, m)
    # and reads as (T, 2, 2B, m) with the fast bins first, without a copy
    merged = (projectors @ amps.reshape(n_configs, 2, n_bins * m)).reshape(-1, 2, 2 * n_bins, m)
    if n_bins <= _PLAN_CACHE_BINS:
        bins, order, starts = _cached_merge_plan(bins.tobytes(), delay)
    else:
        bins, order, starts = _merge_plan(bins, delay)
    if order is not None:
        merged = np.add.reduceat(merged[:, :, order], starts, axis=2)
    return bins, merged


def _band_halfwidth(gamma: float) -> int:
    """Largest bin distance d with gamma**(d*d) >= KERNEL_FLOOR (0 at gamma = 0)."""
    if gamma == 0.0:
        return 0
    return math.isqrt(int(math.log(KERNEL_FLOOR) / math.log(gamma))) + 1


def _band_plan(bins: np.ndarray, gamma: float) -> tuple:
    """The live positions of the coherent band over `bins`: a tuple of (k, w), read-only.

    w[i] = gamma**((bins[i + k] - bins[i])**2) weighs the pair of bins[i]
    and bins[i + k], set to 0 below KERNEL_FLOOR; the positions stop as
    `_trace_out` describes.
    """
    halfwidth = _band_halfwidth(gamma)
    plan = []
    for k in range(1, min(halfwidth, len(bins) - 1) + 1):
        d = bins[k:] - bins[:-k]
        if d.min() > halfwidth:
            break
        w = gamma ** np.square(d, dtype=float)
        w[w < KERNEL_FLOOR] = 0.0
        w.flags.writeable = False
        plan.append((k, w))
    return tuple(plan)


@functools.lru_cache(maxsize=256)
def _cached_band_plan(bins_key: bytes, gamma: float) -> tuple:
    """`_band_plan` for the bins of `bins_key`, memoized like merge plans.

    `_trace_out` asks here only for at most _PLAN_CACHE_BINS bins whose
    band holds at most _BAND_CACHE_WEIGHTS weights (B times the positions
    it may run), so one entry holds at most 8 kB of key, 32 kB of weights
    and 63 small arrays: about 41 kB at the worst shapes, and the 256
    entries stay below 16 MB (about 10 MB).
    """
    return _band_plan(np.frombuffer(bins_key, dtype=np.int64), gamma)


def _trace_out(bins: np.ndarray, a: np.ndarray, gamma: float) -> np.ndarray:
    """Trace out time from per-input bin amplitudes: the banded contraction.

    `a` has shape (n, B, 2), with a[n, k] the amplitude of input n in bin
    bins[k]; the result is the (n, 2, 2) stack

        rho_n = sum_{t,u} w(t - u) a_t a_u^dagger,   w(d) = gamma**(d*d),

    keeping only pairs with w(d) >= KERNEL_FLOOR = 2**-60, i.e. the band
    |d| <= `_band_halfwidth(gamma)` (only d = 0 at gamma = 0).  For a
    normalized input sum_t |a_t|**2 = 1, so by Cauchy-Schwarz the dropped
    pairs change rho by at most 2**-60 * (sum_t |a_t|)**2 <= B * 2**-60
    in spectral or Frobenius norm.

    The band runs over positions k = 1, 2, ..., pairing bins[i] with
    bins[i + k], and stops at the first k whose closest pair is beyond
    the half-width.  That keeps the same pairs, and so the same bound, as
    running every k: bins are sorted distinct integers, so
    bins[i + k + 1] - bins[i] >= bins[i + k] - bins[i] + 1, the closest
    distance grows by at least 1 per position, and no later position
    holds a pair within reach.  For the same reason k never passes the
    half-width, and no position runs at gamma = 0.  The positions and
    their weights depend on (bins, gamma) only (see `_band_plan`).
    """
    n_bins = len(bins)
    most_weights = n_bins * min(_band_halfwidth(gamma), n_bins - 1)
    if n_bins <= _PLAN_CACHE_BINS and 0 < most_weights <= _BAND_CACHE_WEIGHTS:
        plan = _cached_band_plan(bins.tobytes(), float(gamma))
    else:
        plan = _band_plan(bins, gamma)
    at = a.transpose(0, 2, 1)
    ac = a.conj()
    rho = at @ ac
    for k, w in plan:
        cross = (at[:, :, :-k] * w) @ ac[:, k:]
        rho = rho + cross + cross.conj().transpose(0, 2, 1)
    return (rho + rho.conj().transpose(0, 2, 1)) / 2.0


# the starting state: the identity in bin 0, one copy that every config of a batch broadcasts against
# (read-only, as wave plates pass `bins` through)
_IDENTITY_BINS = np.zeros(1, dtype=np.int64)
_IDENTITY_AMPS = np.eye(2, dtype=complex).reshape(1, 2, 1, 2)
_IDENTITY_BINS.flags.writeable = False
_IDENTITY_AMPS.flags.writeable = False


def _propagate(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Push the 2x2 identity through the T = `config.batch` (or 1) configs at once.

    Returns (bins, amps): the sorted bins, which follow from the crystal
    delays alone, and the (T, 2, B, 2) amplitudes.  Every config of a
    batch runs on the same bins with matrix products of the same shapes,
    so the batch is bit-identical to one call per config.

    A crystal at most doubles B, so a crystal step that could take B past
    MAX_BINS raises ValueError before it allocates anything.  The result
    for a single config on at most _PLAN_CACHE_BINS bins is kept read-only
    and returned again while the same config object comes back (see
    `_last_propagation`).
    """
    global _last_propagation
    held, bins, amps = _last_propagation
    if config is held and len(bins) <= _PLAN_CACHE_BINS:
        return bins, amps
    n_configs = config.batch or 1
    crystals = [e for e in config.elements if e.kind == CRYSTAL]
    plates = [e for e in config.elements if e.kind != CRYSTAL]
    projectors, jones = iter(_element_table(crystals, n_configs, 4)), iter(_element_table(plates, n_configs, 2))
    bins, amps = _IDENTITY_BINS, _IDENTITY_AMPS
    for element in config.elements:
        if element.kind != CRYSTAL:
            amps = _rotate(amps, next(jones))
            continue
        if 2 * len(bins) > MAX_BINS:
            raise ValueError(f"scheme needs more than {MAX_BINS} occupied time bins ({len(bins)} before a crystal)")
        bins, amps = _crystal_step(bins, amps, next(projectors), element.delay_bins)
    if config.batch is None and len(bins) <= _PLAN_CACHE_BINS:
        amps.flags.writeable = False
        _last_propagation = (config, bins, amps)
    return bins, amps


def kraus_operators(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time bins and their Kraus operators, from one propagation.

    Propagates the 2x2 identity through the element list and returns
    `(bins, ops)`: a sorted int64 array of the B bins and a (B, 2, 2)
    complex array whose ops[k] is the Jones matrix K_t taking the input
    into bin t = bins[k].  The bins are the distinct sums of subsets of
    the crystal delays and depend on no angle, so some K_t may be exactly
    zero (a crystal at exactly 0 deg sends nothing into some bins).  The
    gamma = 0 channel is rho -> sum_t K_t rho K_t^dagger, and
    sum_t K_t^dagger K_t = I.  Both arrays are fresh and writable; neither
    shares memory with a held propagation.
    Raises ValueError on a batch, or if the scheme needs more than MAX_BINS bins.
    """
    _check_single(config.batch, "kraus_operators")
    bins, amps = _propagate(config)
    return bins.copy(), amps[0].transpose(1, 0, 2).copy()


def run_scheme(config: SchemeConfig, j) -> np.ndarray:
    """Propagate pure inputs through the element list and trace out time.

    `j` is one normalized Jones vector or a (2, n) stack of them as
    columns.  The result is the (2, 2) output density matrix, or the
    (n, 2, 2) outputs for a stack, with a leading axis of length T when
    `config.batch` is T: (T, 2, 2) or (T, n, 2, 2).

    The whole batch is propagated at once for all inputs (see
    `kraus_operators`) on bins that depend on the delays only, so every
    output is bit-identical to the single call on its angles.  Time is
    traced out with the coherence gamma.  Bin pairs whose weight
    gamma**(d*d) is below 2**-60 are dropped, which moves the output by
    at most B * 2**-60 for B bins (see `_trace_out`).
    """
    j = np.asarray(j, dtype=complex)
    if j.ndim == 1:
        cols = as_jones(j)[:, None]
    elif j.ndim == 2 and j.shape[0] == 2:
        check_normalized(j)
        cols = j
    else:
        raise ValueError(f"inputs must be a Jones vector or a (2, n) stack of them, got shape {j.shape}")
    bins, amps = _propagate(config)
    n_configs, n_bins, n_inputs = amps.shape[0], len(bins), cols.shape[1]
    # ops[t, k] = K_{bins[k]} under config t, and a[t, n, k] = ops[t, k] j_n
    ops = np.ascontiguousarray(amps.transpose(0, 2, 1, 3)).reshape(n_configs, 2 * n_bins, 2)
    a = (cols.T @ ops.transpose(0, 2, 1)).reshape(n_configs * n_inputs, n_bins, 2)
    rho = _trace_out(bins, a, config.coherence).reshape(n_configs, n_inputs, 2, 2)
    if j.ndim == 1:
        rho = rho[:, 0]
    return rho if config.batch else rho[0]


# --- single-wave-packet dict adapters over the same step and trace-out ---


def _from_state(state: TimeBinState):
    ts = sorted(state)
    amps = np.array([state[t] for t in ts], dtype=complex).reshape(len(ts), 2)
    return np.array(ts, dtype=np.int64), amps.T.reshape(1, 2, len(ts), 1)


def _to_state(bins: np.ndarray, amps: np.ndarray) -> TimeBinState:
    """The dict of the bins whose amplitude is not all zero: a dict state is a sparse map."""
    rows = amps[0, :, :, 0].T
    live = rows.any(axis=1)
    return dict(zip(bins[live].tolist(), rows[live]))


def initial_state(j) -> TimeBinState:
    """All amplitude in bin 0, holding the (normalized) input Jones vector."""
    return {0: np.asarray(j, dtype=complex).reshape(2).copy()}


def apply_crystal(state: TimeBinState, axis_deg: float, delay: int) -> TimeBinState:
    """Delay the slow-axis component of every bin by `delay` bins."""
    return apply_element(state, crystal(axis_deg, delay))


def apply_element(state: TimeBinState, element: OpticalElement) -> TimeBinState:
    if isinstance(element.angle_deg, np.ndarray):
        _check_single(len(element.angle_deg), "apply_element")
    bins, amps = _from_state(state)
    if element.kind == CRYSTAL:
        bins, amps = _crystal_step(bins, amps, _element_table([element], 1, 4)[0], element.delay_bins)
    else:
        amps = _rotate(amps, _element_table([element], 1, 2)[0])
    return _to_state(bins, amps)


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
    return _trace_out(bins, amps[0].transpose(2, 1, 0), gamma)[0]
