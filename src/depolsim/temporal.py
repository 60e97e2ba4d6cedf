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
(see `kraus_operators`).  Time is traced out once per config, into the
4x4 Choi matrix that `run_scheme` and `channels.extract_channel` read.
Every product runs numpy's einsum kernel, never a BLAS call or a
SIMD-dispatched complex multiply, and every band weight is a libm `pow`,
so no output bit depends on the host's BLAS kernel or CPU features.  The
kernel is bound once (`polarization._einsum`) and called directly: on
these few-dozen-entry products `np.einsum`'s Python dispatch around the
same kernel would be about a quarter of each call, and skipping it
changes no byte.  The dict-based
functions (`initial_state`, `apply_crystal`, `apply_element`, `collapse`,
`collapse_with_coherence`) track a single wave packet as {bin: (h, v)
amplitude}; they are thin adapters over the same crystal step and trace-out.

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

from .polarization import _as_integer, _einsum, _hermitian_average, _real, check_normalized

# bins: map from integer bin index in [0, 2**62] to complex (h, v) amplitude
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

# most bins all crystal steps of a propagation may handle together, each step counting the bins it starts
# from: a step costs time in its bins, so a stack of n short crystals costs n**2 / 2 (4000 delay-1 crystals
# handle 8.0e6 bins in about a second)
MAX_TOTAL_BINS = 2**23

# most bin pairs the coherent band may hold: the trace-out gathers about 167 bytes per pair, 350 MB at 2**21
# (12 crystals of delays 2**k at gamma = 0.9999 pair 2.4e6 bins, 13 of them 5.1e6)
MAX_BAND_PAIRS = 2**21

# most bit positions the up-front bin count of `_merges` may shift, a few ms of big-int work
_COUNT_WORK = 2**24

# the plan memo (`_cached_plan`) takes at most log2 of this = 10 crystals, so at most 1024 bins; 0 turns it off
_PLAN_CACHE_BINS = 1024

# ... and only while the band plan may hold at most this many pairs (64 kB of indices and weights)
_BAND_CACHE_PAIRS = 2**11

# numpy's complex128 divide promotes the 2.0 of `rho /= 2.0` to this; a complex divisor keeps Python on its
# complex-by-complex division in Smith's form too, whatever its rules for a float divisor
_TWO = complex(2.0, 0.0)


@dataclass(frozen=True, eq=False)
class OpticalElement:
    """One element of a depolarizer, a crystal or a wave plate; `angle_deg` may hold per-config angles.

    An element computes its matrix once, from its angle: a read-only
    (T, rows, 2) complex array, with T = 1 for a float angle, holding the
    crystal's axis projectors (rows = 4, see `_projector_entries`) or the
    plate's Jones matrix (rows = 2).  A single matrix broadcasts against
    every config of a batch.
    """

    kind: str
    angle_deg: float | np.ndarray = 0.0
    delay_bins: int | None = None
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        angle = self.angle_deg
        if type(angle) is float:  # as the scheme builders pass it: kept as it is
            valid = math.isfinite(angle)
        elif isinstance(angle, np.ndarray) and angle.ndim:
            # of int or float entries: numpy would parse an array of numeric strings
            valid = angle.dtype.kind in "iuf" and angle.ndim == 1 and angle.size and np.isfinite(angle).all()
            if valid:
                angle = np.array(angle, dtype=float)  # a copy: the caller's array is neither frozen nor shared
                angle.setflags(write=False)
        else:
            angle = _real(angle)  # None for a bool, a string, or an int past the float range
            valid = angle is not None and math.isfinite(angle)
        if not valid:
            raise ValueError(
                f"element angle must be a finite float or a non-empty 1-D array of them, got {self.angle_deg!r}")
        if angle is not self.angle_deg:
            object.__setattr__(self, "angle_deg", angle)
        if self.kind == CRYSTAL:
            delay = self.delay_bins
            if type(delay) is not int or not 1 <= delay <= MAX_DELAY_BINS:  # an int in range is kept as it is
                object.__setattr__(self, "delay_bins", _as_integer(delay, "crystal delay", 1, MAX_DELAY_BINS))
        elif self.delay_bins is not None:
            raise ValueError(f"{self.kind} elements carry no delay")
        object.__setattr__(self, "_matrix", _element_matrix(self.kind, angle))


def crystal(angle_deg: float, delay_bins: int) -> OpticalElement:
    """Birefringent crystal with slow axis at `angle_deg` from horizontal."""
    return OpticalElement(CRYSTAL, angle_deg=angle_deg, delay_bins=delay_bins)


def half_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(HWP, angle_deg=angle_deg)


def quarter_wave(angle_deg: float) -> OpticalElement:
    return OpticalElement(QWP, angle_deg=angle_deg)


def _check_single(batch, consumer: str) -> None:
    if batch is not None:
        raise ValueError(f"{consumer} needs scalar angles, got a batch of {batch}")


@dataclass(frozen=True, eq=False)
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
        elements = self.elements
        if type(elements) is not tuple:
            if not isinstance(elements, (tuple, list)):
                raise ValueError(f"scheme elements must be a tuple or list, got {elements!r}")
            elements = tuple(elements)
            object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError("scheme needs at least one element")
        coherence = _real(self.coherence)
        if coherence is None or not 0.0 <= coherence < 1.0:
            raise ValueError(f"coherence must be a number in [0, 1), got {self.coherence!r}")
        if coherence is not self.coherence:
            object.__setattr__(self, "coherence", coherence)
        lengths = set()
        for e in elements:
            if type(e) is not OpticalElement:
                raise ValueError(f"scheme elements must be OpticalElements, got {e!r}")
            if type(e.angle_deg) is not float:
                lengths.add(len(e.angle_deg))
        if len(lengths) > 1:
            raise ValueError(f"array angles of one scheme must share their length, got {sorted(lengths)}")
        if lengths:  # else batch keeps its default, None
            object.__setattr__(self, "batch", lengths.pop())

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
        """Parse the JSON form, given as text or as a decoded dict; a malformed document raises ValueError, and so
        does a key the form does not have, such as a misspelt "coherence".

        Each element's kind, angle and delay go to `OpticalElement` as decoded, and the coherence to the constructor.
        """
        try:
            document = _known_keys(json.loads(data) if isinstance(data, str) else data, _SCHEME_KEYS, "scheme")
            elements = [_known_keys(d, _ELEMENT_KEYS, "element") for d in document["elements"]]
            return cls([OpticalElement(d["kind"], d["angle_deg"], d.get("delay_bins")) for d in elements],
                       coherence=document.get("coherence", 0.0))
        except (KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ValueError(f"malformed scheme JSON ({type(exc).__name__}: {exc})") from None


_SCHEME_KEYS = ("coherence", "elements")
_ELEMENT_KEYS = ("kind", "angle_deg", "delay_bins")


def _known_keys(document: dict, keys: tuple, what: str) -> dict:
    """`document`, unless it holds a key other than `keys`: then ValueError naming that key."""
    for key in document.keys():
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}, expected one of {', '.join(keys)}")
    return document


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


def _element_matrix(kind: str, angle: float | np.ndarray) -> np.ndarray:
    """An element's read-only (T, rows, 2) matrices, one per angle (T = 1 for a float angle): crystal projectors
    (rows = 4) or wave-plate Jones matrices (rows = 2), from the scalar entry code."""
    entries = _ENTRIES[kind]
    flat = entries(angle) if isinstance(angle, float) else [x for a in angle.tolist() for x in entries(a)]
    # complex() of a float is exact, with a +0.0 imaginary part
    matrix = np.array(flat, dtype=complex).reshape(-1, 4 if kind == CRYSTAL else 2, 2)
    matrix.setflags(write=False)  # the method call costs less than setting flags.writeable
    return matrix


# The propagation state of T configs is (bins, amps): a sorted int64
# array of B bins, which follow from the crystal delays alone, and a
# (T, m, 2, B) complex array whose entry amps[t, n, :, k] is the (h, v)
# amplitude in bin bins[k] of the n-th propagated column under config t
# (m = 2 identity columns for Kraus operators, m = 1 for a dict state).
# Both products of a step read that layout as it is, and the Kraus
# entries are its (T, 4, B) reshape, with row 2c + r holding K[r, c].
# Until the first element with an array angle, every config holds the
# same amplitudes and the leading axis has length 1: an element's single
# matrix and the amplitudes broadcast against each other, the same
# product per config.  A bin may hold zero amplitude, as where a crystal
# at exactly 0 deg sends nothing into it.


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


def _crystal_step(amps: np.ndarray, projectors: np.ndarray, merge: tuple):
    """Delay the slow-axis component of every bin, merging bins as the crystal's merge plan says.

    `projectors` is the crystal's (T or 1, 4, 2) stack of axis projectors
    (see `_projector_entries`): for axis angle a the slow axis is
    e_s = (cos a, sin a), and the fast-axis component e_f = (-sin a, cos a)
    keeps its bin.  Both projections come from one product, the merge
    plan (bins, order, starts) of `_merge_plan` shifts the slow half, and
    amplitudes landing in the same output bin are summed (coherently).
    Returns (bins, amps) with every bin of the plan, even one whose
    amplitude is zero.
    """
    # the projector rows alternate fast and slow, so the product is laid out as (T, m, h or v, fast or slow, B)
    # and reads as (T, m, 2, 2B) with the fast bins first, without a copy
    merged = _einsum("trc,tmcn->tmrn", projectors, amps).reshape(-1, amps.shape[1], 2, 2 * amps.shape[3])
    bins, order, starts = merge
    if order is None:
        return bins, merged
    # take is numpy's direct gather; indexing with `order` runs its generic path, 50-70x slower after the product
    return bins, np.add.reduceat(merged.take(order, axis=3), starts, axis=3)


def _band_halfwidth(gamma: float) -> int:
    """An upper bound on the bin distances d with gamma**(d*d) >= KERNEL_FLOOR (0 at gamma = 0).

    Every pair farther apart weighs less than the floor.  For most gamma the bound is one past the largest live
    distance (6 at gamma = 0.2, where d = 5 is the last to clear the floor); `_band_plan` drops the pairs between.
    """
    if gamma == 0.0:
        return 0
    return math.isqrt(int(math.log(KERNEL_FLOOR) / math.log(gamma))) + 1


def _band_plan(bins: np.ndarray, gamma: float) -> tuple:
    """The live pairs of the coherent band over `bins`: () or (left, right, w), read-only.

    left and right list the bin indices of the pairs (i, i + k) of each
    live position k in turn, stopping as `_trace_out` describes, and keep
    only the pairs whose weight gamma**(d*d) at distance d is at least
    KERNEL_FLOOR; w[2p] = w[2p + 1] weighs the real and imaginary parts of
    pair p.  Those are the pairs at d <= reach, the largest distance up to
    the half-width whose weight clears the floor: libm's `pow` is monotone
    in the exponent here, as the squares of distances d and d + 1 differ by
    2d + 1 >= 3, which moves gamma**(d*d) by at least 1.5 ulp even at the
    largest gamma below 1.  Each weight is one Python float power (libm's
    `pow`) per distinct distance: numpy's float64 `power` is SIMD code
    whose last bit varies between CPUs.  A band whose positions scan more
    than MAX_BAND_PAIRS pairs, dead ones counted, raises ValueError before
    any pair array is concatenated.
    """
    halfwidth = reach = _band_halfwidth(gamma)
    while reach and gamma ** float(reach * reach) < KERNEL_FLOOR:
        reach -= 1
    positions, n_pairs = [], 0
    for k in range(1, min(halfwidth, len(bins) - 1) + 1):
        d = bins[k:] - bins[:-k]
        if d.min() > halfwidth:
            break
        n_pairs += len(d)
        if n_pairs > MAX_BAND_PAIRS:
            raise ValueError(f"scheme's coherent band at gamma = {gamma!r} holds more than {MAX_BAND_PAIRS} bin pairs")
        live = np.flatnonzero(d <= reach)
        if len(live):
            positions.append((live, live + k, d.take(live)))
    if not positions:
        return ()
    left, right, d = (np.concatenate(part) for part in zip(*positions))
    distances, index = np.unique(d, return_inverse=True)
    w = np.array([gamma ** float(x * x) for x in distances.tolist()])
    plan = left, right, np.repeat(w.take(index), 2)
    for array in plan:
        array.flags.writeable = False
    return plan


def _trace_out(x: np.ndarray, band: tuple) -> np.ndarray:
    """Trace out time: the banded contraction S = sum_{t,u} w(t - u) x_t x_u^dagger, w(d) = gamma**(d*d).

    `x` is (T, R, B) for any number R of rows, x[:, :, k] holding bin
    bins[k]: the (T, 4, B) Kraus entries or the (1, 2, B) amplitudes of a
    wave packet.  S, a Hermitian (T, R, R) stack, is the t = u term, whose
    products pair up as complex conjugates, plus the term C of the band
    pairs t < u and C^dagger.  It keeps only pairs with
    w(d) >= KERNEL_FLOOR = 2**-60; `_band_halfwidth(gamma)` bounds their d.
    An output is S contracted with a normalized input, whose bin amplitudes
    a_t have sum_t |a_t|**2 = 1, so by Cauchy-Schwarz the dropped pairs
    change it by at most 2**-60 * (sum_t |a_t|)**2 <= B * 2**-60.

    The band runs over positions k = 1, 2, ..., pairing bins[i] with
    bins[i + k], and stops at the first k whose closest pair is beyond
    the half-width: bins are sorted distinct integers, so
    bins[i + k + 1] - bins[i] >= bins[i + k] - bins[i] + 1, the closest
    distance grows by at least 1 per position, and no later position
    holds a pair within reach.  For the same reason k never passes the
    half-width, and no position runs at gamma = 0.  Within a live position
    the pairs below the floor are dropped too.  Neither drop moves a bit
    against contracting every pair with its weight floored to 0: such a
    term is an exact +-0, and each einsum accumulator starts at +0.0, so
    adding it changes nothing.  The caller passes the pairs and their
    weights as `band`, the `_band_plan(bins, gamma)`.
    """
    xc = x.conj()
    s = _einsum("trk,tsk->trs", x, xc)
    if band:
        left, right, w = band
        # the weights multiply the float view of the gathered rows, a real product
        weighted = (x.take(left, axis=2).view(float) * w).view(complex)
        cross = _einsum("trk,tsk->trs", weighted, xc.take(right, axis=2))
        s += cross
        s += cross.conj().transpose(0, 2, 1)
    return s


# the starting state, shared and so read-only: the identity in bin 0, which every config of a batch broadcasts against
_IDENTITY_BINS = np.zeros(1, dtype=np.int64)
_IDENTITY_AMPS = np.eye(2, dtype=complex).reshape(1, 2, 2, 1)
_IDENTITY_BINS.flags.writeable = False
_IDENTITY_AMPS.flags.writeable = False


def _check_bins(n_bins: int, total: int) -> None:
    """Refuse a crystal step from `n_bins` bins that could take B past MAX_BINS, or a total past MAX_TOTAL_BINS."""
    if 2 * n_bins > MAX_BINS:
        raise ValueError(f"scheme needs more than {MAX_BINS} occupied time bins ({n_bins} before a crystal)")
    if total > MAX_TOTAL_BINS:
        raise ValueError(f"scheme's crystal steps handle more than {MAX_TOTAL_BINS} time bins in all")


def _merges(delays: tuple):
    """Each crystal's (bins, order, starts) from `_merge_plan` in turn, from bin 0, as an iterator.

    A crystal at most doubles B, so one that could take B past MAX_BINS
    raises ValueError; so does one whose bins would take the running sum
    of the bins every step starts from past MAX_TOTAL_BINS.  The bins a
    step starts from are the distinct sums of the earlier delays, so they
    are counted first, as the popcounts of a bitset of subset sums, and a
    refused stack raises before any plan or amplitude step.  Each shift
    of the bitset costs its length, so the count stops once it has cost
    _COUNT_WORK bit positions in all (as for 4000 crystals of delay 4000,
    whose count would outlast their propagation); past that, each step
    checks its own bins before it builds anything.
    """
    bits, total, work = 1, 0, 0
    for delay in delays:
        n_bins = bits.bit_count()
        total += n_bins
        _check_bins(n_bins, total)
        work += bits.bit_length() + delay
        if work > _COUNT_WORK:
            break
        bits |= bits << delay
    return _merge_steps(delays)


def _merge_steps(delays: tuple):
    """The plans of `_merges`, one crystal at a time, each step checking the bins it starts from."""
    bins, total = _IDENTITY_BINS, 0
    for delay in delays:
        total += len(bins)
        _check_bins(len(bins), total)
        bins, order, starts = _merge_plan(bins, delay)
        yield bins, order, starts


@functools.lru_cache(maxsize=128)
def _cached_plan(delays: tuple, gamma: float) -> tuple:
    # asked only for at most 10 crystals whose band may hold at most 2048 pairs: an entry holds at most
    # 1024 + 2046 bins, 4088 merge indices and 2048 pairs of two indices and two weights: 87 944 bytes with its key
    # and link in the worst case `test_the_plan_memo_stays_below_16_mb` builds, so 128 entries stay below 16 MB
    merges = tuple(_merges(delays))
    return merges, _band_plan(merges[-1][0] if merges else _IDENTITY_BINS, gamma)


def _propagate(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Push the 2x2 identity through the T = `config.batch` (or 1) configs at once.

    Returns (bins, amps, band): the sorted bins, which follow from the
    crystal delays alone, the (T, 2, 2, B) amplitudes and the plan memo's
    band plan, or None where the plan is not memoized (`_choi`, the band's
    one reader, then builds it).
    Every config of a batch runs on the same bins with the same product
    per config: each element multiplies by its own matrix, a
    float-angle element's single one broadcasting over the configs, and
    the elements before the first array angle run once for all of them.
    So the batch is bit-identical to one call per config.

    A crystal step that could take B past MAX_BINS, or the bins of all
    steps past MAX_TOTAL_BINS, raises ValueError before it allocates
    anything, and before the first step where the bins can be counted
    cheaply up front (see `_merges`).
    """
    # tuple() of a list: of a generator it shrinks its result in place, stranding freed tuples on a free list
    delays = tuple([e.delay_bins for e in config.elements if e.kind == CRYSTAL])
    gamma = config.coherence
    most_bins = min(2 ** len(delays), sum(delays) + 1)  # n crystals make at most 2**n and sum + 1 bins
    most_pairs = most_bins * min(_band_halfwidth(gamma), most_bins - 1)
    memoize = 2 ** len(delays) <= _PLAN_CACHE_BINS and most_pairs <= _BAND_CACHE_PAIRS
    # unmemoized, one crystal's merge plan at a time: those of n short crystals together grow as n**2
    merges, band = _cached_plan(delays, gamma) if memoize else (_merges(delays), None)
    bins, amps, merges = _IDENTITY_BINS, _IDENTITY_AMPS, iter(merges)
    for element in config.elements:
        if element.kind != CRYSTAL:
            amps = _einsum("trc,tmcn->tmrn", element._matrix, amps)  # a wave plate, on every bin of config t
            continue
        bins, amps = _crystal_step(amps, element._matrix, next(merges))
    return bins, amps, band


def kraus_operators(config: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time bins and their Kraus operators, from one propagation.

    Propagates the 2x2 identity through the element list and returns
    `(bins, ops)`: a sorted int64 array of the B bins and a (B, 2, 2)
    complex array whose ops[k] is the Jones matrix K_t taking the input
    into bin t = bins[k].  The bins are the distinct sums of subsets of
    the crystal delays and depend on no angle, so some K_t may be exactly
    zero (a crystal at exactly 0 deg sends nothing into some bins).  The
    gamma = 0 channel is rho -> sum_t K_t rho K_t^dagger, and
    sum_t K_t^dagger K_t = I.  Both arrays are fresh and writable: every
    call propagates afresh, and neither shares memory with a memoized plan.
    Raises ValueError on a batch, or if the scheme needs more than MAX_BINS bins.
    """
    _check_single(config.batch, "kraus_operators")
    bins, amps, _ = _propagate(config)
    return bins.copy(), amps[0].transpose(2, 1, 0).copy()


@functools.lru_cache(maxsize=1)
def _choi(config: SchemeConfig) -> np.ndarray:
    """The read-only (T, 4, 4) Choi matrices S[t, 2c + r, 2q + p] = sum_{k,l} w(bins[k] - bins[l]) K_k[r, c]
    conj(K_l[p, q]) of the T = `config.batch` (or 1) configs, from one propagation.  Memoized for the last config
    object, its key: a SchemeConfig compares by identity and is frozen, so a held S never goes stale, and the four
    tomography probes of one config propagate once."""
    bins, amps, band = _propagate(config)
    s = _trace_out(amps.reshape(len(amps), 4, len(bins)), _band_plan(bins, config.coherence) if band is None else band)
    s.setflags(write=False)
    return s


def run_scheme(config: SchemeConfig, j) -> np.ndarray:
    """Propagate pure inputs through the element list and trace out time.

    `j` is one normalized Jones vector or a (2, n) stack of them as
    columns.  The result is the (2, 2) output density matrix, or the
    (n, 2, 2) outputs for a stack, with a leading axis of length T when
    `config.batch` is T: (T, 2, 2) or (T, n, 2, 2).

    The whole batch is propagated at once (see `kraus_operators`) on
    bins that depend on the delays only, and time is traced out once per
    config, into the Choi matrix S of `_choi`.  Each output is
    rho[a, c] = sum_{b,d} S[2b + a, 2d + c] j_b conj(j_d), averaged with its
    conjugate transpose, so it is bit-identical to the single call on its
    angles.  Bin pairs whose weight gamma**(d*d) is below 2**-60 are
    dropped, which moves the output by at most B * 2**-60 for B bins.

    The contraction with S is numpy's einsum kernel for every shape.  A
    single output (one config, one input) is averaged on its four entries
    in Python complex numbers, without the array set-up of the in-place
    `_hermitian_average` that a stack takes: each entry is
    (x + conj(y)) / (2 + 0j), the operations of numpy's complex add and
    divide, so the bits are the same (Python's and numpy's complex division
    differ at most in a NaN's sign, and S and j are finite).
    """
    j = np.asarray(j, dtype=complex)
    if j.shape == (2,):
        check_normalized(j)
        cols = j.reshape(2, 1)
    elif j.ndim == 2 and j.shape[0] == 2:
        check_normalized(j)
        cols = j
    else:
        raise ValueError(f"inputs must be a Jones vector or a (2, n) stack of them, got shape {j.shape}")
    rho = _einsum("tbadc,bn,dn->tnac", _choi(config).reshape(-1, 2, 2, 2, 2), cols, cols.conj())
    if config.batch is None and cols.shape[1] == 1:
        (a, b), (c, d) = rho[0, 0].tolist()
        rho = np.array([(a + a.conjugate()) / _TWO, (b + c.conjugate()) / _TWO,
                        (c + b.conjugate()) / _TWO, (d + d.conjugate()) / _TWO])
        return rho.reshape(2, 2) if j.ndim == 1 else rho.reshape(1, 2, 2)
    rho = _hermitian_average(rho)
    if j.ndim == 1:
        rho = rho[:, 0]
    return rho if config.batch else rho[0]


# --- single-wave-packet dict adapters over the same step and trace-out ---


def _from_state(state: TimeBinState):
    # a bin stays far inside int64 after the largest delay: no bool, no float, nothing negative
    for t in state:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t <= 2**62:
            raise ValueError(f"time-bin keys must be integers in [0, 2**62], got {t!r}")
    ts = sorted(state)
    amps = np.array([state[t] for t in ts], dtype=complex).reshape(len(ts), 2)
    return np.array(ts, dtype=np.int64), np.ascontiguousarray(amps.T).reshape(1, 1, 2, len(ts))


def _to_state(bins: np.ndarray, amps: np.ndarray) -> TimeBinState:
    """The dict of the bins whose amplitude is not all zero: a dict state is a sparse map."""
    rows = amps[0, 0].T
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
        bins, amps = _crystal_step(amps, element._matrix, _merge_plan(bins, element.delay_bins))
    else:
        amps = _einsum("trc,tmcn->tmrn", element._matrix, amps)
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
    g = _real(gamma)
    if g is None or not 0.0 <= g < 1.0:
        raise ValueError(f"gamma must be a number in [0, 1), got {gamma!r}")
    bins, amps = _from_state(state)
    return _trace_out(amps.reshape(1, 2, len(bins)), _band_plan(bins, g))[0]
