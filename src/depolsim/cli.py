"""Command-line front end: angle sweeps, sphere maps, tomography runs.

Subcommands
-----------
sweep    DOP and Stokes output versus tuning angle, as CSV.
map      Channel matrix plus mapped Poincare-sphere surface points, as JSON.
tomo     Full simulated tomography pipeline for one scheme angle, as JSON.
compare  Engine DOP against the scheme-2 closed form on an angle grid, as CSV.

Angles are degrees everywhere.  A scheme is selected either by name
(scheme1, scheme2, scheme3, lyot, single_crystal, isotropic_triple) or
by the path of a JSON element-list file.  All commands are deterministic
for fixed flags and seed; errors are reported as JSON on stderr with a
nonzero exit code, and leave no output behind.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .channels import (
    PROBE_LABELS,
    SCHEME_NAMES,
    build_scheme,
    extract_channel,
    extract_chi,
    analytic_scheme2_dop,
    mutually_unbiased_triad,
)
from .measurement import sample_counts
from .polarization import JONES_STATES, dop, jones_from_stokes, stokes_from_density
from .temporal import SchemeConfig, run_scheme
from .tomography import process_fidelity, qpt, qst_mle

# largest theta grid and largest sphere sample count a command accepts
MAX_POINTS = 1_000_000

# largest scheme file a command reads (a named file may be endless, such as /dev/zero)
MAX_SCHEME_BYTES = 2**20

# angles propagated in one engine batch by sweep and compare; bounds their memory (a 90 001-angle
# isotropic_triple sweep peaked at ~1 GB as one batch, 48 MB in chunks of 1024 written one by one)
THETA_CHUNK = 1024

# sphere points map formats into one piece of its JSON; bounds the text held at once (map --samples 1000000
# peaked at 326 MB with its points as one ~94 MB string, 100 MB in pieces of 8192)
POINTS_CHUNK = 8192

# the h, v, p, r probe inputs of `tomo`, as the columns of one stack
_PROBES = np.column_stack([JONES_STATES[lbl] for lbl in PROBE_LABELS])


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token of a minus and a digit is a value, as no option here starts so: argparse reads only a plain
        # negative number as one, and took --theta-range -10:10:5 or --inputs -0.6,0,0.8 for an unknown option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise CliError(message)


def _csv_field(text: str) -> str:
    """`text` as one CSV field, as RFC 4180 and csv.QUOTE_MINIMAL write it: quoted, with its quotes doubled,
    if it holds a comma, a quote or a line break (a Stokes-vector input label such as 0,0.6,0.8 does)."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _parse_theta_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"theta range must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"theta range must be numeric, got {text!r}") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise CliError(f"theta range must be finite, got {text!r}")
    if step <= 0:
        raise CliError("theta range step must be positive")
    if start > stop:
        raise CliError("theta range start must not exceed stop")
    # stop admits an angle that overshoots it by rounding: 1e-9 at most, and a millionth of a step below 1e-3
    end = stop + min(1e-9, 1e-6 * step)
    span = (end - start) / step
    if not span < MAX_POINTS:
        raise CliError(f"theta range has more than {MAX_POINTS} points")
    # int(span) + 1 points up to rounding: one more candidate absorbs it, and values grow with k
    candidates = (start + k * step for k in range(int(span) + 2))
    return [v for v in candidates if v <= end]


def _load_scheme(name: str, theta_deg, gamma) -> SchemeConfig:
    """Scheme by registered name, or by path of a SchemeConfig JSON file (whose coherence a gamma of None keeps)."""
    if name in SCHEME_NAMES:
        config = build_scheme(name, theta_deg, coherence=0.0 if gamma is None else gamma)
    elif name.endswith(".json") or os.path.exists(name):
        with open(name, "rb") as fh:
            data = fh.read(MAX_SCHEME_BYTES + 1)
        if len(data) > MAX_SCHEME_BYTES:
            raise CliError(f"scheme file {name!r} is longer than {MAX_SCHEME_BYTES} bytes")
        config = SchemeConfig.from_json(data.decode("utf-8"))
        if gamma is not None:
            config = SchemeConfig(config.elements, coherence=gamma)
    else:
        raise CliError(f"unknown scheme {name!r}: not a scheme name or a config file")
    if theta_deg is not None and (name == "lyot" or name not in SCHEME_NAMES):
        raise CliError(f"scheme {name!r} has no angle, so it takes no --theta")
    return config


def _parse_inputs(tokens) -> list[tuple[str, np.ndarray]]:
    """Input tokens: basis labels, 'triad:<s1>' triples, or 's1,s2,s3'."""
    out = []
    for token in tokens:
        if token in JONES_STATES:
            out.append((token, JONES_STATES[token]))
        elif token.startswith("triad:"):
            s1 = float(token.split(":", 1)[1])
            for i, svec in enumerate(mutually_unbiased_triad(s1)):
                out.append((f"triad{i}", jones_from_stokes(svec)))
        elif "," in token:
            svec = np.array([float(x) for x in token.split(",")], dtype=float)
            if svec.shape != (3,):
                raise CliError(f"Stokes input needs three components, got {token!r}")
            out.append((token, jones_from_stokes(svec)))
        else:
            raise CliError(f"cannot parse input {token!r}")
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, nearly uniform points on the unit sphere."""
    golden = np.pi * (3.0 - np.sqrt(5.0))
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    azimuth = golden * k
    return np.column_stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z])


def _grid_outputs(scheme: str, thetas: list[float], stack: np.ndarray, gamma: float = 0.0):
    """(chunk, (T, n, 2, 2) outputs) of a named scheme, one batch per THETA_CHUNK angles; lyot's is broadcast."""
    for lo in range(0, len(thetas), THETA_CHUNK):
        chunk = thetas[lo : lo + THETA_CHUNK]
        config = build_scheme(scheme, np.array(chunk), coherence=gamma)
        rhos = run_scheme(config, stack)
        yield chunk, (rhos if config.batch else np.broadcast_to(rhos, (len(chunk), *rhos.shape)))


def cmd_sweep(args):
    if args.scheme not in SCHEME_NAMES:
        raise CliError("sweep needs a named scheme (a config file has no angle knob)")
    thetas = _parse_theta_range(args.theta_range)
    inputs = _parse_inputs(args.inputs)
    fields = [_csv_field(name) for name, _ in inputs]
    stack = np.column_stack([jones for _, jones in inputs])
    # the rows of one angle, one per input, as one % template ("%.12g" % x and f"{x:.12g}" give the same text);
    # a field holds no "%", being a label or floats that float() parsed
    rows = "".join(f"%.12g,{field},%.12g,%.12g,%.12g,%.12g\n" for field in fields)
    head = "theta_deg,input,s1,s2,s3,dop\n"
    for chunk, rhos in _grid_outputs(args.scheme, thetas, stack, 0.0 if args.gamma is None else args.gamma):
        table = np.empty((len(chunk), len(fields), 5))
        table[..., 0] = np.array(chunk)[:, None]
        table[..., 1:4] = stokes_from_density(rhos)
        table[..., 4] = dop(rhos)
        yield head + (rows * len(chunk)) % tuple(table.ravel().tolist())
        head = ""


# one mapped sphere point in json.dumps(indent=2) layout, as the value of a top-level key; each coordinate is
# one (prefix, digits) pair of _repr_pairs
_POINT_ROW = "    [\n      %s%s,\n      %s%s,\n      %s%s\n    ]"

# 5**k for k = 17 + the zeros after the point of a value in [1e-4, 1), and 10**j for j = 0..16
_FIVE = np.array([5**k for k in range(17, 21)], dtype=np.uint64)
_TEN = np.array([10**j for j in range(17)], dtype=np.uint64)

# the text before the digits of a value in [1e-4, 1), by its sign and the zeros after its point
_PREFIX = np.array(["0.", "0.0", "0.00", "0.000", "-0.", "-0.0", "-0.00", "-0.000"], dtype=object)


def _distances(rest, ten, unit, frac):
    """Distances in u from x * 10**k to the multiples of ten below and above it, rest = whole % ten being the
    whole units past the one below. 12 whole units stand for any more: both lie outside, and 12 fits in uint64."""
    return np.minimum(rest, 12) * unit + frac, np.minimum(ten - rest, 12) * unit - frac


def _repr_pairs(values: np.ndarray) -> list:
    """float.__repr__ of each value of a 1-D float64 array, as a flat list of (prefix, digits) pairs.

    A value x = m * 2**e with 1e-4 <= |x| < 1 and m no power of two gets
    its shortest round-trip digits in uint64 arithmetic, by the exact
    search behind Ryu (Adams, PLDI 2018). With k = 17 + the zeros after
    the point, x * 10**k = m * 5**k / 2**s exactly, with s = -(e + k) in
    [36, 46] and 5**k < 2**47, so the product is built from 32-bit
    halves. The doubles that read back as x lie strictly within 5**k of
    x * 10**k, counted in units u = 2**-(s + 1); that is under 11 whole
    units. The repr is the multiple of 10**j nearest x * 10**k for the
    largest j with one strictly inside, and its digits are that multiple
    over 10**j, which drops its trailing zeros.

    No multiple lies on an end: x's distance to one is even in u, and
    5**k is odd. No multiple is 10**17: its decimal 10**-zeros would read
    back as the double nearest 10**-zeros, not as x. A value halfway
    between two multiples inside, and every value outside the band, get
    (repr(x), "").
    """
    bits = values.view(np.uint64)
    size = np.abs(values)
    fast = np.flatnonzero((size >= 1e-4) & (size < 1.0) & (bits & (2**52 - 1) != 0))
    bits, size = bits[fast], size[fast]
    # every array below is uint64: numpy would promote a mix with int64 to float64
    zeros = (size < 0.1).astype(np.uint64) + (size < 0.01) + (size < 0.001)
    m = bits & (2**52 - 1) | 2**52
    s = 1058 - (bits >> 52 & 0x7FF) - zeros
    five = _FIVE[zeros]
    # m * 5**k = hi * 2**64 + mid * 2**32 + (low mod 2**32), split at bit s into whole and frac
    m_lo, m_hi, five_lo, five_hi = m & 0xFFFFFFFF, m >> 32, five & 0xFFFFFFFF, five >> 32
    low = m_lo * five_lo
    mid = m_hi * five_lo + m_lo * five_hi + (low >> 32)
    hi = m_hi * five_hi + (mid >> 32)
    mid &= 0xFFFFFFFF
    whole = (hi << (64 - s)) + (mid >> (s - 32))
    frac = ((mid & ((1 << (s - 32)) - 1)) << 33) + ((low & 0xFFFFFFFF) << 1)  # in units u
    unit = np.uint64(1) << (s + 1)

    # a multiple of 10**j inside is one of 10**(j - 1): raise j while any value still has one
    level = np.zeros(len(fast), dtype=np.uint64)
    live = np.arange(len(fast))
    for j in range(1, 17):
        down, up = _distances(whole[live] % _TEN[j], _TEN[j], unit[live], frac[live])
        live = live[(down < five[live]) | (up < five[live])]
        if not len(live):
            break
        level[live] = j
    ten = _TEN[level]
    rest = whole % ten
    down, up = _distances(rest, ten, unit, frac)
    below, above = down < five, up < five
    digits = (whole - rest) // ten + (above & ~(below & (down < up)))
    kept = ~(below & above & (down == up))

    done = fast[kept]
    slow = np.ones(len(values), dtype=bool)
    slow[done] = False
    pairs = np.empty((len(values), 2), dtype=object)
    pairs[:, 1] = ""
    pairs[slow, 0] = [repr(x) for x in values[slow].tolist()]
    pairs[done, 0] = _PREFIX[(zeros + (bits >> 63 << 2))[kept]]
    pairs[done, 1] = digits[kept]
    return pairs.ravel().tolist()


def _points_json(points: np.ndarray):
    """An (n, 3) float array as json.dumps(points.tolist(), indent=2) renders it one level deep,
    in pieces of POINTS_CHUNK rows.

    json writes a finite float with float.__repr__, which _repr_pairs
    reproduces, so the pieces have json's bytes without the pure-Python
    encoder that indent forces; non-finite values raise ValueError, as
    with allow_nan=False, before the first piece.
    """
    if not np.isfinite(points).all():
        raise ValueError("Out of range float values are not JSON compliant")
    separator = "[\n"
    for lo in range(0, len(points), POINTS_CHUNK):
        chunk = np.ascontiguousarray(points[lo : lo + POINTS_CHUNK], dtype=np.float64)
        yield separator + ",\n".join([_POINT_ROW] * len(chunk)) % tuple(_repr_pairs(chunk.ravel()))
        separator = ",\n"
    yield "\n  ]"


def cmd_map(args):
    if not 3 <= args.samples <= MAX_POINTS:
        raise CliError(f"surface samples must lie in [3, {MAX_POINTS}]")
    config = _load_scheme(args.scheme, args.theta, args.gamma)
    channel = extract_channel(config)
    points = channel.apply(fibonacci_sphere(args.samples))
    report = {
        "scheme": args.scheme,
        "theta_deg": args.theta,
        "n_samples": args.samples,
        "channel": channel.to_json(),
        "points": [],
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    # a '"' inside a JSON string is escaped, so the key itself is the only match
    head, _, tail = text.partition('"points": []')
    points_text = _points_json(points)
    yield head + '"points": ' + next(points_text)  # next() checks every point is finite
    yield from points_text
    yield tail + "\n"


def cmd_tomo(args):
    config = _load_scheme(args.scheme, args.theta, args.gamma)
    chi_theory = extract_chi(config)
    true_outputs = run_scheme(config, _PROBES)
    reconstructed = [
        qst_mle(sample_counts(rho, args.shots, args.seed + i, exact=args.exact)) for i, rho in enumerate(true_outputs)
    ]
    with warnings.catch_warnings():
        # the report carries the clipped mass as chi.clipped_mass, so stderr stays empty on success
        warnings.filterwarnings("ignore", "chi reconstruction clipped", UserWarning)
        chi_hat = qpt(*reconstructed)

    report = {
        "scheme": args.scheme,
        "theta_deg": args.theta,
        "shots": args.shots,
        "seed": args.seed,
        "exact": bool(args.exact),
        "process_fidelity": float(process_fidelity(chi_hat, chi_theory)),
        "dop": {lbl: float(dop(rho)) for lbl, rho in zip(PROBE_LABELS, reconstructed)},
        "chi": chi_hat.to_json(),
        "chi_theory": chi_theory.to_json(),
    }
    yield json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_compare(args):
    thetas = _parse_theta_range(args.theta_range)
    probes = [
        (0.0, JONES_STATES["p"]),
        (1.0 / 3.0, jones_from_stokes([1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0), 0.0])),
        (1.0, JONES_STATES["h"]),
    ]
    stack = np.column_stack([jones for _, jones in probes])
    # the rows of one angle, one per probe with its s1_sq embedded, as one % template (see cmd_sweep)
    rows = "".join(f"%.12g,{s1_sq:.12g},%.12g,%.12g,%.12g\n" for s1_sq, _ in probes)
    head = "theta_deg,s1_sq,dop_engine,dop_analytic,abs_diff\n"
    for chunk, rhos in _grid_outputs("scheme2", thetas, stack):
        angles = np.array(chunk)
        table = np.empty((len(chunk), len(probes), 4))
        table[..., 0] = angles[:, None]
        table[..., 1] = dop(rhos)
        table[..., 2] = np.transpose([analytic_scheme2_dop(angles, np.sqrt(s1_sq)) for s1_sq, _ in probes])
        table[..., 3] = np.abs(table[..., 1] - table[..., 2])
        yield head + (rows * len(chunk)) % tuple(table.ravel().tolist())
        head = ""


def build_parser() -> _Parser:
    parser = _Parser(prog="depolsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="DOP versus tuning angle, CSV")
    sweep.add_argument("--scheme", required=True)
    sweep.add_argument("--theta-range", required=True, metavar="START:STOP:STEP")
    sweep.add_argument("--inputs", nargs="+", default=["h", "p", "r"])
    sweep.add_argument("--gamma", type=float)
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)

    pmap = sub.add_parser("map", help="channel map and mapped sphere points, JSON")
    pmap.add_argument("--scheme", required=True)
    pmap.add_argument("--theta", type=float)
    pmap.add_argument("--samples", type=int, default=200)
    pmap.add_argument("--gamma", type=float)
    pmap.add_argument("--out")
    pmap.set_defaults(func=cmd_map)

    tomo = sub.add_parser("tomo", help="simulated tomography pipeline, JSON")
    tomo.add_argument("--scheme", required=True)
    tomo.add_argument("--theta", type=float)
    tomo.add_argument("--shots", type=int, default=100_000)
    tomo.add_argument("--exact", action="store_true")
    tomo.add_argument("--seed", type=int, default=0)
    tomo.add_argument("--gamma", type=float)
    tomo.add_argument("--out")
    tomo.set_defaults(func=cmd_tomo)

    comp = sub.add_parser("compare", help="engine DOP versus scheme-2 closed form, CSV")
    comp.add_argument("--theta-range", required=True, metavar="START:STOP:STEP")
    comp.add_argument("--out")
    comp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a command yields its output in pieces, and checks all its arguments before the first one
        pieces = args.func(args)
        pieces = itertools.chain([next(pieces)], pieces)
        if not args.out:
            sys.stdout.writelines(pieces)
            return 0
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            try:
                fh.writelines(pieces)
            except BaseException:  # leave no partial file
                fh.close()
                os.remove(args.out)
                raise
    except SystemExit:  # --help printed the usage; parse errors raise CliError instead
        return 0
    except (CliError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return 0
