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
    def error(self, message):
        raise CliError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


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
    span = (stop + 1e-9 - start) / step
    if not span < MAX_POINTS:
        raise CliError(f"theta range has more than {MAX_POINTS} points")
    # int(span) + 1 points up to rounding: one more candidate absorbs it, and values grow with k
    candidates = (start + k * step for k in range(int(span) + 2))
    return [v for v in candidates if v <= stop + 1e-9]


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
    lines = ["theta_deg,input,s1,s2,s3,dop\n"]
    for chunk, rhos in _grid_outputs(args.scheme, thetas, stack, 0.0 if args.gamma is None else args.gamma):
        stokes, dops = stokes_from_density(rhos).tolist(), dop(rhos).tolist()
        for theta, s_theta, d_theta in zip(chunk, stokes, dops):
            t = _fmt(theta)
            for field, s, d in zip(fields, s_theta, d_theta):
                lines.append(f"{t},{field},{s[0]:.12g},{s[1]:.12g},{s[2]:.12g},{d:.12g}\n")
        yield "".join(lines)
        lines = []


# one mapped sphere point in json.dumps(indent=2) layout, as the value of a top-level key
_POINT_ROW = "    [\n      %r,\n      %r,\n      %r\n    ]"


def _points_json(points: np.ndarray):
    """An (n, 3) float array as json.dumps(points.tolist(), indent=2) renders it one level deep,
    in pieces of POINTS_CHUNK rows.

    json writes a finite float with float.__repr__, so formatting every
    value with repr gives the same bytes without the pure-Python encoder
    that indent forces; non-finite values raise ValueError, as with
    allow_nan=False, before the first piece.
    """
    if not np.isfinite(points).all():
        raise ValueError("Out of range float values are not JSON compliant")
    separator = "[\n"
    for lo in range(0, len(points), POINTS_CHUNK):
        chunk = points[lo : lo + POINTS_CHUNK]
        yield separator + ",\n".join([_POINT_ROW] * len(chunk)) % tuple(chunk.ravel().tolist())
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
    lines = ["theta_deg,s1_sq,dop_engine,dop_analytic,abs_diff\n"]
    for chunk, rhos in _grid_outputs("scheme2", thetas, stack):
        for theta, d_theta in zip(chunk, dop(rhos).tolist()):
            for (s1_sq, _), d_engine in zip(probes, d_theta):
                d_analytic = analytic_scheme2_dop(theta, np.sqrt(s1_sq))
                lines.append(
                    f"{_fmt(theta)},{_fmt(s1_sq)},{_fmt(d_engine)},{_fmt(d_analytic)},"
                    f"{_fmt(abs(d_engine - d_analytic))}\n"
                )
        yield "".join(lines)
        lines = []


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
