"""The benchmark's four workloads: inputs, one op, its oracle and its canonical output.

Every workload is a closed loop with a single caller.  Its inputs are a
pool of *blocks* generated from the run seed; each block holds the
workload's whole input mix (every scheme, shot count, chain length or
command in fixed proportion), so a run that stops at a block boundary
measures the stated mix whatever the seed.  `run` is the timed op;
`check` (the oracle) and `canonical` (the bytes hashed into
``output_sha256``) run outside the timed region.

Ops call depolsim through attribute lookups on the package (``ds.run_scheme``)
so that the tracer's wrappers take effect when they are installed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from tracer import parse_importtime

SWEEP_SCHEMES = ("scheme1", "scheme2", "isotropic_triple")
SWEEP_INPUTS = ("h", "p", "r")
SWEEP_INPUT_S1 = {"h": 1.0, "p": 0.0, "r": 0.0}
SWEEP_THETAS = tuple(k * 0.1 for k in range(901))  # 0:90:0.1, as the CLI's --theta-range builds it
CSV_HEADER = ["theta_deg", "input", "s1", "s2", "s3", "dop"]


def _hex(values) -> str:
    return ",".join(float(x).hex() for x in np.asarray(values, dtype=complex).ravel().view(float))


def _triple_shrink(theta_deg: float) -> float:
    t = math.radians(theta_deg)
    return abs(math.cos(2.0 * t)) * math.cos(t) ** 4


class Sweep:
    """One op: build_scheme + run_scheme + dop + stokes_from_density for one (scheme, theta, input).

    Why: these are the paper's tunability curves.  Engine propagation on
    few bins (3 for scheme1 and scheme2, 27 for the triple) does almost
    all the work and tomography does none, so an angle-batched engine
    shows here and a tomography change should not.  scheme2 sits beside
    scheme1 and the triple so that the op times do not split 50/50
    between two costs: with two schemes the median op time fell in the
    gap between them and moved by up to 20% from run to run.
    """

    def __init__(self, ds, seed: int, workdir: str):
        self.ds = ds
        rng = np.random.default_rng(seed)
        self.blocks = []  # one block per theta: every scheme x every input
        for k in rng.permutation(len(SWEEP_THETAS)):
            block = [(s, SWEEP_THETAS[k], lbl) for s in SWEEP_SCHEMES for lbl in SWEEP_INPUTS]
            self.blocks.append([block[i] for i in rng.permutation(len(block))])

    def run(self, inp):
        ds = self.ds
        scheme, theta, label = inp
        rho = ds.run_scheme(ds.build_scheme(scheme, theta), ds.JONES_STATES[label])
        return ds.stokes_from_density(rho), ds.dop(rho)

    def check(self, inp, out) -> bool:
        ds = self.ds
        scheme, theta, label = inp
        s, d = out
        if not np.all(np.isfinite(s)):
            return False
        if scheme == "isotropic_triple":
            expected = _triple_shrink(theta)
        elif scheme == "scheme2":
            expected = ds.analytic_scheme2_dop(theta, SWEEP_INPUT_S1[label])
        else:
            expected = ds.dop(ds.run_scheme(ds.scheme1_rotated_crystal(theta), ds.JONES_STATES[label]))
        return abs(d - expected) <= 1e-9

    def canonical(self, inp, out) -> bytes:
        scheme, theta, label = inp
        return f"{scheme},{theta.hex()},{label},{_hex(out[0])},{float(out[1]).hex()}".encode()


class CoherentChain:
    """One op: extract_channel of a random chain of K crystals with delays 3^k, gamma = 0.2.

    Each crystal is preceded by a random HWP or QWP; K is 5, 6 and 7 once
    per block (32 to 128 occupied bins).  Why: the O(B^2) coherent
    collapse is over 90% of the op and every extract pays four
    propagations, so a banded contraction or a single-propagation
    extract shows here while tomography stays idle.
    """

    GAMMA = 0.2
    BLOCKS = 5  # odd, so traced and untraced blocks alternate over every pool block

    def __init__(self, ds, seed: int, workdir: str):
        self.ds = ds
        rng = np.random.default_rng(seed)
        self.blocks = []
        for _ in range(self.BLOCKS):
            block = []
            for n_crystals in rng.permutation([5, 6, 7]):
                elements = []
                for k in range(int(n_crystals)):
                    plate = ds.half_wave if rng.integers(2) == 0 else ds.quarter_wave
                    elements.append(plate(float(rng.uniform(0.0, 180.0))))
                    elements.append(ds.crystal(float(rng.uniform(0.0, 180.0)), 3**k))
                block.append(ds.SchemeConfig(tuple(elements), coherence=self.GAMMA))
            self.blocks.append(block)

    def run(self, config):
        return self.ds.extract_channel(config)

    def check(self, config, channel) -> bool:
        # the images of the +-axis points must stay inside the Bloch ball
        for i in range(3):
            for sign in (1.0, -1.0):
                image = sign * channel.m[:, i] + channel.b
                if not np.all(np.isfinite(image)) or np.linalg.norm(image) > 1.0 + 1e-9:
                    return False
        return True

    def canonical(self, config, channel) -> bytes:
        return f"{_hex(channel.m)};{_hex(channel.b)}".encode()


class Tomography:
    """One op: the in-library tomo pipeline for one (scheme, theta, shots).

    4 x run_scheme, theory qpt, 4 x (sample_counts + qst_mle), qpt and
    process_fidelity.  Each block holds every scheme x shots in {1e3, 1e4,
    1e5} twice: once at an anchor angle {0, 45, isotropic point, 90},
    once uniform in [0, 90].  Why: qst_mle dominates and the engine does
    little.  Anchor angles give pure outputs whose linear estimates are
    unphysical, which drives the MLE onto its boundary branch; uniform
    angles stay interior, so an MLE change is tested on both branches.
    """

    BLOCKS = 3  # odd, so traced and untraced blocks alternate over every pool block
    SHOTS = (1_000, 10_000, 100_000)
    LABELS = ("h", "v", "p", "r")

    def __init__(self, ds, seed: int, workdir: str):
        self.ds = ds
        rng = np.random.default_rng(seed)
        anchors = (0.0, 45.0, ds.ISOTROPIC_POINT_DEG, 90.0)
        self.blocks = []
        for _ in range(self.BLOCKS):
            block = []
            for scheme in ds.SCHEME_NAMES:
                for shots in self.SHOTS:
                    for anchored in (True, False):
                        if scheme == "lyot":
                            theta = None
                        elif anchored:
                            theta = anchors[int(rng.integers(len(anchors)))]
                        else:
                            theta = float(rng.uniform(0.0, 90.0))
                        sample_seed = int(rng.integers(2**31))
                        block.append((ds.build_scheme(scheme, theta), shots, sample_seed))
            self.blocks.append([block[i] for i in rng.permutation(len(block))])

    def run(self, inp):
        ds = self.ds
        config, shots, sample_seed = inp
        outputs = [ds.run_scheme(config, ds.JONES_STATES[lbl]) for lbl in self.LABELS]
        chi_theory = ds.qpt(*outputs)
        estimates = [ds.qst_mle(ds.sample_counts(rho, shots, sample_seed + i)) for i, rho in enumerate(outputs)]
        chi_hat = ds.qpt(*estimates)
        return estimates, chi_theory, chi_hat, ds.process_fidelity(chi_hat, chi_theory)

    def check(self, inp, out) -> bool:
        ds = self.ds
        _config, shots, _seed = inp
        estimates, chi_theory, chi_hat, fidelity = out
        for rho in estimates:
            if np.abs(rho - rho.conj().T).max() > 1e-12 or abs(np.trace(rho) - 1.0) > 1e-12:
                return False
            if np.linalg.eigvalsh(rho).min() < -1e-12:
                return False
        if ds.trace_preservation_residual(chi_theory) >= 1e-9:
            return False
        # clipping negative chi eigenvalues and renormalizing is not trace preserving,
        # so the reconstructed chi is held to TP only when nothing was clipped
        if chi_hat.clipped_mass == 0.0 and ds.trace_preservation_residual(chi_hat) >= 1e-9:
            return False
        return shots < 100_000 or fidelity > 0.97

    def canonical(self, inp, out) -> bytes:
        estimates, _chi_theory, chi_hat, fidelity = out
        return f"{_hex(estimates)};{_hex(chi_hat.matrix)};{float(fidelity).hex()}".encode()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


class Cli:
    """One op: one fresh-interpreter ``python -m depolsim`` run writing --out.

    The pool is one block of three commands (sweep, map, tomo) with seeded
    angles, so every later block repeats them and their outputs must be
    byte-identical.  Why: this is the only workload where every op pays
    interpreter start plus import, and where the cli module's own CSV and
    JSON formatting is a large share of the work.
    """

    def __init__(self, ds, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = None  # set by the worker for traced blocks
        self.import_samples: list[dict] = []
        self.out_bytes: dict[str, int] = {}
        theta_map = f"{rng.uniform(0.0, 90.0):.6f}"
        theta_tomo = f"{rng.uniform(0.0, 90.0):.6f}"
        tomo_seed = str(int(rng.integers(2**31)))
        self.blocks = [
            [
                ("sweep", ["--scheme", "isotropic_triple", "--theta-range", "0:90:0.1", "--inputs", "h", "p", "r"]),
                ("map", ["--scheme", "isotropic_triple", "--theta", theta_map, "--samples", "100000"]),
                ("tomo", ["--scheme", "scheme1", "--theta", theta_tomo, "--shots", "100000", "--seed", tomo_seed]),
            ]
        ]

    def run(self, inp):
        command, argv = inp
        out_path = os.path.join(self.workdir, f"{command}.out")
        flags = ["-X", "importtime"] if self.tracer is not None else []
        cmd = [sys.executable, *flags, "-m", "depolsim", command, *argv, "--out", out_path]
        if self.tracer is not None:
            span = self.tracer.name_id(f"cli.{command}")
            return self.tracer.call(span, subprocess.run, cmd, capture_output=True, text=True, timeout=120)
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

    def check(self, inp, proc) -> bool:
        command, _argv = inp
        if "import time:" in proc.stderr:
            sample = parse_importtime(proc.stderr)
            if sample is not None:
                self.import_samples.append(sample)
        if proc.returncode != 0:
            return False
        out_path = os.path.join(self.workdir, f"{command}.out")
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        proc.output = data
        self.out_bytes[command] = len(data)
        text = data.decode("utf-8")
        if command == "sweep":
            rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
            if rows[0] != CSV_HEADER or len(rows) != 1 + len(SWEEP_THETAS) * len(SWEEP_INPUTS):
                return False
            for row in rows[1:]:
                values = [float(row[0])] + [float(x) for x in row[2:]]
                if len(row) != len(CSV_HEADER) or not all(math.isfinite(v) for v in values):
                    return False
                if abs(values[-1] - _triple_shrink(values[0])) > 1e-9:
                    return False
            return True
        report = json.loads(text, parse_constant=_reject_constant)
        if command == "map":
            points = np.asarray(report["points"], dtype=float)
            return points.shape == (100_000, 3) and bool(np.all(np.linalg.norm(points, axis=1) <= 1.0 + 1e-9))
        return report["process_fidelity"] > 0.97

    def canonical(self, inp, proc) -> bytes:
        return proc.output


WORKLOADS = {"sweep": Sweep, "coherent_chain": CoherentChain, "tomography": Tomography, "cli": Cli}
