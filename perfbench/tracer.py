"""In-memory span tracer that times depolsim's layers from outside.

`Tracer.install` swaps timing wrappers in for public functions of the
package's modules, and for every other depolsim module that bound the
same function object with ``from ... import``, so internal calls (for
example ``channels.extract_channel`` -> ``temporal.run_scheme``) are seen
too.  Each call records a span ``(name, start, end, parent, op id, ok)``;
self times are derived from the spans afterwards.  A wrapper whose target
no longer exists is skipped and its name listed in `Tracer.absent`, so the
metrics built on it are reported as absent rather than failing the run.

This module does not import depolsim, so the parent process can use
`parse_importtime` without paying for the package import.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, public function) pairs wrapped during traced blocks
TARGETS = (
    ("polarization", "dop"),
    ("polarization", "stokes_from_density"),
    ("temporal", "run_scheme"),
    ("temporal", "collapse"),
    ("temporal", "collapse_with_coherence"),
    ("channels", "build_scheme"),
    ("channels", "extract_channel"),
    ("measurement", "sample_counts"),
    ("tomography", "qst_mle"),
    ("tomography", "qpt"),
    ("tomography", "process_fidelity"),
)

OP_SPAN = "op"


class Tracer:
    """Span recorder plus the counters taken at the same call boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start_ns, end_ns, parent_index, op_id, ok)
        self._stack: list[int] = []
        self._patched: list = []
        self._wrappers: dict[str, object] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self.bins_out = 0
        self.coherence_pairs = 0
        self.mle_records: list = []  # qst_mle inputs, classified outside the timed region
        self.mle_classified = 0
        self.mle_boundary = 0
        self._hooks = {
            "temporal.collapse": self._count_collapse,
            "temporal.collapse_with_coherence": self._count_coherent_collapse,
            "tomography.qst_mle": self._keep_record,
        }

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named by `name_id`."""
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            spans[index] = (name_id, start, end, parent, self.op_id, ok)

    def run_op(self, op_id: int, fn, inp):
        """One workload op as a root span; every span inside shares `op_id`."""
        self.op_id = op_id
        return self.call(self.name_id(OP_SPAN), fn, inp)

    # --- counters taken at the wrapped boundaries -------------------------

    def _count_collapse(self, args, kwargs):
        self.bins_out += len(args[0])

    def _count_coherent_collapse(self, args, kwargs):
        gamma = args[1] if len(args) > 1 else kwargs.get("gamma", 0.0)
        if gamma > 0.0:  # gamma == 0 delegates to collapse, which counts itself
            bins = len(args[0])
            self.bins_out += bins
            self.coherence_pairs += bins * bins

    def _keep_record(self, args, kwargs):
        self.mle_records.append(args[0] if args else kwargs["record"])

    def classify_records(self, qst_linear):
        """Count the kept qst_mle inputs whose linear estimate is unphysical (the MLE's boundary branch)."""
        if qst_linear is not None:
            for record in self.mle_records:
                self.mle_boundary += not qst_linear(record).physical
            self.mle_classified += len(self.mle_records)
        self.mle_records.clear()

    # --- swapping wrappers in and out ---------------------------------------

    def _wrapper(self, name: str, fn):
        name_id = self.name_id(name)
        hook = self._hooks.get(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            return call(name_id, fn, *args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "depolsim" or n.startswith("depolsim.")]
        for modname, fname in TARGETS:
            name = f"{modname}.{fname}"
            original = getattr(sys.modules.get(f"depolsim.{modname}"), fname, None)
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if name not in self._wrappers:
                self._wrappers[name] = self._wrapper(name, original)
            for module in modules:
                if module.__dict__.get(fname) is original:
                    setattr(module, fname, self._wrappers[name])
                    self._patched.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, failures, total and self nanoseconds; plus parent->child call counts."""
        per_name = {name: {"calls": 0, "failed": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        edges: dict[str, int] = {}
        spans = self.spans
        for name_id, start, end, parent, _op, ok in spans:
            stats = per_name[self.names[name_id]]
            duration = end - start
            stats["calls"] += 1
            stats["failed"] += not ok
            stats["total_ns"] += duration
            stats["self_ns"] += duration
            if parent >= 0:
                parent_name = self.names[spans[parent][0]]
                per_name[parent_name]["self_ns"] -= duration
                edge = f"{parent_name}>{self.names[name_id]}"
                edges[edge] = edges.get(edge, 0) + 1
        return {
            "spans": per_name,
            "edges": edges,
            "absent": list(self.absent),
            "bins_out": self.bins_out,
            "coherence_pairs": self.coherence_pairs,
            "mle_classified": self.mle_classified,
            "mle_boundary": self.mle_boundary,
        }

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, op, ok in self.spans:
                fh.write(
                    json.dumps(
                        {"name": self.names[name_id], "start_ns": start, "end_ns": end, "parent": parent, "op": op, "ok": ok}
                    )
                    + "\n"
                )


def parse_importtime(text: str) -> dict | None:
    """Cumulative import seconds of depolsim and of scipy from ``-X importtime`` output.

    ``scipy_s`` sums every scipy module whose importer was not itself a
    scipy module, i.e. the whole time spent importing scipy.  Returns None
    if depolsim does not appear in the output.
    """
    rows = []  # (depth, name, cumulative_us)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:") :].split("|")
        try:
            cumulative = int(fields[1])
        except ValueError:  # the header row
            continue
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip())) // 2
        rows.append((depth, name, cumulative))
    # importtime prints children before their parent, one level deeper
    parent_of = [None] * len(rows)
    open_rows: list[int] = []
    for i, (depth, _name, _cum) in enumerate(rows):
        while open_rows and rows[open_rows[-1]][0] > depth:
            parent_of[open_rows.pop()] = i
        open_rows.append(i)
    depolsim_us = None
    scipy_us = 0
    for i, (_depth, name, cumulative) in enumerate(rows):
        if name == "depolsim":
            depolsim_us = cumulative
        if name == "scipy" or name.startswith("scipy."):
            p = parent_of[i]
            if p is None or not (rows[p][1] == "scipy" or rows[p][1].startswith("scipy.")):
                scipy_us += cumulative
    if depolsim_us is None:
        return None
    return {"depolsim_s": depolsim_us / 1e6, "scipy_s": scipy_us / 1e6}
