"""depolsim benchmark: one workload and seed per run, end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see workloads.py for the input mix and why each was chosen):
``sweep``, ``coherent_chain``, ``tomography`` and ``cli``.  A run starts
WORKERS fresh worker interpreters one after another; each sets up
(interpreter start, ``import depolsim``, input generation), then runs
whole blocks of the workload's closed loop for its share of
``--seconds`` of busy op time.  The oracle and output hashing run outside
the timed region.  Nothing else runs while a worker measures.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from the span tracer (tracer.py) plus the tracing overhead.
Human-readable lines (with sample counts, error rate, tail latency and
``output_sha256``) come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record with
provenance is written to ``.perfbench_out/results/``, and the spans of a
traced run to ``.perfbench_out/spans/``.

``--smoke`` runs every workload for a block or two in both modes and
checks that every metric named in BENCHMARK.json appears with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import parse_importtime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "coherent_chain", "tomography", "cli")
WORKERS = 4
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

_SPAN_FIELDS = ("calls", "total_s", "self_s", "failed")
# the workloads are single-threaded by design; idle BLAS threads would spin on the second core
_SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYER_UNITS = {
    "temporal.run_scheme.calls": "calls/op",
    "temporal.run_scheme.self_s": "s/op",
    "temporal.collapse.calls": "calls/op",
    "temporal.collapse.total_s": "s/op",
    "temporal.collapse_with_coherence.calls": "calls/op",
    "temporal.collapse_with_coherence.total_s": "s/op",
    "temporal.bins_out": "bins/op",
    "temporal.coherence_pairs": "pairs/op",
    "channels.build_scheme.calls": "calls/op",
    "channels.build_scheme.total_s": "s/op",
    "channels.extract_channel.calls": "calls/op",
    "channels.extract_channel.self_s": "s/op",
    "channels.propagations_per_extract": "calls/extract",
    "measurement.sample_counts.calls": "calls/op",
    "measurement.sample_counts.total_s": "s/op",
    "tomography.qst_mle.calls": "calls/op",
    "tomography.qst_mle.total_s": "s/op",
    "tomography.qst_mle.failed": "count",
    "tomography.qst_mle.boundary_frac": "ratio",
    "tomography.qpt.total_s": "s/op",
    "tomography.process_fidelity.total_s": "s/op",
    "polarization.dop.total_s": "s/op",
    "polarization.stokes_from_density.total_s": "s/op",
    "cli.import.depolsim_s": "s",
    "cli.import.scipy_s": "s",
    "cli.sweep.wall_s": "s",
    "cli.map.wall_s": "s",
    "cli.tomo.wall_s": "s",
    "cli.sweep.out_bytes": "bytes",
    "cli.map.out_bytes": "bytes",
    "cli.tomo.out_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def run_worker(workload, seed, budget, start_block, trace, finish_pool, index) -> tuple[float, dict, dict | None]:
    """Start one fresh worker; return (set-up seconds, its result, its import times if traced)."""
    (OUT / "logs").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    err_path = OUT / "logs" / f"{workload}-w{index}.err"
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "worker.py")]
    cmd += ["--root", str(ROOT), "--workload", workload, "--seed", str(seed), "--budget", str(budget)]
    cmd += ["--start-block", str(start_block), "--trace", str(trace)]
    if finish_pool:
        cmd.append("--finish-pool")
    if trace:
        cmd += ["--spans-out", str(OUT / "spans" / f"{workload}-w{index}.jsonl")]
    paths = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **_SINGLE_THREADED)
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT, start_new_session=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if ready.strip() != "READY" or proc.returncode != 0:
        tail = "\n".join(line for line in stderr.splitlines() if not line.startswith("import time:"))[-2000:]
        raise BenchError(f"{workload} worker {index} failed (exit {proc.returncode}):\n{tail}")
    return setup_s, json.loads(rest.strip().splitlines()[-1]), parse_importtime(stderr) if trace else None


def measure(workload, seed, seconds, trace, workers=WORKERS, smoke=False) -> dict:
    setups, results, import_samples = [], [], []
    next_block = 0
    for index in range(workers):
        budget = 0.0 if smoke else seconds / workers
        finish_pool = not smoke and index == workers - 1
        setup_s, result, imports = run_worker(workload, seed, budget, next_block, trace, finish_pool, index)
        setups.append(setup_s)
        results.append(result)
        if imports is not None:
            import_samples.append(imports)
        next_block = result["next_block"]

    op_ns = [tuple(op) for r in results for op in r["op_ns"]]
    attempted = len(op_ns)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    digests: dict[str, str] = {}
    for r in results:
        for index, digest in r["digests"].items():
            if digests.setdefault(index, digest) != digest:
                failed += 1
                errors.append(f"op {index}: output differs between workers")
    covered = next_block >= results[0]["pool_blocks"]
    sha = hashlib.sha256("".join(f"{i} {digests[i]}\n" for i in sorted(digests, key=int)).encode()).hexdigest()

    latencies = sorted(ns for _entry, _traced, ns in op_ns)
    best = best_latencies(op_ns, traced=0)
    rss_key = "child_peak_rss_kb" if workload == "cli" else "peak_rss_kb"
    summary = {
        "ops_per_s": (len(best) / (sum(best.values()) / 1e9), "1/s", len(best)),
        "latency_p50_ms": (statistics.median(best.values()) / 1e6, "ms", len(best)),
        "error_rate": (failed / attempted, "ratio", attempted),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(r[rss_key] for r in results) / 1024.0, "MB", len(results)),
        "raw_ops_per_s": (attempted / (sum(latencies) / 1e9), "1/s", attempted),
        "raw_latency_p50_ms": (statistics.median(latencies) / 1e6, "ms", attempted),
    }
    if attempted >= 100:
        summary["latency_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] / 1e6, "ms", attempted)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": workers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "pool_covered": covered,
        "output_sha256": sha,
        "summary": summary,
    }
    if trace:
        report["layers"] = layer_metrics(results, import_samples, op_ns)
        report["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in report["layers"].items()}
    else:
        report["metrics"] = {k: {"value": summary[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}
    report["correct"] = failed == 0 and (covered or smoke)
    return report


def best_latencies(op_ns, traced) -> dict[int, int]:
    """Per pool entry, the fastest of its repeats (traced or untraced ones only).

    Every entry of the input pool runs several times in a run.  Other
    tenants of a shared machine slow it down in bursts lasting seconds,
    which moves medians of raw op times by tens of percent between runs;
    the fastest repeat of each entry is far steadier and still moves with
    any change to the program's own cost.
    """
    best: dict[int, int] = {}
    for entry, was_traced, ns in op_ns:
        if was_traced == traced and ns < best.get(entry, ns + 1):
            best[entry] = ns
    return best


def layer_metrics(results, import_samples, op_ns) -> dict:
    """Per-layer metrics of a traced run, per traced op unless the unit says otherwise."""
    spans: dict[str, dict] = {}
    edges: dict[str, int] = {}
    absent: set[str] = set()
    counters = {"bins_out": 0, "coherence_pairs": 0, "mle_classified": 0, "mle_boundary": 0}
    out_bytes: dict[str, int] = {}
    for r in results:
        layers = r["layers"]
        for name, stats in layers["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
        for edge, count in layers["edges"].items():
            edges[edge] = edges.get(edge, 0) + count
        absent.update(layers["absent"])
        for key in counters:
            counters[key] += layers[key]
        if "cli" in r:
            import_samples = import_samples + r["cli"]["import_samples"]
            out_bytes.update(r["cli"]["out_bytes"])

    traced_ops = sum(traced for _entry, traced, _ns in op_ns)

    def per_op(value):
        return value / traced_ops if traced_ops else 0.0

    def span(name):
        return spans.get(name, {"calls": 0, "failed": 0, "total_ns": 0, "self_ns": 0})

    metrics = {}
    for name in LAYER_UNITS:
        target, field = name.rsplit(".", 1)
        if field in _SPAN_FIELDS and not target.startswith("cli."):
            if target in absent:
                continue
            stats = span(target)
            if field == "calls":
                metrics[name] = per_op(stats["calls"])
            elif field == "failed":
                metrics[name] = stats["failed"]
            else:
                metrics[name] = per_op(stats["total_ns" if field == "total_s" else "self_ns"]) / 1e9

    if not {"temporal.collapse", "temporal.collapse_with_coherence"} <= absent:
        metrics["temporal.bins_out"] = per_op(counters["bins_out"])
    if "temporal.collapse_with_coherence" not in absent:
        metrics["temporal.coherence_pairs"] = per_op(counters["coherence_pairs"])
    if not {"channels.extract_channel", "temporal.run_scheme"} & absent:
        extracts = span("channels.extract_channel")["calls"]
        propagations = edges.get("channels.extract_channel>temporal.run_scheme", 0)
        metrics["channels.propagations_per_extract"] = propagations / extracts if extracts else 0.0
    if "tomography.qst_mle" not in absent:
        classified = counters["mle_classified"]
        metrics["tomography.qst_mle.boundary_frac"] = counters["mle_boundary"] / classified if classified else 0.0
    for part in ("depolsim_s", "scipy_s"):
        values = [s[part] for s in import_samples]
        metrics[f"cli.import.{part}"] = statistics.median(values) if values else 0.0
    for command in ("sweep", "map", "tomo"):
        stats = span(f"cli.{command}")
        metrics[f"cli.{command}.wall_s"] = stats["total_ns"] / stats["calls"] / 1e9 if stats["calls"] else 0.0
        metrics[f"cli.{command}.out_bytes"] = out_bytes.get(command, 0)
    # ops_per_s ratio over the pool entries that ran both traced and untraced
    traced_best, untraced_best = best_latencies(op_ns, traced=1), best_latencies(op_ns, traced=0)
    both = traced_best.keys() & untraced_best.keys()
    if both:
        metrics["trace.overhead_frac"] = sum(untraced_best[e] for e in both) / sum(traced_best[e] for e in both) - 1.0
    else:
        metrics["trace.overhead_frac"] = 0.0
    return {name: metrics[name] for name in LAYER_UNITS if name in metrics}


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=30
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
    }


def print_report(report):
    w = report["workload"]
    print(f"# depolsim benchmark  workload={w} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']} workers={report['workers']}")
    print(f"# provenance {json.dumps(report['provenance'], sort_keys=True)}")
    for name, (value, unit, n) in report["summary"].items():
        print(f"{w:15s} {name:16s} {value:14.6g} {unit:6s} n={n}")
    for name, value in report.get("layers", {}).items():
        print(f"{w:15s} {name:42s} {value:14.6g} {LAYER_UNITS[name]}")
    print(f"{w:15s} output_sha256    {report['output_sha256']}  pool_covered={report['pool_covered']}")
    for error in report["errors"]:
        print(f"# error: {error}")


def check_checkout():
    if not (ROOT / "src" / "depolsim" / "__init__.py").is_file():
        raise BenchError(f"no depolsim sources under {ROOT / 'src'}; run from a full checkout")


def run_once(workload, seed, seconds, trace, smoke=False) -> dict:
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        report = measure(workload, seed, seconds, trace, workers=2 if smoke else WORKERS, smoke=smoke)
    finally:
        signal.alarm(0)
    report["provenance"] = provenance()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if not smoke:
        path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return report


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expected[0] != END_TO_END_UNITS or expected[1] != LAYER_UNITS:
        raise BenchError("BENCHMARK.json metric names or units differ from run.py")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            report = run_once(workload, 1, 0.0, trace, smoke=True)
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            if got != expected[trace] or not report["correct"] or report["attempted"] < 1:
                print_report(report)
                raise BenchError(f"smoke failed for {workload} trace={trace}: metrics {sorted(got)}")
            print(f"smoke ok  {workload:15s} trace={trace} ops={report['attempted']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        check_checkout()
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        report = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
