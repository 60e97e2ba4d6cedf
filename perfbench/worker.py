"""One fresh benchmark worker: set up, say READY, run whole blocks, print one JSON result line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Set-up is everything before the READY line: interpreter start, the
depolsim import and input generation.  The worker then runs blocks
``start_block, start_block + 1, ...`` of the workload's pool until its
ops have been busy for ``--budget`` seconds; with ``--finish-pool`` it
also keeps going until every block of the pool has run once, so the
output hash of a run covers the whole pool.

With ``--trace 1`` odd-numbered blocks run with the tracer's wrappers
installed and even ones without, so the traced and untraced op rates
come from interleaved blocks of the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--start-block", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--finish-pool", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    import depolsim as ds

    src = os.path.join(os.path.realpath(args.root), "src") + os.sep
    if not os.path.realpath(ds.__file__).startswith(src):
        raise SystemExit(f"depolsim imported from {ds.__file__}, not from {src}")

    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(args.root, ".perfbench_out", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ds, args.seed, workdir)
        print("READY", flush=True)
        result = run_blocks(ds, workload, args, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run_blocks(ds, workload, args, tracer) -> dict:
    blocks = workload.blocks
    op_ns: list[tuple[int, int, int]] = []  # (pool entry, traced, latency ns) per op
    busy_ns = 0
    digests: dict[int, str] = {}
    failed = 0
    errors: list[str] = []
    budget_ns = args.budget * 1e9
    block_index = args.start_block
    perf_counter_ns = time.perf_counter_ns
    while True:
        pool_index = block_index % len(blocks)
        block = blocks[pool_index]
        traced = tracer is not None and block_index % 2 == 1
        if traced:
            tracer.install()
        workload.tracer = tracer if traced else None
        outcomes = []
        for position, inp in enumerate(block):
            op_id = block_index * len(block) + position
            start = perf_counter_ns()
            try:
                out = tracer.run_op(op_id, workload.run, inp) if traced else workload.run(inp)
                ok = True
            except Exception as exc:  # a failing op is counted, and the run goes on
                out, ok = exc, False
            elapsed = perf_counter_ns() - start
            busy_ns += elapsed
            entry = pool_index * len(block) + position
            op_ns.append((entry, int(traced), elapsed))
            outcomes.append((entry, inp, out, ok))
        if traced:
            tracer.uninstall()
            tracer.classify_records(getattr(ds, "qst_linear", None))

        # oracle and output digest, outside the timed region
        for index, inp, out, ok in outcomes:
            digest = None
            if ok:
                try:
                    ok = bool(workload.check(inp, out))
                    if ok:
                        digest = hashlib.sha256(workload.canonical(inp, out)).hexdigest()[:16]
                except Exception as exc:
                    out, ok = exc, False
            if ok and digests.setdefault(index, digest) != digest:
                ok, out = False, RuntimeError(f"op {index} repeated with a different output")
            if not ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"op {index}: {out!r}" if isinstance(out, Exception) else f"op {index}: oracle failed")

        block_index += 1
        if busy_ns >= budget_ns and (not args.finish_pool or block_index >= len(blocks)):
            break

    result = {
        "failed": failed,
        "errors": errors,
        "op_ns": op_ns,
        "digests": digests,
        "next_block": block_index,
        "pool_blocks": len(blocks),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans_out:
            tracer.dump(args.spans_out)
    if hasattr(workload, "import_samples"):
        result["cli"] = {"import_samples": workload.import_samples, "out_bytes": workload.out_bytes}
    return result


if __name__ == "__main__":
    sys.exit(main())
