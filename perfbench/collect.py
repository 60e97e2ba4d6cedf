"""Fold the run records in .perfbench_out/results/ into one BENCH trajectory file.

    python3 perfbench/collect.py perfbench/trajectory/BENCH_<name>.json

For each workload and trace mode the file holds, per metric, the median
and quartiles over the runs, the per-seed output hashes, and the
provenance of the runs (which must all agree).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"no run records under {RESULTS}", file=sys.stderr)
        return 1
    provenances = {json.dumps(r["provenance"], sort_keys=True) for r in records}
    if len(provenances) != 1:
        print("run records come from different machines or commits", file=sys.stderr)
        return 1
    workloads: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        entry = workloads.setdefault(r["workload"], {}).setdefault(
            "traced" if r["trace"] else "end_to_end", {"seeds": [], "output_sha256": {}, "values": {}}
        )
        entry["seeds"].append(r["seed"])
        entry["output_sha256"][str(r["seed"])] = r["output_sha256"]
        metrics = {k: v["value"] for k, v in r["metrics"].items()}
        if not r["trace"]:
            metrics.update({k: v[0] for k, v in r["summary"].items()})
        metrics["attempted"] = r["attempted"]
        metrics["failed"] = r["failed"]
        for name, value in metrics.items():
            entry["values"].setdefault(name, []).append(value)
    for modes in workloads.values():
        for entry in modes.values():
            entry["metrics"] = {name: summarize(values) for name, values in entry.pop("values").items()}
    out = {"provenance": records[0]["provenance"], "seconds": records[0]["seconds"], "workloads": workloads}
    Path(argv[1]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
