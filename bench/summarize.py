"""Summarize a set of benchmark runs, one row per workload and metric.

    python3 bench/summarize.py [--out FILE]

Reads every ``bench/results/*-trace0.json`` and reports, for each
end-to-end metric, the median and quartiles of the run values and their
spread (q3 - q1) / median, the quantity BENCHMARK.json bounds are judged
against.  ``--out`` also writes the table as JSON with the environment
of the runs and the per-layer values of any ``*-trace1.json`` runs.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    runs = defaultdict(list)
    env = None
    for path in sorted((BENCH / "results").glob("*-trace0.json")):
        doc = json.loads(path.read_text())
        runs[doc["workload"]].append(doc)
        env = doc["environment"]
    table = {}
    for workload, docs in sorted(runs.items()):
        row = {"runs": len(docs), "seeds": sorted(d["seed"] for d in docs),
               "failed": sum(d["result"]["failed"] for d in docs)}
        for name in names:
            vals = [d["result"]["metrics"][name]["value"] for d in docs]
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else vals * 3)
            row[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
            print(f"{workload:10s} {name:17s} median {med:10.4f} "
                  f"[{q1:.4f}, {q3:.4f}] spread {row[name]['spread']:.3f}")
        table[workload] = row
    for path in sorted((BENCH / "results").glob("*-trace1.json")):
        doc = json.loads(path.read_text())
        table.setdefault(doc["workload"], {})["per_layer"] = {
            "seed": doc["seed"], "trace_overhead_s": doc["trace_overhead_s"],
            "metrics": {k: v["value"]
                        for k, v in doc["result"]["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": env, "claim": None, "workloads": table},
            indent=2) + "\n")


if __name__ == "__main__":
    main()
