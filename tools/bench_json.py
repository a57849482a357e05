"""Summarize perfbench run records of two checkouts into one JSON file.

Reads the end-to-end records (``--trace 0``) that ``perfbench/run.py``
leaves under ``<checkout>/.perfbench_work/records/`` in a parent checkout
and a change checkout, and writes the median, min and max of every
end-to-end metric per workload and side, with the seeds, git revision and
whether every run was correct:

    python3 tools/bench_json.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<n>.json

Only the records are read; the harness is not run or changed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SIDES = ("parent", "change")


def load_records(checkout: str) -> list:
    """End-to-end run records of one checkout, in file-name order."""
    pattern = os.path.join(checkout, ".perfbench_work", "records", "*-trace0.json")
    records = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def summarize(records: list) -> dict:
    """Per workload: run count, seeds, revisions, correctness and metric spreads."""
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["env"]["workload"], []).append(rec)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        metrics = {}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": m["unit"], "median": statistics.median(values),
                             "min": min(values), "max": max(values)}
        out[workload] = {
            "runs": len(runs),
            "seeds": sorted(r["env"]["seed"] for r in runs),
            "git_rev": sorted({r["env"]["git_rev"] for r in runs}),
            "all_correct": all(all(r["checks"].values()) and not r["errors"]
                               for r in runs),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sides = {side: summarize(load_records(path))
             for side, path in zip(SIDES, (args.parent, args.change))}
    if not all(sides.values()):
        print("error: no end-to-end records in "
              + ", ".join(p for s, p in zip(SIDES, (args.parent, args.change))
                          if not sides[s]), file=sys.stderr)
        return 1
    workloads = sorted(set(sides["parent"]) | set(sides["change"]))
    result = {w: {side: sides[side].get(w) for side in SIDES} for w in workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
