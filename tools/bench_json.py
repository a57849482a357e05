"""Summarize perfbench run records of two checkouts into one JSON file.

Reads the end-to-end records (``--trace 0``) that ``perfbench/run.py``
leaves under ``<checkout>/.perfbench_work/records/`` in a parent checkout
and a change checkout, and writes the median, quartiles, min and max of
every end-to-end metric per workload and side, with the seeds, git revision
and whether every run was correct.  Runs of the two sides that share a
workload and seed are pairs; for each metric it counts the pairs the change
wins, in the direction the change checkout's ``BENCHMARK.json`` calls
better (a tie is no win), and whether the change may claim a gain on it
(see ``gains``).  Each metric that ``BENCHMARK.json`` gives a bound gets a
no-regression verdict per workload (see ``verdicts``).  Each workload also
records which side's checkout has a ``.git`` directory (``git_dir``) and
whether both sides were made the same way (``same_checkout_kind``; a
warning is printed when not), because ``peak_rss_mb`` has read about 2 MB
lower for a ``git clone`` than for a plain copy of the same commit:

    python3 tools/bench_json.py PARENT_CHECKOUT CHANGE_CHECKOUT --out BENCH_<n>.json

Only the records and ``BENCHMARK.json`` are read; the harness is not run or
changed.
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


def load_metrics(checkout: str) -> dict:
    """End-to-end metric name -> its entry in BENCHMARK.json (``better``, ``bound``)."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def quartiles(values: list) -> tuple:
    """First and third quartiles, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _pairs(parent: list, change: list) -> dict:
    """Seed -> the metrics of the parent's and the change's run of it."""
    parent_by_seed = {r["env"]["seed"]: r["metrics"] for r in parent}
    return {r["env"]["seed"]: (parent_by_seed[r["env"]["seed"]], r["metrics"])
            for r in change if r["env"]["seed"] in parent_by_seed}


def _sign(spec: dict) -> int:
    """1 where higher is better, -1 where lower is: signed values compare
    the better one as the larger."""
    return 1 if spec["better"] == "higher" else -1


def _won(pairs: dict, name: str, sign: int) -> list:
    """Per pair holding ``name``, whether the change wins it (a tie is no win)."""
    return [sign * (c[name]["value"] - p[name]["value"]) > 0
            for p, c in pairs.values() if name in p and name in c]


def pair_wins(parent: list, change: list, metrics: dict) -> dict:
    """Seeds both sides ran and, per metric, the pairs the change wins."""
    pairs = _pairs(parent, change)
    wins = {}
    for name, spec in metrics.items():
        won = _won(pairs, name, _sign(spec))
        if won:
            wins[name] = sum(won)
    return {"seeds": sorted(pairs), "change_wins": wins}


def gains(parent: list, change: list, metrics: dict) -> dict:
    """Per metric with pairs, whether the change may claim a gain on it.

    It may when it wins at least nine tenths of the pairs, a tie counting
    for neither side, and its median is better than the parent's by more
    than the parent's interquartile range.
    """
    pairs = _pairs(parent, change)
    result = {}
    for name, spec in metrics.items():
        sign = _sign(spec)
        won = _won(pairs, name, sign)
        if not won:
            continue
        p, c = ([sign * r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                for runs in (parent, change))
        q1, q3 = quartiles(p)
        result[name] = (10 * sum(won) >= 9 * len(won)
                        and statistics.median(c) - statistics.median(p) > q3 - q1)
    return result


def verdicts(parent: list, change: list, metrics: dict) -> dict:
    """Per bounded metric, ``"ok"``, ``"worse"`` or ``"unresolved"``.

    Unresolved when the parent's interquartile range exceeds the bound as a
    share of the parent median, so the runs cannot tell a regression of that
    size, unless every change run beats every parent run.  Otherwise worse
    when the change median is worse than the parent median by more than the
    bound, as a share of the parent median.  Otherwise ok.
    """
    result = {}
    for name, spec in metrics.items():
        values = [[r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                  for runs in (parent, change)]
        if "bound" not in spec or not all(values):
            continue
        sign = _sign(spec)
        p, c = ([sign * v for v in side] for side in values)
        allowed = spec["bound"] * abs(statistics.median(p))
        q1, q3 = quartiles(p)
        if q3 - q1 > allowed and min(c) <= max(p):
            result[name] = "unresolved"
        elif statistics.median(c) < statistics.median(p) - allowed:
            result[name] = "worse"
        else:
            result[name] = "ok"
    return result


def summarize(runs: list) -> dict:
    """Run count, seeds, revisions, correctness and metric spreads of one side."""
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(values)
        metrics[name] = {"unit": m["unit"], "median": statistics.median(values),
                         "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    return {
        "runs": len(runs),
        "seeds": sorted(r["env"]["seed"] for r in runs),
        "git_rev": sorted({r["env"]["git_rev"] for r in runs}),
        "all_correct": all(all(r["checks"].values()) and not r["errors"]
                           for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs = {}
    for side, path in checkouts.items():
        runs[side] = {}
        for rec in load_records(path):
            runs[side].setdefault(rec["env"]["workload"], []).append(rec)
    if not all(runs.values()):
        print("error: no end-to-end records in "
              + ", ".join(checkouts[s] for s in SIDES if not runs[s]), file=sys.stderr)
        return 1
    try:
        metrics = load_metrics(args.change)
    except OSError as exc:
        print(f"error: cannot read the metric directions: {exc}", file=sys.stderr)
        return 1
    git_dir = {side: os.path.isdir(os.path.join(checkouts[side], ".git"))
               for side in SIDES}
    if git_dir["parent"] != git_dir["change"]:
        print("warning: one checkout has a .git directory and the other not; "
              "make both sides the same way", file=sys.stderr)
    result = {}
    for workload in sorted(set(runs["parent"]) | set(runs["change"])):
        sides = {side: runs[side].get(workload, []) for side in SIDES}
        result[workload] = {side: summarize(sides[side]) if sides[side] else None
                            for side in SIDES}
        result[workload]["pairs"] = pair_wins(sides["parent"], sides["change"], metrics)
        result[workload]["gains"] = gains(sides["parent"], sides["change"], metrics)
        result[workload]["verdicts"] = verdicts(sides["parent"], sides["change"], metrics)
        result[workload]["git_dir"] = git_dir
        result[workload]["same_checkout_kind"] = git_dir["parent"] == git_dir["change"]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
