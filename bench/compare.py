"""Compare two benchmark results files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

A is the base (say the parent commit), B the candidate.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints one
markdown row with a verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B's median is better by more than the bound;
* ``no change`` -- within the bound either way;
* ``unresolved`` -- the run-to-run spread of either side exceeds the
  bound, unless every B value is better than every A value.

The raw ``wall_s`` gets a row too, without a verdict.  A side's values
are the per-run medians when it holds at least four runs of the
workload (spread: interquartile range over median, as
``statistics.quantiles`` gives it); with fewer runs the pooled per-rep
samples stand in (spread: range over median).  A markdown table of the
per-layer time metrics of the traced runs follows.  The output is ready
for a CI step summary.  The exit code is 1 when a metric regressed or an
output digest differs between the files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from run import declared_metrics, drift

#: Raw wall time: recorded and shown, but not gated -- on a shared
#: machine its run-to-run spread exceeds any useful bound (README).
RAW_WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": None}


def load_runs(path: Path) -> List[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def values_and_spread(runs: List[dict], metric: str
                      ) -> Tuple[List[float], float]:
    """The values a side is judged by, and their relative spread."""
    medians = [run["metrics"][metric]["median"] for run in runs]
    if len(medians) >= 4:
        q1, _, q3 = statistics.quantiles(medians, n=4)
        return medians, (q3 - q1) / statistics.median(medians)
    samples = [s for run in runs for s in run["metrics"][metric]["samples"]]
    return samples, (max(samples) - min(samples)) / statistics.median(samples)


def verdict(base: List[float], new: List[float], spread: float,
            bound: float, lower_is_better: bool) -> Tuple[float, str]:
    """The relative change of the medians (positive = worse) and its
    verdict."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = statistics.median(base), statistics.median(new)
    worse = sign * (b - a) / a
    if spread > bound:
        if all(sign * (x - y) < 0 for x in new for y in base):
            return worse, "improved"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "no change"


def by_workload(runs: List[dict], traced: bool) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in runs:
        if bool(run["trace"]) == traced:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def end_to_end_table(a: List[dict], b: List[dict], declared: dict
                     ) -> Tuple[List[str], bool]:
    lines = ["| workload | metric | A median | B median | change | "
             "spread A | spread B | bound | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    regressed = False
    runs_a, runs_b = by_workload(a, False), by_workload(b, False)
    for workload in sorted(set(runs_a) & set(runs_b)):
        for entry in declared["end_to_end"] + [RAW_WALL]:
            name, bound = entry["name"], entry["bound"]
            base, spread_a = values_and_spread(runs_a[workload], name)
            new, spread_b = values_and_spread(runs_b[workload], name)
            worse, word = verdict(base, new, max(spread_a, spread_b),
                                  bound or 0.0, entry["better"] == "lower")
            if bound is None:
                word = "not gated"
            regressed |= word == "regressed"
            lines.append(
                f"| {workload} | {name} ({entry['unit']}) | "
                f"{statistics.median(base):.4g} | "
                f"{statistics.median(new):.4g} | {worse:+.1%} worse | "
                f"{spread_a:.1%} | {spread_b:.1%} | "
                f"{'-' if bound is None else f'{bound:.0%}'} | {word} |")
    return lines, regressed


def layer_table(a: List[dict], b: List[dict], declared: dict) -> List[str]:
    """Per-layer time metrics (self or inclusive seconds) of the traced
    runs, medians over the runs of each side."""
    timed = [e["name"] for e in declared["per_layer"] if e["unit"] == "s"]
    lines = ["| workload | layer metric | A s | B s | delta s | delta |",
             "|---|---|---|---|---|---|"]
    runs_a, runs_b = by_workload(a, True), by_workload(b, True)
    for workload in sorted(set(runs_a) & set(runs_b)):
        for name in timed:
            x = statistics.median(r["layers"][name] for r in runs_a[workload])
            y = statistics.median(r["layers"][name] for r in runs_b[workload])
            if x == 0 and y == 0:
                continue
            share = f"{(y - x) / x:+.1%}" if x > 0 else "n/a"
            lines.append(f"| {workload} | {name} | {x:.4f} | {y:.4f} | "
                         f"{y - x:+.4f} | {share} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two bench/run.py results files")
    parser.add_argument("base", type=Path, help="results file A (base)")
    parser.add_argument("new", type=Path, help="results file B")
    args = parser.parse_args(argv)

    declared = declared_metrics()
    a, b = load_runs(args.base), load_runs(args.new)
    rows, regressed = end_to_end_table(a, b, declared)
    print("## End-to-end\n")
    print("\n".join(rows))
    print("\n## Per-layer time (traced runs)\n")
    print("\n".join(layer_table(a, b, declared)))
    mismatches = [problem for run in b for problem in drift(a, run)]
    if mismatches:
        print("\n## Output digests differ\n")
        print("\n".join(f"- {problem}" for problem in mismatches))
    return 1 if regressed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
