#!/usr/bin/env python3
"""Compare two sets of benchmark passes: ``compare.py A/results.json B/results.json``.

For every (workload, end-to-end metric) prints both medians, quartiles
and sample counts, the ratio B/A with its base, and one verdict for B
against A:

``worse``       B's median is worse than A's by more than the metric's bound
``unresolved``  either side's quartile spread is wider than the bound, so
                the runs cannot tell (unless every B run beats every A run)
``better``      B's median is better by more than the bound; with
                ``--pairs``: B wins at least nine tenths of the A/B pairs
                (ties count for neither) and the medians differ by more
                than the distance between A's quartiles
``same``        none of the above

A higher failed ratio is always ``worse``.  Exit status 1 if any row is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cutqc_e2e import catalog  # noqa: E402 - needs this directory on the path


def load(path: str) -> Dict[str, List[Dict]]:
    """Untraced passes of one results.json, grouped by workload, in run order."""
    grouped: Dict[str, List[Dict]] = {}
    for record in json.loads(Path(path).read_text()):
        if not record["trace"]:
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: List[float], b: List[float], metric: Dict, pairs: bool) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    # Relative change of the median, positive when B is worse.
    worsening = (b_mid - a_mid) / a_mid * (1 if lower else -1)
    if worsening > bound:
        return "worse"
    b_beats_a = max(b) < min(a) if lower else min(b) > max(a)
    spread = max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid)
    if spread > bound and not b_beats_a:
        return "unresolved"
    if pairs:
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        decided = min(len(a), len(b)) - ties
        beyond_noise = abs(b_mid - a_mid) > a_high - a_low
        if decided and wins >= 0.9 * decided and worsening < 0 and beyond_noise:
            return "better"
    elif -worsening > bound:
        return "better"
    return "same"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the parent (A)")
    parser.add_argument("b", help="results.json of the change (B)")
    parser.add_argument("--pairs", action="store_true",
                        help="apply the nine-tenths-of-pairs rule for 'better'")
    args = parser.parse_args(argv)
    side_a, side_b = load(args.a), load(args.b)

    def cell(values: List[float]) -> str:
        low, mid, high = quartiles(values)
        return f"{mid:.5g} [{low:.5g}, {high:.5g}] n={len(values)}"

    rows = [("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "B/A (base: A median)", "bound", "verdict")]
    any_worse = False
    for workload in catalog.workload_names():
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            continue
        for metric in catalog.END_TO_END:
            name, unit = metric["name"], metric["unit"]
            a = [run["metrics"][name] for run in runs_a]
            b = [run["metrics"][name] for run in runs_b]
            word = verdict(a, b, metric, args.pairs)
            base = statistics.median(a)
            rows.append((workload, name, cell(a), cell(b),
                         f"{statistics.median(b) / base:.4f} (A = {base:.5g} {unit})",
                         f"{metric['bound']:.2f}", word))
            any_worse |= word == "worse"
        failed = [
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in (runs_a, runs_b)
        ]
        ratios = [bad / total for bad, total in failed]
        word = "worse" if ratios[1] > ratios[0] else "same"
        rows.append((workload, "failed_ratio",
                     *(f"{r:.6f} ({bad}/{total})" for r, (bad, total) in zip(ratios, failed)),
                     "-", "0", word))
        any_worse |= word == "worse"

    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    for row in rows:
        print("  ".join(text.ljust(width) for text, width in zip(row, widths)).rstrip())
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
