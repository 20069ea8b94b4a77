#!/usr/bin/env python
"""Perf-trajectory gate: fail CI when a benchmark speedup regresses.

``results/baselines.json`` commits a conservative baseline speedup per
benchmark artifact; this script compares every fresh ``BENCH_*.json``
against it and fails the build when a measured speedup drops more than
``tolerance`` (default 30%) below its committed baseline.

The baselines are deliberately set near the benches' own assertion
floors rather than at reference-machine peaks: CI runners vary by 2-3x
in absolute speed, but a *healthy* configuration clears these floors on
any of them, so a breach means a real regression (or a broken bench),
not machine noise.  Ratchet the baselines upward as the floors rise.

A bench may declare ``skip_unless_key``: if the artifact records that
key as falsy (e.g. ``"gated": false`` when the host has too few cores
for a parallel speedup to be meaningful), the entry is reported as
skipped instead of compared.

Usage::

    python tools/check_bench_regression.py [--results-dir results]
        [--baselines results/baselines.json] [--allow-missing]
        [--only NAME ...]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def resolve_key(document, dotted):
    """Walk a dotted path (``load.queries_per_second``) through nested dicts."""
    value = document
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(dotted)
        value = value[part]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", default=str(REPO_ROOT / "results"),
        help="directory holding the fresh BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--baselines", default=str(REPO_ROOT / "results" / "baselines.json"),
        help="committed baseline file",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="skip benches whose artifact file is absent instead of failing",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="gate only the named bench(es); repeatable",
    )
    args = parser.parse_args(argv)

    results_dir = pathlib.Path(args.results_dir)
    config = json.loads(pathlib.Path(args.baselines).read_text())
    tolerance = float(config.get("tolerance", 0.30))

    benches = config["benches"]
    if args.only:
        unknown = sorted(set(args.only) - set(benches))
        if unknown:
            print(f"unknown bench name(s): {', '.join(unknown)}")
            return 2
        benches = {name: benches[name] for name in args.only}

    rows = []
    failures = []
    for name, spec in sorted(benches.items()):
        path = results_dir / spec["file"]
        baseline = float(spec["baseline"])
        # An entry may pin its own tolerance — the obs-overhead gate is a
        # hard ceiling (tracing may cost at most 5%), not a perf floor
        # that CI-runner variance should be allowed to erode.
        entry_tolerance = float(spec.get("tolerance", tolerance))
        floor = baseline * (1.0 - entry_tolerance)
        if not path.exists():
            if args.allow_missing:
                rows.append((name, "--", baseline, floor, "SKIP (missing)"))
                continue
            rows.append((name, "--", baseline, floor, "FAIL (missing file)"))
            failures.append(f"{name}: {path} missing")
            continue
        document = json.loads(path.read_text())
        gate_key = spec.get("skip_unless_key")
        if gate_key is not None and not document.get(gate_key):
            rows.append(
                (name, "--", baseline, floor, f"SKIP ({gate_key} falsy)")
            )
            continue
        try:
            measured = float(resolve_key(document, spec["key"]))
        except KeyError:
            rows.append((name, "--", baseline, floor, "FAIL (key missing)"))
            failures.append(f"{name}: key {spec['key']!r} not in {path.name}")
            continue
        if measured >= floor:
            rows.append((name, measured, baseline, floor, "ok"))
        else:
            rows.append((name, measured, baseline, floor, "FAIL"))
            failures.append(
                f"{name}: measured {measured:.2f}x is more than "
                f"{entry_tolerance:.0%} below the committed baseline "
                f"{baseline:.2f}x (floor {floor:.2f}x)"
            )

    print(f"== perf-trajectory gate (tolerance {tolerance:.0%}) ==")
    print(f"{'bench':<18} {'measured':>9} {'baseline':>9} {'floor':>7}  status")
    for name, measured, baseline, floor, status in rows:
        shown = f"{measured:.2f}x" if isinstance(measured, float) else measured
        print(
            f"{name:<18} {shown:>9} {baseline:>8.2f}x {floor:>6.2f}x  {status}"
        )
    if failures:
        print("\nperf regression(s) detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall benchmark speedups within tolerance of their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
