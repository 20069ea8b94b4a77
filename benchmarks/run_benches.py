#!/usr/bin/env python
"""One entry point for every benchmark CI runs.

Each bench is a pytest module under ``benchmarks/`` with env-var knobs;
this runner owns the two standard profiles so workflow files stay
declarative:

* ``--capped`` — PR-sized smoke: small sweeps, conservative speedup
  floors, minutes of wall clock.  The pull-request workflow runs this.
* ``--full``  — the nightly profile: paper-sized sweeps and the real
  assertion floors.  The ``schedule:`` workflow runs this and uploads
  every ``results/BENCH_*.json`` artifact.

Usage::

    python benchmarks/run_benches.py --capped [--only NAME] [--list]
    python benchmarks/run_benches.py --full

Exit status is non-zero if any selected bench fails; a summary table is
always printed.  Bench artifacts land in ``results/`` exactly as when
the modules are run by hand.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass
class Bench:
    """One benchmark invocation: a pytest target plus per-profile env."""

    name: str
    target: str  # pytest path (optionally ::test), relative to repo root
    capped_env: Dict[str, str] = field(default_factory=dict)
    full_env: Dict[str, str] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)

    def env_for(self, profile: str) -> Dict[str, str]:
        return self.capped_env if profile == "capped" else self.full_env


BENCHES: List[Bench] = [
    Bench(
        name="fd-runtime",
        target=(
            "benchmarks/bench_fig6_fd_runtime.py"
            "::test_fig6_fd_postprocessing_vs_simulation"
        ),
        capped_env={
            "REPRO_BENCH_DEVICES": "6",
            "REPRO_BENCH_BENCHMARKS": "bv,hwea,supremacy",
        },
        full_env={},  # module defaults are the full fig6 sweep
        artifacts=["results/BENCH_fd.json", "results/fig6_measured.txt"],
    ),
    Bench(
        name="dd-engine",
        target=(
            "benchmarks/bench_fig10_dd_large.py"
            "::test_fig10_dd_zoom_cache_speedup"
        ),
        capped_env={
            "REPRO_BENCH_DD_QUBITS": "33",
            "REPRO_BENCH_DD_DEVICE": "13",
            "REPRO_BENCH_DD_RECURSIONS": "25",
        },
        full_env={},  # module defaults: bv-41 on 17 qubits
        artifacts=["results/BENCH_dd.json", "results/fig10_dd_engine.txt"],
    ),
    Bench(
        name="service-throughput",
        target="benchmarks/bench_service_throughput.py",
        capped_env={"REPRO_BENCH_SERVICE_MIN_SPEEDUP": "1.5"},
        full_env={"REPRO_BENCH_SERVICE_WARM_QUERIES": "50"},
        artifacts=["results/BENCH_service.json", "results/bench_service.txt"],
    ),
    Bench(
        name="service-load",
        target="benchmarks/bench_service_load.py",
        capped_env={
            "REPRO_BENCH_LOAD_JOBS": "200",
            "REPRO_BENCH_LOAD_MIN_QPS": "1.0",
        },
        full_env={
            "REPRO_BENCH_LOAD_JOBS": "1200",
            "REPRO_BENCH_LOAD_CLIENTS": "24",
        },
        artifacts=[
            "results/BENCH_service.json",
            "results/bench_service_load.txt",
        ],
    ),
    Bench(
        name="variant-batch",
        target="benchmarks/bench_variant_batch.py",
        capped_env={
            "REPRO_BENCH_VB_SWEEP": "14:5:4,18:5:6,22:8:5,26:10:5",
        },
        full_env={},  # module defaults: the 7-config fig6-style BV sweep
        artifacts=[
            "results/BENCH_variant_batch.json",
            "results/bench_variant_batch.txt",
        ],
    ),
    Bench(
        name="noisy-batch",
        target="benchmarks/bench_noisy_batch.py",
        capped_env={
            "REPRO_BENCH_NB_SWEEP": "10:5:3,14:5:4",
        },
        full_env={
            "REPRO_BENCH_NB_SWEEP": "10:5:3,12:5:4,14:5:4,16:5:5,18:5:6",
            "REPRO_BENCH_NB_TRAJECTORIES": "16",
        },
        artifacts=["results/BENCH_noisy.json", "results/bench_noisy_batch.txt"],
    ),
    Bench(
        name="parallel-query",
        target="benchmarks/bench_parallel_query.py",
        capped_env={},  # module defaults are already CI-sized (bv-26)
        full_env={
            "REPRO_BENCH_PARALLEL_QUBITS": "28",
            "REPRO_BENCH_PARALLEL_DEVICE": "15",
        },
        artifacts=["results/BENCH_parallel.json", "results/bench_parallel.txt"],
    ),
    Bench(
        name="variational",
        target="benchmarks/bench_variational.py",
        capped_env={
            "REPRO_BENCH_VAR_ITERATIONS": "2",
        },
        full_env={},  # module defaults: 4 SPSA iterations on qaoa-14
        artifacts=[
            "results/BENCH_variational.json",
            "results/bench_variational.txt",
        ],
    ),
    Bench(
        name="obs-overhead",
        target="benchmarks/bench_obs_overhead.py",
        capped_env={},  # module defaults are already CI-sized (~10s)
        full_env={
            "REPRO_BENCH_OBS_PAIRS": "9",
            "REPRO_BENCH_OBS_SAMPLES": "5",
        },
        artifacts=[
            "results/BENCH_obs.json",
            "results/bench_obs_overhead.txt",
        ],
    ),
    Bench(
        name="chaos-overhead",
        target="benchmarks/bench_chaos_overhead.py",
        capped_env={},  # module defaults are already CI-sized (~15s)
        full_env={
            "REPRO_BENCH_CHAOS_PAIRS": "9",
            "REPRO_BENCH_CHAOS_SAMPLES": "5",
        },
        artifacts=[
            "results/BENCH_chaos.json",
            "results/bench_chaos_overhead.txt",
        ],
    ),
]


def run_bench(bench: Bench, profile: str) -> float:
    """Run one bench; returns wall seconds.  Raises CalledProcessError."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    # One BLAS thread unless the caller says otherwise, as benchmarks/e2e
    # pins it: on a small shared host OpenBLAS's worker wake-ups after an
    # idle spell triple a 50 ms probe (bench_variational's warm phase:
    # 0.049 -> 0.16 s), and a ratio gate then measures that, not the code.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    env.update(bench.env_for(profile))
    command = [sys.executable, "-m", "pytest", "-q", "-s", bench.target]
    began = time.perf_counter()
    subprocess.run(command, cwd=REPO_ROOT, env=env, check=True)
    return time.perf_counter() - began


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    profile_group = parser.add_mutually_exclusive_group()
    profile_group.add_argument(
        "--capped", action="store_const", const="capped", dest="profile",
        help="PR-sized smoke profile",
    )
    profile_group.add_argument(
        "--full", action="store_const", const="full", dest="profile",
        help="nightly full profile",
    )
    parser.add_argument(
        "--only", metavar="NAME", action="append", default=None,
        help="run only this bench (repeatable); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benches and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for bench in BENCHES:
            print(f"{bench.name:<20} {bench.target}")
        return 0
    if args.profile is None:
        parser.error("one of --capped / --full is required")

    selected = BENCHES
    if args.only:
        known = {bench.name for bench in BENCHES}
        unknown = set(args.only) - known
        if unknown:
            parser.error(
                f"unknown bench(es) {sorted(unknown)}; choose from "
                f"{sorted(known)}"
            )
        selected = [bench for bench in BENCHES if bench.name in args.only]

    rows = []
    failed = []
    for bench in selected:
        print(f"\n=== {bench.name} [{args.profile}] ===", flush=True)
        try:
            seconds = run_bench(bench, args.profile)
            rows.append((bench.name, "ok", f"{seconds:.1f}s"))
        except subprocess.CalledProcessError as error:
            failed.append(bench.name)
            rows.append((bench.name, f"FAILED (rc={error.returncode})", "--"))

    print(f"\n== bench summary [{args.profile}] ==")
    for name, status, seconds in rows:
        print(f"{name:<20} {status:<18} {seconds}")
    if failed:
        print(f"\n{len(failed)} bench(es) failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
