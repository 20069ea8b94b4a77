#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the CutQC reproduction.

    python3 benchmarks/e2e/run.py --workload fd_contract --seed 3 \\
        --seconds 24 --trace 0

One pass of one workload is ``SEGMENTS`` fresh worker processes run back
to back under a pinned environment; this file builds the oracles, spawns
the workers, pools their samples and prints every metric by name and
unit, then one JSON line.  ``--trace 1`` prints the per-layer metrics
instead and writes the spans to ``out/trace.<workload>.json``.
``--quick`` checks every oracle once without timing anything;
``--aa N`` runs N alternating A/A pairs and compares them.
See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from cutqc_e2e import catalog  # noqa: E402 - needs HERE on the path

_PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # numpy's OpenBLAS picks AVX-512 kernels on the reference machine, and
    # a core that runs them clocks down for everything it executes next,
    # by an amount that changes over minutes: fd_noisy read 80-110 ms per
    # job with them and 77-86 ms with the AVX2 kernels in the same minutes.
    "OPENBLAS_CORETYPE": "Haswell",
}
_LOAD = {
    "serve_mixed": f"{catalog.SERVE_CLIENTS} closed-loop client threads over "
    f"HTTP against one serve process ({catalog.SERVE_WORKERS} workers)",
}
_IN_PROCESS_LOAD = "1 closed-loop client, in-process"


def worker_env(tmp_dir: Path) -> Dict[str, str]:
    env = dict(os.environ, **_PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(tmp_dir)
    return env


def cycle_size(workload: str, seed: int) -> int:
    if workload == "serve_mixed":
        return len(catalog.serve_cycle(seed))
    return len(catalog.jobs(workload, seed))


def run_segment(spec: Dict, work: Path, env: Dict[str, str]) -> Optional[Dict]:
    """Spawn one worker and wait for its result; ``None`` if it produced
    none (crashed, or overran its window and was killed)."""
    segment = spec["segment"]
    spec_path = work / f"spec-{segment}.json"
    result_path = work / f"result-{segment}.json"
    log_path = work / f"worker-{segment}.log"
    spec_path.write_text(json.dumps(dict(spec, result_path=str(result_path))))
    timeout = spec["window_s"] + catalog.WORKER_GRACE_SECONDS
    with open(log_path, "wb") as log:
        spawned = time.time()  # set-up starts here, before the interpreter
        process = subprocess.Popen(
            [sys.executable, "-m", "cutqc_e2e.worker", str(spec_path), repr(spawned)],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"segment {segment}: no result after {timeout:.0f} s, killed",
                  file=sys.stderr)
        finally:
            # The worker's session also holds the serve subprocess.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if process.returncode == 0 and result_path.exists():
        return json.loads(result_path.read_text())
    tail = log_path.read_text(errors="replace")[-2000:]
    print(f"segment {segment}: worker failed (exit {process.returncode})\n{tail}",
          file=sys.stderr)
    return None


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def midmean(values: List[float]) -> float:
    """Mean of the middle half: as deaf to a disturbed second of a shared
    machine as a median, without a median's steps when the readings are
    whole clock ticks (the serve process's CPU)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def end_to_end(results: List[Dict]) -> Dict[str, float]:
    """Pooled over every segment of the pass.  Throughput and CPU are
    taken per cycle - a cycle always holds the same jobs - not as totals
    over a segment, which one slow cycle moves."""
    samples = [sample for result in results for sample in result["samples"]]
    cycles = [cycle for result in results for cycle in result["cycles"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "job_s_p50": statistics.median(samples),
        "jobs_per_s": midmean([jobs / wall for jobs, wall, _ in cycles]),
        "cpu_s_per_job": midmean([cpu / jobs for jobs, _, cpu in cycles]),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }


def per_layer(results: List[Dict], extras: Dict[str, float]) -> Dict[str, float]:
    """Fold the segments' spans, counts and job documents into one value
    per per-layer metric; a layer the workload never enters reads 0."""
    metrics = {entry["name"]: 0.0 for entry in catalog.PER_LAYER}
    jobs = sum(r["traced_jobs"] for r in results) or 1
    folded: Dict[str, Dict[str, float]] = {}
    facts: Dict[str, float] = {}
    for result in results:
        for name, entry in result["folded"].items():
            total = folded.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                total[key] += value
        for name, value in result["facts"].items():
            facts[name] = facts.get(name, 0.0) + value

    for name, entry in folded.items():
        per_request = name.endswith("_rtt")  # RTTs are per request, not per job
        divisor = entry["calls"] if per_request else jobs
        if f"{name}_s" in metrics:
            metrics[f"{name}_s"] = entry["seconds"] / divisor
        if f"{name}_calls" in metrics:
            metrics[f"{name}_calls"] = entry["calls"] / jobs
    if "sim.apply" in folded:
        apply = folded["sim.apply"]
        metrics["sim.state_bytes"] = apply["amount"] / apply["calls"]
    for name, value in facts.items():
        if name in metrics:
            metrics[name] = value / jobs
    for name in results[0]["per_segment"]:
        metrics[name] = statistics.fmean(r["per_segment"][name] for r in results)

    def ratio(top: str, bottom: str) -> float:
        return facts[top] / facts[bottom] if facts.get(bottom) else 0.0

    metrics["postprocess.collapse_hit_ratio"] = ratio("dd.cache_hits", "dd.cache_lookups")
    metrics["service.cache_hit_ratio"] = ratio("cache.hits", "cache.lookups")
    metrics["core.rebind_s"] = ratio("rebind.seconds", "rebind.count")
    metrics["journal.bytes_per_job"] = ratio("journal.bytes", "journal.jobs")
    for cls in ("warm", "cold", "variational"):
        latencies = [
            s for r in results for s in r.get("class_samples", {}).get(cls, ())
        ]
        if latencies:
            metrics[f"service.{cls}_job_s_p50"] = statistics.median(latencies)

    traced = [s for r in results for s in r["traced_samples"]]
    plain = [s for r in results for s in r["samples"]]
    if traced and plain:
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    if len(traced) + len(plain) >= 100:  # a p90 needs ten samples beyond it
        metrics["job.s_p90"] = percentile(traced + plain, 0.9)
    job_seconds = folded.get("job", {}).get("seconds", 0.0)
    metrics["job.unattributed_s"] = sum(e["inner"] for e in folded.values()) / jobs
    if job_seconds:
        layers: Dict[str, float] = {}
        for name, entry in folded.items():
            if "." in name:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + entry["self"]
        metrics["job.dominant_share"] = max(layers.values(), default=0.0) / job_seconds
    metrics.update(extras)
    return metrics


def run_pass(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool, out_dir: Path) -> Dict:
    """One pass: oracles, SEGMENTS workers, pooled metrics."""
    from cutqc_e2e import oracle, probes

    work = out_dir / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = worker_env(work)
    segments = 1 if quick else catalog.SEGMENTS
    extras: Dict[str, float] = {}
    try:
        calibration = [probes.calibrate()] if trace else []
        oracle_path = work / "oracle.json"
        if workload != "serve_mixed":  # the serve client builds its own
            truths = oracle.build(catalog.jobs(workload, seed))
            oracle_path.write_text(json.dumps(truths))
            uncut = [t["uncut_s"] for t in truths.values() if "uncut_s" in t]
            if uncut:
                extras["sim.uncut_s"] = statistics.fmean(uncut)
        results, attempted, failed, failures = [], 0, 0, []
        for segment in range(segments):
            spec = {
                "workload": workload, "seed": seed, "segment": segment,
                "window_s": 0.0 if quick else seconds / segments,
                "trace": trace, "oracle_path": str(oracle_path),
                "work_dir": str(work),
            }
            result = run_segment(spec, work, env)
            if result is None:  # a lost worker is a cycle of failed jobs
                size = cycle_size(workload, seed)
                attempted, failed = attempted + size, failed + size
                failures.append(f"segment {segment}: worker produced no result")
                continue
            results.append(result)
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
        if not results:
            raise SystemExit(f"{workload}: every worker failed; nothing measured")
        if trace:
            extras.update(probes.import_times(env))
            if workload == "serve_mixed":
                extras.update(probes.store_and_journal(str(work)))
            calibration.append(probes.calibrate())
            for name in calibration[0]:
                extras[name] = statistics.fmean(c[name] for c in calibration)
            metrics = per_layer(results, extras)
            (out_dir / f"trace.{workload}.json").write_text(
                json.dumps({"segments": [r["spans"] for r in results]})
            )
        elif quick:
            metrics = {}
        else:
            metrics = end_to_end(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "segments": segments,
        "load": _LOAD.get(workload, _IN_PROCESS_LOAD),
        "samples": sum(len(r["samples"]) for r in results),
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "metrics": metrics,
    }


def units() -> Dict[str, str]:
    return {
        entry["name"]: entry["unit"]
        for entry in catalog.END_TO_END + catalog.PER_LAYER
    }


def report(record: Dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s in {record['segments']} segments  "
          f"trace {record['trace']}")
    print(f"  load: {record['load']}")
    unit = units()
    for name, value in record["metrics"].items():
        note = f"  ({record['samples']} samples)" if name == "job_s_p50" else ""
        print(f"  {name:<34} {value:>14.6g} {unit[name]}{note}")
    ratio = record["failed"] / record["attempted"]
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_ratio {ratio:.6f}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def save(record: Dict, out_dir: Path) -> None:
    path = out_dir / "results.json"
    passes = json.loads(path.read_text()) if path.exists() else []
    passes.append({k: v for k, v in record.items() if k != "failures"})
    path.write_text(json.dumps(passes, indent=1))


def final_line(records: List[Dict]) -> str:
    unit = units()
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # --quick over several workloads checks oracles and has no metrics.
    measured = records[0]["metrics"] if len(records) == 1 else {}
    metrics = {
        name: {"value": value, "unit": unit[name]}
        for name, value in measured.items()
    }
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def run_aa(pairs: int, seed: int, seconds: float, out_dir: Path) -> int:
    """N alternating A/A passes per workload, then compare.py on the two."""
    import compare

    sides = {side: out_dir / side for side in "AB"}
    for directory in sides.values():
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    for pair in range(pairs):
        for workload in catalog.workload_names():
            for side in ("AB" if pair % 2 == 0 else "BA"):
                record = run_pass(workload, seed + pair, seconds, False, False, sides[side])
                report(record)
                save(record, sides[side])
    return compare.main([
        str(sides["A"] / "results.json"), str(sides["B"] / "results.json"), "--pairs",
    ])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one segment, one cycle, oracles only, no timing")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run N alternating A/A pairs and compare them")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    os.environ.update(_PINNED)  # before numpy loads in this process too
    sys.path.insert(0, str(SRC))
    args.out.mkdir(parents=True, exist_ok=True)

    if args.aa:
        return run_aa(args.aa, args.seed, args.seconds, args.out)
    if args.workload is None and not args.quick:
        parser.error("--workload is required (except with --quick or --aa)")
    workloads = [args.workload] if args.workload else catalog.workload_names()
    records = []
    for workload in workloads:
        record = run_pass(workload, args.seed, args.seconds, bool(args.trace),
                          args.quick, args.out)
        report(record)
        if not args.quick:
            save(record, args.out)
        records.append(record)
    print(final_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
