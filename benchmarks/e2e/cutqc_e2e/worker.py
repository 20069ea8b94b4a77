"""One segment of one pass: a fresh process that sets up, then measures.

``run.py`` spawns ``python -m cutqc_e2e.worker <spec.json> <spawn time>``.
The worker imports ``repro``, loads the oracles, runs one verified warm-up
cycle (the end of set-up), then runs whole cycles until its window is
used up, and writes one JSON result.  Each job is timed on its own —
wall and CPU — then checked and garbage-collected outside the timed
interval, so a cycle's sample is the sum of its K job times divided by K.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import CutQC, get_benchmark, make_device
from repro.sim import NoiseModel

from . import catalog, oracle
from .spans import Tracer, fold, instrument


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a process.  Not ``ru_maxrss``: that survives ``exec``,
    so a freshly spawned worker would report at least its parent's size."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def run_job(job: Dict, seed: int, tracer: Tracer):
    """One catalog job through the public API; returns (pipeline, product)."""
    size = job["device_size"]
    with tracer.span("library.build"):
        circuit = get_benchmark(job["family"], job["qubits"], **job["kwargs"])
    # strategy="auto" is what the CLI and the service use; the library
    # default "kron" is 8x slower on these cuts and nobody serves it.
    options = {"strategy": "auto"}
    if job["noisy"]:
        options.update(
            device=make_device(
                "e2e-line", size, "line",
                noise=NoiseModel(*catalog.NOISE), seed=seed,
            ),
            trajectories=catalog.TRAJECTORIES,
            device_shots=0,
            noisy_method=job["noisy"],
            seed=seed,
        )
    pipeline = CutQC(circuit, size, **options)
    with tracer.span("cutting.cut"):
        pipeline.cut()
    with tracer.span("core.evaluate"):
        pipeline.evaluate()
    if job["query"] == "dd":
        with tracer.span("postprocess.dd_query"):
            product = pipeline.dd_query(
                job["active"], max_recursions=job["recursions"]
            )
    else:
        with tracer.span("postprocess.fd_query"):
            product = pipeline.fd_query()
    return pipeline, product


def check_job(job: Dict, product, truth: Dict, reference) -> Optional[str]:
    if job["query"] == "dd":
        return oracle.check_dd(product, truth)
    if job["noisy"]:
        return oracle.check_noisy(product.probabilities, truth, reference)
    return oracle.check_fd(product.probabilities, truth)


def job_facts(job: Dict, pipeline, product) -> Dict[str, float]:
    """Counts a traced job reports beside its spans."""
    report = pipeline.execution_report
    facts = {
        "cutting.num_cuts": pipeline.cut().num_cuts,
        "core.variants": report.num_variants,
        "core.body_passes": report.num_body_passes or 0,
    }
    if job["query"] == "dd":
        stats = product.stats()
        facts["postprocess.dd_recursions"] = stats.num_recursions
        facts["postprocess.dd_collapse_s"] = stats.collapse_seconds
        facts["dd.cache_hits"] = stats.cache_hits
        facts["dd.cache_lookups"] = stats.cache_hits + stats.cache_misses
    else:
        facts["postprocess.kron_terms"] = product.stats.num_terms
        facts["postprocess.output_bytes"] = product.probabilities.nbytes
    return facts


class Segment:
    """Running totals of one worker; :meth:`cycle` runs the catalog once."""

    def __init__(self, spec: Dict, truths: Dict[str, Dict]):
        self.spec = spec
        self.jobs = catalog.jobs(spec["workload"], spec["seed"])
        self.truths = truths
        self.tracer = Tracer()
        self.reference: Dict[str, object] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.facts: Dict[str, float] = {}

    def cycle(self, number: int, traced: bool = False) -> Tuple[float, float]:
        """Run every job once; returns the cycle's (wall, CPU) seconds."""
        spec, wall, cpu = self.spec, 0.0, 0.0
        order = catalog.cycle_order(
            spec["seed"], spec["segment"], number, len(self.jobs)
        )
        for index in order:
            job = self.jobs[index]
            self.attempted += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with self.tracer.span("job", job=job["id"]):
                    pipeline, product = run_job(job, spec["seed"], self.tracer)
                problem = None
            except Exception as error:  # noqa: BLE001 - a failed job, not a crash
                problem = f"raised {type(error).__name__}: {error}"
            wall += time.perf_counter() - wall0
            cpu += time.process_time() - cpu0
            if problem is None:
                problem = check_job(
                    job, product, self.truths[job["id"]],
                    self.reference.get(job["id"]),
                )
                if job["noisy"] and job["id"] not in self.reference:
                    self.reference[job["id"]] = product.probabilities.copy()
                if traced:
                    for name, value in job_facts(job, pipeline, product).items():
                        self.facts[name] = self.facts.get(name, 0.0) + value
            if problem is not None:
                self.failures.append(f"{job['id']}: {problem}")
            # Every job starts from a collected heap: otherwise peak RSS
            # is one job's peak plus whatever cyclic garbage the last few
            # left behind, which depends on the order (130-174 MB on
            # fd_contract for the same code; 124-126 MB with this).
            pipeline = product = None
            gc.collect()
        return wall, cpu


def measure(spec: Dict, spawned: float) -> Dict:
    with open(spec["oracle_path"]) as stream:
        truths = json.load(stream)
    segment = Segment(spec, truths)
    size = len(segment.jobs)
    # Warm-up, verified: the end of set-up.  Device transpilation happens
    # only here (its geometry is cached per process), so a traced pass
    # times it here.
    with instrument(segment.tracer) if spec["trace"] else contextlib.nullcontext():
        segment.cycle(-1)
    setup_s = time.time() - spawned
    warmup = fold(segment.tracer.drain())
    transpile_s = warmup.get("devices.transpile", {}).get("seconds", 0.0) / size

    samples: List[float] = []      # untraced cycle wall / K
    traced: List[float] = []       # traced cycle wall / K
    cycles: List[List[float]] = []  # [jobs, wall, CPU] of every measured cycle
    traced_jobs = 0
    began = time.perf_counter()
    number = 0
    while True:
        trace_this = spec["trace"] and number % 2 == 0
        if trace_this:
            with instrument(segment.tracer):
                wall, cpu = segment.cycle(number, traced=True)
            traced.append(wall / size)
            traced_jobs += size
        else:
            wall, cpu = segment.cycle(number)
            samples.append(wall / size)
        cycles.append([size, wall, cpu])
        number += 1
        if time.perf_counter() - began >= spec["window_s"]:
            break

    spans = segment.tracer.drain()
    return {
        "setup_s": setup_s,
        "samples": samples,
        "traced_samples": traced,
        "cycles": cycles,
        "peak_rss_kb": peak_rss_kb(),
        "attempted": segment.attempted,
        "failed": len(segment.failures),
        "failures": segment.failures[:20],
        "traced_jobs": traced_jobs,
        "folded": fold(spans),
        "facts": segment.facts,
        "per_segment": {"devices.transpile_s": transpile_s},
        "spans": spans,
    }


def main(argv: List[str]) -> int:
    spec_path, spawned = argv[1], float(argv[2])
    with open(spec_path) as stream:
        spec = json.load(stream)
    if spec["workload"] == "serve_mixed":
        from .serve import measure as measure_serve

        result = measure_serve(spec, spawned)
    else:
        result = measure(spec, spawned)
    with open(spec["result_path"], "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
