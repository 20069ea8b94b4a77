"""Batched+fused variant simulation vs the per-variant path (fig6 sweep).

The quantum-workload half of every CutQC run is evaluating the
``3^O * 4^rho`` physical variants of each subcircuit.  The per-variant
path (a ``backend=simulate_probabilities`` executor) simulates one full
circuit per variant through a Python per-gate loop and builds term
tensors from the stacked distributions; the batched engine simulates
the measurement-free body
**once over the ``2^rho`` basis columns of the init wires** (stacked on a
batch axis, gates fused to <= ``FUSION_WIDTH`` qubits), holds those
amplitudes, and builds term tensors from them directly.

This bench runs a fig6-style BV sweep through both
:class:`~repro.core.executor.VariantExecutor` evaluators and times the
unit a query consumes — ``executor.run`` **plus** ``build_term_tensor``
per result — on both sides; outside the timed window it verifies that
the batched side's *materialised* distributions agree with the
per-variant ones to 1e-10.  It gates an aggregate (total serial / total
batched) speedup floor.  Both paths are measured warm (the fusion memo
and NumPy buffers populated), matching the steady state a service
observes.  Absolute seconds per row land in
``results/BENCH_variant_batch.json``.
"""

import json
import os
import time

import numpy as np

from repro import CutQC, simulate_probabilities
from repro.core.executor import VariantExecutor
from repro.cutting import num_physical_variants
from repro.library import get_benchmark
from repro.postprocess import build_term_tensor
from repro.sim.batch import FUSION_WIDTH

from conftest import RESULTS_DIR, report

#: (qubits, device size, max subcircuits) — multi-cut BV configs whose
#: middle subcircuits carry both init and measurement lines, the shape
#: the batched strategy attacks.  Env overrides: comma-separated
#: ``n:D:S`` triples.
_DEFAULT_SWEEP = "14:5:4,16:5:5,18:5:6,20:7:5,22:8:5,24:9:5,26:10:5"
_SWEEP = [
    tuple(int(part) for part in entry.split(":"))
    for entry in os.environ.get(
        "REPRO_BENCH_VB_SWEEP", _DEFAULT_SWEEP
    ).split(",")
]
_BENCHMARK = os.environ.get("REPRO_BENCH_VB_BENCHMARK", "bv")
_REPS = int(os.environ.get("REPRO_BENCH_VB_REPS", "3"))
_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_VB_MIN_SPEEDUP", "5.0"))
_MAX_ABS_ERROR = 1e-10


def _measure(executor, subcircuits):
    """Seconds per evaluate + term-tensor build, and the last results."""

    def once():
        results = executor.run(subcircuits)
        for result in results:
            build_term_tensor(result)
        return results

    once()  # warm: fusion memo, allocator, caches
    began = time.perf_counter()
    for _ in range(_REPS):
        results = once()
    return (time.perf_counter() - began) / _REPS, results


def test_variant_batch_speedup():
    rows = []
    configs = []
    total_serial = 0.0
    total_batched = 0.0
    for qubits, device, max_subcircuits in _SWEEP:
        circuit = get_benchmark(_BENCHMARK, qubits)
        pipeline = CutQC(
            circuit,
            max_subcircuit_qubits=device,
            max_subcircuits=max_subcircuits,
            max_cuts=12,
        )
        cut = pipeline.cut()
        subcircuits = cut.subcircuits

        serial_executor = VariantExecutor(backend=simulate_probabilities)
        serial_seconds, serial = _measure(serial_executor, subcircuits)
        assert serial_executor.last_report.mode == "backend"
        batched_executor = VariantExecutor()
        batched_seconds, batched = _measure(batched_executor, subcircuits)
        batched_report = batched_executor.last_report

        # Untimed: reading ``distributions`` materialises the batched
        # side's variant distributions from its amplitudes.
        assert all(result.amplitudes is not None for result in batched)
        worst = max(
            np.abs(a.distributions - b.distributions).max()
            for a, b in zip(serial, batched)
        )
        assert worst <= _MAX_ABS_ERROR, (
            f"{_BENCHMARK}-{qubits} batched distributions diverge from the "
            f"per-variant path by {worst:.3e}"
        )
        assert batched_report.mode == "batched"

        num_variants = sum(num_physical_variants(s) for s in subcircuits)
        speedup = serial_seconds / batched_seconds
        total_serial += serial_seconds
        total_batched += batched_seconds
        configs.append(
            {
                "qubits": qubits,
                "device_size": device,
                "num_cuts": cut.num_cuts,
                "num_subcircuits": cut.num_subcircuits,
                "num_variants": num_variants,
                "num_body_passes": batched_report.num_body_passes,
                "serial_seconds": serial_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
                "max_abs_error": float(worst),
            }
        )
        rows.append(
            (
                f"{_BENCHMARK}-{qubits}",
                device,
                cut.num_cuts,
                num_variants,
                batched_report.num_body_passes,
                f"{serial_seconds * 1000:.2f}",
                f"{batched_seconds * 1000:.2f}",
                f"{speedup:.1f}x",
            )
        )

    aggregate = total_serial / total_batched
    document = {
        "generated_by": "bench_variant_batch.py",
        "benchmark": _BENCHMARK,
        "fusion_width": FUSION_WIDTH,
        "reps": _REPS,
        "min_speedup": _MIN_SPEEDUP,
        "gated": True,
        "total_serial_seconds": total_serial,
        "total_batched_seconds": total_batched,
        "speedup": aggregate,
        "configs": configs,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_variant_batch.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )
    rows.append(
        (
            "aggregate",
            "--",
            "--",
            "--",
            "--",
            f"{total_serial * 1000:.2f}",
            f"{total_batched * 1000:.2f}",
            f"{aggregate:.1f}x",
        )
    )
    report(
        "bench_variant_batch",
        f"Batched+fused evaluate + term-tensor build vs per-variant — "
        f"{_BENCHMARK} sweep, fusion width {FUSION_WIDTH}, "
        "<= 256 columns per pass",
        ["config", "D", "cuts", "variants", "passes", "serial ms",
         "batched ms", "speedup"],
        rows,
    )

    assert aggregate >= _MIN_SPEEDUP, (
        f"batched variant evaluation speedup {aggregate:.2f}x is below "
        f"the {_MIN_SPEEDUP}x floor "
        f"(serial {total_serial:.3f}s, batched {total_batched:.3f}s)"
    )
