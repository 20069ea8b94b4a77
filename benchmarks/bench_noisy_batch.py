"""Batched noisy evaluation vs the per-circuit device path (fig11 sweep).

The ``--device`` half of a CutQC run evaluates every ``3^O * 4^rho``
variant under the device's noise model.  The legacy path (PR 2) builds
and transpiles one full circuit per variant and walks a Python per-gate
trajectory loop for each; the batched path (PR 6) transpiles the
measurement-free body **once per subcircuit**, folds prep fragments into
the first body block, evolves all init states on a batch axis and
derives every measurement basis from the retained states — the fused
body stays resident across chunks via the per-process geometry memo.

This bench runs a fig11-style BV sweep on a line-topology virtual
device through both :class:`~repro.core.executor.VariantExecutor`
evaluators — the per-circuit path is ``serial_device_backend(device,
shots, trajectories, seed)`` from ``tests/noisy_oracle.py`` (put on
``sys.path`` here): the serial transpile + Python trajectory loop per
variant circuit that ``device.backend(...)`` ran before ``device.run``
became a one-variant call into the batched engine — sanity-checks the
batched distributions, and gates an aggregate (total per-circuit /
total batched) speedup floor.  Both
paths are measured warm (transpile/geometry memos populated), matching
the steady state a service observes.  Results land in
``results/BENCH_noisy.json``.
"""

import json
import os
import pathlib
import sys
import time

import numpy as np

from repro import CutQC, make_device
from repro.core import RunConfig
from repro.core.executor import VariantExecutor
from repro.cutting import num_physical_variants
from repro.library import get_benchmark
from repro.sim import NoiseModel

from conftest import RESULTS_DIR, report

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from noisy_oracle import serial_device_backend  # noqa: E402

#: (qubits, device size, max subcircuits) — BV configs whose middle
#: subcircuits carry both init and measurement lines.  Env overrides:
#: comma-separated ``n:D:S`` triples.
_DEFAULT_SWEEP = "10:5:3,12:5:4,14:5:4,16:5:5"
_SWEEP = [
    tuple(int(part) for part in entry.split(":"))
    for entry in os.environ.get(
        "REPRO_BENCH_NB_SWEEP", _DEFAULT_SWEEP
    ).split(",")
]
_BENCHMARK = os.environ.get("REPRO_BENCH_NB_BENCHMARK", "bv")
_TRAJECTORIES = int(os.environ.get("REPRO_BENCH_NB_TRAJECTORIES", "8"))
_SHOTS = int(os.environ.get("REPRO_BENCH_NB_SHOTS", "2048"))
_REPS = int(os.environ.get("REPRO_BENCH_NB_REPS", "3"))
_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_NB_MIN_SPEEDUP", "12.0"))

_NOISE = NoiseModel(error_1q=0.001, error_2q=0.01, readout=0.015)


def _measure(executor, subcircuits):
    executor.run(subcircuits)  # warm: transpile/geometry memos, caches
    began = time.perf_counter()
    for _ in range(_REPS):
        results = executor.run(subcircuits)
    return (time.perf_counter() - began) / _REPS, results


def test_noisy_batch_speedup():
    rows = []
    configs = []
    total_legacy = 0.0
    total_batched = 0.0
    for qubits, device_size, max_subcircuits in _SWEEP:
        circuit = get_benchmark(_BENCHMARK, qubits)
        pipeline = CutQC(
            circuit,
            max_subcircuit_qubits=device_size,
            max_subcircuits=max_subcircuits,
            max_cuts=12,
        )
        cut = pipeline.cut()
        subcircuits = cut.subcircuits
        device = make_device(
            f"bench-{qubits}", device_size, "line", noise=_NOISE, seed=qubits
        )

        legacy_executor = VariantExecutor(
            backend=serial_device_backend(
                device, shots=_SHOTS, trajectories=_TRAJECTORIES, seed=17
            ),
        )
        legacy_seconds, _ = _measure(legacy_executor, subcircuits)
        assert legacy_executor.last_report.mode == "backend"

        batched_executor = VariantExecutor(RunConfig(
            device=device,
            device_shots=_SHOTS,
            trajectories=_TRAJECTORIES,
            seed=17,
        ))
        batched_seconds, batched = _measure(batched_executor, subcircuits)
        batched_report = batched_executor.last_report
        assert batched_report.mode == "batched-noisy"

        # The two paths draw different (both deterministic) noise
        # streams, so they agree statistically, not bit-for-bit; the
        # parity suite (tests/test_noisy_batch.py) pins the estimator.
        # Here: every batched variant row must be a distribution.
        for result in batched:
            assert float(result.distributions.min()) >= -1e-12
            assert np.abs(result.distributions.sum(axis=-1) - 1.0).max() <= 1e-6

        num_variants = sum(num_physical_variants(s) for s in subcircuits)
        speedup = legacy_seconds / batched_seconds
        total_legacy += legacy_seconds
        total_batched += batched_seconds
        configs.append(
            {
                "qubits": qubits,
                "device_size": device_size,
                "num_cuts": cut.num_cuts,
                "num_subcircuits": cut.num_subcircuits,
                "num_variants": num_variants,
                "num_body_passes": batched_report.num_body_passes,
                "legacy_seconds": legacy_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
            }
        )
        rows.append(
            (
                f"{_BENCHMARK}-{qubits}",
                device_size,
                cut.num_cuts,
                num_variants,
                batched_report.num_body_passes,
                f"{legacy_seconds * 1000:.2f}",
                f"{batched_seconds * 1000:.2f}",
                f"{speedup:.1f}x",
            )
        )

    aggregate = total_legacy / total_batched
    document = {
        "generated_by": "bench_noisy_batch.py",
        "benchmark": _BENCHMARK,
        "trajectories": _TRAJECTORIES,
        "shots": _SHOTS,
        "reps": _REPS,
        "min_speedup": _MIN_SPEEDUP,
        "gated": True,
        "total_legacy_seconds": total_legacy,
        "total_batched_seconds": total_batched,
        "speedup": aggregate,
        "configs": configs,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_noisy.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )
    rows.append(
        (
            "aggregate",
            "--",
            "--",
            "--",
            "--",
            f"{total_legacy * 1000:.2f}",
            f"{total_batched * 1000:.2f}",
            f"{aggregate:.1f}x",
        )
    )
    report(
        "bench_noisy_batch",
        f"Batched noisy evaluation vs per-circuit device path — "
        f"{_BENCHMARK} sweep, {_TRAJECTORIES} trajectories, "
        f"{_SHOTS} shots",
        ["config", "D", "cuts", "variants", "passes", "legacy ms",
         "batched ms", "speedup"],
        rows,
    )

    assert aggregate >= _MIN_SPEEDUP, (
        f"batched noisy evaluation speedup {aggregate:.2f}x is below "
        f"the {_MIN_SPEEDUP}x floor "
        f"(legacy {total_legacy:.3f}s, batched {total_batched:.3f}s)"
    )
