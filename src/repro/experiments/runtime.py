"""The runtime experiment — the artifact appendix's ``runtime_test.py``.

Measures CutQC FD postprocessing against full statevector simulation for
a configurable set of benchmarks, circuit sizes and virtual QPU sizes
(paper Fig. 6 / §6.1).  The adjustable parameters mirror the artifact's
(A.7): device size, circuit sizes, benchmark types, worker count, and
cost budgets replacing "max system memory".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import CutQC
from ..cutting import CutSearchError
from ..library import get_benchmark, valid_sizes
from ..postprocess import reconstruction_flops
from ..sim import simulate_probabilities
from .records import RuntimeRecord

__all__ = ["RuntimeExperimentConfig", "run_runtime_experiment"]


@dataclass
class RuntimeExperimentConfig:
    """Knobs of the runtime experiment."""

    benchmarks: Sequence[str] = ("supremacy", "aqft", "grover", "bv", "adder", "hwea")
    device_sizes: Sequence[int] = (6, 8, 10)
    #: explicit (benchmark, size) pairs; when empty, sizes are derived
    #: from ``size_range`` per device like the paper's sweeps.
    cases: Sequence[Tuple[str, int, int]] = ()
    size_multiplier: float = 2.0
    max_circuit_qubits: int = 15
    #: size of the one WorkerPool the sweep runs variant execution and the
    #: kron reconstruction sweep on (``1`` = everything inline)
    workers: int = 1
    #: contraction strategy: "kron", "tensor_network", or "auto"
    strategy: str = "kron"
    #: when set, answer the FD query as a shard stream (2^s shards of
    #: 2^(n-s) entries) instead of materializing the full vector
    stream_shard_qubits: Optional[int] = None
    flop_budget: float = 2e9
    variant_budget: int = 25_000
    verify: bool = True
    supremacy_depth: int = 8
    seed: int = 0


def _sizes_for(config: RuntimeExperimentConfig, name: str, device: int) -> List[int]:
    low = device + 1
    high = min(int(config.size_multiplier * device) + 2, config.max_circuit_qubits)
    sizes = valid_sizes(name, low, high, even_only=True)
    picked: List[int] = []
    if sizes:
        picked.append(sizes[0])
        if len(sizes) > 1:
            picked.append(sizes[-1])
    return picked


def _circuit(config: RuntimeExperimentConfig, name: str, size: int):
    kwargs = (
        {"seed": config.seed, "depth": config.supremacy_depth}
        if name == "supremacy"
        else {}
    )
    return get_benchmark(name, size, **kwargs)


def _run_one(
    config: RuntimeExperimentConfig,
    name: str,
    size: int,
    device: int,
    worker_pool=None,
) -> RuntimeRecord:
    circuit = _circuit(config, name, size)
    try:
        pipeline = CutQC(
            circuit,
            max_subcircuit_qubits=device,
            strategy=config.strategy,
            worker_pool=worker_pool,
        )
        cut = pipeline.cut()
    except CutSearchError:
        return RuntimeRecord(name, size, device, None, None, None, "uncuttable")
    if reconstruction_flops(cut) > config.flop_budget:
        return RuntimeRecord(
            name, size, device, cut.num_cuts, None, None, "too costly"
        )
    variants = sum(
        3 ** len(s.meas_lines) * 4 ** len(s.init_lines) for s in cut.subcircuits
    )
    if variants > config.variant_budget:
        return RuntimeRecord(
            name, size, device, cut.num_cuts, None, None, "too many variants"
        )
    pipeline.evaluate()
    if config.stream_shard_qubits is not None:
        shard_qubits = min(config.stream_shard_qubits, circuit.num_qubits)
        # Shards are verified concatenated (experiment circuits are small);
        # production use keeps them independent for bounded memory.
        probabilities = np.concatenate(
            [s.probabilities for s in pipeline.fd_stream(shard_qubits)]
        )
        postprocess_seconds = pipeline.stream_stats.elapsed_seconds
    else:
        result = pipeline.fd_query()
        probabilities = result.probabilities
        postprocess_seconds = result.stats.elapsed_seconds
    began = time.perf_counter()
    truth = simulate_probabilities(circuit)
    simulation_seconds = time.perf_counter() - began
    if config.verify and not np.allclose(probabilities, truth, atol=1e-6):
        return RuntimeRecord(
            name, size, device, cut.num_cuts, None, None, "MISMATCH"
        )
    return RuntimeRecord(
        benchmark=name,
        num_qubits=size,
        device_size=device,
        num_cuts=cut.num_cuts,
        postprocess_seconds=postprocess_seconds,
        simulation_seconds=simulation_seconds,
        status="ok",
    )


def run_runtime_experiment(
    config: Optional[RuntimeExperimentConfig] = None,
) -> List[RuntimeRecord]:
    """Run the sweep; returns one record per configuration."""
    config = config or RuntimeExperimentConfig()
    if config.cases:
        runs = list(config.cases)
    else:
        runs = [
            (name, size, device)
            for device in config.device_sizes
            for name in config.benchmarks
            for size in _sizes_for(config, name, device)
        ]
    worker_pool = None
    if config.workers > 1:
        from ..postprocess import WorkerPool

        worker_pool = WorkerPool(config.workers)
    try:
        return [
            _run_one(config, name, size, device, worker_pool)
            for name, size, device in runs
        ]
    finally:
        if worker_pool is not None:
            worker_pool.close()
