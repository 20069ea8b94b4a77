"""The fidelity experiment — the artifact appendix's ``fidelity_test.py``.

Compares direct execution on a large noisy device against CutQC through a
small one, reporting the paper's chi^2 percentage reduction (Fig. 11).
Devices, benchmarks, shots and mitigation are all configurable, mirroring
the artifact's customization points (A.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import CutQC
from ..cutting import CutSearchError
from ..cutting.variants import NoisyEvalSpec
from ..devices import VirtualDevice, bogota, johannesburg
from ..devices.mitigation import MitigatedBackend
from ..library import get_benchmark
from ..metrics import chi_square_loss
from ..sim import simulate_probabilities
from .records import FidelityRecord

__all__ = ["FidelityExperimentConfig", "run_fidelity_experiment"]

_DEFAULT_CASES: Tuple[Tuple[str, int], ...] = (
    ("bv", 6),
    ("bv", 8),
    ("adder", 6),
    ("hwea", 6),
    ("hwea", 8),
    ("supremacy", 6),
    ("aqft", 6),
)


@dataclass
class FidelityExperimentConfig:
    """Knobs of the fidelity experiment."""

    cases: Sequence[Tuple[str, int]] = _DEFAULT_CASES
    shots: int = 8192
    trajectories: int = NoisyEvalSpec.trajectories
    seed: int = 7
    mitigate: bool = False
    large_device: Optional[VirtualDevice] = None
    small_device: Optional[VirtualDevice] = None
    supremacy_depth: int = 8


def _circuit(config: FidelityExperimentConfig, name: str, size: int):
    if name == "supremacy":
        return get_benchmark(name, size, seed=0, depth=config.supremacy_depth)
    if name == "adder":
        return get_benchmark(name, size, a_value=1, b_value=3)
    return get_benchmark(name, size)


def run_fidelity_experiment(
    config: Optional[FidelityExperimentConfig] = None,
) -> List[FidelityRecord]:
    """Run the comparison; returns one record per (benchmark, size)."""
    config = config or FidelityExperimentConfig()
    large = config.large_device or johannesburg(seed=config.seed)
    small = config.small_device or bogota(seed=config.seed)
    records: List[FidelityRecord] = []
    for name, size in config.cases:
        circuit = _circuit(config, name, size)
        truth = simulate_probabilities(circuit)
        direct = large.run(
            circuit, shots=config.shots, trajectories=config.trajectories
        )
        chi2_direct = chi_square_loss(direct, truth)
        if config.mitigate:
            backend = MitigatedBackend(
                small,
                shots=config.shots,
                trajectories=config.trajectories,
                seed=config.seed,
            )
        else:
            backend = small.backend(
                shots=config.shots, trajectories=config.trajectories
            )
        try:
            pipeline = CutQC(
                circuit,
                max_subcircuit_qubits=small.num_qubits,
                backend=backend,
            )
            probabilities = np.clip(pipeline.fd_query().probabilities, 0.0, None)
            total = probabilities.sum()
            if total > 0:
                probabilities = probabilities / total
            chi2_cutqc = chi_square_loss(probabilities, truth)
            status = "ok"
        except CutSearchError:
            chi2_cutqc = None
            status = "uncuttable"
        records.append(
            FidelityRecord(
                benchmark=name,
                num_qubits=size,
                chi2_direct=chi2_direct,
                chi2_cutqc=chi2_cutqc,
                status=status,
            )
        )
    return records
