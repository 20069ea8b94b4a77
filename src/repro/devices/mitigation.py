"""Measurement-error mitigation (paper refs [46, 47] substrate).

Readout error is the one NISQ error channel that acts *after* the quantum
computation, so it can be inverted classically: calibrate the confusion
matrix ``C`` (``C[i, j] = P(read i | prepared j)``) by preparing basis
states, then solve ``C x = observed`` for the mitigated distribution.

This pairs especially well with CutQC: subcircuits are small (<= the
device size), so *full* 2^n-state calibration is affordable — one of the
practical advantages of running small circuits that the paper's fidelity
argument rests on.  ``MitigatedBackend`` wraps any device backend so the
pipeline applies mitigation to every variant automatically.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits import QuantumCircuit
from ..cutting.variants import NoisyEvalSpec
from .device import VirtualDevice

__all__ = [
    "calibrate_confusion_matrix",
    "mitigate_distribution",
    "MitigatedBackend",
]

#: Trajectories per calibration circuit.  A calibration circuit is one
#: layer of X/identity gates, and the readout error it measures is applied
#: exactly to every trajectory, so few trajectories suffice and shot noise
#: dominates the estimate.
_CALIBRATION_TRAJECTORIES = 8


def calibrate_confusion_matrix(
    device: VirtualDevice,
    num_qubits: int,
    shots: int = 4096,
    trajectories: int = _CALIBRATION_TRAJECTORIES,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Measure ``C[i, j] = P(read i | prepared j)`` on ``device``.

    Prepares each of the ``2^num_qubits`` computational basis states with
    X gates and records the observed distribution — the textbook full
    calibration, affordable because CutQC subcircuits are small.
    """
    if num_qubits > device.num_qubits:
        raise ValueError(
            f"{num_qubits} qubits exceed device size {device.num_qubits}"
        )
    if num_qubits > 6:
        raise ValueError(
            "full confusion calibration beyond 6 qubits is impractical "
            "(2^n preparation circuits); calibrate per subcircuit size"
        )
    dim = 1 << num_qubits
    confusion = np.zeros((dim, dim))
    rng = np.random.default_rng(seed)
    for prepared in range(dim):
        circuit = QuantumCircuit(num_qubits)
        any_gate = False
        for bit in range(num_qubits):
            if (prepared >> (num_qubits - 1 - bit)) & 1:
                circuit.x(bit)
                any_gate = True
            else:
                circuit.i(bit)
        del any_gate
        observed = device.run(
            circuit,
            shots=shots,
            trajectories=trajectories,
            seed=int(rng.integers(2**31 - 1)),
        )
        confusion[:, prepared] = observed
    return confusion


def mitigate_distribution(
    observed: np.ndarray,
    confusion: np.ndarray,
    clip: bool = True,
) -> np.ndarray:
    """Invert the confusion matrix: least-squares solve ``C x = observed``.

    With ``clip`` (default) the solution is projected back onto the
    probability simplex (negative entries floored at 0, then renormalized)
    — inversion amplifies shot noise and can leave small negatives.
    """
    observed = np.asarray(observed, dtype=float)
    if confusion.shape != (observed.size, observed.size):
        raise ValueError(
            f"confusion matrix {confusion.shape} does not match a "
            f"{observed.size}-state distribution"
        )
    solution, *_ = np.linalg.lstsq(confusion, observed, rcond=None)
    if clip:
        solution = np.clip(solution, 0.0, None)
        total = solution.sum()
        if total > 0:
            solution = solution / total
    return solution


class MitigatedBackend:
    """Wrap a device so every evaluated circuit is readout-mitigated.

    Confusion matrices are calibrated lazily per circuit width and
    cached, so a CutQC evaluation with subcircuits of mixed sizes pays
    for each width once.
    """

    def __init__(
        self,
        device: VirtualDevice,
        shots: Optional[int] = None,
        trajectories: int = NoisyEvalSpec.trajectories,
        calibration_shots: int = 4096,
        seed: Optional[int] = None,
    ):
        self.device = device
        self.shots = shots
        self.trajectories = trajectories
        self.calibration_shots = calibration_shots
        self._rng = np.random.default_rng(seed)
        self._confusions: Dict[int, np.ndarray] = {}

    def confusion_for(self, num_qubits: int) -> np.ndarray:
        if num_qubits not in self._confusions:
            self._confusions[num_qubits] = calibrate_confusion_matrix(
                self.device,
                num_qubits,
                shots=self.calibration_shots,
                trajectories=self.trajectories,
                seed=int(self._rng.integers(2**31 - 1)),
            )
        return self._confusions[num_qubits]

    def __call__(self, circuit: QuantumCircuit) -> np.ndarray:
        observed = self.device.run(
            circuit,
            shots=self.shots,
            trajectories=self.trajectories,
            seed=int(self._rng.integers(2**31 - 1)),
        )
        return mitigate_distribution(observed, self.confusion_for(circuit.num_qubits))
