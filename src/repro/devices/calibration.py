"""Per-qubit / per-link calibration data and noise-adaptive layout.

Real devices are heterogeneous: every qubit has its own readout error and
every coupler its own two-qubit gate error, and noise-adaptive compilers
(paper ref [32], used for *both* execution modes in the paper's
experiments) pick the best subgraph from live calibration data.  This
module adds that substrate:

* :class:`Calibration` — per-qubit 1q/readout errors and per-edge 2q
  errors, with a synthetic generator that mimics published calibration
  spreads (log-normal around the device's base rates);
* :func:`noise_adaptive_layout` — chooses the connected subgraph of
  physical qubits minimizing expected error mass, replacing the purely
  topological :func:`~repro.devices.transpiler.select_layout`;
* :class:`CalibratedDevice` — a :class:`~repro.devices.device.VirtualDevice`
  whose trajectory simulation draws error rates per gate from the
  calibration rather than uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..cutting.variants import NoisyEvalSpec
from ..sim.sampler import sample_distribution
from ..sim.statevector import Statevector
from .device import VirtualDevice

__all__ = ["Calibration", "noise_adaptive_layout", "CalibratedDevice"]

_PAULI_NAMES_1Q = ("x", "y", "z")
_PAULI_PAIRS_2Q = tuple(
    (a, b)
    for a in ("i", "x", "y", "z")
    for b in ("i", "x", "y", "z")
    if not (a == "i" and b == "i")
)


@dataclass
class Calibration:
    """Heterogeneous error rates for one device."""

    error_1q: Dict[int, float]
    error_2q: Dict[Tuple[int, int], float]
    readout: Dict[int, float]

    def __post_init__(self) -> None:
        self.error_2q = {
            (min(a, b), max(a, b)): rate for (a, b), rate in self.error_2q.items()
        }
        for mapping, label in (
            (self.error_1q, "error_1q"),
            (self.error_2q, "error_2q"),
            (self.readout, "readout"),
        ):
            for key, rate in mapping.items():
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"{label}[{key}] = {rate} outside [0, 1]")

    # ------------------------------------------------------------------
    @classmethod
    def synthetic(
        cls,
        device: VirtualDevice,
        spread: float = 0.5,
        seed: Optional[int] = None,
    ) -> "Calibration":
        """Log-normal per-qubit/per-edge rates around the device's base.

        ``spread`` is the sigma of the log-normal factor; 0.5 gives the
        ~2-3x qubit-to-qubit variation typical of published calibrations.
        """
        rng = np.random.default_rng(seed)
        base = device.noise

        def jitter(rate: float) -> float:
            return float(min(0.5, rate * rng.lognormal(0.0, spread)))

        return cls(
            error_1q={q: jitter(base.error_1q) for q in range(device.num_qubits)},
            error_2q={edge: jitter(base.error_2q) for edge in device.coupling_map},
            readout={q: jitter(base.readout) for q in range(device.num_qubits)},
        )

    # ------------------------------------------------------------------
    def edge_error(self, a: int, b: int) -> float:
        return self.error_2q[(min(a, b), max(a, b))]

    def qubit_quality(self, qubit: int, neighbors: Sequence[int]) -> float:
        """Error mass of a qubit: own rates plus its best couplers."""
        link_errors = sorted(self.edge_error(qubit, n) for n in neighbors)
        best_links = sum(link_errors[:2]) / max(1, min(2, len(link_errors)))
        return self.error_1q[qubit] + self.readout[qubit] + best_links

    def describe(self) -> str:
        worst_q = max(self.readout, key=self.readout.get)
        worst_e = max(self.error_2q, key=self.error_2q.get)
        return (
            f"calibration: {len(self.error_1q)} qubits, "
            f"{len(self.error_2q)} couplers; worst readout q{worst_q} "
            f"({self.readout[worst_q]:.4f}), worst coupler {worst_e} "
            f"({self.error_2q[worst_e]:.4f})"
        )


def noise_adaptive_layout(
    device: VirtualDevice,
    calibration: Calibration,
    num_logical: int,
) -> List[int]:
    """Greedy lowest-error connected subgraph (ref [32] stand-in).

    Start from the highest-quality qubit and grow through the lowest-error
    coupler on the frontier until ``num_logical`` qubits are selected.
    """
    if num_logical > device.num_qubits:
        raise ValueError(
            f"{num_logical} logical qubits exceed device size {device.num_qubits}"
        )
    neighbors = device.neighbors
    start = min(
        range(device.num_qubits),
        key=lambda q: calibration.qubit_quality(q, neighbors[q]),
    )
    chosen = [start]
    chosen_set = {start}
    while len(chosen) < num_logical:
        frontier: List[Tuple[float, int]] = []
        for member in chosen:
            for neighbor in neighbors[member]:
                if neighbor in chosen_set:
                    continue
                cost = (
                    calibration.edge_error(member, neighbor)
                    + calibration.error_1q[neighbor]
                    + calibration.readout[neighbor]
                )
                frontier.append((cost, neighbor))
        if not frontier:  # pragma: no cover - connected devices
            break
        frontier.sort()
        _, picked = frontier[0]
        chosen.append(picked)
        chosen_set.add(picked)
    return chosen


class CalibratedDevice(VirtualDevice):
    """A virtual device with heterogeneous, calibration-driven noise."""

    def __init__(self, *args, calibration: Optional[Calibration] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.calibration = calibration or Calibration.synthetic(self, seed=self.seed)

    @classmethod
    def from_device(
        cls,
        device: VirtualDevice,
        calibration: Optional[Calibration] = None,
        seed: Optional[int] = None,
    ) -> "CalibratedDevice":
        return cls(
            name=device.name,
            num_qubits=device.num_qubits,
            coupling_map=device.coupling_map,
            noise=device.noise,
            shots=device.shots,
            seed=seed if seed is not None else device.seed,
            calibration=calibration,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        trajectories: int = NoisyEvalSpec.trajectories,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Transpile with the noise-adaptive layout, simulate with
        per-gate calibrated error rates."""
        from ..utils import marginalize
        from .transpiler import compact_circuit, transpile

        if circuit.num_qubits > self.num_qubits:
            raise ValueError(
                f"circuit of {circuit.num_qubits} qubits does not fit device "
                f"{self.name!r} ({self.num_qubits} qubits)"
            )
        layout = noise_adaptive_layout(self, self.calibration, circuit.num_qubits)
        transpiled = transpile(circuit, self, initial_layout=layout)
        compacted, kept_wires = compact_circuit(
            transpiled.circuit, keep=transpiled.final_layout
        )
        wire_map = {local: physical for local, physical in enumerate(kept_wires)}
        distribution = self._calibrated_distribution(
            compacted, wire_map, trajectories, seed
        )
        keep = [
            kept_wires.index(transpiled.final_layout[q])
            for q in range(circuit.num_qubits)
        ]
        effective_shots = shots if shots is not None else self.shots
        if effective_shots:
            rng = np.random.default_rng(seed if seed is not None else self.seed)
            distribution = sample_distribution(
                distribution, effective_shots, rng
            )
        return marginalize(distribution, keep, compacted.num_qubits)

    # ------------------------------------------------------------------
    def _gate_error(self, gate: Gate, wire_map: Dict[int, int]) -> float:
        if gate.is_multiqubit:
            a, b = (wire_map[q] for q in gate.qubits)
            return self.calibration.edge_error(a, b)
        return self.calibration.error_1q[wire_map[gate.qubits[0]]]

    def _calibrated_distribution(
        self,
        circuit: QuantumCircuit,
        wire_map: Dict[int, int],
        trajectories: int,
        seed: Optional[int],
    ) -> np.ndarray:
        rng = np.random.default_rng(seed if seed is not None else self.seed)
        clean = Statevector(circuit.num_qubits).apply_circuit(circuit).probabilities()
        log_clean = sum(
            np.log1p(-min(self._gate_error(g, wire_map), 1 - 1e-12))
            for g in circuit
        )
        clean_weight = float(np.exp(log_clean))
        noisy = np.zeros_like(clean)
        noisy_count = 0
        for _ in range(trajectories):
            sample = self._trajectory(circuit, wire_map, rng)
            if sample is None:
                continue
            noisy += sample
            noisy_count += 1
        if noisy_count:
            averaged = clean_weight * clean + (1 - clean_weight) * (
                noisy / noisy_count
            )
        else:
            averaged = clean
        return self._apply_heterogeneous_readout(averaged, wire_map)

    def _trajectory(
        self, circuit: QuantumCircuit, wire_map: Dict[int, int], rng
    ) -> Optional[np.ndarray]:
        state = Statevector(circuit.num_qubits)
        injected = False
        for gate in circuit:
            state.apply_gate(gate)
            rate = self._gate_error(gate, wire_map)
            if rng.random() >= rate:
                continue
            injected = True
            if gate.is_multiqubit:
                pair = _PAULI_PAIRS_2Q[rng.integers(len(_PAULI_PAIRS_2Q))]
                for name, qubit in zip(pair, gate.qubits):
                    if name != "i":
                        state.apply_gate(Gate(name, (qubit,)))
            else:
                name = _PAULI_NAMES_1Q[rng.integers(3)]
                state.apply_gate(Gate(name, gate.qubits))
        if not injected:
            return None
        return state.probabilities()

    def _apply_heterogeneous_readout(
        self, distribution: np.ndarray, wire_map: Dict[int, int]
    ) -> np.ndarray:
        num_qubits = int(np.log2(distribution.size))
        tensor = distribution.reshape((2,) * num_qubits).astype(float)
        for axis in range(num_qubits):
            flip = self.calibration.readout[wire_map[axis]]
            confusion = np.array([[1 - flip, flip], [flip, 1 - flip]])
            tensor = np.moveaxis(
                np.tensordot(confusion, tensor, axes=([1], [axis])), 0, axis
            )
        return tensor.reshape(-1)
