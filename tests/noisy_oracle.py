"""Reference of the per-circuit noisy path: a serial trajectory loop.

``VirtualDevice.run`` evaluates a circuit as a one-variant piece of the
batched noisy engine
(:func:`repro.cutting.variants.batched_noisy_variant_probabilities`).
This module keeps the serial path it replaced:

* :class:`NoisySimulator` walks one :class:`~repro.sim.statevector.Statevector`
  per Pauli-injection trajectory, gate by gate, drawing from one
  sequential ``numpy`` generator, and mixes the trajectory mean with the
  clean run by the analytic clean weight;
* :func:`apply_readout_error` is the serial per-qubit readout confusion;
* :func:`serial_device_run` and :func:`serial_device_backend` are the
  device's old ``run`` / ``backend`` bodies on top of them: transpile,
  compact to the touched wires, simulate, marginalise to the logical
  qubits.

``tests/test_device_engine.py`` holds the engine's direct run to the
exact channel no worse than this estimator, and
``benchmarks/bench_noisy_batch.py`` times it as the per-circuit side of
the ``noisy-batch`` ratio.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.circuits import Gate, QuantumCircuit
from repro.devices.transpiler import compact_circuit, transpile
from repro.sim.noise import NoiseModel, clean_log_weight
from repro.sim.sampler import sample_distribution
from repro.sim.statevector import Statevector
from repro.utils import marginalize

_PAULI_NAMES_1Q = ("x", "y", "z")
#: Non-identity two-qubit Pauli pairs for the 2q depolarizing channel.
_PAULI_PAIRS_2Q = tuple(
    (a, b)
    for a in ("i", "x", "y", "z")
    for b in ("i", "x", "y", "z")
    if not (a == "i" and b == "i")
)


def apply_readout_error(probabilities: np.ndarray, flip: float) -> np.ndarray:
    """Apply a symmetric per-qubit readout confusion to a distribution."""
    if flip == 0.0:
        return probabilities.astype(float)
    num_qubits = int(np.log2(probabilities.size))
    if 1 << num_qubits != probabilities.size:
        raise ValueError("probability vector length is not a power of two")
    confusion = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    tensor = probabilities.reshape((2,) * num_qubits).astype(float)
    for axis in range(num_qubits):
        tensor = np.tensordot(confusion, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)


class NoisySimulator:
    """Shot-based noisy circuit evaluation via Pauli-injection trajectories.

    Parameters
    ----------
    noise:
        The error rates to inject.
    trajectories:
        Number of Monte-Carlo trajectories averaged to estimate the noisy
        distribution.  The all-identity (error-free) trajectory is always
        evaluated once and mixed in analytically with its exact weight,
        which keeps the estimator low-variance at realistic error rates.
    shots:
        Shots drawn from the estimated noisy distribution (``None`` or 0
        returns the estimated distribution itself, without shot noise).
    """

    def __init__(
        self,
        noise: NoiseModel,
        trajectories: int = 24,
        shots: Optional[int] = 8192,
        seed: Optional[int] = None,
    ):
        if trajectories <= 0:
            raise ValueError("trajectories must be positive")
        self.noise = noise
        self.trajectories = int(trajectories)
        self.shots = shots
        self._rng = np.random.default_rng(seed)
        #: Clean-trajectory weight per circuit identity.
        self._clean_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, initial_labels=None) -> np.ndarray:
        """Empirical (or exact if ``shots`` is falsy) noisy distribution."""
        distribution = self.noisy_distribution(circuit, initial_labels)
        if not self.shots:
            return distribution
        return sample_distribution(distribution, self.shots, self._rng)

    def noisy_distribution(
        self, circuit: QuantumCircuit, initial_labels=None
    ) -> np.ndarray:
        """Trajectory-averaged distribution with readout error applied."""
        clean = self._trajectory(circuit, initial_labels, inject=False)
        if self.noise.error_1q == 0.0 and self.noise.error_2q == 0.0:
            averaged = clean
        else:
            clean_weight = self._clean_probability(circuit)
            noisy = np.zeros_like(clean)
            noisy_count = 0
            for _ in range(self.trajectories):
                sample = self._trajectory(circuit, initial_labels, inject=True)
                if sample is None:
                    # Trajectory drew no error: counts toward the clean part.
                    continue
                noisy += sample
                noisy_count += 1
            if noisy_count:
                averaged = clean_weight * clean + (1.0 - clean_weight) * (
                    noisy / noisy_count
                )
            else:
                averaged = clean
        return apply_readout_error(averaged, self.noise.readout)

    # ------------------------------------------------------------------
    def _clean_probability(self, circuit: QuantumCircuit) -> float:
        """Probability that a trajectory injects no error at all."""
        key = (circuit.num_qubits, circuit.gates)
        cached = self._clean_cache.get(key)
        if cached is None:
            if len(self._clean_cache) >= 256:
                self._clean_cache.clear()
            cached = float(np.exp(clean_log_weight(circuit, self.noise)))
            self._clean_cache[key] = cached
        return cached

    def _trajectory(
        self, circuit: QuantumCircuit, initial_labels, inject: bool
    ) -> Optional[np.ndarray]:
        """One statevector run; with ``inject``, conditions on >=1 error.

        Returns ``None`` for an injecting run that happened to draw no
        error (the caller folds those into the clean component).
        """
        if initial_labels is None:
            state = Statevector(circuit.num_qubits)
        else:
            state = Statevector.from_labels(initial_labels)
        injected = False
        for gate in circuit:
            state.apply_gate(gate)
            if not inject:
                continue
            if gate.is_multiqubit:
                if self._rng.random() < self.noise.error_2q:
                    pair = _PAULI_PAIRS_2Q[self._rng.integers(len(_PAULI_PAIRS_2Q))]
                    for name, qubit in zip(pair, gate.qubits):
                        if name != "i":
                            state.apply_gate(Gate(name, (qubit,)))
                    injected = True
            else:
                if self._rng.random() < self.noise.error_1q:
                    name = _PAULI_NAMES_1Q[self._rng.integers(3)]
                    state.apply_gate(Gate(name, gate.qubits))
                    injected = True
        if inject and not injected:
            return None
        return state.probabilities()


def serial_device_run(
    device,
    circuit: QuantumCircuit,
    shots: Optional[int] = None,
    trajectories: int = 24,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Transpile + noisy shots; distribution over the logical qubits.

    ``shots=None`` uses the device default; ``shots=0`` disables shot
    noise and returns the estimated noisy distribution itself.
    """
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit of {circuit.num_qubits} qubits does not fit device "
            f"{device.name!r} ({device.num_qubits} qubits)"
        )
    transpiled = transpile(circuit, device)
    # Simulate only the physical wires the routed circuit touches —
    # idle device qubits stay in |0> and are never read out.  Wires
    # holding (possibly gate-free) logical qubits must survive.
    compacted, kept_wires = compact_circuit(
        transpiled.circuit, keep=transpiled.final_layout
    )
    simulator = NoisySimulator(
        device.noise,
        trajectories=trajectories,
        shots=shots if shots is not None else device.shots,
        seed=seed if seed is not None else device.seed,
    )
    full = simulator.run(compacted)
    # Read out only the physical qubits holding logical wires, in
    # logical order (what hardware measurement mapping does).
    keep = [
        kept_wires.index(transpiled.final_layout[q])
        for q in range(circuit.num_qubits)
    ]
    return marginalize(full, keep, compacted.num_qubits)


def serial_device_backend(
    device,
    shots: Optional[int] = None,
    trajectories: int = 24,
    seed: Optional[int] = None,
) -> Callable[[QuantumCircuit], np.ndarray]:
    """A ``circuit -> distribution`` callable for the CutQC pipeline."""
    rng = np.random.default_rng(seed if seed is not None else device.seed)

    def run(circuit: QuantumCircuit) -> np.ndarray:
        return serial_device_run(
            device,
            circuit,
            shots=shots,
            trajectories=trajectories,
            seed=int(rng.integers(2**31 - 1)),
        )

    return run
