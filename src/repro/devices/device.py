"""Virtual NISQ device: qubit count, coupling map, noise, shot execution.

The stand-in for IBM hardware (DESIGN.md substitutions).  ``run`` performs
the full hardware pipeline the paper describes in §2: transpile to the
device's connectivity and native gates, execute shots under the device
noise model, and return the empirical distribution over the circuit's
logical qubits.  It is the batched noisy engine CutQC's pieces run on,
applied to one uncut circuit, so a direct run and a cut run share one
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from ..flatgraph import adjacency, is_connected
from ..cutting.cutter import Subcircuit
from ..cutting.variants import NoisyEvalSpec, batched_noisy_variant_probabilities
from ..sim.noise import NoiseModel

__all__ = ["VirtualDevice"]


@dataclass
class VirtualDevice:
    """A small virtual quantum computer."""

    name: str
    num_qubits: int
    coupling_map: Tuple[Tuple[int, int], ...]
    noise: NoiseModel = field(default_factory=NoiseModel)
    shots: int = 8192
    seed: Optional[int] = None
    #: Each qubit's coupled qubits, in coupling-map order.
    neighbors: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        pairs = []
        for a, b in self.coupling_map:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits) or a == b:
                raise ValueError(f"invalid coupling pair ({a}, {b})")
            pairs.append((min(a, b), max(a, b)))
        object.__setattr__(self, "coupling_map", tuple(sorted(set(pairs))))
        neighbors = adjacency(self.num_qubits, self.coupling_map)
        if not is_connected(neighbors):
            raise ValueError(f"device {self.name!r} coupling map is disconnected")
        self.neighbors = tuple(map(tuple, neighbors))

    # ------------------------------------------------------------------
    def are_coupled(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.coupling_map

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: Optional[int] = None,
        trajectories: int = NoisyEvalSpec.trajectories,
        seed: Optional[int] = None,
    ) -> np.ndarray:
        """Transpile + noisy shots; distribution over the logical qubits.

        The circuit runs as a piece with no cut lines (``rho = O = 0``)
        through :func:`~repro.cutting.variants.batched_noisy_variant_probabilities`
        on this device: the trajectory estimator, its keyed Pauli
        injections and its shot sampling are those of every ``device=``
        job.  ``shots=None`` uses the device default; ``shots=0``
        disables shot noise and returns the estimated noisy distribution
        itself.

        ``seed=None`` falls back to the device's ``seed``; when both are
        ``None`` the run is deterministic at root seed 0 (it does not draw
        fresh entropy).  A seed that is not an int in ``[0, 2**63)``
        raises :func:`~repro.sim.noise.check_seed`'s ``ValueError``.
        """
        if circuit.num_qubits > self.num_qubits:
            raise ValueError(
                f"circuit of {circuit.num_qubits} qubits does not fit device "
                f"{self.name!r} ({self.num_qubits} qubits)"
            )
        spec = NoisyEvalSpec(
            device=self,
            trajectories=trajectories,
            shots=shots if shots is not None else self.shots,
            seed=seed if seed is not None else self.seed,
        )
        distributions, _ = batched_noisy_variant_probabilities(
            Subcircuit(index=0, circuit=circuit), spec
        )
        return distributions[0, 0]

    def backend(
        self,
        shots: Optional[int] = None,
        trajectories: int = NoisyEvalSpec.trajectories,
        seed: Optional[int] = None,
    ) -> Callable[[QuantumCircuit], np.ndarray]:
        """A ``circuit -> distribution`` callable for the CutQC pipeline."""
        rng = np.random.default_rng(seed if seed is not None else self.seed)

        def run(circuit: QuantumCircuit) -> np.ndarray:
            return self.run(
                circuit,
                shots=shots,
                trajectories=trajectories,
                seed=int(rng.integers(2**31 - 1)),
            )

        return run

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_qubits} qubits, "
            f"{len(self.coupling_map)} couplings, "
            f"e1={self.noise.error_1q:.4f}, e2={self.noise.error_2q:.4f}, "
            f"readout={self.noise.readout:.4f}"
        )
