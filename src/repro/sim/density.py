"""Exact density-matrix simulation of noisy circuits.

The Monte-Carlo trajectory sampler (:mod:`repro.sim.noise`) is an
*estimator* of the depolarizing channel; this module computes the channel
exactly by evolving the full density matrix.  Memory is ``4^n`` complex
entries, so it is practical to ~10 qubits — enough to validate the
trajectory sampler (see tests) and to run exact noisy experiments at
Fig. 11's subcircuit scale.

Noise semantics match :class:`~repro.sim.noise.NoiseModel` exactly:

* after every 1-qubit gate, a depolarizing channel with probability
  ``error_1q`` applies a uniformly random non-identity Pauli;
* after every 2-qubit gate, a two-qubit depolarizing channel with
  probability ``error_2q`` applies a uniformly random non-identity
  Pauli pair;
* measurement applies an independent symmetric bit-flip confusion with
  probability ``readout`` per qubit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuits import Gate, QuantumCircuit
from .noise import NoiseModel, apply_readout_error
from .statevector import initial_state

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
]

_PAULIS_1Q = ("x", "y", "z")


def _depolarize_tensor(
    tensor: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
    probability: float,
    offset: int = 0,
) -> np.ndarray:
    """Apply a ``k``-qubit depolarizing channel to a rank-``2n`` tensor.

    Uses the Pauli-twirl identity — summing ``P rho P^dagger`` over all
    ``4^k`` Paulis fully depolarizes the targets::

        sum_P P rho P^dag = 4^k * (I/2^k  (x)  tr_targets rho)

    so the uniform non-identity Pauli channel collapses to one convex
    combination of ``rho`` with its partially-traced, maximally-mixed
    replacement — no per-Pauli-combination scratch copies::

        rho' = (1 - lam) rho + lam * (I/2^k (x) tr_targets rho),
        lam  = p * 4^k / (4^k - 1)

    ``offset`` shifts the ket/bra axes (1 for a leading batch axis); the
    channel then applies to every batch member in the same pass.
    """
    qubits = list(qubits)
    k = len(qubits)
    dim = 1 << k
    lam = probability * (dim * dim) / (dim * dim - 1.0)
    ket_axes = [offset + q for q in qubits]
    bra_axes = [offset + num_qubits + q for q in qubits]
    rest = [
        axis
        for axis in range(tensor.ndim)
        if axis not in ket_axes and axis not in bra_axes
    ]
    perm = rest + ket_axes + bra_axes
    moved = np.ascontiguousarray(np.transpose(tensor, perm))
    flat = moved.reshape(-1, dim, dim)
    traced = np.trace(flat, axis1=1, axis2=2)
    mixed = traced[:, None, None] * (
        np.eye(dim, dtype=tensor.dtype) / dim
    )
    out = (1.0 - lam) * flat + lam * mixed
    return np.transpose(out.reshape(moved.shape), np.argsort(perm))


class DensityMatrix:
    """An ``n``-qubit mixed state stored as a rank-``2n`` tensor.

    Axes ``0..n-1`` are the ket indices (qubit order), axes ``n..2n-1``
    the bra indices.
    """

    def __init__(self, num_qubits: int, data: Optional[np.ndarray] = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if num_qubits > 14:
            raise ValueError(
                f"{num_qubits} qubits needs 4^{num_qubits} complex entries; "
                "use the statevector or trajectory simulators instead"
            )
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            matrix = np.zeros((dim, dim), dtype=complex)
            matrix[0, 0] = 1.0
        else:
            matrix = np.asarray(data, dtype=complex)
            if matrix.shape != (dim, dim):
                raise ValueError(
                    f"data shape {matrix.shape} does not match "
                    f"{self.num_qubits} qubits"
                )
        self._tensor = matrix.reshape((2,) * (2 * self.num_qubits)).copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_statevector(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        num_qubits = int(np.log2(amplitudes.size))
        if 1 << num_qubits != amplitudes.size:
            raise ValueError("amplitude vector length is not a power of two")
        return cls(num_qubits, np.outer(amplitudes, amplitudes.conj()))

    @classmethod
    def from_labels(cls, labels: Sequence[str]) -> "DensityMatrix":
        vector = np.array([1.0], dtype=complex)
        for label in labels:
            vector = np.kron(vector, initial_state(label))
        return cls.from_statevector(vector)

    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        return self._tensor.reshape(dim, dim).copy()

    def probabilities(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        return np.real(np.diagonal(self._tensor.reshape(dim, dim))).copy()

    def trace(self) -> complex:
        dim = 1 << self.num_qubits
        return complex(np.trace(self._tensor.reshape(dim, dim)))

    def purity(self) -> float:
        dim = 1 << self.num_qubits
        matrix = self._tensor.reshape(dim, dim)
        return float(np.real(np.trace(matrix @ matrix)))

    # ------------------------------------------------------------------
    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """rho <- U rho U^dagger on the given qubits (first = MSB)."""
        qubits = list(qubits)
        k = len(qubits)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(
                f"matrix shape {matrix.shape} does not act on {k} qubit(s)"
            )
        operator = matrix.reshape((2,) * (2 * k))
        # Ket side.
        contracted = np.tensordot(
            operator, self._tensor, axes=(range(k, 2 * k), qubits)
        )
        self._tensor = np.moveaxis(contracted, range(k), qubits)
        # Bra side (conjugate).
        bra_axes = [self.num_qubits + q for q in qubits]
        contracted = np.tensordot(
            operator.conj(), self._tensor, axes=(range(k, 2 * k), bra_axes)
        )
        self._tensor = np.moveaxis(contracted, range(k), bra_axes)

    def apply_gate(self, gate: Gate) -> None:
        self.apply_unitary(gate.matrix(), gate.qubits)

    def apply_depolarizing(self, qubits: Sequence[int], probability: float) -> None:
        """Uniform non-identity Pauli error with the given probability.

        Computed as a single closed-form superoperator (Pauli twirl — see
        :func:`_depolarize_tensor`) instead of materializing all
        ``4^k - 1`` Pauli combinations with a scratch copy each.
        """
        if probability <= 0.0:
            return
        self._tensor = _depolarize_tensor(
            self._tensor, qubits, self.num_qubits, probability
        )


class DensityMatrixSimulator:
    """Exact noisy evaluation: the ground truth the trajectory
    simulator converges to."""

    def __init__(self, noise: Optional[NoiseModel] = None):
        self.noise = noise or NoiseModel()

    def run(
        self,
        circuit: QuantumCircuit,
        initial_labels: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Exact noisy output distribution of ``circuit``."""
        state = self.evolve(circuit, initial_labels)
        return apply_readout_error(state.probabilities(), self.noise.readout)

    def evolve(
        self,
        circuit: QuantumCircuit,
        initial_labels: Optional[Sequence[str]] = None,
    ) -> DensityMatrix:
        """The pre-measurement density matrix after the noisy circuit."""
        if initial_labels is None:
            state = DensityMatrix(circuit.num_qubits)
        else:
            if len(initial_labels) != circuit.num_qubits:
                raise ValueError(
                    f"{len(initial_labels)} labels for "
                    f"{circuit.num_qubits} qubits"
                )
            state = DensityMatrix.from_labels(initial_labels)
        for gate in circuit:
            state.apply_gate(gate)
            rate = (
                self.noise.error_2q if gate.is_multiqubit else self.noise.error_1q
            )
            state.apply_depolarizing(gate.qubits, rate)
        return state
