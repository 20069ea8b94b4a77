"""Reference of the batched density path: one gate, one channel at a time.

The engine (:func:`repro.sim.noisy_batch.evolve_density`) runs the exact
depolarizing channel as fused superoperators on a ``2n``-axis
:class:`~repro.sim.batch.BatchedStatevector`.  This module keeps the
paths it replaced, step for step:

* :class:`DensityMatrix` / :class:`DensityMatrixSimulator` are the
  serial exact channel — one circuit, one gate and one
  :func:`_depolarize_tensor` pass at a time;
* :func:`density_steps` is its schedule — maximal runs of zero-rate
  gates fused to unitaries, every gate carrying a depolarizing site a
  step of its own, in circuit order;
* :class:`BatchedDensityMatrix` applies a unitary as a ket-side and a
  conjugated bra-side matmul, and a site as the closed-form
  :func:`_depolarize_tensor` pass;
* :func:`oracle_distributions` replays a whole density evaluation —
  product prep, body, the basis tree gate by gate, readout and the
  device path's marginalisation — on them.

``tests/test_noisy_batch.py`` holds the engine to it at 1e-12 and the
trajectory replay steps through :func:`density_steps`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits import Gate, QuantumCircuit
from repro.cutting.variants import INIT_LABELS, MEAS_BASES, body_program
from repro.devices.transpiler import compact_circuit, transpile
from repro.sim.batch import FusedOp, fuse_gates
from repro.sim.noise import NoiseModel
from repro.sim.noisy_batch import apply_readout_error_rows, marginalize_rows
from repro.sim.statevector import initial_state
from tests.noisy_oracle import apply_readout_error


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


@dataclass(frozen=True)
class Site:
    """One body gate followed by a depolarizing site of strength ``rate``."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    rate: float


def density_steps(
    gates: Sequence[Gate], noise
) -> Tuple[Union[FusedOp, Site], ...]:
    """Zero-rate runs fused, every gate with a site a :class:`Site`."""
    steps: List[Union[FusedOp, Site]] = []
    run: List[Gate] = []
    for gate in gates:
        rate = noise.error_2q if gate.is_multiqubit else noise.error_1q
        if rate <= 0.0:
            run.append(gate)
            continue
        if run:
            steps.extend(fuse_gates(tuple(run)))
            run.clear()
        steps.append(Site(gate.matrix(), tuple(gate.qubits), float(rate)))
    if run:
        steps.extend(fuse_gates(tuple(run)))
    return tuple(steps)


def body_gates(subcircuit, spec) -> Tuple[Gate, ...]:
    """The body the engine simulates, in circuit order: the subcircuit's
    gates, or on the device path its routed and compacted transpile."""
    if spec.device is None:
        return tuple(subcircuit.circuit.gates)
    transpiled = transpile(subcircuit.circuit, spec.device)
    anchors = set(transpiled.initial_layout) | set(transpiled.final_layout)
    compact, _ = compact_circuit(transpiled.circuit, keep=sorted(anchors))
    return tuple(compact.gates)


class BatchedDensityMatrix:
    """``B`` mixed ``n``-qubit states as a ``(B,) + (2,)*(2n)`` tensor.

    Axis 0 is the batch, axes ``1..n`` the ket indices and ``n+1..2n``
    the bra indices.
    """

    def __init__(self, num_qubits: int, batch_size: int, data: np.ndarray):
        self.num_qubits = num_qubits
        self.batch_size = batch_size
        shape = (batch_size,) + (2,) * (2 * num_qubits)
        self._tensor = np.asarray(data, dtype=complex).reshape(shape).copy()

    @classmethod
    def from_product_batch(cls, states) -> "BatchedDensityMatrix":
        """``states[b][q]`` is the 2x2 density of qubit ``q`` in member ``b``."""
        num_qubits = len(states[0])
        batch = len(states)
        block = np.ones((batch, 1, 1), dtype=complex)
        for qubit in range(num_qubits):
            column = np.array(
                [np.asarray(member[qubit], dtype=complex) for member in states]
            )
            dim = block.shape[1]
            block = np.einsum("bik,bjl->bijkl", block, column).reshape(
                batch, dim * 2, dim * 2
            )
        return cls(num_qubits, batch, block)

    def apply_matrix(self, matrix, qubits) -> "BatchedDensityMatrix":
        """``rho <- U rho U^dagger`` on every batch member, in place."""
        k = len(qubits)
        self._contract(matrix, [1 + q for q in qubits], k)
        self._contract(
            matrix.conj(), [1 + self.num_qubits + q for q in qubits], k
        )
        return self

    def _contract(self, matrix, target_axes, k) -> None:
        rest = [
            axis for axis in range(self._tensor.ndim) if axis not in target_axes
        ]
        perm = rest + list(target_axes)
        moved = np.transpose(self._tensor, perm)
        flat = np.ascontiguousarray(moved).reshape(-1, 1 << k)
        out = flat @ matrix.T
        self._tensor = np.transpose(out.reshape(moved.shape), np.argsort(perm))

    def applied(self, matrix, qubits) -> "BatchedDensityMatrix":
        """A new batch with ``matrix`` applied; ``self`` is untouched."""
        clone = BatchedDensityMatrix.__new__(BatchedDensityMatrix)
        clone.num_qubits = self.num_qubits
        clone.batch_size = self.batch_size
        clone._tensor = self._tensor
        return clone.apply_matrix(matrix, qubits)

    def apply_depolarizing(self, qubits, probability) -> "BatchedDensityMatrix":
        if probability > 0.0:
            self._tensor = _depolarize_tensor(
                self._tensor, qubits, self.num_qubits, probability, offset=1
            )
        return self

    def matrices(self) -> np.ndarray:
        """``(B, 2^n, 2^n)`` density matrices (a copy)."""
        dim = 1 << self.num_qubits
        return np.array(self._tensor).reshape(self.batch_size, dim, dim)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrices(), axis1=1, axis2=2)).copy()


def run_density_body(
    steps, state: BatchedDensityMatrix
) -> BatchedDensityMatrix:
    """Each step's unitary, and after a :class:`Site` its channel."""
    for step in steps:
        state.apply_matrix(step.matrix, step.qubits)
        if isinstance(step, Site):
            state.apply_depolarizing(step.qubits, step.rate)
    return state


def oracle_distributions(subcircuit, spec) -> np.ndarray:
    """The ``(4^rho, 3^O, 2^w)`` density distributions, step by step.

    ``spec.method`` must be ``"density"``; shots are not sampled.  The
    prep densities and basis fragments are the engine's compiled ones.
    """
    program = body_program(subcircuit, spec)
    noise = spec.effective_noise
    num_meas = len(subcircuit.meas_lines)
    zero_rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    combos = list(
        itertools.product(INIT_LABELS, repeat=len(subcircuit.init_lines))
    )
    members = []
    for labels in combos:
        per_wire = [zero_rho] * program.num_wires
        for line_index, label in enumerate(labels):
            fragment = program.prep[(label, line_index)]
            per_wire[fragment.wire] = fragment.rho
        members.append(per_wire)
    state = run_density_body(
        density_steps(body_gates(subcircuit, spec), noise),
        BatchedDensityMatrix.from_product_batch(members),
    )
    distributions = np.empty(
        (len(combos), len(MEAS_BASES) ** num_meas, 1 << subcircuit.width)
    )
    for code, bases in enumerate(
        itertools.product(MEAS_BASES, repeat=num_meas)
    ):
        branch = state
        for line_index, name in enumerate(bases):
            fragment = program.basis[(name, line_index)]
            for matrix in fragment.matrices:
                branch = branch.applied(matrix, [fragment.wire])
                branch.apply_depolarizing([fragment.wire], noise.error_1q)
        rows = apply_readout_error_rows(branch.probabilities(), noise.readout)
        if program.keep is not None:
            rows = marginalize_rows(rows, program.keep, program.num_wires)
        distributions[:, code] = rows
    return distributions
