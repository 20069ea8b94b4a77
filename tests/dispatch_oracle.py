"""Reference bodies of the noisy evaluator's per-call dispatch.

The simulator reads its transposes from a permutation table, embeds
gates into fused blocks by an index scatter and keys injected trajectory
blocks by integers.  These are the straightforward versions they
replaced, kept as oracles: the tests require ``array_equal`` results.

* :func:`apply_matrix` — ``BatchedStatevector.apply_matrix`` on a raw
  ``(B, 2, ..., 2)`` tensor: argsort for the inverse transpose;
* :func:`apply_readout_error_rows` — two ``np.moveaxis`` per qubit;
* :func:`expand_to_block` / :func:`block_op` — a ``tensordot`` against
  an identity per gate;
* :func:`injected_suffix` — Pauli ``Gate`` objects spliced into a copy
  of each injected block's gate list, from a per-site name pattern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import Gate
from repro.sim.batch import FusedOp
from repro.sim.noisy_batch import PAULI_NAMES_1Q, PAULI_PAIRS_2Q


def apply_matrix(
    tensor: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    qubits = list(qubits)
    k = len(qubits)
    target_axes = [q + 1 for q in qubits]
    rest = [axis for axis in range(tensor.ndim) if axis not in target_axes]
    perm = rest + target_axes
    moved = np.transpose(tensor, perm)
    moved_shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(-1, 1 << k)
    out = flat @ matrix.T
    return np.transpose(out.reshape(moved_shape), np.argsort(perm))


def apply_readout_error_rows(rows: np.ndarray, flip: float) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if flip == 0.0:
        return rows
    num_qubits = int(np.log2(rows.shape[1]))
    confusion = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    tensor = rows.reshape((rows.shape[0],) + (2,) * num_qubits)
    for axis in range(1, num_qubits + 1):
        moved = np.moveaxis(tensor, axis, -1)
        shape = moved.shape
        moved = np.ascontiguousarray(moved).reshape(-1, 2) @ confusion.T
        tensor = np.moveaxis(moved.reshape(shape), -1, axis)
    return tensor.reshape(rows.shape[0], -1)


def expand_to_block(
    matrix: np.ndarray, positions: Sequence[int], block_width: int
) -> np.ndarray:
    k = len(positions)
    dim = 1 << block_width
    operator = matrix.reshape((2,) * (2 * k))
    identity = np.eye(dim, dtype=complex).reshape((2,) * block_width + (dim,))
    contracted = np.tensordot(
        operator, identity, axes=(range(k, 2 * k), list(positions))
    )
    embedded = np.moveaxis(contracted, range(k), positions)
    return embedded.reshape(dim, dim)


def block_op(gates: Sequence[Gate]) -> FusedOp:
    ordered = tuple(sorted({q for gate in gates for q in gate.qubits}))
    position_of = {qubit: index for index, qubit in enumerate(ordered)}
    width = len(ordered)
    unitary = np.eye(1 << width, dtype=complex)
    for gate in gates:
        positions = [position_of[q] for q in gate.qubits]
        unitary = expand_to_block(gate.matrix(), positions, width) @ unitary
    return FusedOp(matrix=unitary, qubits=ordered)


def name_pattern(
    program, pattern: Sequence[Tuple[int, int]]
) -> Tuple[Optional[Tuple[str, ...]], ...]:
    """A ``((site, choice), ...)`` pattern as one Pauli name tuple (or
    ``None``) per site of ``program`` — the form :func:`injected_suffix`
    reads."""
    names: List[Optional[Tuple[str, ...]]] = [None] * len(program.site_slots)
    for site, choice in pattern:
        names[site] = (
            PAULI_PAIRS_2Q[choice]
            if program.site_choices[site] == len(PAULI_PAIRS_2Q)
            else (PAULI_NAMES_1Q[choice],)
        )
    return tuple(names)


def injected_suffix(
    program, pattern: Sequence[Optional[Tuple[str, ...]]]
) -> Tuple[int, List[FusedOp]]:
    spliced: Dict[int, List[Gate]] = {}
    # Last site first: an insertion leaves the earlier offsets valid.
    for site in range(len(pattern) - 1, -1, -1):
        choice = pattern[site]
        if choice is not None:
            block, offset = program.site_slots[site]
            gates = spliced.setdefault(block, list(program.blocks[block]))
            gates[offset + 1 : offset + 1] = [
                Gate(name, (qubit,))
                for name, qubit in zip(choice, gates[offset].qubits)
                if name != "i"
            ]
    if not spliced:
        return len(program.ops), []
    first_block = min(spliced)
    ops = list(program.ops[first_block:])
    for block, gates in spliced.items():
        ops[block - first_block] = block_op(tuple(gates))
    return first_block, ops
