"""Bit-manipulation and distribution helpers shared across the toolchain.

Conventions
-----------
Basis-state indices use *qubit 0 as the most significant bit*, matching the
paper's ``|q0 q1 ... q(n-1)>`` notation.  A probability vector over ``n``
qubits therefore has length ``2**n`` with entry ``i`` corresponding to the
bitstring ``format(i, f"0{n}b")`` read left-to-right as qubits 0..n-1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "bitstring_to_index",
    "index_to_bitstring",
    "top_states",
    "permute_qubits",
    "marginalize",
    "kron_all",
    "normalize_distribution",
    "is_distribution",
    "check_count",
]


def bitstring_to_index(bits: str | Sequence[int]) -> int:
    """Convert a bitstring (qubit 0 first) to a basis-state index.

    >>> bitstring_to_index("010")
    2
    """
    index = 0
    for bit in bits:
        value = int(bit)
        if value not in (0, 1):
            raise ValueError(f"bitstring may only contain 0/1, got {bit!r}")
        index = (index << 1) | value
    return index


def index_to_bitstring(index: int, num_qubits: int) -> str:
    """Convert a basis-state index to a bitstring with qubit 0 first.

    >>> index_to_bitstring(2, 3)
    '010'
    """
    if index < 0 or index >= (1 << num_qubits):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


def top_states(
    probabilities: np.ndarray, top: int, num_qubits: int
) -> list[tuple[str, float]]:
    """The ``top`` highest-probability ``(bitstring, probability)`` pairs."""
    order = np.argsort(probabilities)[::-1][:top]
    return [
        (index_to_bitstring(int(index), num_qubits), float(probabilities[index]))
        for index in order
    ]


def check_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int, refusing a bool, a non-integer or a value below
    ``minimum`` with an error that names the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def permute_qubits(vector: np.ndarray, permutation: Sequence[int]) -> np.ndarray:
    """Reorder the qubits of a length-``2**n`` vector.

    ``permutation[i]`` gives the *current* axis that should become qubit
    ``i`` of the output: ``out[b_0 .. b_{n-1}] = in[b_{perm[0]} .. ]``.
    """
    num_qubits = len(permutation)
    if vector.size != 1 << num_qubits:
        raise ValueError(
            f"vector of size {vector.size} does not match {num_qubits} qubits"
        )
    if sorted(permutation) != list(range(num_qubits)):
        raise ValueError(f"invalid permutation {permutation!r}")
    tensor = vector.reshape((2,) * num_qubits)
    return np.transpose(tensor, axes=permutation).reshape(-1)


def marginalize(vector: np.ndarray, keep: Sequence[int], num_qubits: int) -> np.ndarray:
    """Sum a probability vector down to the ``keep`` qubits (in given order)."""
    keep = list(keep)
    if any(q < 0 or q >= num_qubits for q in keep):
        raise ValueError(f"keep qubits {keep} out of range for {num_qubits} qubits")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate qubits in keep")
    tensor = vector.reshape((2,) * num_qubits)
    drop = tuple(q for q in range(num_qubits) if q not in keep)
    summed = tensor.sum(axis=drop) if drop else tensor
    # ``summed`` axes are the kept qubits in ascending order; reorder to match
    # the requested ``keep`` order.  Inverse map instead of repeated
    # list.index() — O(n), not O(n^2).
    position_of = {q: axis for axis, q in enumerate(sorted(keep))}
    axes = [position_of[q] for q in keep]
    return np.transpose(summed, axes=axes).reshape(-1)


def kron_all(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of vectors (left-to-right)."""
    result: np.ndarray | None = None
    for vector in vectors:
        result = vector.copy() if result is None else np.kron(result, vector)
    if result is None:
        raise ValueError("kron_all requires at least one vector")
    return result


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Return ``vector`` scaled to sum to 1 (zero vectors are returned as-is)."""
    total = float(vector.sum())
    if total <= 0.0:
        return vector.astype(float)
    return vector / total


def is_distribution(vector: np.ndarray, atol: float = 1e-8) -> bool:
    """Check that ``vector`` is a valid probability distribution."""
    return bool(np.all(vector >= -atol) and abs(float(vector.sum()) - 1.0) <= atol)
