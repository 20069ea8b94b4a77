"""Bit-manipulation and distribution helpers shared across the toolchain.

Conventions
-----------
Basis-state indices use *qubit 0 as the most significant bit*, matching the
paper's ``|q0 q1 ... q(n-1)>`` notation.  A probability vector over ``n``
qubits therefore has length ``2**n`` with entry ``i`` corresponding to the
bitstring ``format(i, f"0{n}b")`` read left-to-right as qubits 0..n-1.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict, deque
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "BoundedMemo",
    "memo_stats",
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


_MISSING = object()
_MEMOS: "weakref.WeakSet[BoundedMemo]" = weakref.WeakSet()
_MEMOS_LOCK = threading.Lock()
#: token -> (label, [hits, misses]) of every memo not yet folded into
#: ``_RETIRED``.  It holds the counter lists strongly, so a memo's lookups
#: stay counted here until :func:`_fold_retired` moves them, under the lock.
_LIVE_COUNTS: Dict[int, Tuple[str, List[int]]] = {}
#: label -> [hits, misses] of the collected memos of that label.
_RETIRED: Dict[str, List[int]] = {}
#: Tokens of collected memos.  A memo's finalizer only appends here
#: (atomic, lock-free), so a collection inside a locked region, on any
#: thread, never waits on the lock or changes a dict being iterated.
_DYING: "deque[int]" = deque()
_TOKENS = itertools.count()


def _fold_retired() -> None:
    """Move the counters of collected memos into their labels' totals.
    Call with ``_MEMOS_LOCK`` held."""
    while _DYING:
        label, counts = _LIVE_COUNTS.pop(_DYING.popleft())
        total = _RETIRED.setdefault(label, [0, 0])
        total[0] += counts[0]
        total[1] += counts[1]


class BoundedMemo:
    """A least-recently-used memo with one bound, one lock and exact counters.

    ``limit`` bounds the entry count, or, with ``size`` given, the sum of
    ``size(value)`` over the entries (bytes, say).  One lock covers every
    lookup, refresh, insert and eviction, so a concurrent eviction is
    never an error and ``hits + misses`` is exactly the number of
    lookups.  A miss builds outside the lock: two threads missing on one
    key both build, and the last insert wins.  Every memo registers
    under its ``label`` for :func:`memo_stats`, and its counters outlive it
    there.
    """

    def __init__(
        self, label: str, limit: int, size: Optional[Callable[[Any], int]] = None
    ):
        self.label = label
        self.limit = limit
        self._size = size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._held = 0
        self._counts = [0, 0]  # hits, misses
        self._lock = threading.Lock()
        token = next(_TOKENS)
        with _MEMOS_LOCK:
            _fold_retired()
            _MEMOS.add(self)
            _LIVE_COUNTS[token] = (label, self._counts)
        weakref.finalize(self, _DYING.append, token).atexit = False

    def _cost(self, value: Any) -> int:
        return 1 if self._size is None else self._size(value)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value for ``key`` (refreshed), or ``default``; counted."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._counts[1] += 1
                return default
            self._counts[0] += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` as the newest entry, evict the oldest past the
        bound, and return ``value``."""
        cost = self._cost(value)
        with self._lock:
            previous = self._entries.pop(key, _MISSING)
            if previous is not _MISSING:
                self._held -= self._cost(previous)
            self._entries[key] = value
            self._held += cost
            while self._held > self.limit and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._held -= self._cost(evicted)
        return value

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value for ``key``; ``build()`` runs (unlocked) on a miss."""
        value = self.get(key, _MISSING)
        return self.put(key, build()) if value is _MISSING else value

    def clear(self) -> None:
        """Forget every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._held = 0
            self._counts[:] = [0, 0]

    def stats(self) -> Dict[str, int]:
        """``{hits, misses, size}``, plus ``bytes`` when size-bounded."""
        with self._lock:
            stats = {"hits": self._counts[0], "misses": self._counts[1],
                     "size": len(self._entries)}
            if self._size is not None:
                stats["bytes"] = self._held
            return stats

    def keys(self) -> List[Hashable]:
        """The keys, oldest first (uncounted)."""
        with self._lock:
            return list(self._entries)


def _after_fork_in_child() -> None:
    """Give a forked child fresh locks: a lock another parent thread held
    at the fork would otherwise never be released in the child."""
    global _MEMOS_LOCK
    _MEMOS_LOCK = threading.Lock()
    for memo in list(_MEMOS):
        memo._lock = threading.Lock()
        memo._held = sum(memo._cost(value) for value in memo._entries.values())


os.register_at_fork(after_in_child=_after_fork_in_child)


def memo_stats() -> Dict[str, Dict[str, int]]:
    """:class:`BoundedMemo` stats summed per label: ``hits`` and
    ``misses`` over every memo the process made, ``size`` (and ``bytes``)
    over the live ones."""
    with _MEMOS_LOCK:
        _fold_retired()
        report: Dict[str, Dict[str, int]] = {}
        for label, counts in list(_RETIRED.items()) + list(_LIVE_COUNTS.values()):
            hits, misses = counts
            total = report.setdefault(label, {"hits": 0, "misses": 0, "size": 0})
            total["hits"] += hits
            total["misses"] += misses
        memos = list(_MEMOS)
    for memo in memos:
        total = report.setdefault(memo.label, {"hits": 0, "misses": 0, "size": 0})
        stats = memo.stats()
        total["size"] += stats["size"]
        if "bytes" in stats:
            total["bytes"] = total.get("bytes", 0) + stats["bytes"]
    return report
