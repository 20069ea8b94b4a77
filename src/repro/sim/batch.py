"""Batched statevector simulation with gate fusion.

The classical workload of the paper is dominated by re-simulating every
physical variant of each subcircuit (Fig. 3: ``4^rho`` initializations x
``3^O`` measurement bases).  Variants share the entire circuit body, so
two standard techniques collapse the sweep to a handful of BLAS calls:

* :class:`BatchedStatevector` carries a **leading batch axis** ``B`` —
  one gate application sweeps all ``B`` members by reshaping the state
  to ``(B * 2^(n-k), 2^k)`` and performing a single matmul, instead of
  ``B`` separate ``tensordot``/``moveaxis`` round trips through Python.
* :func:`fuse_gates` is an Aer-style **gate-fusion pass**: adjacent
  single-qubit gates fold into their 2x2 product and contiguous gate
  runs merge into unitaries on at most :data:`FUSION_WIDTH` qubits, so
  the per-gate Python dispatch cost is paid once per *fused block*.

Both are exact: results bit-match the per-gate :class:`Statevector`
path to floating-point accumulation order (<= 1e-10 in practice).

The compiled body programs and their exact, density and trajectory
executors live in :mod:`repro.sim.noisy_batch` and build directly on
:class:`BatchedStatevector` and :func:`fuse_gates`: a density batch is a
:class:`BatchedStatevector` over ``2n`` axes.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..obs import trace
from .statevector import Statevector

__all__ = [
    "FusedOp",
    "FUSION_WIDTH",
    "MAX_FUSION_WIDTH",
    "fuse_gates",
    "fused_block",
    "block_unitary",
    "gate_partition",
    "fusion_stats",
    "BatchedStatevector",
    "apply_on_axes",
]

#: Hard cap on fused-block width: a block's unitary is a dense
#: ``2^k x 2^k`` matrix, so widths past ~10 cost more to build and apply
#: than they save (and unbounded widths would let one shared qubit grow
#: a block to the whole circuit — an exponential allocation).
MAX_FUSION_WIDTH = 10

#: The width every body is fused to.  One fused block is one full pass
#: over the state, so wider blocks mean fewer passes, while the pass's
#: small-``K`` matmul grows with ``2^k``.  Measured single-threaded, one
#: uncut body pass at widths 2 / 3 / 4 / 5 takes 19.8 / 13.6 / 10.4 /
#: 12.4 ms on supremacy-16 and 945 / 279 / 192 / 193 ms on adder-20:
#: 4 is the knee on large states and costs nothing on small ones.
FUSION_WIDTH = 4


@dataclass(frozen=True)
class FusedOp:
    """One fused unitary: a ``2^k x 2^k`` matrix on ``k`` sorted qubits.

    ``qubits`` are ascending; the first qubit is the most significant bit
    of the matrix's local index (the package-wide convention).
    """

    matrix: np.ndarray
    qubits: Tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)


@functools.lru_cache(maxsize=512)
def _embedding(
    positions: Tuple[int, ...], block_width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(dest, src)`` indices embedding a gate into a block: entry
    ``(r, c)`` is gate entry ``(local(r), local(c))`` where ``r`` and ``c``
    agree off ``positions``, and 0 elsewhere."""
    k = len(positions)
    index = np.arange(1 << block_width)
    shifts = [block_width - 1 - position for position in positions]
    local = sum(((index >> s) & 1) << (k - 1 - j) for j, s in enumerate(shifts))
    off = index & ~sum(1 << s for s in shifts)
    rows, cols = np.nonzero(off[:, None] == off[None, :])
    return (rows << block_width) + cols, (local[rows] << k) + local[cols]


def _expand_to_block(
    matrix: np.ndarray, positions: Sequence[int], block_width: int
) -> np.ndarray:
    """Embed a ``k``-qubit gate matrix into a ``2^m x 2^m`` block unitary.

    ``positions`` are the gate's qubit positions inside the block, in the
    gate's own (MSB-first) qubit order.  One scatter through the cached
    :func:`_embedding` indices: every entry is copied, none computed.
    """
    dest, src = _embedding(tuple(positions), block_width)
    out = np.zeros(1 << (2 * block_width), dtype=complex)
    out[dest] = matrix.ravel()[src]
    return out.reshape(1 << block_width, 1 << block_width)


def block_unitary(gates: Sequence[Gate]) -> FusedOp:
    """The unitary of a gate run on the sorted union of its qubits (no memo)."""
    ordered = tuple(sorted({qubit for gate in gates for qubit in gate.qubits}))
    position_of = {qubit: index for index, qubit in enumerate(ordered)}
    width = len(ordered)
    unitary = np.eye(1 << width, dtype=complex)
    for gate in gates:
        positions = [position_of[q] for q in gate.qubits]
        unitary = _expand_to_block(gate.matrix(), positions, width) @ unitary
    return FusedOp(matrix=unitary, qubits=ordered)


#: Fused-op memo: circuit bodies are fixed physics and re-fused on every
#: variant batch, executor chunk and DD recursion — cache by gate tuple.
_FUSION_CACHE: "OrderedDict[Tuple, List[FusedOp]]" = OrderedDict()
_FUSION_CACHE_LIMIT = 128

#: Structural partition memo: *which gates fold into which block* depends
#: only on the gates' qubit tuples and the fusion width — never on the
#: rotation angles.  A parameter rebind therefore reuses the partition
#: verbatim and only rebuilds the unitaries of blocks whose gates moved.
_PARTITION_CACHE: "OrderedDict[Tuple, Tuple[Tuple[int, ...], ...]]" = (
    OrderedDict()
)
_PARTITION_CACHE_LIMIT = 128

#: Per-block unitary memo keyed on the block's exact gate tuple.  Blocks
#: untouched by a rebind hit here; only blocks containing a changed gate
#: pay the ``2^k x 2^k`` rebuild.  Bounded by matrix bytes, not entries:
#: a 4-qubit block is 4 KiB, 16 times a 2-qubit one.  The budget holds
#: the ~220 blocks a noisy catalog sweep cycles through with room to
#: spare.
_BLOCK_CACHE: "OrderedDict[Tuple[Gate, ...], FusedOp]" = OrderedDict()
_BLOCK_CACHE_BYTES = 4 << 20
_BLOCK_CACHE_LOCK = threading.Lock()
_block_cache_held = 0

#: Per-process fusion counters (see :func:`fusion_stats`).
_STATS = {
    "calls": 0,
    "full_hits": 0,
    "partitions_built": 0,
    "blocks_total": 0,
    "blocks_built": 0,
}


def fusion_stats() -> dict:
    """Snapshot of the per-process fusion counters.

    * ``calls`` / ``full_hits`` — :func:`fuse_gates` invocations and how
      many were answered by the exact ``(gates, width)`` memo;
    * ``partitions_built`` — structural block partitions computed (a
      rebind never increments this);
    * ``blocks_total`` / ``blocks_built`` — blocks assembled on the slow
      path vs. block unitaries actually (re)constructed.  The gap is the
      per-block reuse a rebind gets for free.

    Counters are process-local: pooled/process execution modes only
    reflect the parent's share.  Diff two snapshots to measure one
    evaluation.  ``WorkerPool.cache_stats()`` pulls the workers' copies
    back for the metrics registry's pid-labelled gauges.

    Besides the counters, the snapshot reports the live size of each
    memo layer (``fusion_cache_size`` / ``partition_cache_size`` /
    ``block_cache_size``) and the matrix bytes the block memo holds
    (``block_cache_bytes``, at most its fixed budget).  The block memo
    holds clean blocks only: a trajectory's injected blocks are memoised
    with their program (``BodyProgram.injected``) under integer keys
    and count in neither ``blocks_total`` nor ``blocks_built``.
    """
    stats = dict(_STATS)
    stats["fusion_cache_size"] = len(_FUSION_CACHE)
    stats["partition_cache_size"] = len(_PARTITION_CACHE)
    stats["block_cache_size"] = len(_BLOCK_CACHE)
    stats["block_cache_bytes"] = _block_cache_held
    return stats


def _partition_gates(
    qubit_tuples: Sequence[Tuple[int, ...]], width: int
) -> Tuple[Tuple[int, ...], ...]:
    """Group gate indices into fusion blocks from qubit supports alone."""
    blocks: List[Tuple[set, List[int]]] = []
    for position, qubits in enumerate(qubit_tuples):
        support = set(qubits)
        placed = False
        # Walk back to the last block sharing a qubit with this gate; the
        # gate commutes with every block after it (disjoint supports), so
        # merging there — or appending at the end — preserves semantics.
        for index in range(len(blocks) - 1, -1, -1):
            block_qubits, members = blocks[index]
            if block_qubits & support:
                if len(block_qubits | support) <= width:
                    block_qubits.update(support)
                    members.append(position)
                    placed = True
                break
        if not placed:
            tail = blocks[-1] if blocks else None
            if (
                tail is not None
                and not (tail[0] & support)
                and len(tail[0] | support) <= width
            ):
                tail[0].update(support)
                tail[1].append(position)
            else:
                blocks.append((support, [position]))
    return tuple(tuple(members) for _, members in blocks)


def gate_partition(
    gates: Sequence[Gate], width: int = FUSION_WIDTH
) -> Tuple[Tuple[int, ...], ...]:
    """The (memoized) structural partition: gate indices per fused block."""
    structure = (tuple(gate.qubits for gate in gates), width)
    partition = _PARTITION_CACHE.get(structure)
    if partition is None:
        partition = _partition_gates(structure[0], width)
        _PARTITION_CACHE[structure] = partition
        _STATS["partitions_built"] += 1
        while len(_PARTITION_CACHE) > _PARTITION_CACHE_LIMIT:
            _PARTITION_CACHE.popitem(last=False)
    else:
        try:
            _PARTITION_CACHE.move_to_end(structure)
        except KeyError:  # pragma: no cover - concurrent eviction
            pass
    return partition


def fused_block(block_gates: Tuple[Gate, ...]) -> FusedOp:
    """The (memoized) unitary of one block's exact gate tuple.

    The tuple may carry gates spliced in on the block's own qubits — a
    Pauli injected after one of its gates changes this block's unitary
    and nothing else about the partition.
    """
    global _block_cache_held
    _STATS["blocks_total"] += 1
    op = _BLOCK_CACHE.get(block_gates)
    if op is not None:
        try:
            _BLOCK_CACHE.move_to_end(block_gates)
        except KeyError:  # pragma: no cover - concurrent eviction
            pass
        return op
    op = block_unitary(block_gates)
    _STATS["blocks_built"] += 1
    with _BLOCK_CACHE_LOCK:
        previous = _BLOCK_CACHE.pop(block_gates, None)
        if previous is not None:  # another thread built it first
            _block_cache_held -= previous.matrix.nbytes
        _BLOCK_CACHE[block_gates] = op
        _block_cache_held += op.matrix.nbytes
        while _block_cache_held > _BLOCK_CACHE_BYTES:
            _, evicted = _BLOCK_CACHE.popitem(last=False)
            _block_cache_held -= evicted.matrix.nbytes
    return op


def fuse_gates(
    circuit: Union[QuantumCircuit, Sequence[Gate]],
    width: int = FUSION_WIDTH,
) -> List[FusedOp]:
    """Fuse a gate sequence into unitaries on at most ``width`` qubits.

    Every gate is merged into the most recent block it *overlaps* (shares
    a qubit with) when the union stays within ``width``; a gate disjoint
    from all later blocks commutes past them, so the merge is exact.  A
    gate wider than ``width`` always forms its own block (``width=1``
    therefore still folds single-qubit runs while leaving two-qubit gates
    unfused).  Every caller fuses at :data:`FUSION_WIDTH`; the argument
    exists so the partitioner can be tested at other widths.

    Memoization is layered for the variational warm path.  Exact repeats
    hit the ``(gates, width)`` memo.  A parameter rebind misses it but
    reuses (a) the structural partition, keyed only on the gates' qubit
    tuples (:func:`gate_partition`), and (b) every per-block unitary
    whose gates are bit-identical (:func:`fused_block`) — so a rebind
    re-fuses *only the blocks whose parameters moved*.
    :func:`fusion_stats` exposes the counters.
    """
    if not 1 <= width <= MAX_FUSION_WIDTH:
        raise ValueError(
            f"fusion width must be in [1, {MAX_FUSION_WIDTH}], got {width}"
        )
    gates = circuit.gates if isinstance(circuit, QuantumCircuit) else circuit
    _STATS["calls"] += 1
    key = (tuple(gates), width)
    cached = _FUSION_CACHE.get(key)
    if cached is not None:
        _STATS["full_hits"] += 1
        try:
            _FUSION_CACHE.move_to_end(key)
        except KeyError:  # pragma: no cover - concurrent eviction
            pass
        return cached
    gates = key[0]
    with trace.span("sim.fuse_body", {"gates": len(gates)}):
        ops = [
            fused_block(tuple(gates[index] for index in members))
            for members in gate_partition(gates, width)
        ]
        _FUSION_CACHE[key] = ops
        while len(_FUSION_CACHE) > _FUSION_CACHE_LIMIT:
            _FUSION_CACHE.popitem(last=False)
    return ops


#: ``(ndim, qubits) -> (perm, inverse)``: the transpose moving the axes
#: of ``qubits`` (axis ``q + 1``, after the batch axis) to the end, and
#: back.  Bodies reuse a few dozen tuples; past the bound it is cleared.
_PERMUTATIONS: Dict[Tuple[int, Tuple[int, ...]], Tuple[Tuple[int, ...], ...]] = {}
_PERMUTATIONS_LIMIT = 4096


def apply_on_axes(
    tensor: np.ndarray, matrix: np.ndarray, qubits: Tuple[int, ...]
) -> np.ndarray:
    """``matrix`` on the axes of ``qubits`` of a ``(B, 2, ..., 2)`` tensor,
    ``qubits[0]`` the MSB of its local index (``Statevector.apply_matrix``'s
    tensordot convention): one transpose, one contiguous copy, one matmul.
    """
    permutation = _PERMUTATIONS.get((tensor.ndim, qubits))
    if permutation is None:
        targets = tuple(q + 1 for q in qubits)
        perm = tuple(a for a in range(tensor.ndim) if a not in targets) + targets
        permutation = (perm, tuple(perm.index(a) for a in range(len(perm))))
        if len(_PERMUTATIONS) >= _PERMUTATIONS_LIMIT:
            _PERMUTATIONS.clear()
        _PERMUTATIONS[tensor.ndim, qubits] = permutation
    perm, inverse = permutation
    moved = tensor.transpose(perm)
    flat = np.ascontiguousarray(moved).reshape(-1, matrix.shape[1])
    return (flat @ matrix.T).reshape(moved.shape).transpose(inverse)


class BatchedStatevector:
    """``B`` pure ``n``-qubit states advanced together through one circuit.

    The state is stored as a ``(B,) + (2,)*n`` complex tensor; axis
    ``i + 1`` holds qubit ``i`` (same qubit-0-is-MSB convention as
    :class:`~repro.sim.statevector.Statevector`).  Gate application is a
    single ``(B * 2^(n-k), 2^k) @ (2^k, 2^k)`` matmul for the whole
    batch.  Memory footprint is ``B * 2^n * 16`` bytes.
    """

    def __init__(
        self,
        num_qubits: int,
        batch_size: int,
        data: Optional[np.ndarray] = None,
    ):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.num_qubits = int(num_qubits)
        self.batch_size = int(batch_size)
        shape = (self.batch_size,) + (2,) * self.num_qubits
        if data is None:
            tensor = np.zeros(shape, dtype=complex)
            tensor[(slice(None),) + (0,) * self.num_qubits] = 1.0
            self._tensor = tensor
        else:
            array = np.asarray(data, dtype=complex)
            if array.size != self.batch_size << self.num_qubits:
                raise ValueError(
                    f"data of size {array.size} does not match batch "
                    f"{self.batch_size} x {self.num_qubits} qubits"
                )
            self._tensor = array.reshape(shape).copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_product_batch(
        cls, states: Sequence[Sequence[np.ndarray]]
    ) -> "BatchedStatevector":
        """Build a batch of product states.

        ``states[b][q]`` is the 2-vector of qubit ``q`` in batch member
        ``b`` (every member must cover the same qubit count).  The build
        is vectorized over the batch: one outer product per qubit.
        """
        if not len(states):
            raise ValueError("need at least one batch member")
        table = np.asarray(states, dtype=complex)
        if table.ndim != 3 or table.shape[1] == 0 or table.shape[2] != 2:
            raise ValueError(
                "members must each cover the same >= 1 qubits with 2-vectors"
            )
        vector = np.ones((len(table), 1), dtype=complex)
        for qubit in range(table.shape[1]):
            vector = (vector[:, :, None] * table[:, None, qubit]).reshape(
                len(table), -1
            )
        return cls(table.shape[1], len(table), vector)

    def copy(self) -> "BatchedStatevector":
        return BatchedStatevector(
            self.num_qubits, self.batch_size, self._tensor
        )

    # ------------------------------------------------------------------
    def apply_matrix(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStatevector":
        """Apply a ``2^k x 2^k`` matrix to all batch members in place.

        The matrix is a unitary, or a superoperator when the batch holds
        density matrices over ``2n`` axes
        (:func:`~repro.sim.noisy_batch.product_density`).  One transpose
        + one matmul sweeps the whole batch: the target axes move to the
        end, the rest (batch included) flatten into the row dimension of
        a single BLAS call (:func:`apply_on_axes`).  Both transposes come
        from a table keyed ``(ndim, qubits)``, so after a tuple's first
        use a call does no axis arithmetic in Python.
        """
        qubits = tuple(qubits)
        if matrix.shape != (1 << len(qubits),) * 2:
            raise ValueError(
                f"matrix shape {matrix.shape} does not act on {len(qubits)} qubit(s)"
            )
        self._tensor = apply_on_axes(self._tensor, matrix, qubits)
        return self

    def applied(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "BatchedStatevector":
        """A new batch with ``matrix`` applied; ``self`` is untouched."""
        clone = BatchedStatevector.__new__(BatchedStatevector)
        clone.num_qubits = self.num_qubits
        clone.batch_size = self.batch_size
        clone._tensor = self._tensor
        return clone.apply_matrix(matrix, qubits)

    def apply_gate(self, gate: Gate) -> "BatchedStatevector":
        return self.apply_matrix(gate.matrix(), gate.qubits)

    def apply_fused(self, ops: Sequence[FusedOp]) -> "BatchedStatevector":
        # One span per body pass, not per op: the per-gate matmul loop is
        # the hot path the disabled tracer must not touch.
        with trace.span(
            "sim.batch.apply_fused",
            {"ops": len(ops), "amplitudes": self.batch_size << self.num_qubits},
        ):
            for op in ops:
                self.apply_matrix(op.matrix, op.qubits)
        return self

    def apply_circuit(
        self, circuit: QuantumCircuit, fused: bool = False
    ) -> "BatchedStatevector":
        """Apply ``circuit`` gate by gate, or fused to :data:`FUSION_WIDTH`."""
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits, batch has "
                f"{self.num_qubits}"
            )
        if fused:
            return self.apply_fused(fuse_gates(circuit))
        for gate in circuit:
            self.apply_gate(gate)
        return self

    # ------------------------------------------------------------------
    def amplitudes(self) -> np.ndarray:
        """``(B, 2^n)`` complex amplitudes (a copy)."""
        return np.array(self._tensor, order="C").reshape(self.batch_size, -1)

    def probabilities(self) -> np.ndarray:
        """``(B, 2^n)`` float probabilities."""
        flat = self._tensor.reshape(self.batch_size, -1)
        return flat.real**2 + flat.imag**2

    def member(self, index: int) -> Statevector:
        """Batch member ``index`` as a standalone :class:`Statevector`."""
        return Statevector(self.num_qubits, self._tensor[index])
