"""Unified contraction engine shared by FD and DD reconstruction.

Both query modes end at the same mathematical object: the sum over all
``4^K`` cut-term assignments of the Kronecker product of per-subcircuit
term vectors (Eq. 2/§4.2 for the full-definition query, the collapsed
variant of it for every dynamic-definition recursion).  This module is
the single implementation of that contraction; :mod:`.reconstruct` (FD,
streamed and top-k) and :mod:`.dd` are thin dispatchers over it.

Three strategies are provided:

``kron``
    Blocked, batched Kronecker accumulation.  Assignments are processed
    in vectorized chunks; the surviving (non-zero) assignments of a chunk
    are gathered into per-subcircuit matrices and contracted with one
    broadcasted outer product plus a single BLAS matmul per block —
    ``accumulator += prefix.T @ last`` — instead of a per-assignment
    Python ``reduce(np.kron, ...)`` loop.  Implements the paper's greedy
    order and early termination.  §4.2's third optimization, parallel
    processing, runs whole contractions (DD bins, FD shards) on an
    injected :class:`~repro.postprocess.parallel.WorkerPool`; one sweep
    always runs in one process, so its summation order, and with it the
    answer, does not depend on whether a pool is attached.

``tensor_network``
    Greedy pairwise contraction of the term tensors as a tensor network.
    Axis labels are plain Python objects (cut ids and output slots), so
    the contraction has no symbol pool at all — unlike subscript-based
    ``einsum`` (both the string *and* the integer-sublist forms exhaust
    NumPy's 52-letter alphabet once ``num_cuts + num_subcircuits >= 52``).
    Each pairwise step is an ``np.tensordot`` (BLAS).

``auto``
    Estimates the floating-point work of both strategies from tensor
    shapes and sparsity and picks the cheaper one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from .attribution import TermTensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import WorkerPool

__all__ = [
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "ContractionResult",
    "ContractionEngine",
    "contract_terms",
    "resolve_strategy",
]

#: The strategies :func:`contract_terms` accepts.
STRATEGIES: Tuple[str, ...] = ("kron", "tensor_network", "auto")
#: The one default every entry point (library, CLI, service) reads.
DEFAULT_STRATEGY = "auto"

#: Assignments processed per vectorized row computation.
_CHUNK = 1 << 14
#: Soft cap on elements held by one batched-Kronecker prefix block.
_BLOCK_ELEMENTS = 1 << 22


@dataclass
class ContractionResult:
    """Output of one engine contraction (before the ``1/2^K`` scale)."""

    vector: np.ndarray
    num_skipped: int
    strategy: str  # the strategy actually executed ("auto" is resolved)


# ----------------------------------------------------------------------
# kron strategy: blocked/batched Kronecker accumulation
# ----------------------------------------------------------------------

def _row_indices(
    tensor: TermTensor, assignments: np.ndarray, num_cuts: int, memo=None
) -> np.ndarray:
    """Vectorized map from global assignment indices to tensor rows; with
    a ``memo``, a whole-``4^K`` chunk is mapped once per cut order."""
    if memo is not None and assignments.size == 4**num_cuts:
        key = (tuple(tensor.cut_order), num_cuts)
        if key not in memo:
            memo[key] = _row_indices(tensor, assignments, num_cuts)
        return memo[key]
    rows = np.zeros(assignments.shape, dtype=np.int64)
    for cut_id in tensor.cut_order:
        digit = (assignments >> (2 * (num_cuts - 1 - cut_id))) & 3
        rows = (rows << 2) | digit
    return rows


def _accumulate_range(
    tensors: Sequence[TermTensor],
    order: Sequence[int],
    num_cuts: int,
    start: int,
    stop: int,
    early_termination: bool,
    block_elements: int = _BLOCK_ELEMENTS,
    rows_memo: Optional[Dict] = None,
) -> Tuple[np.ndarray, int]:
    """Sum the Kronecker terms for assignments in ``[start, stop)``.

    Surviving assignments are contracted per *block*: all-but-the-last
    vectors are combined with one broadcasted outer product into a
    ``(block, prefix_len)`` matrix, then folded into the accumulator with
    a single matmul against the last (largest, under greedy order)
    tensor's gathered rows.  Block size adapts so the prefix matrix stays
    under ``block_elements`` elements.
    """
    ordered = [tensors[i] for i in order]
    total_qubits = sum(t.num_effective for t in ordered)
    accumulator = np.zeros(1 << total_qubits)
    skipped = 0
    lengths = [1 << t.num_effective for t in ordered]
    prefix_len = 1
    for length in lengths[:-1]:
        prefix_len *= length
    # Both the prefix block and the gathered last-tensor rows must stay
    # within the element budget.
    widest = max(prefix_len, max(lengths))
    rows_per_block = max(1, block_elements // max(1, widest))
    for chunk_start in range(start, stop, _CHUNK):
        chunk_stop = min(chunk_start + _CHUNK, stop)
        assignments = np.arange(chunk_start, chunk_stop, dtype=np.int64)
        rows = [_row_indices(t, assignments, num_cuts, rows_memo) for t in ordered]
        if early_termination:
            alive = np.ones(assignments.shape, dtype=bool)
            for tensor, tensor_rows in zip(ordered, rows):
                alive &= tensor.nonzero[tensor_rows]
            skipped += int((~alive).sum())
            survivors = np.nonzero(alive)[0]
        else:
            survivors = np.arange(assignments.size)
        for block_start in range(0, survivors.size, rows_per_block):
            block = survivors[block_start : block_start + rows_per_block]
            matrices = [
                tensor.data[tensor_rows[block]]
                for tensor, tensor_rows in zip(ordered, rows)
            ]
            if len(matrices) == 1:
                accumulator += matrices[0].sum(axis=0)
                continue
            prefix = matrices[0]
            for matrix in matrices[1:-1]:
                prefix = (prefix[:, :, None] * matrix[:, None, :]).reshape(
                    prefix.shape[0], -1
                )
            accumulator += (prefix.T @ matrices[-1]).reshape(-1)
    return accumulator, skipped


# ----------------------------------------------------------------------
# tensor_network strategy: greedy pairwise tensordot contraction
# ----------------------------------------------------------------------

def _network_nodes(
    tensors: Sequence[TermTensor], order: Sequence[int]
) -> List[Tuple[np.ndarray, List[Tuple[str, int]]]]:
    """One node per subcircuit: cut axes labelled by cut id, output axis
    labelled by its Kronecker position."""
    nodes = []
    for position, index in enumerate(order):
        tensor = tensors[index]
        shape = (4,) * tensor.num_cuts + (1 << tensor.num_effective,)
        labels: List[Tuple[str, int]] = [
            ("cut", cut_id) for cut_id in tensor.cut_order
        ]
        labels.append(("out", position))
        nodes.append((tensor.data.reshape(shape), labels))
    return nodes


def _select_pair(shapes) -> Optional[Tuple[int, int, set, int]]:
    """Greedy choice shared by the contraction and its cost model: among
    connected pairs, the one whose contraction result is smallest.

    ``shapes`` is one ``{label: dim}`` dict per node; returns
    ``(i, j, shared_labels, shared_dim)`` or None if no pair connects.
    """
    sizes = []
    for dims in shapes:
        size = 1.0
        for dim in dims.values():
            size *= dim
        sizes.append(size)
    best: Optional[Tuple[int, int, set, int]] = None
    best_size = None
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            shared = set(shapes[i]).intersection(shapes[j])
            if not shared:
                continue
            shared_dim = 1
            for label in shared:
                shared_dim *= shapes[i][label]
            size = sizes[i] * sizes[j] / (shared_dim * shared_dim)
            if best_size is None or size < best_size:
                best, best_size = (i, j, shared, shared_dim), size
    return best


def _contract_pair(nodes, i: int, j: int) -> None:
    """Contract nodes ``i`` and ``j`` over their shared labels, in place."""
    array_a, labels_a = nodes[i]
    array_b, labels_b = nodes[j]
    shared = [label for label in labels_a if label in labels_b]
    axes_a = [labels_a.index(label) for label in shared]
    axes_b = [labels_b.index(label) for label in shared]
    merged = np.tensordot(array_a, array_b, axes=(axes_a, axes_b))
    labels = [label for label in labels_a if label not in shared] + [
        label for label in labels_b if label not in shared
    ]
    del nodes[j], nodes[i]  # j > i: delete the higher index first
    nodes.append((merged, labels))


def _contract_network(
    tensors: Sequence[TermTensor], order: Sequence[int]
) -> np.ndarray:
    """Contract the term-tensor network down to the ordered output vector."""
    nodes = _network_nodes(tensors, order)
    while len(nodes) > 1:
        shapes = [dict(zip(labels, array.shape)) for array, labels in nodes]
        selected = _select_pair(shapes)
        pair = (0, 1) if selected is None else selected[:2]
        _contract_pair(nodes, *pair)
    array, labels = nodes[0]
    permutation = sorted(range(len(labels)), key=lambda axis: labels[axis][1])
    return np.transpose(array, axes=permutation).reshape(-1)


# ----------------------------------------------------------------------
# auto strategy: shape/sparsity cost model
# ----------------------------------------------------------------------

def _kron_cost(
    tensors: Sequence[TermTensor], order: Sequence[int], num_cuts: int
) -> float:
    """Estimated flops of the blocked enumeration: mask work over the full
    ``4^K`` space plus Kronecker work on the surviving fraction."""
    terms = 4.0**num_cuts
    total = float(1 << sum(tensors[i].num_effective for i in order))
    alive = 1.0
    for index in order:
        nonzero = tensors[index].nonzero
        if nonzero.size:  # count / size: the mean, without its reduce
            alive *= np.count_nonzero(nonzero) / nonzero.size
    return terms * len(order) + terms * alive * total


def _tn_cost(tensors: Sequence[TermTensor], order: Sequence[int]) -> float:
    """Simulated cost of the greedy pairwise path (sum of result sizes
    weighted by the contracted dimension)."""
    shapes: List[dict] = []
    for position, index in enumerate(order):
        tensor = tensors[index]
        dims = {("cut", cut_id): 4 for cut_id in tensor.cut_order}
        dims[("out", position)] = 1 << tensor.num_effective
        shapes.append(dims)
    cost = 0.0
    while len(shapes) > 1:
        selected = _select_pair(shapes)
        if selected is None:
            i, j, shared, shared_dim = 0, 1, set(), 1
        else:
            i, j, shared, shared_dim = selected
        merged = {
            label: dim
            for labelled in (shapes[i], shapes[j])
            for label, dim in labelled.items()
            if label not in shared
        }
        result_size = 1.0
        for dim in merged.values():
            result_size *= dim
        cost += result_size * shared_dim
        del shapes[j], shapes[i]
        shapes.append(merged)
    return cost


def resolve_strategy(
    strategy: str,
    tensors: Sequence[TermTensor],
    order: Sequence[int],
    num_cuts: int,
) -> str:
    """Resolve ``"auto"`` to a concrete strategy via the cost model."""
    return _resolve(strategy, tensors, order, num_cuts, {})


def _resolve(strategy, tensors, order, num_cuts, tn_costs: Dict) -> str:
    """:func:`resolve_strategy` pricing each network structure (pieces'
    cut orders and widths) once per ``tn_costs``; kron reads ``nonzero``."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy != "auto":
        return strategy
    key = tuple((tuple(tensors[i].cut_order), tensors[i].num_effective) for i in order)
    if key not in tn_costs:
        tn_costs[key] = _tn_cost(tensors, order)
    if tn_costs[key] < _kron_cost(tensors, order, num_cuts):
        return "tensor_network"
    return "kron"


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def contract_terms(
    tensors: Sequence[TermTensor],
    order: Sequence[int],
    num_cuts: int,
    strategy: str = DEFAULT_STRATEGY,
    early_termination: bool = True,
) -> ContractionResult:
    """Contract term tensors into the (unscaled) combined output vector.

    Parameters
    ----------
    tensors:
        One :class:`~repro.postprocess.attribution.TermTensor` per
        subcircuit, indexed consistently with ``order``.
    order:
        Kronecker order of the subcircuits (greedy: smallest first).
    num_cuts:
        K — the global number of cuts (term rows use 2 bits per cut).
    strategy:
        ``"kron"``, ``"tensor_network"``, or ``"auto"`` (cost-model pick).
    early_termination:
        Skip assignments whose component vector is all zeros (§4.2);
        ``kron`` only.

    Returns the raw sum; callers apply the ``1/2^K`` scale.
    """
    resolved = resolve_strategy(strategy, tensors, order, num_cuts)
    return _contract(tensors, order, num_cuts, resolved, early_termination)


def _contract(
    tensors: Sequence[TermTensor], order: Sequence[int], num_cuts: int,
    resolved: str, early_termination: bool, rows_memo: Optional[Dict] = None,
) -> ContractionResult:
    """Run the resolved strategy inline, under one ``contract`` span."""
    with trace.span(
        "contract", {"strategy": resolved, "num_cuts": num_cuts}
    ):
        if resolved == "tensor_network":
            vector = _contract_network(tensors, order)
            return ContractionResult(
                vector=vector, num_skipped=0, strategy=resolved
            )
        vector, skipped = _accumulate_range(
            tensors, order, num_cuts, 0, 4**num_cuts, early_termination,
            rows_memo=rows_memo,
        )
        return ContractionResult(
            vector=vector, num_skipped=skipped, strategy=resolved
        )


@dataclass
class ContractionEngine:
    """Reusable contraction configuration (strategy + parallelism).

    The pipeline creates one engine and hands it to both the FD
    reconstructor and the DD query so a single set of knobs governs every
    contraction in a run.  Parallelism is an injected
    :class:`~repro.postprocess.parallel.WorkerPool` (``pool``): a batch
    of independent contractions (DD bins) fans out over its warm
    workers, each item whole.  One contraction, and every contraction
    without a pool, runs inline.

    The engine memoises what DD rounds repeat and depends on structure
    alone (``auto``'s network price, the kron sweep's row indices), so
    the memos live and die with it (one per pipeline).
    """

    strategy: str = DEFAULT_STRATEGY
    early_termination: bool = True
    pool: Optional["WorkerPool"] = None

    def __post_init__(self) -> None:
        self._tn_costs: Dict = {}
        self._rows: Dict = {}
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )

    def contract(
        self,
        tensors: Sequence[TermTensor],
        order: Sequence[int],
        num_cuts: int,
        strategy: Optional[str] = None,
        early_termination: Optional[bool] = None,
    ) -> ContractionResult:
        """:func:`contract_terms` with this engine's defaults, inline."""
        [result] = self.contract_batch(
            [(tensors, order, num_cuts)], strategy, early_termination
        )
        return result

    def contract_batch(
        self,
        batch: Sequence[Tuple[Sequence[TermTensor], Sequence[int], int]],
        strategy: Optional[str] = None,
        early_termination: Optional[bool] = None,
    ) -> List[ContractionResult]:
        """Contract many independent term sets, fanned over the worker pool.

        ``batch`` holds ``(tensors, order, num_cuts)`` triples — one per
        DD zoom bin.  With an injected worker pool a batch of two or more
        fans out over the persistent workers (shared-memory transport),
        one whole item per task; otherwise the items contract inline, in
        order.  Both run the same sweep per item, so the answers are
        identical.
        """
        strategy = self.strategy if strategy is None else strategy
        early = (
            self.early_termination
            if early_termination is None
            else early_termination
        )
        if self.pool is not None and len(batch) > 1:
            return self.pool.contract_batch(
                batch, strategy=strategy, early_termination=early
            )
        return [
            _contract(
                tensors, order, num_cuts,
                _resolve(strategy, tensors, order, num_cuts, self._tn_costs),
                early, self._rows,
            )
            for tensors, order, num_cuts in batch
        ]
