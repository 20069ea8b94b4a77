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
    The path and a set of sliced cut labels are compiled once per network
    structure into a :class:`ContractionPlan`; each step is one
    ``np.tensordot``, and slicing keeps one slice's operand copies and
    intermediates within 1 MiB.

``auto``
    Estimates the floating-point work of both strategies from tensor
    shapes and sparsity and picks the cheaper one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..utils import BoundedMemo
from .attribution import _GATHER_BYTES, TermTensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import WorkerPool

__all__ = [
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "ContractionResult",
    "ContractionEngine",
    "ContractionPlan",
    "contraction_plan",
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
    tensor: TermTensor, start: int, stop: int, num_cuts: int, memo=None
) -> np.ndarray:
    """Vectorized map from the global assignments ``[start, stop)`` to
    tensor rows; with a ``memo``, the whole ``4^K`` range is mapped once
    per cut order."""
    if memo is not None and stop - start == 4**num_cuts:
        key = (tuple(tensor.cut_order), num_cuts)
        if key not in memo:
            memo[key] = _row_indices(tensor, start, stop, num_cuts)
        return memo[key]
    assignments = np.arange(start, stop, dtype=np.int64)
    rows = np.zeros(assignments.shape, dtype=np.int64)
    for cut_id in tensor.cut_order:
        digit = (assignments >> (2 * (num_cuts - 1 - cut_id))) & 3
        rows = (rows << 2) | digit
    return rows


def _accumulate_range(
    tensors: Sequence[TermTensor],
    order: Sequence[int],
    num_cuts: int,
    early_termination: bool,
    block_elements: int = _BLOCK_ELEMENTS,
    rows_memo: Optional[Dict] = None,
) -> Tuple[np.ndarray, int]:
    """Sum the Kronecker terms of all ``4^K`` assignments.

    Surviving assignments are contracted per *block*: all-but-the-last
    vectors are combined with one broadcasted outer product into a
    ``(block, prefix_len)`` matrix, then folded into the accumulator with
    a single matmul against the last (largest, under greedy order)
    tensor's gathered rows.  Block size adapts so the prefix matrix stays
    under ``block_elements`` elements.
    """
    ordered = [tensors[i] for i in order]
    lengths = [1 << t.num_effective for t in ordered]
    prefix_len = math.prod(lengths[:-1])
    accumulator = np.zeros(prefix_len * lengths[-1])
    skipped = 0
    # Both the prefix block and the gathered last-tensor rows must stay
    # within the element budget.
    rows_per_block = max(1, block_elements // max(prefix_len, *lengths))
    for chunk_start in range(0, 4**num_cuts, _CHUNK):
        chunk_stop = min(chunk_start + _CHUNK, 4**num_cuts)
        rows = [
            _row_indices(t, chunk_start, chunk_stop, num_cuts, rows_memo)
            for t in ordered
        ]
        if early_termination:
            alive = ordered[0].nonzero[rows[0]]
            for tensor, tensor_rows in zip(ordered[1:], rows[1:]):
                alive &= tensor.nonzero[tensor_rows]
            survivors = alive.nonzero()[0]
            skipped += alive.size - survivors.size
        else:
            survivors = np.arange(chunk_stop - chunk_start)
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
# tensor_network strategy: a contraction plan compiled once per structure
# ----------------------------------------------------------------------

#: Bytes one slice's operand copies and intermediates may hold; the plan
#: slices cut labels until they fit.
_SLICE_BYTES = _GATHER_BYTES
#: Compiled plans by network structure, shared by every engine and thread.
_PLANS = BoundedMemo("contraction_plan", 256)


def _select_pair(shapes) -> Optional[Tuple[int, int, set, int]]:
    """Greedy choice of the contraction path: among connected pairs, the
    one whose contraction result is smallest.

    ``shapes`` is one ``{label: dim}`` dict per node; returns
    ``(i, j, shared_labels, shared_dim)`` or None if no pair connects.
    """
    sizes = [math.prod(dims.values(), start=1.0) for dims in shapes]
    best: Optional[Tuple[int, int, set, int]] = None
    best_size = None
    for i in range(len(shapes)):
        for j in range(i + 1, len(shapes)):
            shared = set(shapes[i]).intersection(shapes[j])
            if not shared:
                continue
            shared_dim = math.prod(shapes[i][label] for label in shared)
            size = sizes[i] * sizes[j] / (shared_dim * shared_dim)
            if best_size is None or size < best_size:
                best, best_size = (i, j, shared, shared_dim), size
    return best


@dataclass(frozen=True)
class ContractionPlan:
    """The ``tensor_network`` contraction of one network structure.

    Compiled once per structure (each piece's cut order and width, in
    Kronecker order) by :func:`contraction_plan`.  The path is the greedy
    pairwise one, and ``cost`` is its price for ``auto``: the sum over
    steps of result size times contracted dimension.  Each step is one
    ``np.tensordot``.  The cut labels in ``sliced`` are fixed in turn, so
    that one slice's operand copies and intermediates stay within
    ``_SLICE_BYTES``; every step's inputs carry every sliced label, so the
    slices partition each step's work and the output sums over them.  The
    plan holds no arrays, so threads share a plan freely.
    """

    cost: float
    sliced: Tuple[int, ...]
    pieces: Tuple[Tuple[int, ...], ...]  # each piece's dims
    axes: Tuple[Tuple[int, ...], ...]  # each piece's transpose: sliced axes first
    leads: Tuple[Tuple[int, ...], ...]  # the digits of those sliced axes
    path: Tuple[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]], ...]
    outputs: Tuple[int, ...]
    permutation: Tuple[int, ...]  # the last node's axes in Kronecker order

    def execute(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Contract the pieces' term data (Kronecker order) to the output."""
        nodes = [
            np.reshape(array, dims).transpose(axes)
            for array, dims, axes in zip(arrays, self.pieces, self.axes)
        ]
        if not self.sliced:
            final = self._walk(nodes).transpose(self.permutation)
            return final.reshape(-1)
        output = np.zeros(self.outputs)
        final = output.transpose(np.argsort(self.permutation))
        for digits in itertools.product(range(4), repeat=len(self.sliced)):
            final += self._walk([
                node[tuple(digits[i] for i in lead)]
                for node, lead in zip(nodes, self.leads)
            ])
        return output.reshape(-1)

    def _walk(self, nodes: List[np.ndarray]) -> np.ndarray:
        for x, y, axes_x, axes_y in self.path:
            nodes.append(np.tensordot(nodes[x], nodes[y], (axes_x, axes_y)))
            nodes[x] = nodes[y] = None  # free each input once it is read
        return nodes[-1]


def contraction_plan(
    tensors: Sequence[TermTensor], order: Sequence[int]
) -> ContractionPlan:
    """The compiled plan of the network's structure, memoised per process."""
    key = tuple(
        (tuple(tensors[i].cut_order), tensors[i].num_effective) for i in order
    )
    return _PLANS.get_or_build(key, lambda: _compile(key))


def _walk_labels(pieces, path, sliced):
    """Each node's axis labels with ``sliced`` indexed away, and the
    elements one slice holds: every step's operands (``tensordot`` may
    copy each) and every result but the last."""
    labels = [[label for label in piece if label not in sliced] for piece in pieces]
    held = 0
    for index, (x, y) in enumerate(path):
        shared = set(labels[x]) & set(labels[y])
        held += sum(_size(labels[node]) for node in (x, y))
        labels.append([
            label for label in labels[x] + labels[y] if label not in shared
        ])
        if index < len(path) - 1:
            held += _size(labels[-1])
    return labels, held


def _size(labels) -> int:
    return math.prod(4 if label[0] == "cut" else label[2] for label in labels)


def _compile(structure) -> ContractionPlan:
    """Compile the plan of ``structure``: ``(cut_order, num_effective)``
    per piece, in Kronecker order."""
    pieces = [
        [("cut", cut_id) for cut_id in cuts] + [("out", position, 1 << width)]
        for position, (cuts, width) in enumerate(structure)
    ]
    for cuts, _ in structure:
        if len(set(cuts)) != len(cuts):
            raise ValueError(f"a piece repeats a cut: {cuts}")
    joins = Counter(cut_id for cuts, _ in structure for cut_id in cuts)
    for cut_id, count in joins.items():
        if count != 2:
            raise ValueError(f"cut {cut_id} joins {count} piece(s), not 2")
    # The greedy path and its price, in the cost model's arithmetic.
    shapes = [{label: _size([label]) for label in labels} for labels in pieces]
    ids = list(range(len(pieces)))
    labels_of = [set(labels) for labels in pieces]
    path: List[Tuple[int, int]] = []
    cost = 0.0
    while len(shapes) > 1:
        selected = _select_pair(shapes)
        i, j, shared, shared_dim = (0, 1, set(), 1) if selected is None else selected
        merged = {
            label: dim
            for labelled in (shapes[i], shapes[j])
            for label, dim in labelled.items()
            if label not in shared
        }
        cost += math.prod(merged.values(), start=1.0) * shared_dim
        path.append((ids[i], ids[j]))
        labels_of.append(set(merged))
        del shapes[j], shapes[i], ids[j], ids[i]
        shapes.append(merged)
        ids.append(len(labels_of) - 1)
    # Slice greedily: each round fixes the eligible cut label that leaves
    # the fewest held elements, until a slice fits.
    eligible = sorted(
        ("cut", cut_id) for cut_id in joins
        if all(("cut", cut_id) in labels_of[x] | labels_of[y] for x, y in path)
    )
    sliced: List = []
    labels, held = _walk_labels(pieces, path, sliced)
    while held * 8 > _SLICE_BYTES and len(sliced) < len(eligible):
        (labels, held), label = min(
            ((_walk_labels(pieces, path, sliced + [label]), label)
             for label in eligible if label not in sliced),
            key=lambda trial: (trial[0][1], trial[1]),
        )
        sliced.append(label)
    steps = []
    for x, y in path:
        shared = [label for label in labels[x] if label in labels[y]]
        steps.append((
            x, y,
            tuple(labels[x].index(label) for label in shared),
            tuple(labels[y].index(label) for label in shared),
        ))
    # Each piece is read with its sliced axes first, to index them away.
    leads = [[label for label in piece if label in sliced] for piece in pieces]
    return ContractionPlan(
        cost=cost,
        sliced=tuple(cut_id for _, cut_id in sliced),
        pieces=tuple(tuple(_size([label]) for label in piece) for piece in pieces),
        axes=tuple(
            tuple(piece.index(label) for label in lead + labels[position])
            for position, (piece, lead) in enumerate(zip(pieces, leads))
        ),
        leads=tuple(tuple(sliced.index(label) for label in lead) for lead in leads),
        path=tuple(steps),
        outputs=tuple(1 << width for _, width in structure),
        permutation=tuple(
            sorted(range(len(labels[-1])), key=lambda axis: labels[-1][axis][1])
        ),
    )


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


def resolve_strategy(
    strategy: str,
    tensors: Sequence[TermTensor],
    order: Sequence[int],
    num_cuts: int,
) -> str:
    """Resolve ``"auto"`` to a concrete strategy via the cost model: the
    network's compiled plan carries its price; kron reads ``nonzero``."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if strategy != "auto":
        return strategy
    if contraction_plan(tensors, order).cost < _kron_cost(tensors, order, num_cuts):
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
    engine = ContractionEngine(strategy, early_termination)
    return engine.contract(tensors, order, num_cuts)


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

    The engine memoises the kron sweep's row indices, which DD rounds
    repeat and which depend on cut orders alone, so that memo lives and
    dies with it (one per pipeline).  Compiled ``tensor_network`` plans,
    which carry ``auto``'s network price, are process-wide
    (:func:`contraction_plan`).
    """

    strategy: str = DEFAULT_STRATEGY
    early_termination: bool = True
    pool: Optional["WorkerPool"] = None

    def __post_init__(self) -> None:
        self._rows: Dict = {}
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )

    def _options(self, strategy, early_termination) -> Tuple[str, bool]:
        """The call's strategy and early termination, else the engine's."""
        if early_termination is None:
            early_termination = self.early_termination
        return self.strategy if strategy is None else strategy, early_termination

    def contract(
        self,
        tensors: Sequence[TermTensor],
        order: Sequence[int],
        num_cuts: int,
        strategy: Optional[str] = None,
        early_termination: Optional[bool] = None,
    ) -> ContractionResult:
        """:func:`contract_terms` with this engine's defaults, inline."""
        strategy, early = self._options(strategy, early_termination)
        resolved = resolve_strategy(strategy, tensors, order, num_cuts)
        with trace.span(
            "contract", {"strategy": resolved, "num_cuts": num_cuts}
        ):
            if resolved == "tensor_network":
                plan = contraction_plan(tensors, order)
                vector = plan.execute([tensors[i].data for i in order])
                return ContractionResult(vector, 0, resolved)
            vector, skipped = _accumulate_range(
                tensors, order, num_cuts, early, rows_memo=self._rows
            )
            return ContractionResult(vector, skipped, resolved)

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
        one whole item per task; otherwise each item is one
        :meth:`contract`, in order.  Both run the same sweep per item, so
        the answers are identical.
        """
        if self.pool is not None and len(batch) > 1:
            strategy, early = self._options(strategy, early_termination)
            return self.pool.contract_batch(
                batch, strategy=strategy, early_termination=early
            )
        return [
            self.contract(
                tensors, order, num_cuts,
                strategy=strategy, early_termination=early_termination,
            )
            for tensors, order, num_cuts in batch
        ]
