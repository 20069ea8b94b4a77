"""Full-definition (FD) reconstruction — paper §4.2 — whole or sharded.

The uncut distribution is the sum over all ``4^K`` cut-term assignments of
the Kronecker product of the subcircuits' term vectors, scaled by
``1/2^K``.  The contraction lives in the shared
:mod:`~repro.postprocess.engine`, which implements the paper's three
optimizations: **greedy subcircuit order** (smallest subcircuits first),
**early termination** (all-zero term components are skipped) and
**parallel processing** (output shards run concurrently on a
:class:`~repro.postprocess.parallel.WorkerPool`, below).  Its
``tensor_network`` strategy computes the identical output without the
4^K enumeration, and ``auto`` picks between the two from a cost model.

:meth:`Reconstructor.reconstruct` materializes the full ``2**n`` vector —
the memory wall circuit cutting exists to avoid.
:meth:`Reconstructor.shards` instead fixes the top ``s`` wires and emits
the distribution lazily as ``2**s`` shards of ``2**(n-s)`` entries: wire
0 is the most significant bit, so shard ``i`` is the contiguous slice
``[i * 2**(n-s), (i+1) * 2**(n-s))`` and the shards concatenate to the
FD distribution exactly.  :meth:`Reconstructor.top_k` folds the same
stream into the k highest-probability states without retaining a shard.
Each shard is a :class:`~repro.postprocess.plan.QueryPlan` with the shard
wires fixed, so the collapse cache does one full collapse per subcircuit
for a whole stream.  On a worker pool the shards run concurrently against
tensors published to shared memory once, and top-k ships back only k
candidates per shard; the output is bit-identical to the inline stream.

A :class:`Reconstructor` owns one
:class:`~repro.postprocess.plan.PrecomputedTensorProvider`: every FD,
streamed and top-k query on it — and any DD query handed its
``provider`` — shares one collapse cache.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit
from ..cutting.variants import SubcircuitResult
from ..obs import trace
from ..utils import index_to_bitstring
from .attribution import TermTensor, build_term_tensor
from .engine import STRATEGIES, ContractionEngine
from .plan import PrecomputedTensorProvider, QueryPlan, collapse_lookups

__all__ = [
    "ReconstructionStats",
    "ReconstructionResult",
    "Reconstructor",
    "Shard",
    "StreamStats",
]


@dataclass
class ReconstructionStats:
    """Bookkeeping the benches report alongside the distribution."""

    num_cuts: int
    num_terms: int
    num_skipped: int
    elapsed_seconds: float
    strategy: str
    subcircuit_order: Tuple[int, ...]


@dataclass
class ReconstructionResult:
    probabilities: np.ndarray  # original circuit qubit order
    stats: ReconstructionStats


@dataclass
class Shard:
    """One contiguous slice of the uncut distribution."""

    index: int  # integer over the fixed qubits (wire 0 = MSB)
    fixed: Dict[int, int]  # wire -> bit for the shard qubits
    probabilities: np.ndarray  # remaining wires, ascending, 2**(n-s) entries


@dataclass
class StreamStats:
    """Accumulated while a shard stream is consumed.

    ``elapsed_seconds`` is the summed per-shard production time inline,
    and the wall time since submission on the pool.
    """

    shard_qubits: int
    num_shards_total: int
    num_shards_emitted: int = 0
    peak_shard_bytes: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    transport: str = "serial"  # "serial" | "pool"
    workers: int = 1

    def as_dict(self) -> Dict:
        return asdict(self)


def _shard_top_candidates(
    probabilities: np.ndarray, k: int
) -> List[Tuple[float, int]]:
    """A shard's top-k ``(probability, offset)`` candidates.

    Workers run this remotely and the parent merges the candidates in
    shard-submission order with a strict ``>`` against the heap root, so
    a pooled top-k evolves the heap exactly as the inline one does.
    """
    take = min(k, probabilities.size)
    selected = np.argpartition(probabilities, -take)[-take:]
    return [
        (float(probabilities[offset]), int(offset)) for offset in selected
    ]


#: One planned shard: (shard index, fixed wire bits, plan).
_PlannedShard = Tuple[int, Dict[int, int], QueryPlan]


class Reconstructor:
    """FD reconstruction — whole, sharded or top-k — over one result set.

    ``results`` or prebuilt ``tensors`` give the subcircuit term tensors.
    With a :class:`~repro.postprocess.parallel.WorkerPool` on ``engine``,
    multi-shard streams run concurrently: the tensors are published to
    shared memory once and each task ships only the shard's plan.
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        results: Optional[Sequence[SubcircuitResult]] = None,
        tensors: Optional[Sequence[TermTensor]] = None,
        engine: Optional[ContractionEngine] = None,
    ):
        self.cut_circuit = cut_circuit
        self.engine = engine or ContractionEngine()
        if tensors is None:
            if results is None:
                raise ValueError("provide subcircuit results or term tensors")
            tensors = [build_term_tensor(result) for result in results]
        if len(tensors) != cut_circuit.num_subcircuits:
            raise ValueError(
                f"{len(tensors)} tensors for "
                f"{cut_circuit.num_subcircuits} subcircuits"
            )
        self.provider = PrecomputedTensorProvider(cut_circuit, tensors=tensors)
        self._handle = None  # lazily published tensors (pool transport)
        self.last_stats: Optional[StreamStats] = None

    @property
    def num_qubits(self) -> int:
        return self.provider.num_qubits

    def reconstruct(
        self,
        greedy_order: bool = True,
        early_termination: Optional[bool] = None,
        strategy: Optional[str] = None,
    ) -> ReconstructionResult:
        """Compute the full 2**n distribution of the uncut circuit.

        ``early_termination`` and ``strategy`` default to the engine's
        settings; ``greedy_order=False`` contracts in subcircuit order.
        """
        strategy = self.engine.strategy if strategy is None else strategy
        if early_termination is None:
            early_termination = self.engine.early_termination
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        began = time.perf_counter()
        num_qubits = self.num_qubits
        num_cuts = self.cut_circuit.num_cuts
        plan = QueryPlan.binned(num_qubits, num_cuts, {}, range(num_qubits))
        execution = plan.execute(
            self.provider,
            self.engine,
            order=None if greedy_order else range(len(self.provider.tensors)),
            strategy=strategy,
            early_termination=early_termination,
        )
        stats = ReconstructionStats(
            num_cuts=num_cuts,
            num_terms=4**num_cuts,
            num_skipped=execution.contraction.num_skipped,
            elapsed_seconds=time.perf_counter() - began,
            strategy=execution.contraction.strategy,
            subcircuit_order=execution.order,
        )
        return ReconstructionResult(
            probabilities=execution.probabilities, stats=stats
        )

    def shards(
        self,
        shard_qubits: int,
        shard_indices: Optional[Iterable[int]] = None,
    ) -> Iterator[Shard]:
        """Lazily yield shards; stats accumulate in :attr:`last_stats`.

        ``shard_qubits`` is ``s``, the number of top wires fixed per
        shard; ``shard_indices`` restricts emission to those shards
        (default: all ``2**s``, ascending).
        """
        return (
            Shard(index=index, fixed=fixed, probabilities=probabilities)
            for index, fixed, probabilities in self._stream(
                shard_qubits, shard_indices
            )
        )

    def top_k(
        self,
        shard_qubits: int,
        k: int,
        shard_indices: Optional[Iterable[int]] = None,
    ) -> List[Tuple[str, float]]:
        """The ``k`` highest-probability states, by descending
        probability, at the memory of one shard plus a k-entry heap."""
        if k < 1:
            raise ValueError("k must be positive")
        width = self.num_qubits - shard_qubits
        heap: List[Tuple[float, int]] = []  # (probability, state index)
        for index, _, candidates in self._stream(
            shard_qubits, shard_indices, top_k=k
        ):
            for probability, offset in candidates:
                entry = (probability, (index << width) + offset)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry[0] > heap[0][0]:
                    heapq.heapreplace(heap, entry)
        return [
            (index_to_bitstring(state, self.num_qubits), probability)
            for probability, state in sorted(
                heap, key=lambda item: (-item[0], item[1])
            )
        ]

    def close(self) -> None:
        """Free the published shared-memory tensors (idempotent).

        Called on garbage collection too, so transient reconstructors
        do not accumulate segments in a long-lived pool; the pool also
        caps its published-set size as a backstop.
        """
        handle, self._handle = self._handle, None
        if handle is not None and self.engine.pool is not None:
            try:
                self.engine.pool.unpublish(handle)
            except Exception:  # pragma: no cover - teardown ordering
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- the one shard stream -------------------------------------------
    def _stream(
        self,
        shard_qubits: int,
        shard_indices: Optional[Iterable[int]],
        top_k: Optional[int] = None,
    ) -> Iterator[Tuple[int, Dict[int, int], object]]:
        """Validate and plan eagerly, then lazily yield ``(index, fixed,
        probabilities | top-k candidates)`` per shard, in request order."""
        total = self.num_qubits
        if not 0 <= shard_qubits <= total:
            raise ValueError(
                f"shard_qubits must be in [0, {total}], got {shard_qubits}"
            )
        if shard_indices is None:
            shard_indices = range(1 << shard_qubits)
        remaining = list(range(shard_qubits, total))
        planned: List[_PlannedShard] = []
        for index in shard_indices:
            if not 0 <= index < (1 << shard_qubits):
                raise ValueError(f"shard index {index} out of range")
            fixed = {
                wire: (index >> (shard_qubits - 1 - wire)) & 1
                for wire in range(shard_qubits)
            }
            plan = QueryPlan.binned(
                total, self.provider.num_cuts, fixed, remaining
            )
            planned.append((index, fixed, plan))
        stats = StreamStats(
            shard_qubits=shard_qubits, num_shards_total=1 << shard_qubits
        )
        self.last_stats = stats
        pool = self.engine.pool
        if pool is not None and len(planned) > 1:
            stats.transport = "pool"
            stats.workers = pool.workers
            produced = self._pooled(planned, top_k)
        else:
            produced = self._inline(planned, top_k)
        return self._accumulate(stats, planned, produced)

    @staticmethod
    def _accumulate(
        stats: StreamStats, planned: List[_PlannedShard], produced
    ) -> Iterator[Tuple[int, Dict[int, int], object]]:
        for position, result, hits, misses, nbytes, elapsed in produced:
            stats.elapsed_seconds = elapsed
            stats.num_shards_emitted += 1
            stats.peak_shard_bytes = max(stats.peak_shard_bytes, nbytes)
            stats.cache_hits += hits
            stats.cache_misses += misses
            lookups = stats.cache_hits + stats.cache_misses
            stats.cache_hit_rate = stats.cache_hits / lookups if lookups else 0.0
            index, fixed, _ = planned[position]
            yield index, fixed, result

    def _inline(self, planned: List[_PlannedShard], top_k: Optional[int]):
        elapsed = 0.0
        for position, (index, _, plan) in enumerate(planned):
            began = time.perf_counter()
            before = collapse_lookups(self.provider)
            with trace.span("query.stream.shard", {"shard": index}):
                probabilities = plan.execute(
                    self.provider, self.engine
                ).probabilities
            hits, misses = collapse_lookups(self.provider, before)
            elapsed += time.perf_counter() - began
            result = (
                probabilities
                if top_k is None
                else _shard_top_candidates(probabilities, top_k)
            )
            yield (
                position, result, hits, misses, probabilities.nbytes, elapsed,
            )

    def _pooled(self, planned: List[_PlannedShard], top_k: Optional[int]):
        pool = self.engine.pool
        if self._handle is None:
            self._handle = pool.publish(self.cut_circuit, self.provider.tensors)
        began = time.perf_counter()
        for position, result, hits, misses, nbytes in pool.run_plans(
            self._handle,
            [plan for _, _, plan in planned],
            strategy=self.engine.strategy,
            early_termination=self.engine.early_termination,
            top_k=top_k,
        ):
            yield (
                position, result, hits, misses, nbytes,
                time.perf_counter() - began,
            )
