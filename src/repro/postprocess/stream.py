"""Sharded streaming FD reconstruction — FD queries past the memory wall.

:func:`~repro.postprocess.reconstruct.Reconstructor.reconstruct`
materializes the full ``2**n`` output vector, which is exactly the memory
wall circuit cutting exists to avoid.  :class:`StreamingReconstructor`
instead fixes the top ``s`` qubits (wires ``0..s-1``) and emits the
distribution as ``2**s`` independent *shards* of ``2**(n-s)`` entries
each, lazily, as an iterator:

* concatenating the shards in index order reproduces ``fd_query``'s
  distribution exactly (wire 0 is the most significant bit, so shard
  ``i`` is the contiguous slice ``[i * 2**(n-s), (i+1) * 2**(n-s))``);
* peak memory is one shard (``2**(n-s) * 8`` bytes) plus the collapsed
  tensors — never ``2**n``;
* each shard is a :class:`~repro.postprocess.plan.QueryPlan` with the
  shard qubits fixed, so the provider's incremental collapse cache does
  one full collapse per subcircuit for the *whole* stream and derives
  every shard by cheap axis indexing;
* ``shard_indices`` restricts the stream to chosen shards (e.g. only the
  region a DD query located), and :meth:`top_k` folds the stream into
  the k highest-probability states without retaining any shard;
* with a :class:`~repro.postprocess.parallel.WorkerPool` on the engine,
  the shards are evaluated *concurrently*: the full term tensors are
  published to shared memory once, each worker derives its shards from
  its own collapse cache, and :meth:`top_k` merges per-shard top-k
  candidates across workers (only k entries per shard cross the process
  boundary).  The emitted stream is bit-identical to the serial one.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit
from ..cutting.variants import SubcircuitResult
from ..obs import trace
from ..utils import index_to_bitstring
from .attribution import TermTensor
from .engine import ContractionEngine
from .plan import PrecomputedTensorProvider, QueryPlan, TensorProvider

__all__ = [
    "Shard",
    "StreamStats",
    "StreamingReconstructor",
    "top_k_from_shards",
]


# -- the one top-k fold, shared by the serial and pooled paths ----------
#
# Both paths must evolve the k-entry heap identically for the pooled
# result to be bit-identical to the serial one, so the candidate
# selection, the merge policy (strict ``>`` against the heap root) and
# the final ranking live here and nowhere else.  Workers run
# :func:`_shard_top_candidates` remotely and the parent merges with
# :func:`_merge_shard_candidates` in shard-submission order.

def _shard_top_candidates(
    probabilities: np.ndarray, k: int
) -> List[Tuple[float, int]]:
    """A shard's top-k ``(probability, offset)`` candidates, in the
    ``argpartition`` order the fold consumes."""
    take = min(k, probabilities.size)
    selected = np.argpartition(probabilities, -take)[-take:]
    return [
        (float(probabilities[offset]), int(offset)) for offset in selected
    ]


def _merge_shard_candidates(
    heap: List[Tuple[float, int]],
    k: int,
    base: int,
    candidates: List[Tuple[float, int]],
) -> None:
    """Fold one shard's candidates into the global k-entry heap."""
    for probability, offset in candidates:
        entry = (probability, base + offset)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry[0] > heap[0][0]:
            heapq.heapreplace(heap, entry)


def _ranked_states(
    heap: List[Tuple[float, int]], num_qubits: int
) -> List[Tuple[str, float]]:
    """The heap as a descending-probability (bitstring, p) list."""
    ranked = sorted(heap, key=lambda item: (-item[0], item[1]))
    return [
        (index_to_bitstring(state, num_qubits), probability)
        for probability, state in ranked
    ]


@dataclass
class Shard:
    """One contiguous slice of the uncut distribution."""

    index: int  # integer over the fixed qubits (wire 0 = MSB)
    fixed: Dict[int, int]  # wire -> bit for the shard qubits
    probabilities: np.ndarray  # remaining wires, ascending, 2**(n-s) entries

    @property
    def num_entries(self) -> int:
        return int(self.probabilities.size)

    def bitstring_prefix(self, shard_qubits: int) -> str:
        """The fixed-qubit bits of every state in this shard."""
        return index_to_bitstring(self.index, shard_qubits)


@dataclass
class StreamStats:
    """Accumulated while the shard iterator is consumed."""

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

    def as_dict(self) -> Dict[str, float]:
        return {
            "shard_qubits": self.shard_qubits,
            "num_shards_total": self.num_shards_total,
            "num_shards_emitted": self.num_shards_emitted,
            "peak_shard_bytes": self.peak_shard_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "transport": self.transport,
            "workers": self.workers,
        }


class StreamingReconstructor:
    """FD reconstruction as a lazy stream of independent shards.

    Parameters
    ----------
    cut_circuit:
        The cut whose output to reconstruct.
    results / tensors / provider:
        Either raw subcircuit results, prebuilt term tensors, or a
        ready :class:`~repro.postprocess.plan.TensorProvider` (the
        provider's collapse cache then persists across queries).
    engine:
        Shared contraction engine (strategy + worker pool).  When it
        carries a :class:`~repro.postprocess.parallel.WorkerPool` (and
        the provider exposes precomputed full tensors), shards are
        evaluated concurrently: tensors are published to shared memory
        once and each task ships only the shard's role-signature plan.
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        results: Optional[Sequence[SubcircuitResult]] = None,
        tensors: Optional[Sequence[TermTensor]] = None,
        engine: Optional[ContractionEngine] = None,
        provider: Optional[TensorProvider] = None,
    ):
        self.cut_circuit = cut_circuit
        self.engine = engine or ContractionEngine()
        if provider is None:
            provider = PrecomputedTensorProvider(
                cut_circuit, results=results, tensors=tensors
            )
        self.provider = provider
        self.pool = self.engine.pool
        self._handle = None  # lazily published tensors (pool transport)
        self.last_stats: Optional[StreamStats] = None

    @property
    def num_qubits(self) -> int:
        return self.provider.num_qubits

    # ------------------------------------------------------------------
    def shards(
        self,
        shard_qubits: int,
        shard_indices: Optional[Iterable[int]] = None,
    ) -> Iterator[Shard]:
        """Lazily yield shards; stats accumulate in :attr:`last_stats`.

        ``shard_qubits`` is ``s`` — the number of top wires fixed per
        shard; ``shard_indices`` restricts emission to those shard
        numbers (default: all ``2**s``, ascending, so the concatenation
        is exactly the FD distribution).
        """
        total = self.num_qubits
        if not 0 <= shard_qubits <= total:
            raise ValueError(
                f"shard_qubits must be in [0, {total}], got {shard_qubits}"
            )
        if shard_indices is None:
            shard_indices = range(1 << shard_qubits)
        shard_indices = list(shard_indices)
        stats = StreamStats(
            shard_qubits=shard_qubits,
            num_shards_total=1 << shard_qubits,
        )
        self.last_stats = stats
        remaining = list(range(shard_qubits, total))
        if self._parallel_available() and len(shard_indices) > 1:
            stats.transport = "pool"
            stats.workers = self.pool.workers
            return self._generate_parallel(
                shard_qubits, shard_indices, remaining, stats
            )
        return self._generate(shard_qubits, shard_indices, remaining, stats)

    # -- worker-pool transport ------------------------------------------
    def _parallel_available(self) -> bool:
        """Pool transport needs precomputed full tensors to publish."""
        return (
            self.pool is not None
            and getattr(self.provider, "tensors", None) is not None
        )

    def _published_handle(self):
        if self._handle is None:
            self._handle = self.pool.publish(
                self.cut_circuit, self.provider.tensors
            )
        return self._handle

    def close(self) -> None:
        """Free the published shared-memory tensors (idempotent).

        Called on garbage collection too, so transient reconstructors
        (one per service job) do not accumulate segments in a
        long-lived pool; the pool additionally caps its published-set
        size as a backstop.
        """
        handle, self._handle = self._handle, None
        if handle is not None and self.pool is not None:
            try:
                self.pool.unpublish(handle)
            except Exception:  # pragma: no cover - teardown ordering
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _shard_plans(
        self,
        shard_qubits: int,
        shard_indices: Sequence[int],
        remaining: List[int],
    ) -> List[Tuple[Dict[int, int], QueryPlan]]:
        total = self.num_qubits
        num_cuts = self.provider.num_cuts
        plans = []
        for index in shard_indices:
            if not 0 <= index < (1 << shard_qubits):
                raise ValueError(f"shard index {index} out of range")
            fixed = {
                wire: (index >> (shard_qubits - 1 - wire)) & 1
                for wire in range(shard_qubits)
            }
            plans.append(
                (fixed, QueryPlan.binned(total, num_cuts, fixed, remaining))
            )
        return plans

    def _generate_parallel(
        self,
        shard_qubits: int,
        shard_indices: List[int],
        remaining: List[int],
        stats: StreamStats,
    ) -> Iterator[Shard]:
        plans = self._shard_plans(shard_qubits, shard_indices, remaining)
        handle = self._published_handle()
        began = time.perf_counter()
        for position, vector, hits, misses, nbytes in self.pool.run_plans(
            handle,
            [plan for _, plan in plans],
            strategy=self.engine.strategy,
            early_termination=self.engine.early_termination,
        ):
            stats.elapsed_seconds = time.perf_counter() - began
            stats.num_shards_emitted += 1
            stats.peak_shard_bytes = max(stats.peak_shard_bytes, nbytes)
            stats.cache_hits += hits
            stats.cache_misses += misses
            requests = stats.cache_hits + stats.cache_misses
            stats.cache_hit_rate = (
                stats.cache_hits / requests if requests else 0.0
            )
            yield Shard(
                index=shard_indices[position],
                fixed=plans[position][0],
                probabilities=vector,
            )

    def _generate(
        self,
        shard_qubits: int,
        shard_indices: Iterable[int],
        remaining: List[int],
        stats: StreamStats,
    ) -> Iterator[Shard]:
        num_cuts = self.provider.num_cuts
        total = self.num_qubits
        # Snapshot the provider's lifetime cache counters so the stats
        # report *this stream's* hits/misses even on a reused provider.
        cache = getattr(self.provider, "cache_stats", None)
        base_hits = cache.hits if cache is not None else 0
        base_misses = cache.misses if cache is not None else 0
        for index in shard_indices:
            if not 0 <= index < (1 << shard_qubits):
                raise ValueError(f"shard index {index} out of range")
            began = time.perf_counter()
            fixed = {
                wire: (index >> (shard_qubits - 1 - wire)) & 1
                for wire in range(shard_qubits)
            }
            with trace.span("query.stream.shard", {"shard": index}):
                plan = QueryPlan.binned(total, num_cuts, fixed, remaining)
                execution = plan.execute(self.provider, self.engine)
            stats.elapsed_seconds += time.perf_counter() - began
            stats.num_shards_emitted += 1
            stats.peak_shard_bytes = max(
                stats.peak_shard_bytes, execution.probabilities.nbytes
            )
            if cache is not None:
                stats.cache_hits = cache.hits - base_hits
                stats.cache_misses = cache.misses - base_misses
                requests = stats.cache_hits + stats.cache_misses
                stats.cache_hit_rate = (
                    stats.cache_hits / requests if requests else 0.0
                )
            yield Shard(
                index=index,
                fixed=fixed,
                probabilities=execution.probabilities,
            )

    # ------------------------------------------------------------------
    def top_k(
        self,
        shard_qubits: int,
        k: int,
        shard_indices: Optional[Iterable[int]] = None,
    ) -> List[Tuple[str, float]]:
        """The ``k`` highest-probability states, streamed shard by shard.

        Memory stays bounded by one shard plus the k-entry heap; the
        result is sorted by descending probability.  With a worker pool,
        each worker retains only its shards' top-k candidates and the
        parent merges them — identical output, but just ``k`` entries per
        shard ever cross the process boundary.
        """
        if k < 1:
            raise ValueError("k must be positive")
        total = self.num_qubits
        if not 0 <= shard_qubits <= total:
            raise ValueError(
                f"shard_qubits must be in [0, {total}], got {shard_qubits}"
            )
        if shard_indices is None:
            shard_indices = range(1 << shard_qubits)
        shard_indices = list(shard_indices)
        if self._parallel_available() and len(shard_indices) > 1:
            return self._top_k_parallel(shard_qubits, k, shard_indices)
        return top_k_from_shards(
            self.shards(shard_qubits, shard_indices),
            num_qubits=total,
            shard_qubits=shard_qubits,
            k=k,
        )

    def _top_k_parallel(
        self, shard_qubits: int, k: int, shard_indices: List[int]
    ) -> List[Tuple[str, float]]:
        """Merged top-k retention across the pool's workers.

        The merge replays exactly the serial fold: shards arrive in
        submission order and each shard's candidates arrive in the same
        ``argpartition`` order the serial code uses, so the resulting
        heap — and therefore the output — is bit-identical.
        """
        total = self.num_qubits
        if not 0 <= shard_qubits <= total:
            raise ValueError(
                f"shard_qubits must be in [0, {total}], got {shard_qubits}"
            )
        remaining = list(range(shard_qubits, total))
        stats = StreamStats(
            shard_qubits=shard_qubits,
            num_shards_total=1 << shard_qubits,
            transport="pool",
            workers=self.pool.workers,
        )
        self.last_stats = stats
        plans = self._shard_plans(shard_qubits, shard_indices, remaining)
        handle = self._published_handle()
        width = total - shard_qubits
        heap: List[Tuple[float, int]] = []
        began = time.perf_counter()
        for position, candidates, hits, misses, nbytes in self.pool.run_plans(
            handle,
            [plan for _, plan in plans],
            strategy=self.engine.strategy,
            early_termination=self.engine.early_termination,
            top_k=k,
        ):
            stats.elapsed_seconds = time.perf_counter() - began
            stats.num_shards_emitted += 1
            stats.peak_shard_bytes = max(stats.peak_shard_bytes, nbytes)
            stats.cache_hits += hits
            stats.cache_misses += misses
            requests = stats.cache_hits + stats.cache_misses
            stats.cache_hit_rate = (
                stats.cache_hits / requests if requests else 0.0
            )
            _merge_shard_candidates(
                heap, k, shard_indices[position] << width, candidates
            )
        return _ranked_states(heap, total)

    def full_distribution(self, shard_qubits: int) -> np.ndarray:
        """Concatenate every shard — testing/verification helper only
        (this materializes the full ``2**n`` vector on purpose)."""
        return np.concatenate(
            [shard.probabilities for shard in self.shards(shard_qubits)]
        )


def top_k_from_shards(
    shards: Iterable[Shard],
    num_qubits: int,
    shard_qubits: int,
    k: int,
    on_shard=None,
) -> List[Tuple[str, float]]:
    """Fold a shard stream into its ``k`` highest-probability states.

    Memory stays bounded by one shard plus the k-entry heap.  ``on_shard``
    (if given) is called with each shard before it is discarded, so
    callers can piggyback per-shard work (e.g. verification) on the same
    single pass.  The result is sorted by descending probability.
    """
    if k < 1:
        raise ValueError("k must be positive")
    width = num_qubits - shard_qubits
    heap: List[Tuple[float, int]] = []  # (probability, full state index)
    for shard in shards:
        if on_shard is not None:
            on_shard(shard)
        _merge_shard_candidates(
            heap,
            k,
            shard.index << width,
            _shard_top_candidates(shard.probabilities, k),
        )
    return _ranked_states(heap, num_qubits)
