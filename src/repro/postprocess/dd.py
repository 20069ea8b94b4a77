"""Dynamic-definition (DD) query — paper §4.3, Algorithm 1.

DD reconstructs a *binned* view of the uncut distribution: a chosen subset
of qubits is ``active`` (their states resolved), the rest are ``merged``
(probabilities summed per bin).  Recursions zoom into the highest-
probability bin by fixing its active qubits (``zoomed``) and activating a
fresh batch of merged qubits, so solution states of sparse circuits are
located in O(n) recursions and dense distributions can be sampled at any
definition without ever storing the full ``2**n`` vector.

This implementation is built for scale:

* every recursion is a :class:`~repro.postprocess.plan.QueryPlan` — the
  same abstraction the FD and streaming-FD paths dispatch through;
* collapsed subcircuit tensors are cached by their restricted role
  signature (:class:`~repro.postprocess.plan.CachingTensorProvider`), so
  sibling bins and successive recursions reuse collapses instead of
  re-summing full term tensors;
* the bin frontier is a priority heap — choosing the next bin is
  O(log bins), not an O(bins) rescan of every bin ever created;
* ``zoom_width=k`` expands the top-k bins per round, contracting them in
  parallel through the shared
  :class:`~repro.postprocess.engine.ContractionEngine` worker pool.

Query products (``solution_states``, ``approximate_distribution``) are
unchanged from the naive implementation; :meth:`DynamicDefinitionQuery.stats`
reports recursion latencies, cache hit rates and frontier size.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..obs.metrics import get_registry
from .engine import ContractionEngine
from .plan import (
    CachingTensorProvider,
    PrecomputedTensorProvider,
    QueryPlan,
    Role,
    RoleMap,
    TensorProvider,
    binned_tensor,
)

__all__ = [
    "Bin",
    "DDRecursion",
    "DDStats",
    "TensorProvider",
    "PrecomputedTensorProvider",
    "DynamicDefinitionQuery",
]

_DD_ROUNDS = get_registry().counter(
    "repro_dd_rounds_total", "Dynamic-definition zoom rounds executed."
)
_DD_CACHE = get_registry().counter(
    "repro_dd_cache_total",
    "DD collapse-cache lookups by outcome (hit/miss).",
    ("outcome",),
)


@dataclass
class Bin:
    """One probability bin: fixed (zoomed) qubits + one active-qubit state."""

    fixed: Dict[int, int]
    active: Tuple[int, ...]
    index: int
    probability: float
    recursion: int
    zoomed: bool = False  # True once a later recursion refined this bin

    @property
    def assignment(self) -> Dict[int, int]:
        """All resolved qubits: fixed plus this bin's active-qubit bits."""
        resolved = dict(self.fixed)
        width = len(self.active)
        for position, wire in enumerate(self.active):
            resolved[wire] = (self.index >> (width - 1 - position)) & 1
        return resolved

    @property
    def num_resolved(self) -> int:
        """Resolved-qubit count without building the assignment dict."""
        return len(self.fixed) + len(self.active)

    def merged_wires(self, num_qubits: int) -> List[int]:
        resolved = self.assignment
        return [w for w in range(num_qubits) if w not in resolved]


@dataclass
class DDRecursion:
    """The output of one DD recursion (one reconstruction pass)."""

    index: int
    fixed: Dict[int, int]
    active: Tuple[int, ...]
    probabilities: np.ndarray
    elapsed_seconds: float
    parent_bin: Optional[Bin] = None


@dataclass
class DDStats:
    """Aggregate query statistics (latency, caching, frontier)."""

    num_recursions: int
    num_rounds: int
    zoom_width: int
    num_bins: int
    frontier_size: int
    total_elapsed_seconds: float
    collapse_seconds: float
    contract_seconds: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_recursions": self.num_recursions,
            "num_rounds": self.num_rounds,
            "zoom_width": self.zoom_width,
            "num_bins": self.num_bins,
            "frontier_size": self.frontier_size,
            "total_elapsed_seconds": self.total_elapsed_seconds,
            "collapse_seconds": self.collapse_seconds,
            "contract_seconds": self.contract_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
        }


class DynamicDefinitionQuery:
    """Algorithm 1: recursive zoom-in over probability bins.

    Parameters
    ----------
    provider:
        Supplies collapsed term tensors per role spec (precomputed,
        shot-based, or synthetic).
    max_active_qubits:
        Definition per recursion — each recursion resolves this many new
        qubits into ``2**max_active_qubits`` bins.
    active_order:
        Wire activation order (default: ascending wire index).
    engine:
        Shared contraction engine; its ``workers`` setting also drives
        the parallel zoom when ``zoom_width > 1``.
    zoom_width:
        Bins expanded per round by :meth:`run`.  ``1`` reproduces the
        paper's strictly sequential Algorithm 1; ``k > 1`` zooms into the
        top-k frontier bins per round and contracts them in parallel.
    pool:
        A persistent :class:`~repro.postprocess.parallel.WorkerPool`.
        When set, every batched zoom round dispatches to the warm
        workers instead of constructing a throwaway
        ``multiprocessing.Pool`` per round (the engine is cloned with
        the pool attached if it does not already carry one).
    """

    def __init__(
        self,
        provider: TensorProvider,
        max_active_qubits: int,
        active_order: Optional[Sequence[int]] = None,
        engine: Optional[ContractionEngine] = None,
        zoom_width: int = 1,
        pool=None,
    ):
        if max_active_qubits < 1:
            raise ValueError("max_active_qubits must be positive")
        if zoom_width < 1:
            raise ValueError("zoom_width must be positive")
        self.provider = provider
        self.engine = engine or ContractionEngine()
        if pool is not None and self.engine.pool is None:
            self.engine = replace(self.engine, pool=pool)
        self.max_active_qubits = int(max_active_qubits)
        self.zoom_width = int(zoom_width)
        order = (
            list(range(provider.num_qubits))
            if active_order is None
            else list(active_order)
        )
        if sorted(order) != list(range(provider.num_qubits)):
            raise ValueError("active_order must be a permutation of all wires")
        self.active_order = order
        self.bins: List[Bin] = []
        self.recursions: List[DDRecursion] = []
        # Max-heap frontier of expandable bins: (-probability, seq, Bin).
        # Bins never change probability and are removed when zoomed, so
        # lazy invalidation keeps every operation O(log bins).
        self._frontier: List[Tuple[float, int, Bin]] = []
        self._pushed = 0
        self._num_rounds = 0
        self._collapse_seconds = 0.0
        self._contract_seconds = 0.0
        # Snapshot the provider's cache counters so stats() reports this
        # query's hits/misses even when the provider is reused.
        cache = getattr(provider, "cache_stats", None)
        self._cache_base_hits = cache.hits if cache is not None else 0
        self._cache_base_misses = cache.misses if cache is not None else 0

    # ------------------------------------------------------------------
    def run(self, max_recursions: int) -> List[DDRecursion]:
        """Run up to ``max_recursions`` *further* recursions (Algorithm 1
        loop) — repeated calls deepen the query progressively.

        Recursions are expanded in rounds of up to ``zoom_width`` bins;
        the loop stops early when no expandable bin remains.
        """
        target = len(self.recursions) + max_recursions
        while len(self.recursions) < target:
            if self.recursions and self._peek_bin() is None:
                break  # nothing left to zoom into
            width = min(self.zoom_width, target - len(self.recursions))
            self._expand_round(width)
        return self.recursions

    def step(self) -> DDRecursion:
        """One DD recursion: choose a bin, zoom, reconstruct, re-bin."""
        return self._expand_round(1)[0]

    def _expand_round(self, width: int) -> List[DDRecursion]:
        """Expand up to ``width`` frontier bins as one batched round."""
        cache = getattr(self.provider, "cache_stats", None)
        hits0 = cache.hits if cache is not None else 0
        misses0 = cache.misses if cache is not None else 0
        with trace.span("query.dd.round", {"width": width}):
            recursions = self._expand_round_impl(width)
        _DD_ROUNDS.inc()
        if cache is not None:
            hit_delta = cache.hits - hits0
            miss_delta = cache.misses - misses0
            if hit_delta:
                _DD_CACHE.inc(hit_delta, outcome="hit")
            if miss_delta:
                _DD_CACHE.inc(miss_delta, outcome="miss")
        return recursions

    def _expand_round_impl(self, width: int) -> List[DDRecursion]:
        parents: List[Optional[Bin]] = []
        if not self.recursions:
            parents.append(None)  # the root recursion has no parent bin
        else:
            for _ in range(width):
                parent = self._pop_bin()
                if parent is None:
                    if not parents:
                        raise RuntimeError("no expandable bin remains")
                    break
                parent.zoomed = True
                parents.append(parent)

        prepared = []
        collapse_seconds: List[float] = []
        for parent in parents:
            fixed = {} if parent is None else parent.assignment
            active = self._next_active(fixed)
            if not active:
                raise RuntimeError("no merged qubit remains to activate")
            plan = QueryPlan.binned(
                self.provider.num_qubits,
                self.provider.num_cuts,
                fixed,
                active,
            )
            collapse_began = time.perf_counter()
            prep = plan.prepared(self.provider)
            collapse_seconds.append(time.perf_counter() - collapse_began)
            prepared.append((parent, fixed, tuple(active), prep))

        contract_began = time.perf_counter()
        if len(prepared) == 1:
            # Single bin: let the engine parallelize *inside* the sweep.
            contractions = [
                prepared[0][3].contract(self.engine).contraction
            ]
        else:
            contractions = self.engine.contract_batch(
                [prep.payload for _, _, _, prep in prepared]
            )
        contract_elapsed = time.perf_counter() - contract_began
        self._collapse_seconds += sum(collapse_seconds)
        self._contract_seconds += contract_elapsed
        self._num_rounds += 1

        recursions: List[DDRecursion] = []
        share = contract_elapsed / len(prepared)
        for (parent, fixed, active, prep), contraction, collapsed_s in zip(
            prepared, contractions, collapse_seconds
        ):
            probabilities = prep.finish(contraction).probabilities
            recursion = DDRecursion(
                index=len(self.recursions),
                fixed=fixed,
                active=active,
                probabilities=probabilities,
                elapsed_seconds=collapsed_s + share,
                parent_bin=parent,
            )
            self.recursions.append(recursion)
            recursions.append(recursion)
            self._emit_bins(recursion)
        return recursions

    def _emit_bins(self, recursion: DDRecursion) -> None:
        expandable = (
            len(recursion.fixed) + len(recursion.active)
            < self.provider.num_qubits
        )
        for index, probability in enumerate(recursion.probabilities):
            entry = Bin(
                fixed=dict(recursion.fixed),
                active=recursion.active,
                index=index,
                probability=float(probability),
                recursion=recursion.index,
            )
            self.bins.append(entry)
            if expandable:
                heapq.heappush(
                    self._frontier,
                    (-entry.probability, self._pushed, entry),
                )
                self._pushed += 1

    # ------------------------------------------------------------------
    def _pop_bin(self) -> Optional[Bin]:
        """Remove and return the highest-probability expandable bin."""
        while self._frontier:
            _, _, candidate = heapq.heappop(self._frontier)
            if candidate.zoomed:
                continue  # invalidated lazily
            return candidate
        return None

    def _peek_bin(self) -> Optional[Bin]:
        """The bin :meth:`_pop_bin` would return, without removing it."""
        while self._frontier:
            _, _, candidate = self._frontier[0]
            if candidate.zoomed:
                heapq.heappop(self._frontier)
                continue
            return candidate
        return None

    def _choose_bin(self) -> Optional[Bin]:
        """Highest-probability bin that still has merged qubits to expand."""
        return self._peek_bin()

    def _next_active(self, fixed: Dict[int, int]) -> List[int]:
        remaining = [w for w in self.active_order if w not in fixed]
        return remaining[: self.max_active_qubits]

    # ------------------------------------------------------------------
    # Query products
    # ------------------------------------------------------------------
    @property
    def current_partition(self) -> List[Bin]:
        """Bins that currently tile the whole Hilbert space (not zoomed)."""
        return [b for b in self.bins if not b.zoomed]

    def solution_states(self, threshold: float = 0.5) -> List[Tuple[str, float]]:
        """Fully-resolved states with probability above ``threshold``."""
        total = self.provider.num_qubits
        states = []
        for candidate in self.bins:
            if candidate.num_resolved < total:
                continue
            if candidate.probability < threshold:
                continue
            resolved = candidate.assignment
            bits = "".join(str(resolved[w]) for w in range(total))
            states.append((bits, candidate.probability))
        states.sort(key=lambda item: -item[1])
        return states

    def approximate_distribution(self) -> np.ndarray:
        """The blurred 2**n landscape from the current partition (Fig. 8).

        Each unzoomed bin spreads its probability uniformly over its merged
        qubits.  Only sensible for small ``n`` (it materializes 2**n).
        """
        total = self.provider.num_qubits
        out = np.zeros((2,) * total)
        for candidate in self.current_partition:
            resolved = candidate.assignment
            merged = candidate.merged_wires(total)
            slicer = tuple(
                resolved[w] if w in resolved else slice(None) for w in range(total)
            )
            weight = candidate.probability / (2 ** len(merged))
            out[slicer] = weight
        return out.reshape(-1)

    def stats(self) -> DDStats:
        """Latency, cache and frontier statistics for the query so far."""
        cache = getattr(self.provider, "cache_stats", None)
        hits = misses = 0
        if cache is not None:
            # Deltas against the construction-time snapshot: the counters
            # must describe *this query*, not the provider's lifetime.
            hits = max(0, cache.hits - self._cache_base_hits)
            misses = max(0, cache.misses - self._cache_base_misses)
        requests = hits + misses
        rate = hits / requests if requests else 0.0
        return DDStats(
            num_recursions=len(self.recursions),
            num_rounds=self._num_rounds,
            zoom_width=self.zoom_width,
            num_bins=len(self.bins),
            frontier_size=len(self._frontier),
            total_elapsed_seconds=sum(
                r.elapsed_seconds for r in self.recursions
            ),
            collapse_seconds=self._collapse_seconds,
            contract_seconds=self._contract_seconds,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=rate,
        )
