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
  same abstraction the FD and streaming-FD paths dispatch through, and on
  a pipeline the same provider (one collapse cache per result set);
* collapsed subcircuit tensors are cached by their restricted role
  signature (:class:`~repro.postprocess.plan.CachingTensorProvider`), so
  sibling bins and successive recursions reuse collapses instead of
  re-summing full term tensors;
* a recursion *is* its probability array: bins are ``probabilities[i]``
  plus a boolean ``zoomed`` mask (9 B per bin), and :class:`Bin` values
  are materialised only for what a caller reads;
* the bin frontier is a k-way merge — each expandable recursion keeps
  one stable descending order of its probabilities and the heap holds
  one cursor per recursion, so its size is <= the number of recursions
  and bins are chosen highest probability first, ties by recursion then
  bin index;
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
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..obs.metrics import get_registry
from ..utils import check_count
from .engine import ContractionEngine
from .plan import QueryPlan, TensorProvider, collapse_lookups

__all__ = [
    "Bin",
    "DDRecursion",
    "DDStats",
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
    """One probability bin: fixed (zoomed) qubits + one active-qubit state.

    A value materialised on read from its :class:`DDRecursion`; ``fixed``
    is the recursion's own mapping, shared read-only by all its bins.
    """

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
    """The output of one DD recursion (one reconstruction pass).

    The recursion owns its ``2**len(active)`` bins as arrays: bin ``i``
    has mass ``probabilities[i]`` and ``zoomed[i]`` is set once a later
    recursion refined it.  ``order`` is the stable descending sort of the
    probabilities the query's frontier walks; it exists only while the
    recursion still has bins to expand.
    """

    index: int
    fixed: Dict[int, int]
    active: Tuple[int, ...]
    probabilities: np.ndarray
    elapsed_seconds: float
    parent_bin: Optional[Bin] = None
    zoomed: np.ndarray = field(init=False, repr=False)
    order: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.zoomed = np.zeros(self.probabilities.size, dtype=bool)

    @property
    def num_resolved(self) -> int:
        """Qubits every bin of this recursion resolves (fixed + active)."""
        return len(self.fixed) + len(self.active)

    def bins(self, indices: Optional[np.ndarray] = None) -> List[Bin]:
        """Materialise the bins at ``indices`` (default: all) as values."""
        if indices is None:
            indices = np.arange(self.probabilities.size)
        return [
            Bin(self.fixed, self.active, index, probability, self.index, zoomed)
            for index, probability, zoomed in zip(
                indices.tolist(),
                self.probabilities[indices].tolist(),
                self.zoomed[indices].tolist(),
            )
        ]


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
        return asdict(self)


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
        Shared contraction engine; its worker pool (if any) runs the
        parallel zoom when ``zoom_width > 1``.
    zoom_width:
        Bins expanded per round by :meth:`run`.  ``1`` reproduces the
        paper's strictly sequential Algorithm 1; ``k > 1`` zooms into the
        top-k frontier bins per round and contracts them as one batch
        (fanned over the engine's worker pool when it has one).
    """

    def __init__(
        self,
        provider: TensorProvider,
        max_active_qubits: int,
        active_order: Optional[Sequence[int]] = None,
        engine: Optional[ContractionEngine] = None,
        zoom_width: int = 1,
    ):
        self.provider = provider
        self.engine = engine or ContractionEngine()
        self.max_active_qubits = check_count(
            "max_active_qubits", max_active_qubits, 1
        )
        self.zoom_width = check_count("zoom_width", zoom_width, 1)
        order = (
            list(range(provider.num_qubits))
            if active_order is None
            else list(active_order)
        )
        if sorted(order) != list(range(provider.num_qubits)):
            raise ValueError("active_order must be a permutation of all wires")
        self.active_order = order
        self.recursions: List[DDRecursion] = []
        # K-way merge over the expandable recursions' sorted orders: one
        # (-probability, recursion index, rank) cursor per recursion, so
        # bins pop highest probability first, ties by recursion then bin
        # index, and the heap never outgrows the recursion count.
        self._frontier: List[Tuple[float, int, int]] = []
        self._num_rounds = 0
        self._collapse_seconds = 0.0
        self._contract_seconds = 0.0
        # Snapshot the provider's cache counters so stats() reports this
        # query's hits/misses even when the provider is reused.
        self._cache_base = collapse_lookups(self.provider)

    # ------------------------------------------------------------------
    def run(self, max_recursions: int) -> List[DDRecursion]:
        """Run up to ``max_recursions`` *further* recursions (Algorithm 1
        loop) — repeated calls deepen the query progressively.

        Recursions are expanded in rounds of up to ``zoom_width`` bins;
        the loop stops early when no expandable bin remains.
        """
        max_recursions = check_count("max_recursions", max_recursions)
        target = len(self.recursions) + max_recursions
        while len(self.recursions) < target:
            if self.recursions and not self._frontier:
                break  # nothing left to zoom into
            width = min(self.zoom_width, target - len(self.recursions))
            self._expand_round(width)
        return self.recursions

    def step(self) -> DDRecursion:
        """One DD recursion: choose a bin, zoom, reconstruct, re-bin."""
        return self._expand_round(1)[0]

    def _expand_round(self, width: int) -> List[DDRecursion]:
        """Expand up to ``width`` frontier bins as one batched round."""
        before = collapse_lookups(self.provider)
        with trace.span("query.dd.round", {"width": width}):
            recursions = self._expand_round_impl(width)
        _DD_ROUNDS.inc()
        hits, misses = collapse_lookups(self.provider, before)
        if hits:
            _DD_CACHE.inc(hits, outcome="hit")
        if misses:
            _DD_CACHE.inc(misses, outcome="miss")
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
            before = collapse_lookups(self.provider)
            with trace.span(
                "query.dd.prepare",
                {"fixed": len(fixed), "active": len(active)},
            ) as prepare_span:
                collapse_began = time.perf_counter()
                prep = plan.prepared(self.provider)
                collapse_seconds.append(time.perf_counter() - collapse_began)
                hits, misses = collapse_lookups(self.provider, before)
                prepare_span.set(cache_hits=hits, cache_misses=misses)
            prepared.append((parent, fixed, tuple(active), prep))

        contract_began = time.perf_counter()
        contractions = self.engine.contract_batch(
            [prep.payload for *_, prep in prepared]
        )
        executions = [
            prep.finish(contraction)
            for (*_, prep), contraction in zip(prepared, contractions)
        ]
        contract_elapsed = time.perf_counter() - contract_began
        self._collapse_seconds += sum(collapse_seconds)
        self._contract_seconds += contract_elapsed
        self._num_rounds += 1

        recursions: List[DDRecursion] = []
        share = contract_elapsed / len(prepared)
        for (parent, fixed, active, _), execution, collapsed_s in zip(
            prepared, executions, collapse_seconds
        ):
            recursion = DDRecursion(
                index=len(self.recursions),
                fixed=fixed,
                active=active,
                probabilities=execution.probabilities,
                elapsed_seconds=collapsed_s + share,
                parent_bin=parent,
            )
            self.recursions.append(recursion)
            recursions.append(recursion)
            if recursion.num_resolved < self.provider.num_qubits:
                # Expandable: its bins enter the frontier, heaviest first.
                recursion.order = np.argsort(
                    -recursion.probabilities, kind="stable"
                )
                self._push(recursion, 0)
        return recursions

    def _push(self, recursion: DDRecursion, rank: int) -> None:
        """Put the recursion's cursor for ``order[rank]`` on the heap."""
        probability = float(recursion.probabilities[recursion.order[rank]])
        heapq.heappush(self._frontier, (-probability, recursion.index, rank))

    # ------------------------------------------------------------------
    def _peek_bin(self) -> Optional[Bin]:
        """The bin :meth:`_pop_bin` would return, without removing it."""
        if not self._frontier:
            return None
        _, which, rank = self._frontier[0]
        recursion = self.recursions[which]
        return recursion.bins(recursion.order[rank : rank + 1])[0]

    def _pop_bin(self) -> Optional[Bin]:
        """Remove, mark zoomed and return the highest-probability
        expandable bin; its recursion's cursor moves to the next rank."""
        chosen = self._peek_bin()
        if chosen is None:
            return None
        _, which, rank = heapq.heappop(self._frontier)
        recursion = self.recursions[which]
        recursion.zoomed[chosen.index] = chosen.zoomed = True
        if rank + 1 < recursion.order.size:
            self._push(recursion, rank + 1)
        else:
            recursion.order = None  # exhausted: release the sort order
        return chosen

    def _next_active(self, fixed: Dict[int, int]) -> List[int]:
        remaining = [w for w in self.active_order if w not in fixed]
        return remaining[: self.max_active_qubits]

    # ------------------------------------------------------------------
    # Query products
    # ------------------------------------------------------------------
    @property
    def bins(self) -> List[Bin]:
        """Every bin of every recursion, in creation order."""
        return [b for r in self.recursions for b in r.bins()]

    @property
    def current_partition(self) -> List[Bin]:
        """Bins that currently tile the whole Hilbert space (not zoomed)."""
        return [
            b
            for r in self.recursions
            for b in r.bins(np.flatnonzero(~r.zoomed))
        ]

    def solution_states(self, threshold: float = 0.5) -> List[Tuple[str, float]]:
        """Fully-resolved states with probability above ``threshold``."""
        total = self.provider.num_qubits
        states = []
        for recursion in self.recursions:
            if recursion.num_resolved < total:
                continue
            hits = np.flatnonzero(recursion.probabilities >= threshold)
            for candidate in recursion.bins(hits):
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
        # Deltas against the construction-time snapshot: the counters
        # must describe *this query*, not the provider's lifetime.
        hits, misses = collapse_lookups(self.provider, self._cache_base)
        return DDStats(
            num_recursions=len(self.recursions),
            num_rounds=self._num_rounds,
            zoom_width=self.zoom_width,
            num_bins=sum(r.probabilities.size for r in self.recursions),
            # Each cursor stands for the bins at and after its rank.
            frontier_size=sum(
                self.recursions[which].order.size - rank
                for _, which, rank in self._frontier
            ),
            total_elapsed_seconds=sum(
                r.elapsed_seconds for r in self.recursions
            ),
            collapse_seconds=self._collapse_seconds,
            contract_seconds=self._contract_seconds,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        )
