"""Variational warm path: cut once, rebind parameters, re-fuse what moved.

An optimizer loop (QAOA/VQE-style) re-evaluates the *same circuit
structure* hundreds of times with only rotation angles changing.  The
cut, the variant plan, most fused blocks and most subcircuit tensors are
bit-identical across iterations — :class:`VariationalSession` keeps them
resident and recomputes only what a rebind actually touched:

* the **cut** is found once (or restored from an
  :class:`~repro.service.store.ArtifactStore` under the
  parameter-invariant ``cut:v2`` fingerprint) and reapplied to every
  rebind via :meth:`~repro.cutting.cutter.CutCircuit.rebound`, which
  shares clean :class:`~repro.cutting.cutter.Subcircuit` objects by
  reference;
* only **dirty subcircuits** — those containing a changed gate — are
  re-evaluated; their noise draws are keyed on the subcircuit index
  (:func:`~repro.sim.noise.keyed_uniforms` for injections,
  :func:`~repro.sim.noise.spawn_rng` for shots), so the partial
  evaluation is bit-identical to a from-scratch run;
* inside a dirty subcircuit, the fusion pass reuses the structural block
  partition and every per-block unitary whose gates didn't move
  (:func:`~repro.sim.batch.fuse_gates`);
* clean subcircuits are served from their **stored term tensors** — the
  :class:`~repro.postprocess.reconstruct.Reconstructor` a query builds
  takes the tensor list directly, so untouched subcircuits never rebuild
  anything.

Every :meth:`VariationalSession.rebind` returns a :class:`RebindStats`
record proving the reuse (cut cache hit, dirty set, fused blocks rebuilt
vs reused, tensors reused) plus per-stage timings; the service's
variational job mode streams these per iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from ..cutting.cutter import CutCircuit
from ..cutting.variants import SubcircuitResult
from ..obs import trace
from ..obs.metrics import get_registry
from ..postprocess.attribution import TermTensor, build_term_tensor
from ..postprocess.reconstruct import ReconstructionResult, Reconstructor
from ..sim.batch import fusion_stats
from .pipeline import CutQC

__all__ = ["RebindStats", "VariationalSession", "spsa_gains"]

_REBINDS = get_registry().counter(
    "repro_rebinds_total", "Variational rebind iterations executed."
)
_REBIND_DIRTY = get_registry().counter(
    "repro_rebind_subcircuits_total",
    "Subcircuits touched per rebind by disposition.",
    ("disposition",),
)
_REBIND_SECONDS = get_registry().histogram(
    "repro_rebind_seconds", "Per-stage rebind wall time.", ("stage",)
)


def spsa_gains(
    k: int,
    a: float = 0.2,
    c: float = 0.15,
    stability: float = 10.0,
    alpha: float = 0.602,
    gamma: float = 0.101,
) -> Tuple[float, float]:
    """Standard SPSA gain schedule ``(a_k, c_k)`` for iteration ``k``.

    ``a_k = a / (k + 1 + stability)**alpha`` scales the gradient step and
    ``c_k = c / (k + 1)**gamma`` the two-sided perturbation; the exponents
    are Spall's asymptotically-optimal defaults.
    """
    return (
        a / (k + 1 + stability) ** alpha,
        c / (k + 1) ** gamma,
    )


@dataclass
class RebindStats:
    """What one :meth:`VariationalSession.rebind` actually recomputed."""

    iteration: int
    num_gates_changed: int
    #: True when the cut was reused — from the session (every iteration
    #: after the first) or restored from the artifact store.
    cut_cache_hit: bool
    dirty_subcircuits: Tuple[int, ...]
    reused_subcircuits: int
    #: Term tensors served unchanged from the previous iteration.
    tensors_reused: int
    #: Fused blocks assembled during this rebind's evaluation vs block
    #: unitaries actually rebuilt (process-local counters: pooled/forked
    #: execution modes only reflect the parent's share).
    fusion_blocks_total: int
    fusion_blocks_built: int
    execution_mode: Optional[str]
    bind_seconds: float
    #: Cut search/restore time — nonzero only on the first rebind.
    cut_seconds: float
    evaluate_seconds: float
    tensor_seconds: float

    @property
    def fusion_blocks_reused(self) -> int:
        return self.fusion_blocks_total - self.fusion_blocks_built

    def as_dict(self) -> Dict:
        return {
            "iteration": self.iteration,
            "num_gates_changed": self.num_gates_changed,
            "cut_cache_hit": self.cut_cache_hit,
            "dirty_subcircuits": list(self.dirty_subcircuits),
            "reused_subcircuits": self.reused_subcircuits,
            "tensors_reused": self.tensors_reused,
            "fusion_blocks_total": self.fusion_blocks_total,
            "fusion_blocks_built": self.fusion_blocks_built,
            "fusion_blocks_reused": self.fusion_blocks_reused,
            "execution_mode": self.execution_mode,
            "bind_seconds": self.bind_seconds,
            "cut_seconds": self.cut_seconds,
            "evaluate_seconds": self.evaluate_seconds,
            "tensor_seconds": self.tensor_seconds,
        }


class VariationalSession:
    """Cut once → rebind parameters → query, with per-iteration stats.

    Construction takes :class:`CutQC`'s arguments (the session owns an
    internal pipeline for the first cut/evaluation); the circuit passed
    in defines the *structure* and the initial parameter values.  ``store`` optionally checkpoints the cut through an
    :class:`~repro.service.store.ArtifactStore` — because cut
    fingerprints are parameter-invariant, a session for a known structure
    restores the cut without ever running the search.

    Typical loop::

        session = VariationalSession(qaoa_maxcut(n, edges, p), device_size)
        for theta in optimizer:
            stats = session.rebind(theta)       # incremental re-evaluation
            cost = maxcut_cost(session.probabilities(), edges, n)

    :meth:`rebind` accepts the flat parameter vector of
    :meth:`QuantumCircuit.parameters` (one value per gate parameter, in
    gate order).
    """

    def __init__(self, circuit: QuantumCircuit, *args, store=None, **options):
        self._pipeline = CutQC(circuit, *args, **options)
        self.circuit = circuit
        self.store = store
        self._cut: Optional[CutCircuit] = None
        self._solution = None
        self._results: List[Optional[SubcircuitResult]] = []
        self._tensors: List[Optional[TermTensor]] = []
        self._reconstructor: Optional[Reconstructor] = None
        self.history: List[RebindStats] = []
        #: Store counters: how the session's single cut was obtained.
        self.cut_store_hit: Optional[bool] = None

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.circuit.num_parameters

    def parameters(self) -> Tuple[float, ...]:
        return self.circuit.parameters()

    def cut_fingerprint(self) -> str:
        """The (parameter-invariant) store key of this session's cut."""
        return self._pipeline.cut_fingerprint()

    @property
    def cut(self) -> Optional[CutCircuit]:
        return self._cut

    # ------------------------------------------------------------------
    def _obtain_cut(self, bound: QuantumCircuit) -> Tuple[CutCircuit, bool]:
        """First-iteration cut: restore from the store or run the search."""
        pipeline = self._pipeline
        pipeline.circuit = bound
        if self.store is not None:
            key = pipeline.cut_fingerprint()
            restored = self.store.get_cut(key, bound)
            if restored is not None:
                cut, solution = restored
                self._solution = solution
                pipeline.load_cut(cut, solution)
                return cut, True
        cut = pipeline.cut()
        self._solution = pipeline.solution
        if self.store is not None:
            self.store.put_cut(
                pipeline.cut_fingerprint(), bound, cut, pipeline.solution
            )
        return cut, False

    # ------------------------------------------------------------------
    def rebind(self, values: Sequence[float]) -> RebindStats:
        """Bind new parameters and re-evaluate only what they touched."""
        with trace.span(
            "variational.rebind", {"iteration": len(self.history)}
        ):
            stats = self._rebind_impl(values)
        _REBINDS.inc()
        if stats.dirty_subcircuits:
            _REBIND_DIRTY.inc(
                len(stats.dirty_subcircuits), disposition="dirty"
            )
        if stats.reused_subcircuits:
            _REBIND_DIRTY.inc(stats.reused_subcircuits, disposition="reused")
        for stage in ("bind", "cut", "evaluate", "tensor"):
            _REBIND_SECONDS.observe(
                getattr(stats, f"{stage}_seconds"), stage=stage
            )
        return stats

    def _rebind_impl(self, values: Sequence[float]) -> RebindStats:
        began = time.perf_counter()
        bound, changed = self.circuit.bind(values)
        bind_seconds = time.perf_counter() - began

        cut_began = time.perf_counter()
        if self._cut is None:
            cut, store_hit = self._obtain_cut(bound)
            self.cut_store_hit = store_hit
            cut_cache_hit = store_hit
            dirty = tuple(range(cut.num_subcircuits))
            to_evaluate = list(cut.subcircuits)
            self._results = [None] * cut.num_subcircuits
            self._tensors = [None] * cut.num_subcircuits
        else:
            cut, dirty_list = self._cut.rebound(bound, changed)
            cut_cache_hit = True
            dirty = tuple(dirty_list)
            to_evaluate = [cut.subcircuits[index] for index in dirty]
        cut_seconds = time.perf_counter() - cut_began
        self._cut = cut
        self.circuit = bound
        self._pipeline.circuit = bound

        executor = self._pipeline.executor

        fusion_before = fusion_stats()
        evaluate_began = time.perf_counter()
        execution_mode = None
        if to_evaluate:
            for result in executor.run(to_evaluate):
                self._results[result.subcircuit.index] = result
            execution_mode = executor.last_report.mode
            if (
                executor.pool is not None
                and executor.pool_affinity is None
            ):
                # Pin the first full placement so later dirty-only runs
                # land each subcircuit on the same device — keeping the
                # noise streams (and the compiled geometries) identical
                # to a from-scratch evaluation of the whole batch.
                executor.pool_affinity = executor.last_pool_placement
        evaluate_seconds = time.perf_counter() - evaluate_began
        fusion_after = fusion_stats()

        tensor_began = time.perf_counter()
        for index in dirty:
            self._tensors[index] = build_term_tensor(self._results[index])
        tensor_seconds = time.perf_counter() - tensor_began
        self._reconstructor = None  # rebuilt lazily from the tensor list

        stats = RebindStats(
            iteration=len(self.history),
            num_gates_changed=len(changed),
            cut_cache_hit=cut_cache_hit,
            dirty_subcircuits=dirty,
            reused_subcircuits=cut.num_subcircuits - len(dirty),
            tensors_reused=cut.num_subcircuits - len(dirty),
            fusion_blocks_total=(
                fusion_after["blocks_total"] - fusion_before["blocks_total"]
            ),
            fusion_blocks_built=(
                fusion_after["blocks_built"] - fusion_before["blocks_built"]
            ),
            execution_mode=execution_mode,
            bind_seconds=bind_seconds,
            cut_seconds=cut_seconds,
            evaluate_seconds=evaluate_seconds,
            tensor_seconds=tensor_seconds,
        )
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------
    def _require_state(self) -> Reconstructor:
        if self._cut is None:
            raise RuntimeError("call rebind() before querying the session")
        if self._reconstructor is None:
            self._reconstructor = Reconstructor(
                self._cut,
                tensors=list(self._tensors),
                engine=self._pipeline.engine,
            )
        return self._reconstructor

    def fd_query(self, **query_options) -> ReconstructionResult:
        """Full-definition query against the current parameter binding."""
        return self._require_state().reconstruct(**query_options)

    def probabilities(self, **query_options) -> np.ndarray:
        return self.fd_query(**query_options).probabilities

    @property
    def results(self) -> List[SubcircuitResult]:
        """Current per-subcircuit results (clean ones shared across
        iterations)."""
        return list(self._results)

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Aggregate reuse accounting over every rebind so far."""
        iterations = len(self.history)
        subcircuits = self._cut.num_subcircuits if self._cut else 0
        return {
            "iterations": iterations,
            "num_subcircuits": subcircuits,
            "num_parameters": self.num_parameters,
            "cut_store_hit": self.cut_store_hit,
            "cut_cache_hits": sum(
                1 for stats in self.history if stats.cut_cache_hit
            ),
            "subcircuit_evaluations": sum(
                len(stats.dirty_subcircuits) for stats in self.history
            ),
            "subcircuits_reused": sum(
                stats.reused_subcircuits for stats in self.history
            ),
            "tensors_reused": sum(
                stats.tensors_reused for stats in self.history
            ),
            "fusion_blocks_total": sum(
                stats.fusion_blocks_total for stats in self.history
            ),
            "fusion_blocks_built": sum(
                stats.fusion_blocks_built for stats in self.history
            ),
            "bind_seconds": sum(s.bind_seconds for s in self.history),
            "cut_seconds": sum(s.cut_seconds for s in self.history),
            "evaluate_seconds": sum(s.evaluate_seconds for s in self.history),
            "tensor_seconds": sum(s.tensor_seconds for s in self.history),
        }
