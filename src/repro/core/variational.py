"""Variational warm path: cut once, rebind parameters, re-fuse what moved.

An optimizer loop (QAOA/VQE-style) re-evaluates the *same circuit
structure* hundreds of times with only rotation angles changing.  The
cut, the variant plan, most fused blocks and most subcircuit tensors are
bit-identical across iterations.  :func:`rebind` — bound on
:class:`~repro.core.pipeline.CutQC` as :meth:`CutQC.rebind` — binds new
values into the pipeline's own circuit and recomputes only what moved:

* the **cut** is found once (or adopted through ``load_cut``, e.g. from
  an :class:`~repro.service.store.ArtifactStore` under the
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
* clean subcircuits keep their :class:`SubcircuitResult` objects, whose
  memoised term tensors the pipeline's next reconstructor reads without
  rebuilding anything.

The pipeline adopts the rebound cut and results through ``load_cut`` /
``load_results``, so every later ``fd_query``, ``fd_stream``,
``fd_top_k`` and ``dd_query`` reads the new binding.  Each rebind returns
a :class:`RebindStats` record proving the reuse (cut cache hit, dirty
set, fused blocks rebuilt vs reused) plus per-stage timings;
:func:`summary` folds a run of them, and the service's variational job
mode streams them per iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..obs import trace
from ..obs.metrics import get_registry
from ..postprocess.attribution import build_term_tensor
from ..utils import memo_stats

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import CutQC

__all__ = ["RebindStats", "rebind", "spsa_gains", "summary"]

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

_STAGES = ("bind", "cut", "evaluate", "tensor")


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
    """What one :meth:`CutQC.rebind` actually recomputed."""

    num_gates_changed: int
    #: True when the pipeline's cut came through ``load_cut`` (a store
    #: checkpoint, or an earlier rebind) rather than its own search.
    cut_cache_hit: bool
    dirty_subcircuits: Tuple[int, ...]
    reused_subcircuits: int
    #: Fused blocks assembled during this rebind's evaluation vs block
    #: unitaries actually rebuilt (process-local counters: pooled/forked
    #: execution modes only reflect the parent's share).
    fusion_blocks_total: int
    fusion_blocks_built: int
    execution_mode: Optional[str]
    bind_seconds: float
    #: Cut search time — nonzero only when the rebind ran the search.
    cut_seconds: float
    evaluate_seconds: float
    tensor_seconds: float

    @property
    def tensors_reused(self) -> int:
        """Term tensors served unchanged: a reused subcircuit keeps its
        result, and the result memoises its tensor."""
        return self.reused_subcircuits

    @property
    def fusion_blocks_reused(self) -> int:
        return self.fusion_blocks_total - self.fusion_blocks_built


def rebind(pipeline: "CutQC", values: Sequence[float]) -> RebindStats:
    """Bind new parameters into ``pipeline`` and re-evaluate only the
    subcircuits they touched (every subcircuit on the first evaluation).

    ``values`` is the flat parameter vector of
    :meth:`~repro.circuits.QuantumCircuit.parameters` (one value per gate
    parameter, in gate order).  Typical loop::

        pipeline = CutQC(qaoa_maxcut(n, edges, p), device_size)
        for theta in optimizer:
            stats = pipeline.rebind(theta)      # incremental re-evaluation
            cost = maxcut_cost(pipeline.fd_query().probabilities, edges, n)
    """
    with trace.span("variational.rebind") as span:
        stats = _rebind(pipeline, values)
        span.set(dirty=len(stats.dirty_subcircuits))
    _REBINDS.inc()
    if stats.dirty_subcircuits:
        _REBIND_DIRTY.inc(len(stats.dirty_subcircuits), disposition="dirty")
    if stats.reused_subcircuits:
        _REBIND_DIRTY.inc(stats.reused_subcircuits, disposition="reused")
    for stage in _STAGES:
        _REBIND_SECONDS.observe(getattr(stats, f"{stage}_seconds"), stage=stage)
    return stats


def _rebind(pipeline: "CutQC", values: Sequence[float]) -> RebindStats:
    began = time.perf_counter()
    bound, changed = pipeline.circuit.bind(values)
    bind_seconds = time.perf_counter() - began

    cut_began = time.perf_counter()
    cut_cache_hit = pipeline._cut_loaded
    cut, dirty = pipeline.cut().rebound(bound, changed)
    previous = pipeline._results
    if previous is None:
        dirty = range(cut.num_subcircuits)
    dirty = tuple(dirty)
    cut_seconds = time.perf_counter() - cut_began

    executor = pipeline.executor
    results = list(previous or [None] * cut.num_subcircuits)
    blocks_before = memo_stats()["fusion_block"]
    evaluate_began = time.perf_counter()
    execution_mode = None
    if dirty:
        for result in executor.run([cut.subcircuits[i] for i in dirty]):
            results[result.subcircuit.index] = result
        execution_mode = executor.last_report.mode
        if executor.pool is not None and executor.pool_affinity is None:
            # Pin the first full placement so later dirty-only runs
            # land each subcircuit on the same device — keeping the
            # noise streams (and the compiled geometries) identical
            # to a from-scratch evaluation of the whole batch.
            executor.pool_affinity = executor.last_pool_placement
    evaluate_seconds = time.perf_counter() - evaluate_began
    blocks_after = memo_stats()["fusion_block"]

    tensor_began = time.perf_counter()
    for index in dirty:
        build_term_tensor(results[index])
    tensor_seconds = time.perf_counter() - tensor_began

    pipeline.circuit = bound
    pipeline.load_cut(cut, pipeline.solution).load_results(results)
    return RebindStats(
        num_gates_changed=len(changed),
        cut_cache_hit=cut_cache_hit,
        dirty_subcircuits=dirty,
        reused_subcircuits=cut.num_subcircuits - len(dirty),
        fusion_blocks_total=(
            blocks_after["hits"] + blocks_after["misses"]
            - blocks_before["hits"] - blocks_before["misses"]
        ),
        fusion_blocks_built=blocks_after["misses"] - blocks_before["misses"],
        execution_mode=execution_mode,
        bind_seconds=bind_seconds,
        cut_seconds=cut_seconds,
        evaluate_seconds=evaluate_seconds,
        tensor_seconds=tensor_seconds,
    )


def summary(history: Sequence[RebindStats], num_parameters: int) -> Dict:
    """Reuse accounting over a run of rebinds of one pipeline.

    ``cut_store_hit`` is the first rebind's ``cut_cache_hit``: whether the
    run started from an adopted cut rather than a search.
    """
    first = history[0] if history else None

    def total(field: str):
        return sum(getattr(stats, field) for stats in history)

    return {
        "iterations": len(history),
        "num_subcircuits": (
            first.reused_subcircuits + len(first.dirty_subcircuits)
            if first else 0
        ),
        "num_parameters": num_parameters,
        "cut_store_hit": first.cut_cache_hit if first else None,
        "cut_cache_hits": total("cut_cache_hit"),
        "subcircuit_evaluations": sum(
            len(stats.dirty_subcircuits) for stats in history
        ),
        "subcircuits_reused": total("reused_subcircuits"),
        "tensors_reused": total("tensors_reused"),
        "fusion_blocks_total": total("fusion_blocks_total"),
        "fusion_blocks_built": total("fusion_blocks_built"),
        **{f"{stage}_seconds": total(f"{stage}_seconds") for stage in _STAGES},
    }
