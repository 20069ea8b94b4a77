"""Batched, deduplicated, parallel execution of subcircuit variants.

The quantum half of CutQC's workload is the ``3^O * 4^rho`` physical
variants of every subcircuit (Fig. 3).  This module evaluates them one
way: subcircuits are grouped by body key (equal bodies and cut-line
positions mean pairwise-identical variants), each group is evaluated
once, and the work leaves the group as init-batch payloads — inline,
over a persistent :class:`~repro.postprocess.parallel.WorkerPool`, or
pinned to one device of a :class:`~repro.devices.pool.DevicePool` (the
paper's §5.1 many-small-QPUs deployment).  A custom backend callable is
just another group evaluator: one call per variant, inline.

The layering mirrors the circuit-knitting-toolbox's
``run_subcircuit_instances`` stage: circuit generation, deduplication and
dispatch are one reusable component, independent of how the results are
later attributed and contracted.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from ..cutting.cutter import BodyKey, Subcircuit
from ..cutting.variants import (
    INIT_LABELS,
    NoisyEvalSpec,
    SubcircuitResult,
    VariantCircuitFactory,
    batched_noisy_variant_probabilities,
    body_program,
    generate_variants,
    num_physical_variants,
    stack_variant_rows,
)
from ..obs import trace
from ..obs.metrics import get_registry
from ..sim.noisy_batch import basis_column_amplitudes
from .config import RunConfig

__all__ = ["ExecutionReport", "VariantExecutor"]

Backend = Callable[[QuantumCircuit], np.ndarray]

#: Members per init-batch payload: basis columns when exact, init states
#: when noisy.  Bounds one payload's live tensors and sets the grain the
#: worker pool parallelises over.
_INIT_BATCH = 256

_EVAL_VARIANTS = get_registry().counter(
    "repro_eval_variants_total",
    "Subcircuit variants evaluated, by execution mode.",
    ("mode",),
)
_EVAL_BODY_PASSES = get_registry().counter(
    "repro_eval_body_passes_total",
    "Fused body passes (init batches of <= 256 members) simulated by the "
    "batched engine.",
)
_EVAL_SECONDS = get_registry().histogram(
    "repro_eval_seconds",
    "Variant-evaluation batch latency by execution mode.",
    ("mode",),
)


def _observe_report(report: "ExecutionReport") -> None:
    """Feed one finished evaluation's report into the metrics registry."""
    _EVAL_VARIANTS.inc(report.num_variants, mode=report.mode)
    _EVAL_SECONDS.observe(report.elapsed_seconds, mode=report.mode)
    if report.num_body_passes:
        _EVAL_BODY_PASSES.inc(report.num_body_passes)


@dataclass
class ExecutionReport:
    """What one :meth:`VariantExecutor.run` batch actually executed."""

    num_subcircuits: int
    num_variants: int
    num_unique_circuits: int
    #: "batched" on the exact engine, "batched-noisy" on a device and
    #: "batched-devicepool" when a DevicePool executes the groups, each
    #: with a "-pool" suffix when the WorkerPool ran the payloads; or
    #: "backend" when a custom backend callable evaluated every variant.
    mode: str
    elapsed_seconds: float
    #: Modelled quantum wall-clock when a pool executed the batch.
    pool_makespan_seconds: Optional[float] = None
    pool_serial_seconds: Optional[float] = None
    #: Fused body passes actually simulated (0 under a custom backend).
    #: On the noisy trajectory path a pass is the clean walk or one
    #: forked suffix of it, so the count follows the injections drawn.
    #: ``num_variants`` stays the variants *answered for*.
    num_body_passes: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Variants per executed circuit (>= 1; 1.0 means no sharing)."""
        if self.num_unique_circuits <= 0:
            return 1.0
        return self.num_variants / self.num_unique_circuits

    def as_dict(self) -> Dict:
        """The job document's ``execution`` block."""
        return {
            "mode": self.mode,
            "num_variants": self.num_variants,
            "num_unique_circuits": self.num_unique_circuits,
            "dedup_ratio": self.dedup_ratio,
            "num_body_passes": self.num_body_passes,
            "pool_makespan_seconds": self.pool_makespan_seconds,
            "pool_serial_seconds": self.pool_serial_seconds,
        }


def _run_init_batch(payload):
    """One work unit: an init batch of one body-key group.

    Module-level so it crosses process boundaries (the persistent
    :class:`~repro.postprocess.parallel.WorkerPool` runs it via its own
    wrapper).  A payload leads with its kind, the pool's task kind:
    ``("variant-batch", subcircuit, (start, stop))`` is a range of basis
    columns, answered with its amplitude slab;
    ``("noisy-variant-batch", subcircuit, combos, spec)`` carries init
    label tuples and a :class:`~repro.cutting.variants.NoisyEvalSpec`,
    answered with the ``(len(combos), 3^O, 2^width)`` distributions slab
    — the compiled body program either kind implies is memoized per
    process, so chunks landing on a warm worker reuse it.
    ``("backend", subcircuit, backend)`` is a custom backend's whole
    group: one ``backend(circuit)`` call per variant in
    :func:`generate_variants` order, stacked into the distributions
    array (never shipped).  Either way the answer is ``(slab,
    num_body_passes)``, and a group's slabs concatenate in payload order
    into its result.
    """
    kind, subcircuit, *rest = payload
    if kind == "backend":
        (backend,) = rest
        factory = VariantCircuitFactory(subcircuit)
        rows = [
            backend(factory.circuit(variant))
            for variant in generate_variants(subcircuit)
        ]
        return stack_variant_rows(subcircuit, rows), 0
    if kind == "noisy-variant-batch":
        init_combos, spec = rest
        return batched_noisy_variant_probabilities(
            subcircuit, spec, init_combos=init_combos
        )
    (columns,) = rest
    return basis_column_amplitudes(
        body_program(subcircuit), columns, subcircuit.index
    )


class VariantExecutor:
    """Run every physical variant of a set of subcircuits, once each.

    :meth:`run` groups the subcircuits by body key, evaluates each group
    once and lets its members share the result.  The group's evaluator
    is the exact batched engine by default (fused body passes over the
    ``2^rho`` basis columns of the init wires; the result holds their
    amplitudes), the batched noisy engine when the config names a
    ``device`` or ``pool`` (fused passes over the ``4^rho`` init states,
    all ``3^O`` bases derived from the retained states), or a custom
    ``backend``.  Payloads hold at most 256 init members and are whole
    batches, never individual circuits.

    Parameters
    ----------
    config:
        The run's :class:`~repro.core.config.RunConfig` (default: exact).
        Its evaluation options apply: ``device`` runs every group through
        the batched noisy engine
        (:func:`~repro.cutting.variants.batched_noisy_variant_probabilities`)
        with fused bodies memoized per worker process; ``pool`` pins each
        *body-key group* to the least-loaded fitting device of a
        :class:`~repro.devices.pool.DevicePool` (the pool's LPT over the
        groups' modelled variant seconds; mode ``"batched-devicepool"``)
        and records the modelled quantum makespan in the report;
        ``device_shots``, ``trajectories``, ``noisy_method`` and ``seed``
        shape the noisy evaluation.  Set :attr:`pool_affinity`
        (subcircuit index -> device index, e.g. from a previous run's
        :attr:`last_pool_placement`) to pin groups to devices across
        partial re-evaluations — a variational rebind that re-runs only
        dirty subcircuits then reproduces the full batch's placement
        bit-for-bit.
    backend:
        ``circuit -> probability vector`` callable, run inline once per
        variant of every group (mode ``"backend"``): a seeded stochastic
        backend sees the same circuits in the same order on every run.
        Refused beside a config ``device`` or ``pool``.
    worker_pool:
        A persistent :class:`~repro.postprocess.parallel.WorkerPool` —
        the only way variant execution leaves this process.  When set,
        the payloads fan out over the warm workers (a ``"-pool"`` suffix
        on the mode) with bit-identical results; without it everything
        runs inline.  A custom ``backend`` always runs inline.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        backend: Optional[Backend] = None,
        worker_pool=None,
    ):
        self.config = config = config if config is not None else RunConfig()
        if backend is not None and config.devices():
            raise ValueError("pass either a backend or a device/pool, not both")
        self.backend = backend
        self.worker_pool = worker_pool
        self.pool = config.device_pool
        device = config.virtual_device
        self.noisy_spec = None if device is None else config.noisy_spec(device)
        #: Optional subcircuit-index -> pool-device-index pinning for the
        #: pool path; ``last_pool_placement`` records what the most
        #: recent run chose (for every group member).
        self.pool_affinity: Optional[Dict[int, int]] = None
        self.last_pool_placement: Optional[Dict[int, int]] = None
        self.last_report: Optional[ExecutionReport] = None

    # ------------------------------------------------------------------
    def run(self, subcircuits: Sequence[Subcircuit]) -> List[SubcircuitResult]:
        """Evaluate all variants of ``subcircuits``; one result per piece.

        Subcircuits with equal body keys (same body, same cut-line
        positions) have pairwise-identical variant sets, so each group
        is evaluated once and its members share the result data.  A
        variant's structural key is ``(body_key, inits, bases)``, so the
        groups execute exactly the distinct physical circuits of the
        batch, in first-seen order.
        """
        began = time.perf_counter()
        subcircuits = list(subcircuits)
        group_of: Dict[BodyKey, int] = {}
        group_heads: List[Subcircuit] = []
        member_group: List[int] = []
        for subcircuit in subcircuits:
            if subcircuit.body_key not in group_of:
                group_of[subcircuit.body_key] = len(group_heads)
                group_heads.append(subcircuit)
            member_group.append(group_of[subcircuit.body_key])

        group_specs: List[Optional[NoisyEvalSpec]]
        makespan = serial_seconds = None
        if self.pool is not None:
            group_specs, makespan, serial_seconds = self._place_pool_groups(
                group_heads, member_group, subcircuits
            )
        else:
            group_specs = [self.noisy_spec] * len(group_heads)

        payloads: List[Tuple] = []
        payload_group: List[int] = []
        for index, head in enumerate(group_heads):
            for payload in self._payloads(head, group_specs[index]):
                payloads.append(payload)
                payload_group.append(index)

        if self.backend is not None:
            prefix = "backend"
        elif self.pool is not None:
            prefix = "batched-devicepool"
        elif self.noisy_spec is not None:
            prefix = "batched-noisy"
        else:
            prefix = "batched"
        outputs, mode = self._execute(payloads, prefix)

        # A group's data is one amplitude array (exact) or one distributions
        # array (noisy, backend), its payloads' slabs in init order; members
        # share it.
        group_parts: List[List] = [[] for _ in group_heads]
        group_passes = [0] * len(group_heads)
        for index, (part, passes) in zip(payload_group, outputs):
            group_parts[index].append(part)
            group_passes[index] += passes
        group_data = []
        for spec, parts in zip(group_specs, group_parts):
            data = parts[0] if len(parts) == 1 else np.concatenate(parts)
            exact = spec is None and self.backend is None
            group_data.append({"amplitudes" if exact else "distributions": data})

        results: List[SubcircuitResult] = []
        for subcircuit, index in zip(subcircuits, member_group):
            count = num_physical_variants(subcircuit)
            results.append(
                SubcircuitResult(
                    subcircuit=subcircuit,
                    num_variants=count,
                    num_unique_circuits=count,
                    mode=prefix,
                    num_body_passes=group_passes[index],
                    **group_data[index],
                )
            )
        self.last_report = ExecutionReport(
            num_subcircuits=len(subcircuits),
            num_variants=sum(r.num_variants for r in results),
            num_unique_circuits=sum(map(num_physical_variants, group_heads)),
            mode=mode,
            elapsed_seconds=time.perf_counter() - began,
            pool_makespan_seconds=makespan,
            pool_serial_seconds=serial_seconds,
            num_body_passes=sum(group_passes),
        )
        _observe_report(self.last_report)
        return results

    # ------------------------------------------------------------------
    def _payloads(
        self, head: Subcircuit, spec: Optional[NoisyEvalSpec]
    ) -> List[Tuple]:
        """One group's work units (see :func:`_run_init_batch`).

        Workers receive whole batches, never individual circuits — a
        range of basis columns on the exact path, init label tuples with
        the spec riding along on the noisy one (its program compiles
        once per process).  A custom backend's group is one payload.
        """
        if self.backend is not None:
            return [("backend", head, self.backend)]
        if spec is None:
            count = 1 << len(head.init_lines)
            return [
                ("variant-batch", head,
                 (start, min(start + _INIT_BATCH, count)))
                for start in range(0, count, _INIT_BATCH)
            ]
        combos = list(itertools.product(INIT_LABELS, repeat=len(head.init_lines)))
        return [
            ("noisy-variant-batch", head, combos[start : start + _INIT_BATCH],
             spec)
            for start in range(0, len(combos), _INIT_BATCH)
        ]

    def _place_pool_groups(
        self,
        group_heads: Sequence[Subcircuit],
        member_group: Sequence[int],
        subcircuits: Sequence[Subcircuit],
    ) -> Tuple[List[NoisyEvalSpec], float, float]:
        """Pin each body-key group to one pool device; build its spec.

        Placement is the pool's LPT over the groups' modelled variant
        seconds (:meth:`~repro.devices.pool.DevicePool.place`) — unless
        :attr:`pool_affinity` pins a group's subcircuit index to a
        device, in which case the pin wins.  Group-level placement keeps
        one compiled device program per subcircuit body and makes the
        noise streams a deterministic function of ``(device, seed,
        subcircuit)``, independent of which other groups share the batch.
        """
        devices = self.pool.devices
        shots = self.config.noisy_spec(devices[0]).shots
        jobs = [
            (
                head.width,
                num_physical_variants(head)
                * self.pool.estimate_job_seconds(head.circuit, shots or 0),
            )
            for head in group_heads
        ]
        affinity = self.pool_affinity or {}
        pinned = {
            index: affinity[head.index]
            for index, head in enumerate(group_heads)
            if head.index in affinity
        }
        chosen, loads = self.pool.place(jobs, pinned)
        self.last_pool_placement = {
            subcircuit.index: chosen[group]
            for subcircuit, group in zip(subcircuits, member_group)
        }
        specs = [self.config.noisy_spec(devices[device]) for device in chosen]
        return specs, max(loads), float(sum(loads))

    def _usable_pool(self):
        """The warm worker pool, unless it is broken.

        A pool whose respawn budget is exhausted fails every dispatch
        with ``PoolUnrecoverableError``; treating it as absent degrades
        this executor to its inline path instead.
        """
        pool = self.worker_pool
        if pool is not None and getattr(pool, "broken", False):
            return None
        return pool

    def _execute(
        self, payloads: Sequence[Tuple], prefix: str
    ) -> Tuple[List[Tuple[np.ndarray, int]], str]:
        """Run the payloads inline or on the warm pool.

        A custom backend always runs inline: a stochastic closure pickled
        into every worker would carry copies of one RNG state.
        """
        worker_pool = None if self.backend is not None else self._usable_pool()
        if worker_pool is not None and len(payloads) > 1:
            with trace.span(
                "evaluate.dispatch",
                {"mode": f"{prefix}-pool", "payloads": len(payloads)},
            ):
                outputs = worker_pool.map_variant_batches(payloads)
            # Pull the workers' fusion/program cache counters home while
            # the pool is warm — scrapes then read gauges, never dispatch.
            from ..postprocess.parallel import publish_cache_gauges

            publish_cache_gauges(worker_pool)
            return outputs, f"{prefix}-pool"
        with trace.span(
            "evaluate.dispatch", {"mode": prefix, "payloads": len(payloads)}
        ):
            return [_run_init_batch(payload) for payload in payloads], prefix
