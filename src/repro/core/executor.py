"""Batched, deduplicated, parallel execution of subcircuit variants.

The quantum half of CutQC's workload is the ``3^O * 4^rho`` physical
variants of every subcircuit (Fig. 3).  The seed pipeline ran them one
subcircuit at a time through a single backend callable; this module
flattens **all** subcircuits' variants into one batch, executes every
distinct physical circuit exactly once, and fans the unique batch out —
inline, over a persistent
:class:`~repro.postprocess.parallel.WorkerPool`, or over a
:class:`~repro.devices.pool.DevicePool` (the paper's §5.1 many-small-QPUs
deployment).

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
from ..cutting.cutter import Subcircuit
from ..cutting.variants import (
    INIT_LABELS,
    NoisyEvalSpec,
    SubcircuitResult,
    VariantCircuitFactory,
    basis_column_amplitudes,
    batched_noisy_variant_probabilities,
    circuit_fingerprint,
    generate_variants,
    num_physical_variants,
    stack_variant_rows,
)
from ..devices.device import VirtualDevice
from ..devices.pool import DevicePool
from ..obs import trace
from ..obs.metrics import get_registry
from ..sim.statevector import simulate_probabilities

__all__ = [
    "DEFAULT_SIM_BATCH",
    "ExecutionReport",
    "VariantExecutor",
    "circuit_fingerprint",
    "resolve_sim_batch",
]

Backend = Callable[[QuantumCircuit], np.ndarray]

#: A worker-pool dispatch only pays off for at least this many circuits.
_MIN_PARALLEL_CIRCUITS = 4

#: Init-batch size used when ``sim_batch`` is left unset (``None``).
#: Batching is the default execution mode — both for the exact
#: statevector path and for ``--device`` noisy evaluation.
DEFAULT_SIM_BATCH = 256

_EVAL_VARIANTS = get_registry().counter(
    "repro_eval_variants_total",
    "Subcircuit variants evaluated, by execution mode.",
    ("mode",),
)
_EVAL_BODY_PASSES = get_registry().counter(
    "repro_eval_body_passes_total",
    "Fused body passes (of <= sim_batch columns each) simulated by the "
    "batched strategy.",
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


def resolve_sim_batch(
    sim_batch: Optional[int],
    backend: Optional[Backend] = None,
    pool: Optional[DevicePool] = None,
) -> int:
    """Resolve the ``sim_batch`` default: batching unless it can't apply.

    ``None`` (unset) resolves to :data:`DEFAULT_SIM_BATCH`, except when a
    custom ``backend`` callable executes whole circuits — that path
    cannot batch, so unset quietly resolves to ``0``.  A
    :class:`DevicePool` batches too (each body-key group is pinned to one
    pool device and evaluated through the batched noisy engine), so unset
    stays at the default there; ``0`` forces the legacy per-circuit pool
    dispatch.  An *explicit* positive ``sim_batch`` combined with a
    ``backend`` still raises, preserving the strict conflict check.
    """
    if sim_batch is None:
        if backend is not None:
            return 0
        return DEFAULT_SIM_BATCH
    if sim_batch < 0:
        raise ValueError("sim_batch must be >= 0")
    if sim_batch and backend is not None:
        raise ValueError(
            "sim_batch requires the exact statevector backend; it is "
            "mutually exclusive with a custom backend callable"
        )
    return int(sim_batch)


@dataclass
class ExecutionReport:
    """What one :meth:`VariantExecutor.run` batch actually executed."""

    num_subcircuits: int
    num_variants: int
    num_unique_circuits: int
    #: "serial" | "pool" | "worker-pool" on the per-variant path;
    #: "batched" | "batched-pool" on the fused init-batch path; the same
    #: two with a "batched-noisy" prefix on the batched device (noisy)
    #: path and a "batched-devicepool" prefix when a DevicePool executes
    #: the groups.  A "-pool" suffix means the WorkerPool ran the batch.
    mode: str
    elapsed_seconds: float
    #: Modelled quantum wall-clock when a pool executed the batch.
    pool_makespan_seconds: Optional[float] = None
    pool_serial_seconds: Optional[float] = None
    #: Batched-strategy accounting: fused body passes actually simulated
    #: (``sim_batch`` = columns per pass: basis columns when exact, init
    #: states when noisy) and the knobs that shaped them (None on the
    #: per-variant path).  On the noisy trajectory path a pass is the clean
    #: walk or one forked suffix of it, so the count follows the injections
    #: drawn.  ``num_variants`` stays the variants *answered for*.
    num_body_passes: Optional[int] = None
    sim_batch: Optional[int] = None
    fusion_width: Optional[int] = None

    @property
    def dedup_ratio(self) -> float:
        """Variants per executed circuit (>= 1; 1.0 means no sharing)."""
        if self.num_unique_circuits <= 0:
            return 1.0
        return self.num_variants / self.num_unique_circuits


def _run_init_batch(payload):
    """One shipped work unit of the batched strategy: a whole init batch.

    Module-level so it crosses process boundaries (the persistent
    :class:`~repro.postprocess.parallel.WorkerPool` runs it via its own
    wrapper).  Exact payloads are ``(subcircuit, (start, stop),
    fusion_width)`` — a range of basis columns, answered with its
    amplitude slab; noisy payloads are ``(subcircuit, combos,
    fusion_width, spec)`` with a
    :class:`~repro.cutting.variants.NoisyEvalSpec`, answered with the
    ``(len(combos), 3^O, 2^width)`` distributions slab — the compiled
    geometry and fused body plan the spec implies are memoized per
    process, so chunks landing on a warm worker reuse them.  Either way
    the answer is ``(slab, num_body_passes)``, and a group's slabs
    concatenate in payload order into its result.
    """
    if len(payload) == 4:
        subcircuit, init_combos, fusion_width, spec = payload
        return batched_noisy_variant_probabilities(
            subcircuit, spec, fusion_width=fusion_width,
            init_combos=init_combos,
        )
    subcircuit, columns, fusion_width = payload
    return basis_column_amplitudes(
        subcircuit, fusion_width=fusion_width, columns=columns
    )


def _crosses_process_boundary(backend: Backend) -> bool:
    """Whether the backend callable can be shipped to worker processes."""
    import pickle

    try:
        pickle.dumps(backend)
    except Exception:
        return False
    return True


class VariantExecutor:
    """Run every physical variant of a set of subcircuits, once each.

    Parameters
    ----------
    backend:
        ``circuit -> probability vector`` callable.  Defaults to the exact
        statevector simulator.  Mutually exclusive with ``pool``.
    pool:
        A :class:`~repro.devices.pool.DevicePool`.  With batching on (the
        default) each *body-key group* of subcircuits is pinned to the
        least-loaded fitting device (LPT over the groups' modelled
        variant seconds) and evaluated there through the batched noisy
        engine — one device geometry per group, fused bodies memoized per
        process (mode ``"batched-devicepool"``).  With ``sim_batch=0``
        the legacy per-circuit dispatch runs instead.  The modelled
        quantum makespan is recorded in the report either way.  Set
        :attr:`pool_affinity` (subcircuit index -> device index, e.g.
        from a previous run's :attr:`last_pool_placement`) to pin groups
        to devices across partial re-evaluations — a variational rebind
        that re-runs only dirty subcircuits then reproduces the full
        batch's placement bit-for-bit.
    pool_shots:
        Shots per job when executing on a pool (``None`` = device default,
        ``0`` = exact, noise-model-only execution).
    seed:
        Seed for the pool's per-job trajectory sampling.
    worker_pool:
        A persistent :class:`~repro.postprocess.parallel.WorkerPool` —
        the only way variant execution leaves this process.  When set,
        the unique batch fans out over the warm workers (mode
        ``"worker-pool"``, or a ``"-pool"`` suffix on the batched modes);
        without it everything runs inline.  Deterministic backends (the
        default exact simulator) produce bit-identical results either
        way; a *stochastic* backend closure is pickled into each worker
        with its RNG state, so its noise streams are correlated across
        workers — run noisy backends inline or through a seeded ``pool``.
        Ignored when a ``pool`` (DevicePool) executes the batch.
    sim_batch:
        The **batched strategy**: instead of executing one circuit per
        variant, each subcircuit's measurement-free body is simulated in
        fused passes of at most ``sim_batch`` columns.  Exact: the
        ``2^rho`` basis columns of the init wires, and the result holds
        their amplitudes.  Noisy: the ``4^rho`` init states, all ``3^O``
        bases derived from the retained states.  Work units shipped to
        workers are whole batches, never individual circuits.
        ``None`` (the default) resolves to :data:`DEFAULT_SIM_BATCH`
        whenever batching can apply — exact simulation, or a ``device``
        (noisy batching) — and to ``0`` under a custom ``backend`` or a
        ``pool``.  An explicit positive value with ``backend``/``pool``
        raises; ``0`` forces per-variant execution.
    fusion_width:
        Maximum fused-unitary width for the batched strategy's
        gate-fusion pass.
    device:
        A :class:`~repro.devices.device.VirtualDevice`.  With batching
        on (the default) variants evaluate through the batched noisy
        engine (:func:`~repro.cutting.variants.batched_noisy_variant_probabilities`)
        with fused bodies memoized per worker process; with
        ``sim_batch=0`` the device's legacy per-circuit ``backend()``
        closure runs instead.  Mutually exclusive with ``backend`` and
        ``pool``.
    device_shots:
        Shots per variant on the device path (``None`` = the device's
        own default; ``0`` = noise-only distributions without shot
        noise).
    trajectories:
        Monte-Carlo trajectories for the device path's noisy estimator.
    noisy_method:
        ``"trajectory"`` (default) or ``"density"`` — the batched noisy
        estimator; ignored without a ``device``.
    """

    def __init__(
        self,
        backend: Optional[Backend] = None,
        pool: Optional[DevicePool] = None,
        pool_shots: Optional[int] = None,
        seed: Optional[int] = None,
        worker_pool=None,
        sim_batch: Optional[int] = None,
        fusion_width: int = 2,
        device: Optional[VirtualDevice] = None,
        device_shots: Optional[int] = None,
        trajectories: int = 24,
        noisy_method: str = "trajectory",
    ):
        if backend is not None and pool is not None:
            raise ValueError("pass either a backend or a pool, not both")
        if device is not None and backend is not None:
            raise ValueError("pass either a device or a backend, not both")
        if device is not None and pool is not None:
            raise ValueError("pass either a device or a pool, not both")
        from ..sim.batch import MAX_FUSION_WIDTH

        if not 1 <= fusion_width <= MAX_FUSION_WIDTH:
            raise ValueError(
                f"fusion_width must be in [1, {MAX_FUSION_WIDTH}], "
                f"got {fusion_width}"
            )
        self.pool = pool
        self.pool_shots = pool_shots
        self.seed = seed
        self.worker_pool = worker_pool
        self.sim_batch = resolve_sim_batch(sim_batch, backend=backend, pool=pool)
        self.fusion_width = int(fusion_width)
        self.device = device
        self.trajectories = int(trajectories)
        self.noisy_method = noisy_method
        #: Optional subcircuit-index -> pool-device-index pinning for the
        #: batched pool path; ``last_pool_placement`` records what the
        #: most recent run chose (for every group member).
        self.pool_affinity: Optional[Dict[int, int]] = None
        self.last_pool_placement: Optional[Dict[int, int]] = None
        self.noisy_spec: Optional[NoisyEvalSpec] = None
        if device is not None and self.sim_batch:
            self.noisy_spec = NoisyEvalSpec(
                device=device,
                method=noisy_method,
                trajectories=trajectories,
                shots=device.shots if device_shots is None else device_shots,
                seed=seed,
            )
            self.backend = None
        elif device is not None:
            # Explicit sim_batch=0: the legacy per-circuit closure.
            self.backend = device.backend(
                shots=device_shots, trajectories=trajectories, seed=seed
            )
        else:
            self.backend = backend
        self.last_report: Optional[ExecutionReport] = None

    # ------------------------------------------------------------------
    def run(self, subcircuits: Sequence[Subcircuit]) -> List[SubcircuitResult]:
        """Evaluate all variants of ``subcircuits``; one result per piece."""
        if self.sim_batch:
            return self._run_batched(subcircuits)
        began = time.perf_counter()
        subcircuits = list(subcircuits)
        # 1. Flatten: every (subcircuit, variant) pair, deduplicated by
        #    the cheap structural key across the whole batch — circuits
        #    are only materialized for keys never seen before.
        unique_circuits: List[QuantumCircuit] = []
        slot_of: Dict[Tuple, int] = {}
        assignments: List[List[int]] = []
        local_unique: List[int] = []
        for subcircuit in subcircuits:
            factory = VariantCircuitFactory(subcircuit)
            seen_local = set()
            slots: List[int] = []
            for variant in generate_variants(subcircuit):
                key = factory.structural_key(variant)
                if key not in slot_of:
                    slot_of[key] = len(unique_circuits)
                    unique_circuits.append(factory.circuit(variant))
                seen_local.add(key)
                slots.append(slot_of[key])
            assignments.append(slots)
            local_unique.append(len(seen_local))

        # 2. Execute the unique batch.
        vectors, mode, makespan, serial_seconds = self._execute(unique_circuits)

        # 3. Reassemble per-subcircuit results, variants in generation order.
        results: List[SubcircuitResult] = []
        for subcircuit, slots, unique in zip(
            subcircuits, assignments, local_unique
        ):
            rows = [vectors[slot] for slot in slots]
            results.append(
                SubcircuitResult(
                    subcircuit=subcircuit,
                    distributions=stack_variant_rows(subcircuit, rows),
                    num_variants=len(slots),
                    num_unique_circuits=unique,
                )
            )
        self.last_report = ExecutionReport(
            num_subcircuits=len(subcircuits),
            num_variants=sum(len(slots) for slots in assignments),
            num_unique_circuits=len(unique_circuits),
            mode=mode,
            elapsed_seconds=time.perf_counter() - began,
            pool_makespan_seconds=makespan,
            pool_serial_seconds=serial_seconds,
        )
        _observe_report(self.last_report)
        return results

    # ------------------------------------------------------------------
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
        self, circuits: Sequence[QuantumCircuit]
    ) -> Tuple[List[np.ndarray], str, Optional[float], Optional[float]]:
        if self.pool is not None:
            run = self.pool.backend(shots=self.pool_shots, seed=self.seed)
            vectors = [np.asarray(run(c), dtype=float) for c in circuits]
            schedule = run.schedule  # type: ignore[attr-defined]
            return (
                vectors,
                "pool",
                schedule.makespan_seconds,
                schedule.serial_seconds,
            )
        backend = self.backend or simulate_probabilities
        # Probe picklability once, up front: a lambda/closure backend
        # runs inline here, while a genuine backend exception raised
        # *during* parallel execution propagates immediately instead of
        # being misread as a transport failure and re-run.
        worker_pool = self._usable_pool()
        if (
            worker_pool is not None
            and len(circuits) >= _MIN_PARALLEL_CIRCUITS
            and _crosses_process_boundary(backend)
        ):
            vectors = worker_pool.map_backend(backend, list(circuits))
            return vectors, "worker-pool", None, None
        vectors = [np.asarray(backend(c), dtype=float) for c in circuits]
        return vectors, "serial", None, None

    # ------------------------------------------------------------------
    # Batched strategy: fused init-batch passes instead of circuits
    # ------------------------------------------------------------------
    def _run_batched(
        self, subcircuits: Sequence[Subcircuit]
    ) -> List[SubcircuitResult]:
        """Fused body passes per *unique* subcircuit.

        Subcircuits with equal body keys (same body, same cut-line
        positions) have pairwise-identical variant sets, so each group
        is simulated once and its members share the result data —
        the batched counterpart of the per-variant cross-subcircuit
        dedup, with identical ``ExecutionReport`` accounting.
        """
        began = time.perf_counter()
        subcircuits = list(subcircuits)
        group_of: Dict[Tuple, int] = {}
        group_heads: List[Subcircuit] = []
        member_group: List[int] = []
        for subcircuit in subcircuits:
            body_key = VariantCircuitFactory(subcircuit).body_key
            if body_key not in group_of:
                group_of[body_key] = len(group_heads)
                group_heads.append(subcircuit)
            member_group.append(group_of[body_key])

        group_specs: List[Optional[NoisyEvalSpec]]
        makespan = serial_seconds = None
        if self.pool is not None:
            group_specs, makespan, serial_seconds = self._place_pool_groups(
                group_heads, member_group, subcircuits
            )
        else:
            group_specs = [self.noisy_spec] * len(group_heads)

        # One payload per (group, chunk): workers receive whole batches,
        # never individual circuits — a range of basis columns on the
        # exact path, init label tuples with the spec riding along on the
        # noisy one (geometry compiles once per process).
        payloads: List[Tuple] = []
        payload_group: List[int] = []
        for index, head in enumerate(group_heads):
            spec = group_specs[index]
            if spec is None:
                members = range(1 << len(head.init_lines))
            else:
                members = list(
                    itertools.product(INIT_LABELS, repeat=len(head.init_lines))
                )
            for start in range(0, len(members), self.sim_batch):
                chunk = members[start : start + self.sim_batch]
                if spec is None:
                    chunk = (chunk.start, chunk.stop)
                    payloads.append((head, chunk, self.fusion_width))
                else:
                    payloads.append((head, chunk, self.fusion_width, spec))
                payload_group.append(index)

        if self.pool is not None:
            prefix = "batched-devicepool"
        elif self.noisy_spec is not None:
            prefix = "batched-noisy"
        else:
            prefix = "batched"
        outputs, mode = self._execute_batched(payloads, prefix)

        # A group's data is one amplitude array (exact) or one distributions
        # array (noisy), its payloads' slabs in init order; members share it.
        group_parts: List[List] = [[] for _ in group_heads]
        group_passes = [0] * len(group_heads)
        for index, (part, passes) in zip(payload_group, outputs):
            group_parts[index].append(part)
            group_passes[index] += passes
        group_data = []
        for spec, parts in zip(group_specs, group_parts):
            data = parts[0] if len(parts) == 1 else np.concatenate(parts)
            group_data.append({"amplitudes" if spec is None else "distributions": data})

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
            sim_batch=self.sim_batch,
            fusion_width=self.fusion_width,
        )
        _observe_report(self.last_report)
        return results

    def _place_pool_groups(
        self,
        group_heads: Sequence[Subcircuit],
        member_group: Sequence[int],
        subcircuits: Sequence[Subcircuit],
    ) -> Tuple[List[NoisyEvalSpec], float, float]:
        """Pin each body-key group to one pool device; build its spec.

        Placement is LPT over the groups' modelled variant seconds (the
        same per-job timing model as the legacy per-circuit dispatch, so
        makespan accounting stays comparable) — unless
        :attr:`pool_affinity` pins a group's subcircuit index to a
        device, in which case the pin wins.  Group-level placement keeps
        one compiled device geometry per subcircuit body and makes the
        noise streams a deterministic function of ``(device, seed,
        subcircuit)``, independent of which other groups share the batch.
        """
        devices = self.pool.devices
        loads = [0.0] * len(devices)
        chosen_of: List[Optional[int]] = [None] * len(group_heads)
        seconds: List[float] = []
        for head in group_heads:
            shots = (
                self.pool_shots
                if self.pool_shots is not None
                else devices[0].shots
            )
            seconds.append(
                num_physical_variants(head)
                * self.pool.estimate_job_seconds(head.circuit, shots or 0)
            )
        pinned = self.pool_affinity or {}
        order = sorted(range(len(group_heads)), key=lambda i: -seconds[i])
        for index in order:
            head = group_heads[index]
            if head.index in pinned:
                chosen = pinned[head.index]
            else:
                candidates = [
                    device_index
                    for device_index, device in enumerate(devices)
                    if device.num_qubits >= head.width
                ]
                if not candidates:
                    raise ValueError(
                        f"no pool device fits a {head.width}-qubit subcircuit"
                    )
                chosen = min(candidates, key=lambda i: loads[i])
            loads[chosen] += seconds[index]
            chosen_of[index] = chosen
        placement: Dict[int, int] = {}
        for subcircuit, group in zip(subcircuits, member_group):
            placement[subcircuit.index] = chosen_of[group]
        self.last_pool_placement = placement
        specs: List[NoisyEvalSpec] = []
        for index, head in enumerate(group_heads):
            device = devices[chosen_of[index]]
            specs.append(
                NoisyEvalSpec(
                    device=device,
                    method=self.noisy_method,
                    trajectories=self.trajectories,
                    shots=(
                        device.shots
                        if self.pool_shots is None
                        else self.pool_shots
                    ),
                    seed=self.seed,
                )
            )
        return specs, max(loads, default=0.0), float(sum(loads))

    def _execute_batched(
        self, payloads: Sequence[Tuple], prefix: str
    ) -> Tuple[List[Tuple[Dict, int]], str]:
        """Run init-batch payloads inline or on the warm pool."""
        worker_pool = self._usable_pool()
        if worker_pool is not None and len(payloads) > 1:
            with trace.span(
                "evaluate.dispatch",
                {"mode": f"{prefix}-pool", "payloads": len(payloads)},
            ):
                outputs = worker_pool.map_variant_batches(payloads)
            # Pull the workers' fusion/geometry cache counters home while
            # the pool is warm — scrapes then read gauges, never dispatch.
            from ..postprocess.parallel import publish_cache_gauges

            publish_cache_gauges(worker_pool)
            return outputs, f"{prefix}-pool"
        with trace.span(
            "evaluate.dispatch", {"mode": prefix, "payloads": len(payloads)}
        ):
            return [_run_init_batch(payload) for payload in payloads], prefix
