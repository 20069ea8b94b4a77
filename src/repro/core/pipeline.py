"""The end-to-end CutQC pipeline (paper Fig. 5).

``CutQC`` wires the stages together: the MIP cut searcher locates cuts,
the cutter produces subcircuits, a :class:`~repro.core.executor.VariantExecutor`
runs every physical variant (deduplicated; inline, on a persistent
:class:`~repro.postprocess.parallel.WorkerPool`, or on a
:class:`~repro.devices.pool.DevicePool`),
and the postprocessor answers full-definition, streaming (sharded) FD,
or dynamic-definition queries through the shared query-plan layer and
contraction engine.  One :class:`~repro.postprocess.reconstruct.Reconstructor`
per evaluated result set serves them all, so they share one collapse
cache.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from ..obs import trace
from ..obs.metrics import get_registry
from ..cutting import (
    CutCircuit,
    CutSolution,
    SubcircuitResult,
    cut_circuit,
    find_cuts,
)
from ..postprocess import (
    ContractionEngine,
    DynamicDefinitionQuery,
    ReconstructionResult,
    Reconstructor,
    ShotBasedTensorProvider,
    StreamStats,
)
from . import variational
from .config import RunConfig
from .executor import ExecutionReport, VariantExecutor

__all__ = ["CutQC", "evaluate_with_cutqc"]

Backend = Callable[[QuantumCircuit], np.ndarray]

#: Reconstruction-query latency by mode (fd/dd/top_k) — the pipeline-level
#: histogram ``GET /metrics`` exposes.
_QUERY_SECONDS = get_registry().histogram(
    "repro_query_seconds",
    "End-to-end reconstruction query latency by mode.",
    ("mode",),
)


class CutQC:
    """Cut a circuit, evaluate the pieces, reconstruct or sample the output.

    ``CutQC(circuit, max_subcircuit_qubits, **options)``: the positional
    device size ``D`` and the keyword options are the fields of one
    :class:`~repro.core.config.RunConfig` (``max_subcircuits``,
    ``max_cuts``, ``method``, ``cuts``, ``device``, ``device_shots``,
    ``pool``, ``trajectories``, ``noisy_method``, ``seed``,
    ``strategy``), which declares their defaults and refuses a bad value
    here, at construction.  A caller that already holds one passes
    ``config=`` instead; either way the pipeline keeps it as
    :attr:`config`.

    Two runtime handles stay outside the config:

    backend:
        A ``circuit -> probability vector`` callable that evaluates every
        subcircuit variant, inline (mode ``"backend"``).  Defaults to the
        batched exact statevector engine.  ``device.backend(...)`` or a
        :class:`~repro.devices.mitigation.MitigatedBackend` run the
        batched noisy engine one variant circuit at a time (the
        mitigated backend then inverts each width's readout confusion);
        a config ``device`` runs it once per subcircuit, every variant
        batched.  Refused beside a config ``device`` or ``pool``.
    worker_pool:
        A persistent :class:`~repro.postprocess.parallel.WorkerPool`
        shared by every stage — the pipeline's only process
        parallelism: variant execution fans out over the warm workers,
        streaming-FD shards evaluate concurrently (tensors published to
        shared memory once), and multi-bin DD zoom rounds dispatch
        through the same pool.  A whole ``fd_query`` is one contraction
        and runs inline.  Without a pool, every stage runs inline.  The
        pipeline does not own the pool — the caller closes it.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        *args,
        backend: Optional[Backend] = None,
        worker_pool=None,
        config: Optional[RunConfig] = None,
        **options,
    ):
        if config is None:
            config = RunConfig(*args, **options)
        elif args or options:
            raise TypeError("pass either a config or its options, not both")
        if config.max_subcircuit_qubits is None:
            raise TypeError("CutQC needs max_subcircuit_qubits (device size D)")
        self.config = config
        self.circuit = circuit
        self.worker_pool = worker_pool
        self.executor = VariantExecutor(config, backend, worker_pool)
        self.engine = ContractionEngine(strategy=config.strategy, pool=worker_pool)
        self._solution: Optional[CutSolution] = None
        self._cut: Optional[CutCircuit] = None
        #: The cut came through :meth:`load_cut`, not this pipeline's search.
        self._cut_loaded = False
        self._results: Optional[List[SubcircuitResult]] = None
        self._reconstructor: Optional[Reconstructor] = None
        self.execution_report: Optional[ExecutionReport] = None

    # ------------------------------------------------------------------
    @property
    def solution(self) -> Optional[CutSolution]:
        return self._solution

    @property
    def strategy(self) -> str:
        return self.engine.strategy

    # -- resumable-stage hooks (service checkpointing) ------------------
    def cut_fingerprint(self) -> str:
        """Content fingerprint of the cut stage — ``(circuit,
        config.cut_options())``."""
        from ..service.store import cut_fingerprint

        return cut_fingerprint(self.circuit, self.config.cut_options())

    def evaluation_fingerprint(
        self, cut_key: Optional[str] = None, **identity
    ) -> str:
        """Content fingerprint of the evaluate stage.

        The config's :meth:`~repro.core.config.RunConfig.evaluation_identity`
        (a versioned backend tag, plus shots, seed and trajectories on a
        noisy run) keys it; ``identity`` overrides any of those
        ``backend`` / ``shots`` / ``seed`` / ``config`` arguments.  The
        circuit's bound parameter values always enter the digest: the cut
        fingerprint is parameter-invariant, so the angles disambiguate
        rebinds.  A caller that already holds :meth:`cut_fingerprint`
        passes it as ``cut_key``.
        """
        from ..service.store import evaluation_fingerprint

        return evaluation_fingerprint(
            cut_key or self.cut_fingerprint(),
            params=self.circuit.parameters(),
            **{**self.config.evaluation_identity(), **identity},
        )

    def load_cut(
        self,
        cut: CutCircuit,
        solution: Optional[CutSolution] = None,
    ) -> "CutQC":
        """Adopt a previously computed cut, skipping the search stage.

        The cut must respect this pipeline's qubit budget and describe
        this pipeline's circuit; loading resets any downstream state
        (evaluation results, the reconstructor).
        """
        self._check_budget(cut, "loaded cut has")
        if cut.circuit.num_qubits != self.circuit.num_qubits:
            raise ValueError(
                f"loaded cut is for a {cut.circuit.num_qubits}-qubit "
                f"circuit, pipeline has {self.circuit.num_qubits}"
            )
        self._cut = cut
        self._cut_loaded = True
        self._solution = solution
        self._results = None
        self._reconstructor = None
        self.execution_report = None
        return self

    def load_results(self, results: Sequence[SubcircuitResult]) -> "CutQC":
        """Adopt previously evaluated subcircuit tensors, skipping variant
        execution (the service's warm-cache path)."""
        cut = self.cut()
        results = list(results)
        if len(results) != cut.num_subcircuits:
            raise ValueError(
                f"{len(results)} results for {cut.num_subcircuits} "
                "subcircuits"
            )
        self._results = results
        self._reconstructor = None
        self.execution_report = None
        return self

    def cut(self) -> CutCircuit:
        """Locate cuts (unless given explicitly) and split the circuit."""
        if self._cut is None:
            config = self.config
            if config.cuts is not None:
                self._cut = cut_circuit(self.circuit, config.cuts)
            else:
                # find_cuts opens the ``cut.search`` span and hands the
                # gate graph it keyed its memo on to ``apply``.
                self._solution = find_cuts(
                    self.circuit,
                    config.max_subcircuit_qubits,
                    max_subcircuits=config.max_subcircuits,
                    max_cuts=config.max_cuts,
                    method=config.method,
                )
                self._cut = self._solution.apply(self.circuit)
            self._check_budget(self._cut, "cut produced")
        return self._cut

    def _check_budget(self, cut: CutCircuit, source: str) -> None:
        width = cut.max_subcircuit_width()
        budget = self.config.max_subcircuit_qubits
        if width > budget:
            raise ValueError(
                f"{source} a {width}-qubit subcircuit, exceeding the "
                f"{budget}-qubit budget"
            )

    def evaluate(self) -> List[SubcircuitResult]:
        """Run every physical variant of every subcircuit, batched and
        deduplicated, via the :class:`VariantExecutor`."""
        if self._results is None:
            cut = self.cut()
            with trace.span(
                "evaluate", {"subcircuits": cut.num_subcircuits}
            ):
                self._results = self.executor.run(cut.subcircuits)
            self.execution_report = self.executor.last_report
        return self._results

    #: ``rebind(values) -> RebindStats``: bind new parameters into
    #: :attr:`circuit` and re-evaluate only the subcircuits they touched
    #: (the variational warm path, :mod:`repro.core.variational`).
    rebind = variational.rebind

    # ------------------------------------------------------------------
    def reconstructor(self) -> Reconstructor:
        """The one reconstructor over this pipeline's evaluated results,
        built on first use: every FD, streamed, top-k and exact DD query
        reads it (or its ``provider``) and so shares its collapse cache."""
        if self._reconstructor is None:
            self._reconstructor = Reconstructor(
                self.cut(), results=self.evaluate(), engine=self.engine
            )
        return self._reconstructor

    def fd_query(
        self,
        greedy_order: bool = True,
        early_termination: bool = True,
        strategy: Optional[str] = None,
    ) -> ReconstructionResult:
        """Full-definition query: the complete 2**n output distribution."""
        began = time.perf_counter()
        with trace.span(
            "query.fd", {"strategy": strategy or self.strategy}
        ):
            result = self.reconstructor().reconstruct(
                greedy_order=greedy_order,
                early_termination=early_termination,
                strategy=strategy,
            )
        _QUERY_SECONDS.observe(time.perf_counter() - began, mode="fd")
        return result

    def dd_query(
        self,
        max_active_qubits: int,
        max_recursions: int = 10,
        active_order: Optional[Sequence[int]] = None,
        shots_per_variant: Optional[int] = None,
        seed: Optional[int] = None,
        zoom_width: int = 1,
    ) -> DynamicDefinitionQuery:
        """Dynamic-definition query: binned sampling with recursive zoom.

        With ``shots_per_variant`` set, each collapse draws that many shots
        from every variant of this pipeline's evaluated results (the same
        :meth:`evaluate` that :meth:`fd_query` reads, on any backend,
        device or pool) and collapses the sampled frequencies (Algorithm
        1's shot-level execution mode) instead of the results themselves.
        ``seed`` seeds only those shot draws; device noise follows the
        pipeline's ``seed``, as it does for :meth:`fd_query`.

        ``zoom_width`` expands that many frontier bins per round (in
        parallel on the ``worker_pool``, if any).  An exact query reads
        :meth:`reconstructor`'s provider, so it reuses every collapse an
        earlier query on this pipeline cached.
        """
        began = time.perf_counter()
        with trace.span(
            "query.dd",
            {"active_qubits": max_active_qubits,
             "recursions": max_recursions},
        ):
            if shots_per_variant is None:
                provider = self.reconstructor().provider
            else:
                provider = ShotBasedTensorProvider(
                    self.cut(), self.evaluate(), shots=shots_per_variant,
                    seed=seed,
                )
            query = DynamicDefinitionQuery(
                provider,
                max_active_qubits=max_active_qubits,
                active_order=active_order,
                engine=self.engine,
                zoom_width=zoom_width,
            )
            query.run(max_recursions)
        _QUERY_SECONDS.observe(time.perf_counter() - began, mode="dd")
        return query

    # ------------------------------------------------------------------
    def fd_stream(
        self,
        shard_qubits: int,
        shard_indices: Optional[Sequence[int]] = None,
    ):
        """Streaming FD query: the distribution as ``2**shard_qubits``
        lazy shards of ``2**(n - shard_qubits)`` entries each.

        Shards concatenate (in index order) to exactly
        :meth:`fd_query`'s distribution, but only one shard is ever
        resident; :attr:`stream_stats` reports peak shard memory and the
        collapse-cache hit rate after (or while) the iterator is
        consumed.
        """
        with trace.span("query.stream", {"shard_qubits": shard_qubits}):
            reconstructor = self.reconstructor()
        return reconstructor.shards(shard_qubits, shard_indices)

    def fd_top_k(
        self,
        shard_qubits: int,
        k: int,
        shard_indices: Optional[Sequence[int]] = None,
    ) -> List[Tuple[str, float]]:
        """The k highest-probability output states, at streaming memory."""
        began = time.perf_counter()
        with trace.span(
            "query.top_k", {"shard_qubits": shard_qubits, "k": k}
        ):
            result = self.reconstructor().top_k(
                shard_qubits, k, shard_indices
            )
        _QUERY_SECONDS.observe(time.perf_counter() - began, mode="top_k")
        return result

    @property
    def stream_stats(self) -> Optional[StreamStats]:
        """Stats of the most recent :meth:`fd_stream`/:meth:`fd_top_k`."""
        if self._reconstructor is None:
            return None
        return self._reconstructor.last_stats

    @property
    def parallel_stats(self):
        """The shared worker pool's latency/utilization report (or None)."""
        if self.worker_pool is None:
            return None
        return self.worker_pool.stats()


def evaluate_with_cutqc(
    circuit: QuantumCircuit,
    max_subcircuit_qubits: int,
    backend: Optional[Backend] = None,
    **kwargs,
) -> np.ndarray:
    """One-call FD evaluation: returns the reconstructed distribution."""
    pipeline = CutQC(
        circuit,
        max_subcircuit_qubits,
        backend=backend,
        **kwargs,
    )
    return pipeline.fd_query().probabilities
