"""Full-definition (FD) reconstruction — paper §4.2.

The uncut distribution is the sum over all ``4^K`` cut-term assignments of
the Kronecker product of the subcircuits' term vectors, scaled by
``1/2^K``.  The actual contraction lives in the shared
:mod:`~repro.postprocess.engine`; this module keeps the FD-specific
plumbing — greedy subcircuit ordering, wire-order restoration, and the
stats the benches report — and implements the paper's three
optimizations through the engine:

* **greedy subcircuit order** — Kronecker products accumulate smallest
  subcircuits first, minimizing carry-over vector sizes;
* **early termination** — a term whose component vector is all zeros
  contributes nothing and is skipped;
* **parallel processing** — the ``4^K`` term space is range-split across
  the engine's :class:`~repro.postprocess.parallel.WorkerPool` with no
  inter-worker communication (the paper's compute-node model).

The engine's ``tensor_network`` strategy (greedy pairwise contraction of
the same tensors) computes the identical output without the explicit 4^K
enumeration, and ``auto`` picks between the two from a cost model.

The FD query materializes the full ``2**n`` vector; for circuits past
that memory wall use :class:`~repro.postprocess.stream.StreamingReconstructor`
(sharded streaming FD) or the DD query instead — all three dispatch
through the same :class:`~repro.postprocess.plan.QueryPlan` abstraction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit
from ..cutting.variants import SubcircuitResult
from .attribution import TermTensor, build_term_tensor
from .engine import DEFAULT_STRATEGY, STRATEGIES, ContractionEngine
from .plan import PrecomputedTensorProvider, QueryPlan

__all__ = [
    "ReconstructionStats",
    "ReconstructionResult",
    "Reconstructor",
    "reconstruct_full",
]


@dataclass
class ReconstructionStats:
    """Bookkeeping the benches report alongside the distribution."""

    num_cuts: int
    num_terms: int
    num_skipped: int
    elapsed_seconds: float
    #: Size of the engine's worker pool (1 when the query ran inline).
    workers: int
    strategy: str
    subcircuit_order: Tuple[int, ...]


@dataclass
class ReconstructionResult:
    probabilities: np.ndarray  # original circuit qubit order
    stats: ReconstructionStats


class Reconstructor:
    """FD reconstruction engine bound to one cut circuit's results."""

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
        self.tensors = sorted(tensors, key=lambda t: t.subcircuit_index)
        if len(self.tensors) != cut_circuit.num_subcircuits:
            raise ValueError(
                f"{len(self.tensors)} tensors for "
                f"{cut_circuit.num_subcircuits} subcircuits"
            )
        # FD dispatches through the same provider/plan layer as DD and
        # streaming queries; the collapse cache is shared across calls.
        self.provider = PrecomputedTensorProvider(
            cut_circuit, tensors=self.tensors
        )

    # ------------------------------------------------------------------
    def subcircuit_order(self, greedy: bool = True) -> List[int]:
        """Greedy order: smallest effective size first (§4.2)."""
        indices = list(range(len(self.tensors)))
        if greedy:
            indices.sort(key=lambda i: self.tensors[i].num_effective)
        return indices

    def reconstruct(
        self,
        greedy_order: bool = True,
        early_termination: Optional[bool] = None,
        strategy: Optional[str] = None,
    ) -> ReconstructionResult:
        """Compute the full 2**n distribution of the uncut circuit.

        ``early_termination`` and ``strategy`` default to the bound
        :class:`~repro.postprocess.engine.ContractionEngine`'s settings
        when not given; the engine's worker pool (if any) runs the sweep.
        """
        strategy = self.engine.strategy if strategy is None else strategy
        if early_termination is None:
            early_termination = self.engine.early_termination
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        began = time.perf_counter()
        num_cuts = self.cut_circuit.num_cuts
        order = self.subcircuit_order(greedy_order)
        plan = QueryPlan.full(self.cut_circuit.circuit.num_qubits, num_cuts)
        execution = plan.execute(
            self.provider,
            self.engine,
            order=order,
            strategy=strategy,
            early_termination=early_termination,
        )
        elapsed = time.perf_counter() - began
        stats = ReconstructionStats(
            num_cuts=num_cuts,
            num_terms=4**num_cuts,
            num_skipped=execution.contraction.num_skipped,
            elapsed_seconds=elapsed,
            workers=self.engine.pool.workers if self.engine.pool else 1,
            strategy=execution.contraction.strategy,
            subcircuit_order=tuple(order),
        )
        return ReconstructionResult(
            probabilities=execution.probabilities, stats=stats
        )


def reconstruct_full(
    cut_circuit: CutCircuit,
    results: Sequence[SubcircuitResult],
    greedy_order: bool = True,
    early_termination: bool = True,
    strategy: str = DEFAULT_STRATEGY,
) -> ReconstructionResult:
    """One-call FD query: results -> full uncut distribution."""
    reconstructor = Reconstructor(cut_circuit, results=results)
    return reconstructor.reconstruct(
        greedy_order=greedy_order,
        early_termination=early_termination,
        strategy=strategy,
    )
