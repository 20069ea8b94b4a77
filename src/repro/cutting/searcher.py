"""Cut-search front-end: pick a solver, return a priced `CutSolution`.

``find_cuts`` mirrors the paper's workflow (Fig. 5): given the input
circuit and the device size ``D`` (plus the experiment limits of §5.1 —
at most 5 subcircuits and 10 cuts), it locates the cut set minimizing the
postprocessing-cost objective of Eq. (14).  Small instances are solved
exactly with branch and bound (our stand-in for Gurobi); large ones fall
back to the scan + local-search heuristics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..circuits import CircuitGraph, QuantumCircuit, build_circuit_graph
from ..obs import trace
from .cutter import CutCircuit, cut_circuit_from_assignment
from .heuristics import heuristic_search
from .mip import branch_and_bound_search
from .model import CutSearchBudgetExceeded, CutSearchError, PartitionCost

__all__ = [
    "CutSolution",
    "find_cuts",
    "clear_cut_memo",
    "cut_memo_stats",
    "DEFAULT_MAX_SUBCIRCUITS",
    "DEFAULT_MAX_CUTS",
    "METHODS",
]

#: The experiment limits the paper uses throughout §5/§6.
DEFAULT_MAX_SUBCIRCUITS = 5
DEFAULT_MAX_CUTS = 10
#: The cut-search solvers ``find_cuts(method=...)`` accepts.
METHODS = ("auto", "mip", "heuristic")

#: Above this vertex count the exact search is usually intractable.
_EXACT_VERTEX_LIMIT = 22

#: Search-outcome memo: the searchers read the gate graph's vertex weights,
#: its ``(source, target)`` edge list and the budgets — never angles,
#: single-qubit gates or the backend — so that tuple *is* the key and a hit
#: cannot be stale.  Values are private copies: ``(assignment, cost,
#: method)``, or the ``(type, message, proved)`` of a refusal.
_CUT_MEMO: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_CUT_MEMO_LIMIT = 64
_CUT_MEMO_LOCK = threading.Lock()
_CUT_MEMO_STATS = {"hits": 0, "misses": 0}


def cut_memo_stats() -> Dict[str, int]:
    """Per-process ``{hits, misses, size}`` of :func:`find_cuts`' memo."""
    with _CUT_MEMO_LOCK:
        return dict(_CUT_MEMO_STATS, size=len(_CUT_MEMO))


def clear_cut_memo() -> None:
    """Forget every memoised search and zero the counters."""
    with _CUT_MEMO_LOCK:
        _CUT_MEMO.clear()
        _CUT_MEMO_STATS.update(hits=0, misses=0)


@dataclass
class CutSolution:
    """A priced cut: the partition, its cost, and the cut positions."""

    assignment: List[int]
    cost: PartitionCost
    method: str
    #: The gate graph :func:`find_cuts` built of the searched circuit;
    #: :meth:`apply` splits that circuit with it instead of rebuilding it.
    graph: Optional[CircuitGraph] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_cuts(self) -> int:
        return self.cost.num_cuts

    @property
    def objective(self) -> float:
        return self.cost.objective

    def apply(self, circuit: QuantumCircuit) -> CutCircuit:
        """Cut ``circuit`` according to this solution."""
        graph = self.graph
        if graph is not None and graph.circuit is not circuit:
            graph = None
        return cut_circuit_from_assignment(circuit, self.assignment, graph=graph)

    # -- serialization (artifact store) ---------------------------------
    def to_dict(self) -> Dict:
        """JSON-able form, restored bit-identically by :meth:`from_dict`."""
        return {
            "assignment": list(self.assignment),
            "cost": self.cost.to_dict(),
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CutSolution":
        return cls(
            assignment=[int(a) for a in payload["assignment"]],
            cost=PartitionCost.from_dict(payload["cost"]),
            method=str(payload["method"]),
        )


def _copy_cost(cost: PartitionCost) -> PartitionCost:
    return replace(
        cost, alpha=list(cost.alpha), rho=list(cost.rho), O=list(cost.O)
    )


def _remember(key: Tuple, outcome: Tuple) -> None:
    with _CUT_MEMO_LOCK:
        _CUT_MEMO[key] = outcome
        while len(_CUT_MEMO) > _CUT_MEMO_LIMIT:
            _CUT_MEMO.popitem(last=False)


def _search(
    graph: CircuitGraph, budgets: Tuple[int, int, int], method: str
) -> Tuple[List[int], PartitionCost, str]:
    """Run the solver ``method`` names: ``(assignment, cost, solver)``."""
    if method == "mip" or (
        method == "auto" and graph.num_vertices <= _EXACT_VERTEX_LIMIT
    ):
        try:
            return (*branch_and_bound_search(graph, *budgets), "mip")
        except CutSearchBudgetExceeded:
            if method == "mip":
                raise
    return (*heuristic_search(graph, *budgets), "heuristic")


def find_cuts(
    circuit: QuantumCircuit,
    max_subcircuit_qubits: int,
    max_subcircuits: int = DEFAULT_MAX_SUBCIRCUITS,
    max_cuts: int = DEFAULT_MAX_CUTS,
    method: str = "auto",
) -> CutSolution:
    """Locate the cheapest cut of ``circuit`` onto a ``D``-qubit device.

    The outcome is memoised per process on what the search reads (see
    ``_CUT_MEMO``): circuits sharing a multi-qubit-gate graph and budgets
    share one search, and every call returns its own ``CutSolution``.

    Parameters
    ----------
    method:
        ``"mip"`` forces the exact branch-and-bound search, ``"heuristic"``
        forces scan + local search, ``"auto"`` (default) picks by circuit
        size and falls back to the heuristic if the exact search exceeds
        its node budget.

    Raises
    ------
    CutSearchError
        If no feasible cut was found within the budgets; ``error.proved``
        says whether the exact search exhausted them or a search gave up.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    with trace.span(
        "cut.search", {"qubits": circuit.num_qubits, "method": method}
    ) as span:
        graph = build_circuit_graph(circuit)
        budgets = (max_subcircuit_qubits, max_subcircuits, max_cuts)
        key = (
            tuple(graph.vertex_weights),
            tuple((edge.source, edge.target) for edge in graph.edges),
            budgets,
            method,
        )
        with _CUT_MEMO_LOCK:
            outcome = _CUT_MEMO.get(key)
            if outcome is not None:
                _CUT_MEMO.move_to_end(key)
            _CUT_MEMO_STATS["misses" if outcome is None else "hits"] += 1
        span.set(
            memo="miss" if outcome is None else "hit",
            vertices=graph.num_vertices,
        )
        if outcome is None:
            try:
                assignment, cost, solver = _search(graph, budgets, method)
            except CutSearchError as error:
                _remember(key, (type(error), str(error), error.proved))
                raise
            _remember(key, (tuple(assignment), _copy_cost(cost), solver))
        elif isinstance(outcome[0], type):
            refusal, message, proved = outcome
            raise refusal(message, proved=proved)
        else:
            assignment, cost, solver = outcome
            assignment, cost = list(assignment), _copy_cost(cost)
        span.set(searcher=solver)
        return CutSolution(assignment, cost, solver, graph)


def cut_positions(solution: CutSolution, circuit: QuantumCircuit) -> List[Tuple[int, int]]:
    """The ``(wire, wire_index)`` cut points implied by a solution."""
    cut = solution.apply(circuit)
    return [(c.wire, c.wire_index) for c in cut.cuts]
