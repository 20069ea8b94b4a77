"""Shared partition model: the quantities of paper Eqs. (4)-(14).

Given a vertex->cluster assignment of the multiqubit-gate graph, this
module computes, per cluster ``c``:

* ``alpha_c`` — original input qubits (Eq. 4),
* ``rho_c``   — initialization qubits induced by incoming cuts (Eq. 5),
* ``O_c``     — measurement qubits induced by outgoing cuts (Eq. 6),
* ``f_c = alpha_c + rho_c - O_c`` — effective output qubits (Eq. 7),
* ``d_c = alpha_c + rho_c`` — device qubits needed (Eq. 9),

plus ``K`` (Eq. 13) and the reconstruction-cost objective ``L`` (Eq. 14).
Both the exact branch-and-bound searcher and the heuristics price
candidate partitions with these functions, so their objectives are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import CircuitGraph

__all__ = [
    "PartitionCost",
    "evaluate_partition",
    "objective_from_f",
    "CutSearchError",
    "CutSearchBudgetExceeded",
]


class CutSearchError(RuntimeError):
    """No feasible cut was found within the size/cut-count budgets.

    ``proved`` is True when an exhaustive search showed none exists and
    False when a search gave up (heuristics only, or a node budget).
    """

    def __init__(self, message: str, proved: bool = True):
        super().__init__(message)
        self.proved = proved

    def __reduce__(self):
        return type(self), (str(self), self.proved)


class CutSearchBudgetExceeded(CutSearchError):
    """The exact search hit its node limit before finishing."""

    def __init__(self, message: str, proved: bool = False):
        super().__init__(message, proved)


@dataclass
class PartitionCost:
    """Feasibility and cost of one candidate partition."""

    num_clusters: int
    num_cuts: int
    alpha: List[int]
    rho: List[int]
    O: List[int]
    feasible: bool
    violation: Optional[str]
    objective: float

    @property
    def f(self) -> List[int]:
        return [a + r - o for a, r, o in zip(self.alpha, self.rho, self.O)]

    @property
    def d(self) -> List[int]:
        return [a + r for a, r in zip(self.alpha, self.rho)]

    # -- serialization (artifact store) ---------------------------------
    def to_dict(self) -> Dict:
        """JSON-able form, restored bit-identically by :meth:`from_dict`."""
        return {
            "num_clusters": self.num_clusters,
            "num_cuts": self.num_cuts,
            "alpha": list(self.alpha),
            "rho": list(self.rho),
            "O": list(self.O),
            "feasible": self.feasible,
            "violation": self.violation,
            # inf is not valid JSON; encode infeasible costs as None.
            "objective": None if self.objective == float("inf") else self.objective,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PartitionCost":
        objective = payload["objective"]
        return cls(
            num_clusters=int(payload["num_clusters"]),
            num_cuts=int(payload["num_cuts"]),
            alpha=[int(a) for a in payload["alpha"]],
            rho=[int(r) for r in payload["rho"]],
            O=[int(o) for o in payload["O"]],
            feasible=bool(payload["feasible"]),
            violation=payload["violation"],
            objective=float("inf") if objective is None else float(objective),
        )


def objective_from_f(num_cuts: int, f_values: Sequence[int]) -> float:
    """Eq. (14): ``L = 4^K * sum_{c=2}^{nC} prod_{i<=c} 2^{f_i}``.

    ``f_values`` are taken in the reconstructor's greedy order (ascending),
    so the estimator prices the same Kronecker schedule the build step
    actually executes.  A single cluster (no cutting) has zero
    reconstruction cost.
    """
    ordered = sorted(f_values)
    if len(ordered) <= 1:
        return 0.0
    total = 0.0
    running = float(1 << ordered[0])
    for f_value in ordered[1:]:
        running *= float(1 << f_value)
        total += running
    return float(4**num_cuts) * total


def evaluate_partition(
    graph: CircuitGraph,
    assignment: Sequence[int],
    max_subcircuit_qubits: int,
    max_cuts: Optional[int] = None,
    max_subcircuits: Optional[int] = None,
) -> PartitionCost:
    """Price a partition and check the paper's feasibility constraints."""
    if len(assignment) != graph.num_vertices:
        raise ValueError(
            f"assignment covers {len(assignment)} vertices, graph has "
            f"{graph.num_vertices}"
        )
    num_clusters = max(assignment) + 1
    alpha = [0] * num_clusters
    rho = [0] * num_clusters
    outgoing = [0] * num_clusters

    for vertex in range(graph.num_vertices):
        alpha[assignment[vertex]] += graph.vertex_weights[vertex]

    num_cuts = 0
    for edge in graph.edges:
        source_cluster = assignment[edge.source]
        target_cluster = assignment[edge.target]
        if source_cluster != target_cluster:
            num_cuts += 1
            outgoing[source_cluster] += 1
            rho[target_cluster] += 1

    violation: Optional[str] = None
    for cluster in range(num_clusters):
        if alpha[cluster] + rho[cluster] > max_subcircuit_qubits:
            violation = (
                f"subcircuit {cluster} needs {alpha[cluster] + rho[cluster]} "
                f"qubits > limit {max_subcircuit_qubits}"
            )
            break
    if violation is None and max_cuts is not None and num_cuts > max_cuts:
        violation = f"{num_cuts} cuts > limit {max_cuts}"
    if violation is None and max_subcircuits is not None and num_clusters > max_subcircuits:
        violation = f"{num_clusters} subcircuits > limit {max_subcircuits}"
    if violation is None and any(count == 0 for count in _cluster_sizes(assignment, num_clusters)):
        violation = "empty subcircuit in assignment"

    feasible = violation is None
    f_values = [a + r - o for a, r, o in zip(alpha, rho, outgoing)]
    objective = objective_from_f(num_cuts, f_values) if feasible else float("inf")
    return PartitionCost(
        num_clusters=num_clusters,
        num_cuts=num_cuts,
        alpha=alpha,
        rho=rho,
        O=outgoing,
        feasible=feasible,
        violation=violation,
        objective=objective,
    )


def _cluster_sizes(assignment: Sequence[int], num_clusters: int) -> List[int]:
    sizes = [0] * num_clusters
    for cluster in assignment:
        sizes[cluster] += 1
    return sizes
