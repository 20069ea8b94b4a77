"""Exact cut search: the paper's MIP (Eqs. 4-15) via branch and bound.

The paper hands this model to Gurobi; offline we solve it with a custom
depth-first branch and bound over cluster assignments.  The search keeps
the paper's symmetry-breaking rule (Eq. 12) — vertex ``v`` may only join
clusters ``0..min(v, nC-1)``, i.e. a new cluster is opened only by the
lowest-index vertex that uses it — and prunes on:

* **capacity** — a cluster's ``alpha + rho`` lower bound already exceeds
  the device size ``D`` (rho never decreases as more vertices commit);
* **cut budget** — committed cut edges already exceed ``max_cuts``;
* **objective bound** — ``4^K`` with the committed ``K`` already matches
  or exceeds the incumbent (the remaining factor of Eq. 14 is >= 1).

Exact optimality is cross-checked against brute-force enumeration in the
test suite for small instances.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..circuits import CircuitGraph
from .model import (
    CutSearchBudgetExceeded,
    CutSearchError,
    PartitionCost,
    evaluate_partition,
)

__all__ = ["MIPCutSearcher", "branch_and_bound_search"]


class MIPCutSearcher:
    """Branch-and-bound solver for the cut-search MIP."""

    def __init__(
        self,
        graph: CircuitGraph,
        max_subcircuit_qubits: int,
        max_subcircuits: int = 5,
        max_cuts: int = 10,
        node_limit: int = 5_000_000,
    ):
        if max_subcircuit_qubits < 2:
            raise ValueError("max_subcircuit_qubits must be at least 2")
        if max_subcircuits < 2:
            raise ValueError("max_subcircuits must be at least 2")
        self.graph = graph
        self.max_qubits = int(max_subcircuit_qubits)
        self.max_subcircuits = int(max_subcircuits)
        self.max_cuts = int(max_cuts)
        self.node_limit = int(node_limit)
        # Upstream neighbours per vertex, one entry per wire edge.  Vertices
        # are assigned in index order and edges point forward in time, so
        # every source is committed before its target and the cuts a vertex
        # adds are its sources sitting in other clusters.
        self._sources: List[List[int]] = [[] for _ in graph.vertex_weights]
        for edge in graph.edges:
            self._sources[edge.target].append(edge.source)
        self._nodes_visited = 0
        # Sum of f_c over clusters is always the circuit qubit count n
        # (Eq. 7 telescopes: rho and O cancel across a cut), so Eq. 14's
        # last prefix product is exactly 2^n and L >= 4^K * 2^n; K never
        # exceeds the cut budget or the edge count.
        output_factor = float(2 ** sum(graph.vertex_weights))
        self._bounds = [
            float(4**k) * output_factor
            for k in range(min(self.max_cuts, graph.num_edges) + 1)
        ]

    # ------------------------------------------------------------------
    def search(self) -> Tuple[List[int], PartitionCost]:
        """Return the optimal assignment and its cost.

        Raises :class:`CutSearchError` if no feasible partition into
        2..max_subcircuits clusters exists within the cut budget, and
        :class:`CutSearchBudgetExceeded` past ``node_limit`` nodes.
        """
        best_assignment: Optional[List[int]] = None
        best_objective = float("inf")
        num_vertices = self.graph.num_vertices
        weights, sources = self.graph.vertex_weights, self._sources
        bounds, max_qubits, max_cuts = self._bounds, self.max_qubits, self.max_cuts
        max_subcircuits, node_limit = self.max_subcircuits, self.node_limit
        # Entries at or past the vertex being placed are stale, never read.
        assignment = [-1] * num_vertices
        alpha = [0] * max_subcircuits
        rho = [0] * max_subcircuits
        nodes = 0

        def recurse(vertex: int, num_cuts: int, clusters_open: int) -> None:
            nonlocal best_assignment, best_objective, nodes
            nodes += 1
            if nodes > node_limit:
                raise CutSearchBudgetExceeded(
                    f"branch-and-bound node limit {node_limit} exceeded; "
                    "use a heuristic method for this circuit"
                )
            if vertex == num_vertices:
                if clusters_open < 2:
                    return  # not actually cut
                cost = evaluate_partition(
                    self.graph,
                    assignment,
                    max_qubits,
                    max_cuts=max_cuts,
                    max_subcircuits=max_subcircuits,
                )
                if cost.feasible and cost.objective < best_objective:
                    best_objective = cost.objective
                    best_assignment = list(assignment)
                return
            weight = weights[vertex]
            # Symmetry breaking (Eq. 12): open at most one new cluster.
            for cluster in range(min(clusters_open + 1, max_subcircuits)):
                new_cuts = 0
                for source in sources[vertex]:
                    if assignment[source] != cluster:
                        new_cuts += 1
                cuts = num_cuts + new_cuts
                if cuts > max_cuts:
                    continue  # cut budget
                if alpha[cluster] + weight + rho[cluster] + new_cuts > max_qubits:
                    continue  # capacity
                if bounds[cuts] >= best_objective:
                    continue  # objective bound
                assignment[vertex] = cluster
                alpha[cluster] += weight
                rho[cluster] += new_cuts
                recurse(vertex + 1, cuts, max(clusters_open, cluster + 1))
                alpha[cluster] -= weight
                rho[cluster] -= new_cuts

        try:
            recurse(0, 0, 0)
        finally:
            self._nodes_visited = nodes
        if best_assignment is None:
            raise CutSearchError(
                f"no feasible cut into <= {self.max_subcircuits} subcircuits of "
                f"<= {self.max_qubits} qubits within {self.max_cuts} cuts"
            )
        final_cost = evaluate_partition(
            self.graph,
            best_assignment,
            self.max_qubits,
            max_cuts=self.max_cuts,
            max_subcircuits=self.max_subcircuits,
        )
        return best_assignment, final_cost

    @property
    def nodes_visited(self) -> int:
        return self._nodes_visited


def branch_and_bound_search(
    graph: CircuitGraph,
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
    node_limit: int = 5_000_000,
) -> Tuple[List[int], PartitionCost]:
    """Functional front-end to :class:`MIPCutSearcher`."""
    searcher = MIPCutSearcher(
        graph,
        max_subcircuit_qubits,
        max_subcircuits=max_subcircuits,
        max_cuts=max_cuts,
        node_limit=node_limit,
    )
    return searcher.search()
