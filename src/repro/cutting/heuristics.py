"""Heuristic cut searchers for circuits too large for branch and bound.

Two stages, both priced with the exact objective of Eq. (14) via
:func:`~repro.cutting.model.evaluate_partition`:

* **scan partitioning** — vertices (multiqubit gates) are already in
  topological/time order, so contiguous blocks of that order are natural
  timewise cuts.  A greedy pass opens a new block whenever the device
  capacity would be exceeded, for every candidate block count.
* **local search** — hill climbing over single-vertex reassignment moves,
  keeping the best feasible partition found.

For the paper's benchmark families (linear or grid-structured circuits)
the scan seed is already near optimal; local search recovers most of the
remaining gap.  Optimality versus branch and bound is measured on small
instances in the test suite.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits import CircuitGraph
from ..flatgraph import kernighan_lin_bisection, weighted_adjacency
from .model import CutSearchError, PartitionCost, evaluate_partition

__all__ = ["scan_partition", "local_search", "heuristic_search"]


def _balanced_blocks(num_vertices: int, num_blocks: int) -> List[int]:
    """Assignment splitting vertex order into equal contiguous blocks."""
    bounds = np.linspace(0, num_vertices, num_blocks + 1).astype(int)
    assignment = [0] * num_vertices
    for block in range(num_blocks):
        for vertex in range(bounds[block], bounds[block + 1]):
            assignment[vertex] = block
    return assignment


def scan_partition(
    graph: CircuitGraph,
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
) -> Tuple[Optional[List[int]], PartitionCost]:
    """Best contiguous-block partition over candidate block counts."""
    best_assignment: Optional[List[int]] = None
    best_cost: Optional[PartitionCost] = None
    for num_blocks in range(2, max_subcircuits + 1):
        for assignment in _scan_candidates(graph, num_blocks, max_subcircuit_qubits):
            cost = evaluate_partition(
                graph,
                assignment,
                max_subcircuit_qubits,
                max_cuts=max_cuts,
                max_subcircuits=max_subcircuits,
            )
            if cost.feasible and (
                best_cost is None or cost.objective < best_cost.objective
            ):
                best_assignment, best_cost = assignment, cost
    if best_cost is None:
        best_cost = PartitionCost(
            num_clusters=0,
            num_cuts=0,
            alpha=[],
            rho=[],
            O=[],
            feasible=False,
            violation="no feasible scan partition",
            objective=float("inf"),
        )
    return best_assignment, best_cost


def _scan_candidates(
    graph: CircuitGraph, num_blocks: int, max_qubits: int
) -> List[List[int]]:
    """Candidate contiguous partitions: balanced plus greedy capacity fill."""
    candidates = [_balanced_blocks(graph.num_vertices, num_blocks)]
    greedy = _greedy_fill(graph, num_blocks, max_qubits)
    if greedy is not None:
        candidates.append(greedy)
    return candidates


def kl_partition(
    graph: CircuitGraph,
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
) -> Tuple[Optional[List[int]], PartitionCost]:
    """Kernighan–Lin recursive bisection seed (min-edge-cut partitions).

    Timewise scans miss the *spacetime* cuts that grid-structured circuits
    (supremacy) need; KL bisection of the undirected multiqubit-gate graph
    minimizes crossing edges directly.  Oversized parts are bisected again
    until everything fits or the subcircuit budget runs out.
    """
    undirected = weighted_adjacency(
        graph.num_vertices, ((edge.source, edge.target) for edge in graph.edges)
    )

    best_assignment: Optional[List[int]] = None
    best_cost: Optional[PartitionCost] = None
    for kl_seed in range(4):
        parts: List[set] = [set(range(graph.num_vertices))]
        while len(parts) < max_subcircuits:
            # Bisect the part whose qubit demand is largest.
            parts.sort(key=lambda p: -_part_alpha(graph, p))
            target = parts[0]
            if len(target) < 2:
                break
            half_a, half_b = kernighan_lin_bisection(undirected, target, kl_seed)
            if not half_a or not half_b:
                break
            parts = parts[1:] + [set(half_a), set(half_b)]
            if len(parts) < 2:
                continue
            assignment = [0] * graph.num_vertices
            for label, members in enumerate(parts):
                for vertex in members:
                    assignment[vertex] = label
            cost = evaluate_partition(
                graph,
                assignment,
                max_subcircuit_qubits,
                max_cuts=max_cuts,
                max_subcircuits=max_subcircuits,
            )
            if cost.feasible and (
                best_cost is None or cost.objective < best_cost.objective
            ):
                best_assignment, best_cost = assignment, cost
    if best_cost is None:
        best_cost = PartitionCost(
            num_clusters=0,
            num_cuts=0,
            alpha=[],
            rho=[],
            O=[],
            feasible=False,
            violation="no feasible KL partition",
            objective=float("inf"),
        )
    return best_assignment, best_cost


def _part_alpha(graph: CircuitGraph, part: set) -> int:
    return sum(graph.vertex_weights[v] for v in part)


def _greedy_fill(
    graph: CircuitGraph, num_blocks: int, max_qubits: int
) -> Optional[List[int]]:
    """Grow each block until adding the next vertex would exceed capacity.

    Capacity is approximated during the pass with alpha plus incoming cut
    edges so far; the exact feasibility check happens in the caller.
    """
    assignment = [0] * graph.num_vertices
    block = 0
    alpha = 0
    rho = 0
    incoming = {v: [] for v in range(graph.num_vertices)}
    for edge in graph.edges:
        incoming[edge.target].append(edge.source)
    for vertex in range(graph.num_vertices):
        weight = graph.vertex_weights[vertex]
        new_rho = sum(
            1 for source in incoming[vertex] if assignment[source] != block
        )
        if alpha + weight + rho + new_rho > max_qubits and alpha > 0:
            block += 1
            if block >= num_blocks:
                return None
            alpha = 0
            rho = sum(
                1 for source in incoming[vertex] if assignment[source] != block
            )
        else:
            rho += new_rho
        assignment[vertex] = block
        alpha += weight
    if block != num_blocks - 1:
        return None  # did not use the requested number of blocks
    return assignment


def local_search(
    graph: CircuitGraph,
    assignment: List[int],
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
    max_rounds: int = 20,
) -> Tuple[List[int], PartitionCost]:
    """Hill-climb single-vertex moves from a feasible seed partition.

    Only *boundary* vertices (endpoints of cut edges) are candidates for
    reassignment — moving an interior vertex can only add cuts — which
    keeps each round near-linear in the number of cut edges.
    """
    current = list(assignment)
    current_cost = evaluate_partition(
        graph,
        current,
        max_subcircuit_qubits,
        max_cuts=max_cuts,
        max_subcircuits=max_subcircuits,
    )
    if not current_cost.feasible:
        raise ValueError(f"seed partition infeasible: {current_cost.violation}")
    for _ in range(max_rounds):
        improved = False
        num_clusters = current_cost.num_clusters
        boundary = _boundary_vertices(graph, current)
        for vertex in boundary:
            original = current[vertex]
            for cluster in range(num_clusters):
                if cluster == original:
                    continue
                current[vertex] = cluster
                candidate = _evaluate_normalized(
                    graph,
                    current,
                    max_subcircuit_qubits,
                    max_cuts,
                    max_subcircuits,
                )
                if (
                    candidate is not None
                    and candidate[1].objective < current_cost.objective
                ):
                    current = candidate[0]
                    current_cost = candidate[1]
                    improved = True
                    break
                current[vertex] = original
            if improved:
                break
        if not improved:
            break
    return current, current_cost


def _boundary_vertices(graph: CircuitGraph, assignment: List[int]) -> List[int]:
    boundary = set()
    for edge in graph.edges:
        if assignment[edge.source] != assignment[edge.target]:
            boundary.add(edge.source)
            boundary.add(edge.target)
    return sorted(boundary)


def _evaluate_normalized(
    graph: CircuitGraph,
    assignment: List[int],
    max_qubits: int,
    max_cuts: int,
    max_subcircuits: int,
) -> Optional[Tuple[List[int], PartitionCost]]:
    """Compact cluster labels (a move may empty a cluster) and price."""
    labels = sorted(set(assignment))
    if len(labels) < 2:
        return None
    remap = {label: index for index, label in enumerate(labels)}
    normalized = [remap[c] for c in assignment]
    cost = evaluate_partition(
        graph,
        normalized,
        max_qubits,
        max_cuts=max_cuts,
        max_subcircuits=max_subcircuits,
    )
    if not cost.feasible:
        return None
    return normalized, cost


def heuristic_search(
    graph: CircuitGraph,
    max_subcircuit_qubits: int,
    max_subcircuits: int = 5,
    max_cuts: int = 10,
    refine: bool = True,
) -> Tuple[List[int], PartitionCost]:
    """Best of the scan and KL seeds, plus local-search refinement."""
    seeds = []
    for searcher in (scan_partition, kl_partition):
        assignment, cost = searcher(
            graph,
            max_subcircuit_qubits,
            max_subcircuits=max_subcircuits,
            max_cuts=max_cuts,
        )
        if assignment is not None:
            seeds.append((assignment, cost))
    if not seeds:
        raise CutSearchError(
            f"heuristic search gave up: no scan or KL seed cuts into <= "
            f"{max_subcircuits} subcircuits of <= {max_subcircuit_qubits} "
            f"qubits within {max_cuts} cuts (a cut may still exist)",
            proved=False,
        )
    if refine:
        refined = []
        for assignment, cost in seeds:
            refined.append(
                local_search(
                    graph,
                    assignment,
                    max_subcircuit_qubits,
                    max_subcircuits=max_subcircuits,
                    max_cuts=max_cuts,
                )
            )
        seeds = refined
    return min(seeds, key=lambda item: item[1].objective)
