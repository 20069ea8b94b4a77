"""Tests for the branch-and-bound cut searcher (our Gurobi stand-in)."""

import itertools

import numpy as np
import pytest

from repro import QuantumCircuit, build_circuit_graph
from repro.cutting import (
    CutSearchBudgetExceeded,
    CutSearchError,
    MIPCutSearcher,
    branch_and_bound_search,
    evaluate_partition,
)
from tests.conftest import random_connected_circuit


def brute_force_optimum(graph, max_qubits, max_subcircuits, max_cuts):
    """Exhaustively enumerate all partitions (small graphs only)."""
    best = None
    n = graph.num_vertices
    for labels in itertools.product(range(max_subcircuits), repeat=n):
        num_clusters = max(labels) + 1
        if num_clusters < 2:
            continue
        if set(labels) != set(range(num_clusters)):
            continue
        cost = evaluate_partition(
            graph,
            list(labels),
            max_qubits,
            max_cuts=max_cuts,
            max_subcircuits=max_subcircuits,
        )
        if cost.feasible and (best is None or cost.objective < best):
            best = cost.objective
    return best


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force_on_random_circuits(self, seed):
        circuit = random_connected_circuit(4, 7, seed, with_1q=False)
        graph = build_circuit_graph(circuit)
        expected = brute_force_optimum(graph, 3, 3, 10)
        if expected is None:
            with pytest.raises(CutSearchError):
                branch_and_bound_search(graph, 3, 3, 10)
        else:
            _, cost = branch_and_bound_search(graph, 3, 3, 10)
            assert cost.objective == pytest.approx(expected)

    @pytest.mark.parametrize("max_qubits", [3, 4])
    def test_matches_brute_force_on_chain(self, max_qubits):
        circuit = QuantumCircuit(5)
        for q in range(4):
            circuit.cx(q, q + 1)
        circuit.cx(1, 2)
        graph = build_circuit_graph(circuit)
        expected = brute_force_optimum(graph, max_qubits, 3, 10)
        _, cost = branch_and_bound_search(graph, max_qubits, 3, 10)
        assert cost.objective == pytest.approx(expected)

    def test_fig4_optimal_is_single_cut(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        assignment, cost = branch_and_bound_search(graph, 3, 5, 10)
        assert cost.num_cuts == 1
        assert sorted(cost.d) == [3, 3]


class TestConstraints:
    def test_capacity_respected(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        _, cost = branch_and_bound_search(graph, 3, 5, 10)
        assert all(d <= 3 for d in cost.d)

    def test_cut_budget_respected(self):
        circuit = QuantumCircuit(6)
        for q in range(5):
            circuit.cx(q, q + 1)
        graph = build_circuit_graph(circuit)
        _, cost = branch_and_bound_search(graph, 4, 5, max_cuts=2)
        assert cost.num_cuts <= 2

    def test_infeasible_raises(self):
        # A 3-qubit all-to-all circuit cannot fit 2-qubit subcircuits
        # within one cut.
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        graph = build_circuit_graph(circuit)
        with pytest.raises(CutSearchError):
            branch_and_bound_search(graph, 2, 2, max_cuts=1)

    def test_every_vertex_assigned_exactly_once(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        assignment, _ = branch_and_bound_search(graph, 3, 5, 10)
        assert len(assignment) == graph.num_vertices
        assert all(a >= 0 for a in assignment)

    def test_symmetry_breaking_labels_contiguous(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        assignment, _ = branch_and_bound_search(graph, 3, 5, 10)
        labels = sorted(set(assignment))
        assert labels == list(range(len(labels)))
        assert assignment[0] == 0  # vertex 1 in subcircuit 1 (Eq. 12)

    def test_parameter_validation(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        with pytest.raises(ValueError):
            MIPCutSearcher(graph, 1)
        with pytest.raises(ValueError):
            MIPCutSearcher(graph, 3, max_subcircuits=1)

    def test_node_limit_enforced(self):
        circuit = random_connected_circuit(6, 14, seed=9, with_1q=False)
        graph = build_circuit_graph(circuit)
        searcher = MIPCutSearcher(graph, 4, node_limit=10)
        with pytest.raises(CutSearchError, match="node limit"):
            searcher.search()

    def test_node_limit_is_a_typed_give_up(self):
        circuit = random_connected_circuit(6, 14, seed=9, with_1q=False)
        searcher = MIPCutSearcher(build_circuit_graph(circuit), 4, node_limit=10)
        with pytest.raises(CutSearchBudgetExceeded) as caught:
            searcher.search()
        assert caught.value.proved is False
        assert searcher.nodes_visited == 11

    def test_exhausted_search_is_a_proof(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        with pytest.raises(CutSearchError) as caught:
            branch_and_bound_search(build_circuit_graph(circuit), 2, 2, max_cuts=1)
        assert type(caught.value) is CutSearchError and caught.value.proved

    @pytest.mark.parametrize(
        "family,qubits,device,nodes",
        [("aqft", 8, 5, 2338), ("bv", 11, 5, 93), ("hwea", 12, 7, 12)],
    )
    def test_search_order_is_pinned(self, family, qubits, device, nodes):
        """Same depth-first order, same three prunes: the node count of a
        search is part of what a rewrite of the recursion must keep."""
        from repro.library import get_benchmark

        graph = build_circuit_graph(get_benchmark(family, qubits))
        searcher = MIPCutSearcher(graph, device)
        assignment, cost = searcher.search()
        assert searcher.nodes_visited == nodes
        assert cost == evaluate_partition(graph, assignment, device, 10, 5)

    def test_nodes_visited_reported(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        searcher = MIPCutSearcher(graph, 3)
        searcher.search()
        assert searcher.nodes_visited > 0


class TestSolutionUsability:
    def test_solution_reconstructs_exactly(self, fig4_circuit):
        from repro import (
            Reconstructor,
            cut_circuit_from_assignment,
            simulate_probabilities,
        )
        from tests.variant_oracle import evaluate_subcircuit

        graph = build_circuit_graph(fig4_circuit)
        assignment, _ = branch_and_bound_search(graph, 3, 5, 10)
        cut = cut_circuit_from_assignment(fig4_circuit, assignment)
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        rec = Reconstructor(cut, results=results).reconstruct()
        assert np.allclose(
            rec.probabilities, simulate_probabilities(fig4_circuit), atol=1e-10
        )
