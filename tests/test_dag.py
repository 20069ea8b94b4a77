"""Tests for the multiqubit-gate cut graph."""

import pytest

from repro import QuantumCircuit, build_circuit_graph


class TestGraphConstruction:
    def test_fig4_structure(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        # Four cZ gates -> 4 vertices; edges: q1 (cz01-cz12), q2
        # (cz12-cz23), q3 (cz23-cz34) -> 3 edges.
        assert graph.num_vertices == 4
        assert graph.num_edges == 3
        wires = sorted(edge.wire for edge in graph.edges)
        assert wires == [1, 2, 3]

    def test_single_qubit_gates_ignored(self):
        a = QuantumCircuit(2).h(0).t(1).cx(0, 1).s(0)
        b = QuantumCircuit(2).cx(0, 1)
        ga, gb = build_circuit_graph(a), build_circuit_graph(b)
        assert ga.num_vertices == gb.num_vertices == 1
        assert ga.num_edges == gb.num_edges == 0

    def test_vertex_weights_count_first_touch(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        # cz(0,1) first touches q0 and q1 -> weight 2; cz(1,2) first
        # touches q2 -> weight 1; cz(2,3): q3 -> 1; cz(3,4): q4 -> 1.
        assert graph.vertex_weights == [2, 1, 1, 1]
        assert sum(graph.vertex_weights) == fig4_circuit.num_qubits

    def test_weights_sum_to_qubits_generically(self):
        circuit = QuantumCircuit(4).cx(0, 1).cx(2, 3).cx(1, 2).cx(0, 3)
        graph = build_circuit_graph(circuit)
        assert sum(graph.vertex_weights) == 4

    def test_parallel_wire_edges(self):
        # Two consecutive gates on the same pair create two edges.
        circuit = QuantumCircuit(2).cx(0, 1).cz(0, 1)
        graph = build_circuit_graph(circuit)
        assert graph.num_edges == 2
        assert {edge.wire for edge in graph.edges} == {0, 1}

    def test_edge_wire_index(self):
        circuit = QuantumCircuit(2).cx(0, 1).cz(0, 1).cx(0, 1)
        graph = build_circuit_graph(circuit)
        indices = sorted(
            (edge.wire, edge.wire_index) for edge in graph.edges
        )
        assert indices == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_edge_for_cut_lookup(self, fig4_circuit):
        graph = build_circuit_graph(fig4_circuit)
        edge = graph.edge_for_cut(2, 1)
        assert edge.wire == 2
        with pytest.raises(KeyError):
            graph.edge_for_cut(2, 5)

    def test_disconnected_wire_rejected(self):
        circuit = QuantumCircuit(3).cx(0, 1).h(2)
        with pytest.raises(ValueError):
            build_circuit_graph(circuit)

    def test_is_connected(self, fig4_circuit):
        assert build_circuit_graph(fig4_circuit).is_connected()

    def test_edges_point_forward_in_time(self):
        from tests.conftest import random_connected_circuit

        circuit = random_connected_circuit(5, 12, seed=4)
        graph = build_circuit_graph(circuit)
        for edge in graph.edges:
            assert edge.source < edge.target
