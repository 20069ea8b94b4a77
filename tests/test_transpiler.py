"""Tests for the transpiler substrate (lowering, layout, routing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit, make_device, simulate_probabilities
from repro.devices import (
    compact_circuit,
    decompose_to_native,
    select_layout,
    transpile,
)
from repro.devices.transpiler import NATIVE_1Q, NATIVE_2Q
from repro.sim import NoiseModel, simulate_statevector
from tests.conftest import random_connected_circuit


def _states_equal_up_to_phase(circuit_a, circuit_b):
    a = simulate_statevector(circuit_a).amplitudes()
    b = simulate_statevector(circuit_b).amplitudes()
    overlap = np.vdot(a, b)
    return np.isclose(abs(overlap), 1.0, atol=1e-9)


class TestNativeDecomposition:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.h(0),
            lambda c: c.y(0),
            lambda c: c.z(0),
            lambda c: c.s(0),
            lambda c: c.sdg(0),
            lambda c: c.t(0),
            lambda c: c.tdg(0),
            lambda c: c.sy(0),
            lambda c: c.rx(0.7, 0),
            lambda c: c.ry(1.1, 0),
            lambda c: c.p(0.4, 0),
            lambda c: c.u(0.3, 0.9, -0.4, 0),
            lambda c: c.cz(0, 1),
            lambda c: c.cp(0.8, 0, 1),
            lambda c: c.rzz(0.6, 0, 1),
            lambda c: c.swap(0, 1),
        ],
    )
    def test_each_gate_preserved_up_to_phase(self, builder):
        circuit = QuantumCircuit(2).h(0).h(1)
        builder(circuit)
        lowered = decompose_to_native(circuit)
        assert _states_equal_up_to_phase(circuit, lowered)

    def test_only_native_gates_remain(self):
        circuit = QuantumCircuit(3).h(0).cz(0, 1).swap(1, 2).t(2).u(1, 2, 3, 0)
        lowered = decompose_to_native(circuit)
        for gate in lowered:
            assert gate.name in NATIVE_1Q + NATIVE_2Q

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_circuit_distribution_preserved(self, n, seed):
        circuit = random_connected_circuit(n, 2 * n, seed)
        lowered = decompose_to_native(circuit)
        assert np.allclose(
            simulate_probabilities(circuit),
            simulate_probabilities(lowered),
            atol=1e-9,
        )


class TestLayout:
    def test_layout_size(self):
        device = make_device("d", 9, "grid", rows=3, cols=3)
        layout = select_layout(device, 4)
        assert len(layout) == 4
        assert len(set(layout)) == 4

    def test_layout_is_connected_subgraph(self):
        import networkx as nx

        device = make_device("d", 12, "grid", rows=3, cols=4)
        layout = select_layout(device, 6)
        graph = nx.Graph(device.coupling_map)
        assert nx.is_connected(graph.subgraph(layout))

    def test_oversized_request_rejected(self):
        device = make_device("d", 3, "line")
        with pytest.raises(ValueError):
            select_layout(device, 5)


class TestRouting:
    def test_all_2q_gates_on_coupled_pairs(self):
        device = make_device("d", 5, "line")
        circuit = QuantumCircuit(4).h(0).cx(0, 3).cx(1, 3).cz(0, 2)
        transpiled = transpile(circuit, device)
        for gate in transpiled.circuit:
            if gate.is_multiqubit:
                assert device.are_coupled(*gate.qubits)

    def test_routed_distribution_matches_original(self):
        device = make_device("d", 5, "line", noise=NoiseModel())
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 3).t(3).cx(1, 2).cz(0, 2).ry(0.7, 1)
        out = device.run(circuit, shots=0)
        assert np.allclose(out, simulate_probabilities(circuit), atol=1e-9)

    def test_final_layout_tracks_swaps(self):
        device = make_device("d", 4, "line")
        circuit = QuantumCircuit(3).cx(0, 2)
        transpiled = transpile(circuit, device)
        finals = transpiled.final_layout
        assert len(set(finals)) == 3

    def test_initial_layout_override(self):
        device = make_device("d", 4, "line")
        circuit = QuantumCircuit(2).cx(0, 1)
        transpiled = transpile(circuit, device, initial_layout=[3, 2])
        assert transpiled.initial_layout == [3, 2]

    def test_layout_length_checked(self):
        device = make_device("d", 4, "line")
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(2).cx(0, 1), device, initial_layout=[0])

    def test_routing_overhead_grows_with_distance(self):
        device = make_device("d", 8, "line")
        near = transpile(QuantumCircuit(8).cx(0, 1), device, initial_layout=list(range(8)))
        far = transpile(QuantumCircuit(8).cx(0, 7), device, initial_layout=list(range(8)))
        assert len(far.circuit) > len(near.circuit)


class TestCompaction:
    def test_idle_wires_dropped(self):
        circuit = QuantumCircuit(6).h(1).cx(1, 4)
        compacted, kept = compact_circuit(circuit)
        assert kept == [1, 4]
        assert compacted.num_qubits == 2

    def test_empty_circuit(self):
        compacted, kept = compact_circuit(QuantumCircuit(3))
        assert compacted.num_qubits == 1
        assert kept == [0]

    def test_gate_structure_preserved(self):
        circuit = QuantumCircuit(5).h(2).cx(2, 4).t(4)
        compacted, kept = compact_circuit(circuit)
        assert [g.name for g in compacted] == ["h", "cx", "t"]
