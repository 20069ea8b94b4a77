"""Circuit analysis: structure diagnostics for cutting and compilation.

Answers the questions a CutQC user asks before spending search time:
How densely connected is this circuit?  What is the minimum number of wire
cuts *any* bipartition needs (capacity ignored)?  Which wires carry the
most interaction?  The cut searcher's behaviour on the paper's benchmarks
("supremacy, Grover and AQFT are more densely connected circuits and
generally require more postprocessing", §6.1) becomes quantitative here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .circuit import QuantumCircuit
from .dag import build_circuit_graph

__all__ = [
    "interaction_graph",
    "min_bipartition_cuts",
    "wire_traffic",
    "layer_profile",
    "CircuitReport",
    "analyze_circuit",
]


def interaction_graph(circuit: QuantumCircuit):
    """Qubit-interaction ``networkx.Graph``: edge weight = number of 2q gates."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(circuit.num_qubits))
    for gate in circuit:
        if gate.is_multiqubit:
            a, b = gate.qubits
            if graph.has_edge(a, b):
                graph[a][b]["weight"] += 1
            else:
                graph.add_edge(a, b, weight=1)
    return graph


def min_bipartition_cuts(circuit: QuantumCircuit) -> int:
    """Global minimum wire-cut count over all 2-way gate partitions.

    Stoer-Wagner minimum cut of the undirected multiqubit-gate graph —
    a lower bound on ``K`` for any feasible 2-subcircuit solution, and
    therefore on the searcher's 2-cluster objective exponent.
    """
    import networkx as nx

    graph = build_circuit_graph(circuit)
    if graph.num_vertices < 2:
        return 0
    undirected = nx.Graph()
    undirected.add_nodes_from(range(graph.num_vertices))
    for edge in graph.edges:
        if undirected.has_edge(edge.source, edge.target):
            undirected[edge.source][edge.target]["weight"] += 1
        else:
            undirected.add_edge(edge.source, edge.target, weight=1)
    cut_value, _ = nx.stoer_wagner(undirected)
    return int(cut_value)


def wire_traffic(circuit: QuantumCircuit) -> Dict[int, int]:
    """Multiqubit-gate count per wire — the wires cuts must negotiate."""
    traffic = {q: 0 for q in range(circuit.num_qubits)}
    for gate in circuit:
        if gate.is_multiqubit:
            for qubit in gate.qubits:
                traffic[qubit] += 1
    return traffic


def layer_profile(circuit: QuantumCircuit) -> List[Tuple[int, int]]:
    """Per-layer (1q, 2q) gate counts under greedy ASAP layering."""
    frontier = [0] * circuit.num_qubits
    layers: Dict[int, List[int]] = {}
    for gate in circuit:
        level = max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = level + 1
        counts = layers.setdefault(level, [0, 0])
        counts[1 if gate.is_multiqubit else 0] += 1
    return [
        (layers[level][0], layers[level][1]) for level in sorted(layers)
    ]


@dataclass
class CircuitReport:
    """Summary statistics for one circuit."""

    num_qubits: int
    num_gates: int
    num_2q_gates: int
    depth: int
    two_qubit_depth: int
    fully_connected: bool
    min_bipartition_cuts: int
    max_wire_traffic: int
    interaction_density: float  # 2q gates / possible qubit pairs

    def summary(self) -> str:
        return (
            f"{self.num_qubits} qubits, {self.num_gates} gates "
            f"({self.num_2q_gates} two-qubit), depth {self.depth} "
            f"(2q depth {self.two_qubit_depth}); "
            f"min 2-way cut {self.min_bipartition_cuts}, "
            f"interaction density {self.interaction_density:.2f}"
        )


def analyze_circuit(circuit: QuantumCircuit) -> CircuitReport:
    """Compute a :class:`CircuitReport` for ``circuit``."""
    num_2q = circuit.multiqubit_gate_count()
    pairs = circuit.num_qubits * (circuit.num_qubits - 1) / 2
    connected = circuit.is_fully_connected()
    return CircuitReport(
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit),
        num_2q_gates=num_2q,
        depth=circuit.depth(),
        two_qubit_depth=circuit.two_qubit_depth(),
        fully_connected=connected,
        min_bipartition_cuts=min_bipartition_cuts(circuit) if connected else 0,
        max_wire_traffic=max(wire_traffic(circuit).values(), default=0),
        interaction_density=(
            interaction_graph(circuit).number_of_edges() / pairs if pairs else 0.0
        ),
    )
