"""Multiqubit-gate graph used by the cut searcher (paper §4.1.1).

Single-qubit gates do not affect connectivity, so the cut model sees only
multiqubit gates: they become vertices, and each pair of *consecutive*
multiqubit gates on the same wire becomes a directed edge.  Cutting an edge
``(u, v)`` on wire ``q`` means cutting wire ``q`` between gates ``u`` and
``v`` (the paper's timewise cut).

The vertex weight ``w_v`` counts the original circuit input qubits whose
first multiqubit gate is ``v`` — exactly the parameter the MIP uses in
Eq. (4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..flatgraph import adjacency, is_connected
from .circuit import QuantumCircuit

__all__ = ["WireEdge", "CircuitGraph", "build_circuit_graph"]


@dataclass(frozen=True)
class WireEdge:
    """An edge of the cut graph: consecutive multiqubit gates on one wire.

    Attributes
    ----------
    source, target:
        Vertex ids (positions in :attr:`CircuitGraph.vertices`) of the
        upstream and downstream multiqubit gates.
    wire:
        Original circuit qubit the edge lives on.
    wire_index:
        Cutting this edge cuts wire ``wire`` immediately before its
        ``wire_index``-th multiqubit gate (0-based); equals the segment
        boundary used by the cutter.
    """

    source: int
    target: int
    wire: int
    wire_index: int


class CircuitGraph:
    """Cut-model view of a circuit: multiqubit gates + wire edges."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        vertices: List[int],
        edges: List[WireEdge],
        vertex_weights: List[int],
        wire_vertices: Dict[int, List[int]],
    ):
        self.circuit = circuit
        #: circuit gate positions of the multiqubit gates, in circuit order
        self.vertices = vertices
        self.edges = edges
        #: w_v of Eq. (4): original inputs whose first multiqubit gate is v
        self.vertex_weights = vertex_weights
        #: wire -> vertex ids of the multiqubit gates on that wire, in order
        self.wire_vertices = wire_vertices

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_for_cut(self, wire: int, wire_index: int) -> WireEdge:
        """The edge cut by splitting ``wire`` before its ``wire_index``-th gate."""
        for edge in self.edges:
            if edge.wire == wire and edge.wire_index == wire_index:
                return edge
        raise KeyError(f"no cuttable edge on wire {wire} at index {wire_index}")

    def is_connected(self) -> bool:
        """Whether the gate graph is weakly connected."""
        return is_connected(
            adjacency(self.num_vertices, ((e.source, e.target) for e in self.edges))
        )


def build_circuit_graph(circuit: QuantumCircuit) -> CircuitGraph:
    """Build the cut graph of ``circuit``.

    Raises
    ------
    ValueError
        If some wire carries no multiqubit gate (the paper assumes fully
        connected circuits; disconnected wires need no cutting and should
        be split off by the caller beforehand).
    """
    vertices: List[int] = [
        position for position, gate in enumerate(circuit) if gate.is_multiqubit
    ]
    position_to_vertex = {position: idx for idx, position in enumerate(vertices)}

    wire_vertices: Dict[int, List[int]] = {q: [] for q in range(circuit.num_qubits)}
    for position in vertices:
        for qubit in circuit[position].qubits:
            wire_vertices[qubit].append(position_to_vertex[position])

    for qubit, on_wire in wire_vertices.items():
        if not on_wire:
            raise ValueError(
                f"wire {qubit} carries no multiqubit gate; circuit is not "
                "fully connected (split disconnected wires before cutting)"
            )

    edges: List[WireEdge] = []
    for qubit, on_wire in wire_vertices.items():
        for index in range(len(on_wire) - 1):
            edges.append(
                WireEdge(
                    source=on_wire[index],
                    target=on_wire[index + 1],
                    wire=qubit,
                    wire_index=index + 1,
                )
            )

    vertex_weights = [0] * len(vertices)
    for qubit, on_wire in wire_vertices.items():
        vertex_weights[on_wire[0]] += 1

    return CircuitGraph(circuit, vertices, edges, vertex_weights, wire_vertices)
