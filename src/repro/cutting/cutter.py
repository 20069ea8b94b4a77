"""Apply wire cuts: split a circuit into subcircuits plus cut metadata.

Cutting is defined by a *clustering* of the multiqubit-gate graph
(:class:`~repro.circuits.dag.CircuitGraph`): every edge whose endpoints
land in different clusters is cut.  Each maximal same-cluster run of
multiqubit gates along a wire becomes a *segment*, and each segment
becomes one qubit line of its cluster's subcircuit:

* a segment that is not the first on its wire starts at a cut — its line
  is an **initialization** line (paper's rho qubits);
* a segment that is not the last on its wire ends at a cut — its line is a
  **measurement** line (paper's O qubits);
* the last segment of each wire carries the wire's final output (the
  paper's effective qubits, f_c of Eq. 7).

Single-qubit gates travel with the segment of the preceding multiqubit
gate on their wire (they never affect connectivity, §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import CircuitGraph, Gate, QuantumCircuit, build_circuit_graph
from ..flatgraph import adjacency, connected_components
from ..obs import trace

__all__ = ["WireCut", "SubcircuitLine", "BodyKey", "Subcircuit", "CutCircuit",
           "cut_circuit", "cut_circuit_from_assignment"]


@dataclass(frozen=True)
class WireCut:
    """One cut point and the two subcircuit lines it connects."""

    cut_id: int
    wire: int
    wire_index: int  # the cut sits before this multiqubit gate index on the wire
    upstream_subcircuit: int
    upstream_line: int
    downstream_subcircuit: int
    downstream_line: int


@dataclass(frozen=True)
class SubcircuitLine:
    """One qubit line of a subcircuit — a segment of an original wire."""

    wire: int
    segment: int
    line: int
    init_cut: Optional[int]  # cut id feeding this line, None = original |0> input
    meas_cut: Optional[int]  # cut id consuming this line, None = final output

    @property
    def is_output(self) -> bool:
        """Whether this line carries part of the uncut circuit's output."""
        return self.meas_cut is None


class BodyKey:
    """A subcircuit body's identity, ``(width, body gates, init line
    positions, measure line positions)``, hashed once.

    Equal keys mean every variant of the two subcircuits coincides
    pairwise.  Equality is identity first, then content, so two bodies
    sharing a hash never collide; a pickled key rehashes where it is
    loaded, because string hashes differ between processes.
    """

    __slots__ = ("content", "_hash")

    def __init__(self, width: int, gates: Tuple[Gate, ...],
                 init_positions: Tuple[int, ...], meas_positions: Tuple[int, ...]):
        self.content = (width, gates, init_positions, meas_positions)
        self._hash = hash(self.content)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, BodyKey) and self._hash == other._hash
            and self.content == other.content
        )

    def __reduce__(self):
        return BodyKey, self.content


@dataclass(frozen=True)
class Subcircuit:
    """A standalone piece of the cut circuit, plus its cut-role metadata.

    Frozen, with ``lines`` a tuple: the line views, the cut ids and
    ``body_key`` are computed once, at construction, so they cannot go
    stale.  A rebind builds new subcircuits instead of editing these.
    """

    index: int
    circuit: QuantumCircuit
    lines: Tuple[SubcircuitLine, ...] = ()
    #: Lines initialized by a cut (rho_c of Eq. 5), in line order.
    init_lines: Tuple[SubcircuitLine, ...] = field(init=False, repr=False, compare=False)
    #: Lines measured into a cut (O_c of Eq. 6), in line order.
    meas_lines: Tuple[SubcircuitLine, ...] = field(init=False, repr=False, compare=False)
    #: Lines contributing to the uncut output (f_c of Eq. 7), in order.
    output_lines: Tuple[SubcircuitLine, ...] = field(init=False, repr=False, compare=False)
    #: All cut ids attached to this subcircuit, sorted.
    cut_ids: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    body_key: BodyKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lines = tuple(self.lines)
        init_lines = tuple(line for line in lines if line.init_cut is not None)
        meas_lines = tuple(line for line in lines if line.meas_cut is not None)
        derived = {
            "lines": lines,
            "init_lines": init_lines,
            "meas_lines": meas_lines,
            "output_lines": tuple(line for line in lines if line.is_output),
            "cut_ids": tuple(sorted(
                [line.init_cut for line in init_lines]
                + [line.meas_cut for line in meas_lines]
            )),
            "body_key": BodyKey(
                self.circuit.num_qubits,
                self.circuit.gates,
                tuple(line.line for line in init_lines),
                tuple(line.line for line in meas_lines),
            ),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def width(self) -> int:
        """d_c of Eq. 9 — qubits needed to run this subcircuit."""
        return self.circuit.num_qubits

    @property
    def num_effective(self) -> int:
        return len(self.output_lines)


class CutCircuit:
    """The result of cutting: subcircuits, cuts, and reconstruction maps."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        graph: CircuitGraph,
        assignment: List[int],
        subcircuits: List[Subcircuit],
        cuts: List[WireCut],
        gate_placements: Optional[List[Tuple[int, int]]] = None,
    ):
        self.circuit = circuit
        self.graph = graph
        self.assignment = assignment
        self.subcircuits = subcircuits
        self.cuts = cuts
        #: Per full-circuit gate index: ``(subcircuit index, position in
        #: that subcircuit's gate list)``.  Recorded during gate emission;
        #: lets a parameter rebind patch exactly the dirty subcircuits.
        self.gate_placements = gate_placements

    @property
    def num_cuts(self) -> int:
        """K — the number of cut edges (Eq. 13)."""
        return len(self.cuts)

    @property
    def num_subcircuits(self) -> int:
        return len(self.subcircuits)

    def max_subcircuit_width(self) -> int:
        return max(sub.width for sub in self.subcircuits)

    def output_wire_order(self, subcircuit_order: Optional[Sequence[int]] = None) -> List[int]:
        """Original wires in Kronecker order for a given subcircuit order.

        The reconstructor produces a vector whose qubits are the output
        lines of each subcircuit, concatenated in ``subcircuit_order``;
        entry ``p`` of the returned list is the original wire held at
        Kronecker position ``p``.
        """
        order = (
            list(range(self.num_subcircuits))
            if subcircuit_order is None
            else list(subcircuit_order)
        )
        wires: List[int] = []
        for index in order:
            wires.extend(line.wire for line in self.subcircuits[index].output_lines)
        return wires

    def rebound(
        self, circuit: QuantumCircuit, changed: Sequence[int]
    ) -> Tuple["CutCircuit", List[int]]:
        """The same cut applied to a parameter rebind of the circuit.

        ``circuit`` must be structurally identical to ``self.circuit``
        (same gates on the same qubits — only rotation angles may differ)
        and ``changed`` lists the full-circuit indices of the gates whose
        parameters moved (what :meth:`QuantumCircuit.bind` reports).

        Returns ``(new_cut, dirty_subcircuits)``.  Only subcircuits
        containing a changed gate are rebuilt; clean :class:`Subcircuit`
        objects — and therefore their gate tuples, variant plans and
        fused blocks — are shared **by reference** with ``self``, so
        every downstream identity/equality-keyed cache still hits.
        """
        if self.gate_placements is None:
            raise ValueError(
                "this CutCircuit carries no gate placements; re-cut via "
                "cut_circuit_from_assignment to enable rebinding"
            )
        updates: Dict[int, List[Tuple[int, Gate]]] = {}
        for index in changed:
            cluster, position = self.gate_placements[index]
            updates.setdefault(cluster, []).append((position, circuit[index]))
        subcircuits = list(self.subcircuits)
        for cluster, patches in updates.items():
            old = self.subcircuits[cluster]
            gate_list = list(old.circuit.gates)
            for position, source in patches:
                # The emitted gate lives on remapped line qubits; only its
                # parameters move.
                gate_list[position] = Gate(
                    source.name, gate_list[position].qubits, source.params
                )
            subcircuits[cluster] = Subcircuit(
                index=old.index,
                circuit=QuantumCircuit._unchecked(
                    old.circuit.num_qubits, gate_list
                ),
                lines=old.lines,
            )
        rebound = CutCircuit(
            circuit,
            self.graph,
            self.assignment,
            subcircuits,
            self.cuts,
            gate_placements=self.gate_placements,
        )
        return rebound, sorted(updates)

    def summary(self) -> str:
        """Human-readable description, used by examples and benches."""
        parts = [
            f"{self.circuit.num_qubits}-qubit circuit -> "
            f"{self.num_subcircuits} subcircuits with {self.num_cuts} cut(s)"
        ]
        for sub in self.subcircuits:
            parts.append(
                f"  subcircuit {sub.index}: {sub.width} qubits "
                f"(init={len(sub.init_lines)}, meas={len(sub.meas_lines)}, "
                f"output={sub.num_effective}), {len(sub.circuit)} gates"
            )
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def cut_circuit(
    circuit: QuantumCircuit, cuts: Sequence[Tuple[int, int]]
) -> CutCircuit:
    """Cut ``circuit`` at explicit ``(wire, wire_index)`` positions.

    ``(wire, k)`` cuts wire ``wire`` immediately before the multiqubit gate
    at 0-based position ``k`` along that wire (so ``k >= 1``; e.g. the
    paper's Fig. 4 cut is ``(2, 1)`` — between the first two cZ gates on
    qubit 2).  The cut set
    must exactly separate the multiqubit-gate graph: if removing the listed
    edges leaves other edges crossing between the resulting components, the
    cut set is inconsistent and a ``ValueError`` explains which edges are
    missing.
    """
    graph = build_circuit_graph(circuit)
    cut_edges = {graph.edge_for_cut(wire, index) for wire, index in cuts}

    kept = adjacency(
        graph.num_vertices,
        ((e.source, e.target) for e in graph.edges if e not in cut_edges),
    )
    assignment = [0] * graph.num_vertices
    for label, members in enumerate(connected_components(kept)):
        for vertex in members:
            assignment[vertex] = label

    implied = {
        edge
        for edge in graph.edges
        if assignment[edge.source] != assignment[edge.target]
    }
    if implied != cut_edges:
        missing = sorted(
            (edge.wire, edge.wire_index) for edge in implied - cut_edges
        )
        extra = sorted((edge.wire, edge.wire_index) for edge in cut_edges - implied)
        raise ValueError(
            "cut set does not cleanly separate the circuit: "
            f"missing cuts {missing}, redundant cuts {extra}"
        )
    return cut_circuit_from_assignment(circuit, assignment, graph=graph)


def cut_circuit_from_assignment(
    circuit: QuantumCircuit,
    assignment: Sequence[int],
    graph: Optional[CircuitGraph] = None,
) -> CutCircuit:
    """Cut ``circuit`` according to a vertex->cluster assignment."""
    with trace.span("cut.split", {"gates": len(circuit.gates)}):
        return _build_cut_circuit(circuit, assignment, graph)


def _build_cut_circuit(
    circuit: QuantumCircuit,
    assignment: Sequence[int],
    graph: Optional[CircuitGraph] = None,
) -> CutCircuit:
    graph = graph or build_circuit_graph(circuit)
    if len(assignment) != graph.num_vertices:
        raise ValueError(
            f"assignment covers {len(assignment)} vertices, graph has "
            f"{graph.num_vertices}"
        )
    assignment = _relabel_clusters(list(assignment))
    num_clusters = max(assignment) + 1

    # --- segments ------------------------------------------------------
    # For each wire: maximal runs of consecutive same-cluster gates.
    # ``segments[wire]`` lists (cluster, first_wire_index) per run;
    # ``boundaries[wire]`` lists the wire indices where a new run starts.
    segments: Dict[int, List[int]] = {}
    boundaries: Dict[int, List[int]] = {}
    for wire in range(circuit.num_qubits):
        vertex_ids = graph.wire_vertices[wire]
        clusters = [assignment[v] for v in vertex_ids]
        runs: List[int] = [clusters[0]]
        starts: List[int] = [0]
        for position in range(1, len(clusters)):
            if clusters[position] != clusters[position - 1]:
                runs.append(clusters[position])
                starts.append(position)
        segments[wire] = runs
        boundaries[wire] = starts

    # --- lines ----------------------------------------------------------
    line_counter = [0] * num_clusters
    line_of: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (wire, seg) -> (cluster, line)
    lines_meta: Dict[int, List[SubcircuitLine]] = {c: [] for c in range(num_clusters)}
    cuts: List[WireCut] = []
    for wire in range(circuit.num_qubits):
        for segment, cluster in enumerate(segments[wire]):
            line = line_counter[cluster]
            line_counter[cluster] += 1
            line_of[(wire, segment)] = (cluster, line)
    for wire in range(circuit.num_qubits):
        for segment in range(len(segments[wire]) - 1):
            up_cluster, up_line = line_of[(wire, segment)]
            down_cluster, down_line = line_of[(wire, segment + 1)]
            cuts.append(
                WireCut(
                    cut_id=len(cuts),
                    wire=wire,
                    wire_index=boundaries[wire][segment + 1],
                    upstream_subcircuit=up_cluster,
                    upstream_line=up_line,
                    downstream_subcircuit=down_cluster,
                    downstream_line=down_line,
                )
            )

    init_cut_of: Dict[Tuple[int, int], int] = {}
    meas_cut_of: Dict[Tuple[int, int], int] = {}
    for cut in cuts:
        wire = cut.wire
        segment = boundaries[wire].index(cut.wire_index)
        meas_cut_of[(wire, segment - 1)] = cut.cut_id
        init_cut_of[(wire, segment)] = cut.cut_id

    for wire in range(circuit.num_qubits):
        for segment, cluster in enumerate(segments[wire]):
            _, line = line_of[(wire, segment)]
            lines_meta[cluster].append(
                SubcircuitLine(
                    wire=wire,
                    segment=segment,
                    line=line,
                    init_cut=init_cut_of.get((wire, segment)),
                    meas_cut=meas_cut_of.get((wire, segment)),
                )
            )
    for cluster in lines_meta:
        lines_meta[cluster].sort(key=lambda item: item.line)

    # --- gate emission ---------------------------------------------------
    subcircuit_circuits = [
        QuantumCircuit(max(1, line_counter[c])) for c in range(num_clusters)
    ]
    multi_seen = [0] * circuit.num_qubits  # multiqubit gates consumed per wire

    def segment_for(wire: int, wire_index: int) -> int:
        starts = boundaries[wire]
        segment = 0
        while segment + 1 < len(starts) and starts[segment + 1] <= wire_index:
            segment += 1
        return segment

    gate_placements: List[Tuple[int, int]] = []
    for gate in circuit:
        if gate.is_multiqubit:
            placements = []
            for qubit in gate.qubits:
                segment = segment_for(qubit, multi_seen[qubit])
                placements.append(line_of[(qubit, segment)])
                multi_seen[qubit] += 1
            clusters = {cluster for cluster, _ in placements}
            if len(clusters) != 1:  # pragma: no cover - internal invariant
                raise AssertionError("multiqubit gate split across subcircuits")
            cluster = clusters.pop()
            gate_placements.append(
                (cluster, len(subcircuit_circuits[cluster]))
            )
            subcircuit_circuits[cluster].append(
                gate.on(*(line for _, line in placements))
            )
        else:
            qubit = gate.qubits[0]
            # 1q gates stay with the upstream segment of their wire.
            anchor = max(0, multi_seen[qubit] - 1)
            segment = segment_for(qubit, anchor)
            cluster, line = line_of[(qubit, segment)]
            gate_placements.append(
                (cluster, len(subcircuit_circuits[cluster]))
            )
            subcircuit_circuits[cluster].append(gate.on(line))

    subcircuits = [
        Subcircuit(index=c, circuit=subcircuit_circuits[c], lines=lines_meta[c])
        for c in range(num_clusters)
    ]
    return CutCircuit(
        circuit, graph, assignment, subcircuits, cuts,
        gate_placements=gate_placements,
    )


def _relabel_clusters(assignment: List[int]) -> List[int]:
    """Relabel clusters to 0..m-1 in order of first appearance."""
    mapping: Dict[int, int] = {}
    relabelled = []
    for cluster in assignment:
        if cluster not in mapping:
            mapping[cluster] = len(mapping)
        relabelled.append(mapping[cluster])
    return relabelled
