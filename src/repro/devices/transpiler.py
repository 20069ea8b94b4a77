"""Transpiler-lite: native-gate decomposition, layout, and SWAP routing.

The noise-adaptive-compilation substrate (paper refs [32, 48]): circuits
are lowered to the superconducting native set {RZ, SX, X, CX}, an initial
layout places logical qubits on a well-connected device subgraph, and a
greedy shortest-path router inserts SWAPs (3 CX each) for non-adjacent
interactions.  Deeper routed circuits accumulate more simulated noise,
which is exactly the mechanism behind the paper's Fig. 1 / Fig. 11
fidelity trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits import Gate, QuantumCircuit
from ..flatgraph import shortest_path
from .device import VirtualDevice

__all__ = ["TranspiledCircuit", "transpile", "decompose_to_native", "select_layout",
           "compact_circuit"]

NATIVE_1Q = ("rz", "sx", "x", "i")
NATIVE_2Q = ("cx",)


@dataclass
class TranspiledCircuit:
    """A routed circuit plus the logical->physical qubit maps."""

    circuit: QuantumCircuit
    initial_layout: List[int]
    final_layout: List[int]  # final_layout[logical] = physical qubit


# ----------------------------------------------------------------------
# 1) native-gate decomposition
# ----------------------------------------------------------------------

def _native_1q(gate: Gate) -> List[Gate]:
    """Lower a single-qubit gate to {RZ, SX, X} (global phase dropped)."""
    (q,) = gate.qubits
    name = gate.name
    if name in NATIVE_1Q:
        return [gate]
    pi = math.pi
    if name == "h":
        return [Gate("rz", (q,), (pi / 2,)), Gate("sx", (q,)), Gate("rz", (q,), (pi / 2,))]
    if name == "z":
        return [Gate("rz", (q,), (pi,))]
    if name == "s":
        return [Gate("rz", (q,), (pi / 2,))]
    if name == "sdg":
        return [Gate("rz", (q,), (-pi / 2,))]
    if name == "t":
        return [Gate("rz", (q,), (pi / 4,))]
    if name == "tdg":
        return [Gate("rz", (q,), (-pi / 4,))]
    if name == "p":
        return [Gate("rz", (q,), gate.params)]
    if name == "y":
        return [Gate("rz", (q,), (pi,)), Gate("x", (q,))]
    if name == "sy":
        # Apply RZ(-pi/2), then SX, then RZ(pi/2) (= sqrt(Y) up to phase).
        return [Gate("rz", (q,), (-pi / 2,)), Gate("sx", (q,)), Gate("rz", (q,), (pi / 2,))]
    if name == "rx":
        (theta,) = gate.params
        return [
            Gate("rz", (q,), (pi / 2,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (theta + pi,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (5 * pi / 2,)),
        ]
    if name == "ry":
        (theta,) = gate.params
        return [
            Gate("sx", (q,)),
            Gate("rz", (q,), (theta + pi,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (3 * pi,)),
        ]
    if name == "u":
        theta, phi, lam = gate.params
        return [
            Gate("rz", (q,), (lam,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (theta + pi,)),
            Gate("sx", (q,)),
            Gate("rz", (q,), (phi + 3 * pi,)),
        ]
    raise ValueError(f"cannot lower single-qubit gate {name!r}")


def _native_2q(gate: Gate) -> List[Gate]:
    """Lower a two-qubit gate to CX plus native 1q gates."""
    a, b = gate.qubits
    name = gate.name
    if name == "cx":
        return [gate]
    out: List[Gate] = []
    if name == "cz":
        out += _native_1q(Gate("h", (b,)))
        out.append(Gate("cx", (a, b)))
        out += _native_1q(Gate("h", (b,)))
        return out
    if name == "cp":
        (lam,) = gate.params
        out.append(Gate("rz", (a,), (lam / 2,)))
        out.append(Gate("cx", (a, b)))
        out.append(Gate("rz", (b,), (-lam / 2,)))
        out.append(Gate("cx", (a, b)))
        out.append(Gate("rz", (b,), (lam / 2,)))
        return out
    if name == "rzz":
        (theta,) = gate.params
        return [
            Gate("cx", (a, b)),
            Gate("rz", (b,), (theta,)),
            Gate("cx", (a, b)),
        ]
    if name == "swap":
        return [Gate("cx", (a, b)), Gate("cx", (b, a)), Gate("cx", (a, b))]
    raise ValueError(f"cannot lower two-qubit gate {name!r}")


def decompose_to_native(circuit: QuantumCircuit) -> QuantumCircuit:
    """Rewrite every gate into the native set {RZ, SX, X, CX}."""
    out = QuantumCircuit(circuit.num_qubits)
    for gate in circuit:
        lowered = _native_2q(gate) if gate.is_multiqubit else _native_1q(gate)
        out.extend(lowered)
    return out


# ----------------------------------------------------------------------
# 2) layout selection
# ----------------------------------------------------------------------

def select_layout(device: VirtualDevice, num_logical: int) -> List[int]:
    """Pick a connected, well-coupled subgraph of physical qubits.

    A BFS from the highest-degree qubit — the noise-adaptive-compilation
    stand-in: with per-device uniform error rates, "best" qubits are the
    best-connected ones (fewest routing SWAPs).
    """
    if num_logical > device.num_qubits:
        raise ValueError(
            f"{num_logical} logical qubits exceed device size {device.num_qubits}"
        )
    neighbors = device.neighbors
    if device.num_qubits == 1:
        return [0]
    start = max(range(device.num_qubits), key=lambda n: len(neighbors[n]))
    order = [start]
    seen = {start}
    frontier = [start]
    while frontier and len(order) < num_logical:
        # Expand the neighbor with the most already-selected neighbors.
        candidates = sorted(
            {n for f in frontier for n in neighbors[f]} - seen,
            key=lambda n: (-sum(1 for m in neighbors[n] if m in seen), n),
        )
        if not candidates:
            break
        chosen = candidates[0]
        order.append(chosen)
        seen.add(chosen)
        frontier.append(chosen)
    if len(order) < num_logical:  # pragma: no cover - connected devices
        order.extend(n for n in range(device.num_qubits) if n not in seen)
        order = order[:num_logical]
    return order[:num_logical]


# ----------------------------------------------------------------------
# 3) routing
# ----------------------------------------------------------------------

def transpile(
    circuit: QuantumCircuit,
    device: VirtualDevice,
    initial_layout: Optional[Sequence[int]] = None,
    native: bool = True,
) -> TranspiledCircuit:
    """Lower, place, and route ``circuit`` onto ``device``."""
    lowered = decompose_to_native(circuit) if native else circuit.copy()
    layout = (
        select_layout(device, circuit.num_qubits)
        if initial_layout is None
        else list(initial_layout)
    )
    if len(layout) != circuit.num_qubits:
        raise ValueError(
            f"layout of {len(layout)} qubits for a {circuit.num_qubits}-qubit circuit"
        )

    logical_to_physical: Dict[int, int] = dict(enumerate(layout))
    physical_to_logical: Dict[int, int] = {p: l for l, p in logical_to_physical.items()}
    routed = QuantumCircuit(device.num_qubits)

    def swap_physical(p1: int, p2: int) -> None:
        for cx_gate in _native_2q(Gate("swap", (p1, p2))):
            routed.append(cx_gate)
        l1 = physical_to_logical.get(p1)
        l2 = physical_to_logical.get(p2)
        if l1 is not None:
            logical_to_physical[l1] = p2
        if l2 is not None:
            logical_to_physical[l2] = p1
        physical_to_logical.pop(p1, None)
        physical_to_logical.pop(p2, None)
        if l1 is not None:
            physical_to_logical[p2] = l1
        if l2 is not None:
            physical_to_logical[p1] = l2

    for gate in lowered:
        if not gate.is_multiqubit:
            physical = logical_to_physical[gate.qubits[0]]
            routed.append(gate.on(physical))
            continue
        a, b = gate.qubits
        pa, pb = logical_to_physical[a], logical_to_physical[b]
        if not device.are_coupled(pa, pb):
            path = shortest_path(device.neighbors, pa, pb)
            # Walk qubit ``a`` toward ``b``, stopping one hop short.
            for hop in path[1:-1]:
                swap_physical(logical_to_physical[a], hop)
            pa, pb = logical_to_physical[a], logical_to_physical[b]
        routed.append(gate.on(pa, pb))

    final_layout = [logical_to_physical[q] for q in range(circuit.num_qubits)]
    return TranspiledCircuit(
        circuit=routed, initial_layout=layout, final_layout=final_layout
    )


def compact_circuit(
    circuit: QuantumCircuit, keep: Optional[Sequence[int]] = None
) -> "tuple[QuantumCircuit, List[int]]":
    """Drop idle wires; returns the compact circuit and the kept wires.

    Useful for simulating routed circuits on large virtual devices: only
    the wires actually touched by gates need simulating.  ``keep`` lists
    wires that must survive even when idle (e.g. measured qubits).
    """
    active = sorted(set(circuit.active_qubits()) | set(keep or ()))
    if not active:
        return QuantumCircuit(1), [0]
    remap = {wire: index for index, wire in enumerate(active)}
    out = QuantumCircuit(len(active))
    for gate in circuit:
        out.append(gate.on(*(remap[q] for q in gate.qubits)))
    return out, active
