"""The axis-by-axis collapse the halves-add ``binned_tensor`` replaced.

``binned_tensor`` walks a term tensor's output axes from the last, and
sums a merged wire with ``ndarray.sum(axis=...)`` or picks a fixed wire
with ``np.take`` (one copy per wire).  ``derive_fixed`` indexes the
fixed wires out of a generalized collapse.  ``OracleTensorProvider`` is
the collapse cache written out plainly on top of both, so a whole DD
query can be replayed on the old arithmetic and the old per-recursion
role maps.  ``repro.postprocess.plan``
must stay ``array_equal`` to all three.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cutting.cutter import Subcircuit
from repro.postprocess.attribution import TermTensor
from repro.postprocess.plan import QueryPlan


def binned_tensor(
    tensor: TermTensor,
    subcircuit: Subcircuit,
    roles: Dict[int, Tuple],
) -> Tuple[TermTensor, List[int]]:
    """Collapse ``tensor`` per ``roles`` one output axis at a time."""
    output_lines = subcircuit.output_lines
    shape = (tensor.data.shape[0],) + (2,) * len(output_lines)
    working = tensor.data.reshape(shape)
    active_wires: List[int] = []
    # Walk output axes from the last so earlier axis numbers stay valid.
    for position in reversed(range(len(output_lines))):
        role = roles[output_lines[position].wire]
        axis = 1 + position
        if role[0] == "merged":
            working = working.sum(axis=axis)
        elif role[0] == "fixed":
            working = np.take(working, int(role[1]), axis=axis)
        elif role[0] == "active":
            active_wires.insert(0, output_lines[position].wire)
        else:
            raise ValueError(f"unknown qubit role {role!r}")
    data = working.reshape(tensor.data.shape[0], -1)
    collapsed = TermTensor(
        subcircuit_index=tensor.subcircuit_index,
        cut_order=list(tensor.cut_order),
        num_effective=len(active_wires),
        data=data,
    )
    return collapsed, active_wires


def derive_fixed(
    tensor: TermTensor, active_wires: List[int], fixed: Dict[int, int]
) -> Tuple[TermTensor, List[int]]:
    """Index the ``fixed`` wires (``wire -> bit``) out of a generalized
    tensor, one ``np.take`` per wire."""
    rows = tensor.data.shape[0]
    working = tensor.data.reshape((rows,) + (2,) * len(active_wires))
    remaining: List[int] = []
    for position in reversed(range(len(active_wires))):
        wire = active_wires[position]
        if wire in fixed:
            working = np.take(working, fixed[wire], axis=1 + position)
        else:
            remaining.insert(0, wire)
    derived = TermTensor(
        subcircuit_index=tensor.subcircuit_index,
        cut_order=list(tensor.cut_order),
        num_effective=len(remaining),
        data=np.ascontiguousarray(working).reshape(rows, -1),
    )
    return derived, remaining


def next_active(
    fixed: Dict[int, int], max_active: int, active_order: List[int]
) -> List[int]:
    """The wires a DD recursion under ``fixed`` activates: the first
    ``max_active`` of ``active_order`` that are not fixed."""
    return [w for w in active_order if w not in fixed][:max_active]


class OracleTensorProvider:
    """The collapse cache of a DD query written out plainly.

    It ignores the role layout the query hands to :meth:`pieces`, and
    rebuilds each recursion's role map from its ``fixed`` bits with
    :func:`next_active` and ``QueryPlan.binned``.  A subcircuit's roles on
    its own output wires, fixed wires promoted to active, key a dict of
    collapses by :func:`binned_tensor` above, and :func:`derive_fixed`
    indexes each fixed wire out.  Its memo never evicts (no test here
    reaches the provider's 512 entries)."""

    def __init__(self, cut_circuit, tensors, max_active, active_order=None):
        self.cut_circuit = cut_circuit
        self.tensors = sorted(tensors, key=lambda t: t.subcircuit_index)
        self.num_qubits = cut_circuit.circuit.num_qubits
        self.num_cuts = cut_circuit.num_cuts
        self.max_active = max_active
        self.active_order = list(
            range(self.num_qubits) if active_order is None else active_order
        )
        self.memo: Dict = {}

    def pieces(self, roles) -> List:
        return list(self.cut_circuit.subcircuits)

    def collapse_pieces(self, pieces, fixed: Dict[int, int]):
        active = next_active(fixed, self.max_active, self.active_order)
        roles = QueryPlan.binned(
            self.num_qubits, self.num_cuts, fixed, active
        ).roles
        out = []
        hits = misses = 0
        for subcircuit in pieces:
            own = {line.wire: roles[line.wire] for line in subcircuit.output_lines}
            general = {
                wire: ("active",) if role[0] == "fixed" else role
                for wire, role in own.items()
            }
            key = (subcircuit.index, tuple(sorted(general.items())))
            if key in self.memo:
                hits += 1
            else:
                misses += 1
                self.memo[key] = binned_tensor(
                    self.tensors[subcircuit.index], subcircuit, general
                )
            tensor, kept = self.memo[key]
            bits = {w: fixed[w] for w, role in own.items() if role[0] == "fixed"}
            out.append(derive_fixed(tensor, kept, bits) if bits else (tensor, kept))
        return out, hits, misses
