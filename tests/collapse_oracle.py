"""The axis-by-axis collapse the halves-add ``binned_tensor`` replaced.

``binned_tensor`` walks a term tensor's output axes from the last, and
sums a merged wire with ``ndarray.sum(axis=...)`` or picks a fixed wire
with ``np.take`` (one copy per wire).  ``derive_fixed`` indexes the
fixed wires out of a generalized collapse.  ``OracleTensorProvider`` is
the default provider collapsing through ``binned_tensor``, so a whole DD
query can be replayed on the old arithmetic.  ``repro.postprocess.plan``
must stay ``array_equal`` to all three.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cutting.cutter import Subcircuit
from repro.postprocess.attribution import TermTensor
from repro.postprocess.plan import PrecomputedTensorProvider, RoleMap, Signature


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
    tensor: TermTensor, active_wires: List[int], signature: Signature
) -> Tuple[TermTensor, List[int]]:
    """Index ``signature``'s fixed wires out of a generalized tensor, one
    ``np.take`` per wire."""
    fixed = {
        wire: int(role[1]) for wire, role in signature if role[0] == "fixed"
    }
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


class OracleTensorProvider(PrecomputedTensorProvider):
    """The default provider (collapse cache included), collapsing with
    :func:`binned_tensor` above."""

    def _collapse_subcircuit(
        self, subcircuit: Subcircuit, roles: RoleMap
    ) -> Tuple[TermTensor, List[int]]:
        return binned_tensor(self.tensors[subcircuit.index], subcircuit, roles)
