"""Reference ``tensor_network`` contraction: a greedy pairwise ``tensordot``.

This is the strategy's implementation from before contraction plans: each
call walks the greedy path again, ``np.tensordot`` copies each operand
into a transposed layout and every intermediate is materialised whole.
It shares :func:`repro.postprocess.engine._select_pair` with the plan
compiler, so the two walk the same path, and the plan's ``cost`` must
equal :func:`tn_cost` exactly.  Tests only.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.postprocess.attribution import TermTensor
from repro.postprocess.engine import _select_pair


def network_nodes(
    tensors: Sequence[TermTensor], order: Sequence[int]
) -> List[Tuple[np.ndarray, List[Tuple[str, int]]]]:
    """One node per subcircuit: cut axes labelled by cut id, output axis
    labelled by its Kronecker position."""
    nodes = []
    for position, index in enumerate(order):
        tensor = tensors[index]
        shape = (4,) * tensor.num_cuts + (1 << tensor.num_effective,)
        labels: List[Tuple[str, int]] = [
            ("cut", cut_id) for cut_id in tensor.cut_order
        ]
        labels.append(("out", position))
        nodes.append((tensor.data.reshape(shape), labels))
    return nodes


def contract_pair(nodes, i: int, j: int) -> None:
    """Contract nodes ``i`` and ``j`` over their shared labels, in place."""
    array_a, labels_a = nodes[i]
    array_b, labels_b = nodes[j]
    shared = [label for label in labels_a if label in labels_b]
    axes_a = [labels_a.index(label) for label in shared]
    axes_b = [labels_b.index(label) for label in shared]
    merged = np.tensordot(array_a, array_b, axes=(axes_a, axes_b))
    labels = [label for label in labels_a if label not in shared] + [
        label for label in labels_b if label not in shared
    ]
    del nodes[j], nodes[i]  # j > i: delete the higher index first
    nodes.append((merged, labels))


def contract_network(
    tensors: Sequence[TermTensor], order: Sequence[int]
) -> np.ndarray:
    """Contract the term-tensor network down to the ordered output vector."""
    nodes = network_nodes(tensors, order)
    while len(nodes) > 1:
        shapes = [dict(zip(labels, array.shape)) for array, labels in nodes]
        selected = _select_pair(shapes)
        pair = (0, 1) if selected is None else selected[:2]
        contract_pair(nodes, *pair)
    array, labels = nodes[0]
    permutation = sorted(range(len(labels)), key=lambda axis: labels[axis][1])
    return np.transpose(array, axes=permutation).reshape(-1)


def tn_cost(tensors: Sequence[TermTensor], order: Sequence[int]) -> float:
    """Simulated cost of the greedy pairwise path (sum of result sizes
    weighted by the contracted dimension)."""
    shapes: List[dict] = []
    for position, index in enumerate(order):
        tensor = tensors[index]
        dims = {("cut", cut_id): 4 for cut_id in tensor.cut_order}
        dims[("out", position)] = 1 << tensor.num_effective
        shapes.append(dims)
    cost = 0.0
    while len(shapes) > 1:
        selected = _select_pair(shapes)
        if selected is None:
            i, j, shared, shared_dim = 0, 1, set(), 1
        else:
            i, j, shared, shared_dim = selected
        merged = {
            label: dim
            for labelled in (shapes[i], shapes[j])
            for label, dim in labelled.items()
            if label not in shared
        }
        result_size = 1.0
        for dim in merged.values():
            result_size *= dim
        cost += result_size * shared_dim
        del shapes[j], shapes[i]
        shapes.append(merged)
    return cost
