"""The per-variant attribution the production build replaced, kept as oracle.

``attributed_vector`` applies Eq. (3)'s signs to one variant's raw vector;
``reference_term_tensor`` loops it over all ``4^(rho+O)`` (init, basis)
combinations exactly as ``build_term_tensor`` did before it was vectorised,
and ``transform_attributed_to_terms`` applies Eq. (2)'s 4-term transforms
per axis, so the oracle's rows are Eq. (2)'s terms.

The production tensors pair each cut the other way round (an init cut's
rows are the raw ``q_s``, a measured cut's are ``D^T u``);
``to_eq2_basis`` maps a built tensor to Eq. (2)'s rows and
``from_eq2_basis`` back.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence

import numpy as np

from repro.cutting.cutter import Subcircuit
from repro.cutting.variants import INIT_LABELS, SubcircuitResult
from repro.postprocess.attribution import (
    ATTRIBUTION_BASES,
    DOWNSTREAM_TERMS,
    UPSTREAM_TERMS,
    TermTensor,
)

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}

#: ``D^-1``, written out so that it is exact: ``q_+ = (t1 + t2 + t3) / 2``.
DOWNSTREAM_INVERSE = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5, 0.0],
        [0.5, 0.5, 0.0, 0.5],
    ]
)


def attributed_vector(
    subcircuit: Subcircuit,
    raw_vector: np.ndarray,
    bases: Sequence[str],
) -> np.ndarray:
    """Attribute the cut-measure qubits away with Eq. (3) signs.

    ``raw_vector`` is the physical distribution of the variant whose
    measurement circuits implement ``bases`` (I is implemented by the Z
    circuit); the result is a signed pseudo-distribution over the
    subcircuit's effective (output) qubits, in line order.
    """
    meas_lines = subcircuit.meas_lines
    if len(bases) != len(meas_lines):
        raise ValueError(
            f"{len(bases)} bases for {len(meas_lines)} measurement lines"
        )
    tensor = np.asarray(raw_vector, dtype=float).reshape((2,) * subcircuit.width)
    # Contract measurement axes from highest line index down so earlier
    # axis positions stay valid.
    pairs = sorted(
        zip((line.line for line in meas_lines), bases), reverse=True
    )
    for axis, basis in pairs:
        tensor = np.tensordot(tensor, _SIGNS[basis], axes=([axis], [0]))
    return tensor.reshape(-1)


def reference_term_tensor(result: SubcircuitResult) -> TermTensor:
    """One dictionary look-up and sign chain per (init, basis) combination;
    rows in Eq. (2)'s terms."""
    subcircuit = result.subcircuit
    init_lines = subcircuit.init_lines
    meas_lines = subcircuit.meas_lines
    shape = (4,) * (len(init_lines) + len(meas_lines)) + (
        1 << subcircuit.num_effective,
    )
    attributed = np.zeros(shape)
    for init_combo in itertools.product(range(4), repeat=len(init_lines)):
        init_labels = tuple(INIT_LABELS[i] for i in init_combo)
        for basis_combo in itertools.product(range(4), repeat=len(meas_lines)):
            bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
            physical = tuple("Z" if b == "I" else b for b in bases)
            attributed[init_combo + basis_combo] = attributed_vector(
                subcircuit, result.vector(init_labels, physical), bases
            )
    return transform_attributed_to_terms(
        attributed,
        num_init=len(init_lines),
        num_meas=len(meas_lines),
        axis_cut_ids=[line.init_cut for line in init_lines]
        + [line.meas_cut for line in meas_lines],
        num_effective=subcircuit.num_effective,
        subcircuit_index=subcircuit.index,
    )


def synthetic_reference(
    subcircuit: Subcircuit,
    num_active: int,
    num_fixed: int,
    rng: np.random.Generator,
    distribution: str = "random",
) -> TermTensor:
    """``RandomTensorProvider``'s tensor the long way, rows in Eq. (2)'s
    terms: per (init, attributed basis) combination, the merged draw of its
    physical circuit (I and Z share one, drawn at the first use), signed per
    Eq. (3)."""
    num_init = len(subcircuit.init_lines)
    num_meas = len(subcircuit.meas_lines)
    kept = 1 << num_active
    mass = 0.5**num_fixed
    size = (1 << num_meas) * kept
    attributed = np.zeros((4,) * (num_init + num_meas) + (kept,))
    for init_combo in itertools.product(range(4), repeat=num_init):
        physical: Dict[tuple, np.ndarray] = {}
        for basis_combo in itertools.product(range(4), repeat=num_meas):
            bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
            key = tuple("Z" if b == "I" else b for b in bases)
            if key not in physical:
                if distribution == "uniform":
                    flat = np.full(size, mass / size)
                else:
                    flat = rng.random(size)
                    flat *= mass / flat.sum()
                physical[key] = flat.reshape((2,) * num_meas + (kept,))
            tensor = physical[key]
            for axis in reversed(range(num_meas)):
                tensor = np.tensordot(tensor, _SIGNS[bases[axis]], axes=([axis], [0]))
            attributed[init_combo + basis_combo] = tensor.reshape(-1)
    return transform_attributed_to_terms(
        attributed,
        num_init=num_init,
        num_meas=num_meas,
        axis_cut_ids=[line.init_cut for line in subcircuit.init_lines]
        + [line.meas_cut for line in subcircuit.meas_lines],
        num_effective=num_active,
        subcircuit_index=subcircuit.index,
    )


def transform_attributed_to_terms(
    attributed: np.ndarray,
    num_init: int,
    num_meas: int,
    axis_cut_ids: Sequence[int],
    num_effective: int,
    subcircuit_index: int,
) -> TermTensor:
    """Eq. (2)'s 4-term transforms per axis, then the cut axes in cut-id order.

    ``attributed`` has one length-4 axis per init cut (init-state index),
    one length-4 axis per measurement cut (attributed basis index in
    ``ATTRIBUTION_BASES`` order) and a trailing output axis.
    """
    tensor = np.ascontiguousarray(attributed)
    terms = [DOWNSTREAM_TERMS] * num_init + [UPSTREAM_TERMS] * num_meas
    for axis, matrix in enumerate(terms):
        # (4, 4) @ (lead, 4, rest): the term axis lands where ``axis`` was.
        tensor = np.matmul(matrix, tensor.reshape(4**axis, 4, -1))
    tensor = tensor.reshape(attributed.shape)
    order = sorted(range(len(axis_cut_ids)), key=lambda i: axis_cut_ids[i])
    tensor = np.transpose(tensor, axes=list(order) + [len(axis_cut_ids)])
    data = tensor.reshape(4 ** len(order), attributed.shape[-1])
    return TermTensor(
        subcircuit_index, [axis_cut_ids[i] for i in order], num_effective, data
    )


def to_eq2_basis(tensor: TermTensor, subcircuit: Subcircuit) -> TermTensor:
    """A built tensor with Eq. (2)'s rows: ``D`` applied on each init-cut
    axis (``q -> D q``), ``D^-T`` on each measured-cut axis
    (``D^T u -> u``)."""
    maps = {line.init_cut: DOWNSTREAM_TERMS for line in subcircuit.init_lines}
    maps.update(
        {line.meas_cut: DOWNSTREAM_INVERSE.T for line in subcircuit.meas_lines}
    )
    return _map_cut_axes(tensor, maps)


def from_eq2_basis(tensor: TermTensor, subcircuit: Subcircuit) -> TermTensor:
    """The inverse of :func:`to_eq2_basis`."""
    maps = {line.init_cut: DOWNSTREAM_INVERSE for line in subcircuit.init_lines}
    maps.update({line.meas_cut: DOWNSTREAM_TERMS.T for line in subcircuit.meas_lines})
    return _map_cut_axes(tensor, maps)


def _map_cut_axes(tensor: TermTensor, maps: Dict[int, np.ndarray]) -> TermTensor:
    """Apply ``maps[cut]`` (a ``(4, 4)`` matrix) on each cut's axis."""
    data = tensor.data.reshape((4,) * tensor.num_cuts + (-1,))
    for axis, cut in enumerate(tensor.cut_order):
        data = np.moveaxis(np.tensordot(maps[cut], data, axes=([1], [axis])), 0, axis)
    return TermTensor(
        tensor.subcircuit_index,
        list(tensor.cut_order),
        tensor.num_effective,
        np.ascontiguousarray(data).reshape(tensor.data.shape),
    )
