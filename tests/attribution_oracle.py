"""The per-variant attribution the production build replaced, kept as oracle.

``attributed_vector`` applies Eq. (3)'s signs to one variant's raw vector;
``reference_term_tensor`` loops it over all ``4^(rho+O)`` (init, basis)
combinations exactly as ``build_term_tensor`` did before it was vectorised.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.cutting.cutter import Subcircuit
from repro.cutting.variants import INIT_LABELS, SubcircuitResult
from repro.postprocess.attribution import (
    ATTRIBUTION_BASES,
    TermTensor,
    transform_attributed_to_terms,
)

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}


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
    """One dictionary look-up and sign chain per (init, basis) combination."""
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
