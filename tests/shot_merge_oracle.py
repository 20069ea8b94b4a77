"""Shot-level DD oracles.

:func:`merged_collapse` is the shot collapse written out the long way, as
Algorithm 1 states it: per init combination, one multinomial per physical
basis combination, the counts grouped per qubit role ("meas bits kept,
active bits kept, fixed selected, merged summed"), signed per attributed
basis, then Eq. (2)'s 4-term transforms.  ``ShotBasedTensorProvider``
instead draws the same multinomials into a sampled-frequency result and
collapses it like any evaluated result (term tensor, then roles); with the
same generator both must agree (through ``to_eq2_basis``) and leave the
generator in the same state.

:func:`first_recursion_error` is the oracle of shot-based DD on a noisy
pipeline: its first recursion converges to the marginal of the *same*
pipeline's ``fd_query()``, because both read one set of evaluated results.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.cutting.cutter import Subcircuit
from repro.cutting.variants import MEAS_BASES
from repro.metrics import chi_square_loss
from repro.postprocess.attribution import ATTRIBUTION_BASES, TermTensor
from repro.sim.sampler import sample_counts
from repro.utils import marginalize
from tests.attribution_oracle import transform_attributed_to_terms

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}


def merged_collapse(
    subcircuit: Subcircuit,
    distributions: np.ndarray,
    roles: Dict[int, Tuple],
    shots: int,
    rng: np.random.Generator,
) -> Tuple[TermTensor, List[int]]:
    """The collapsed term tensor of ``shots`` draws per variant row."""
    output_lines = subcircuit.output_lines
    meas_lines = subcircuit.meas_lines
    num_meas = len(meas_lines)
    num_init = len(subcircuit.init_lines)
    active_positions = [
        position
        for position, line in enumerate(output_lines)
        if roles[line.wire][0] == "active"
    ]
    active_wires = [output_lines[p].wire for p in active_positions]

    attributed = np.zeros((4,) * (num_init + num_meas) + (1 << len(active_wires),))
    for init_code, init_combo in enumerate(
        itertools.product(range(4), repeat=num_init)
    ):
        merged_by_physical = {}
        for basis_code, physical in enumerate(
            itertools.product(MEAS_BASES, repeat=num_meas)
        ):
            counts = sample_counts(
                distributions[init_code, basis_code], shots, rng
            )
            merged_by_physical[physical] = _merge_counts(
                subcircuit, counts, roles, active_positions, shots
            )
        for basis_combo in itertools.product(range(4), repeat=num_meas):
            bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
            physical = tuple("Z" if b == "I" else b for b in bases)
            tensor = merged_by_physical[physical]
            for axis in reversed(range(num_meas)):
                tensor = np.tensordot(tensor, _SIGNS[bases[axis]], axes=([axis], [0]))
            attributed[init_combo + basis_combo] = tensor.reshape(-1)

    axis_cut_ids = [line.init_cut for line in subcircuit.init_lines] + [
        line.meas_cut for line in meas_lines
    ]
    term_tensor = transform_attributed_to_terms(
        attributed,
        num_init=num_init,
        num_meas=num_meas,
        axis_cut_ids=axis_cut_ids,
        num_effective=len(active_wires),
        subcircuit_index=subcircuit.index,
    )
    return term_tensor, active_wires


def _merge_counts(subcircuit, counts, roles, active_positions, shots):
    """Group shots: meas bits kept, active bits kept, fixed selected,
    merged summed; frequencies with meas axes first, active bits last."""
    output_lines = subcircuit.output_lines
    tensor = counts.reshape((2,) * subcircuit.width).astype(float)
    # Walk output axes from the back so axis indices stay valid.
    for position in reversed(range(len(output_lines))):
        line = output_lines[position]
        role = roles[line.wire]
        if role[0] == "merged":
            tensor = tensor.sum(axis=line.line, keepdims=True)
        elif role[0] == "fixed":
            tensor = np.take(tensor, [int(role[1])], axis=line.line)
    meas_axes = [line.line for line in subcircuit.meas_lines]
    active_axes = [output_lines[p].line for p in active_positions]
    rest = [
        axis
        for axis in range(subcircuit.width)
        if axis not in meas_axes and axis not in active_axes
    ]
    ordered = np.transpose(tensor, axes=meas_axes + active_axes + rest)
    flattened = ordered.reshape((2,) * len(meas_axes) + (1 << len(active_axes),))
    return flattened / shots


def first_recursion_error(pipeline, max_active_qubits: int, shots: int, seed: int):
    """``(L-inf, chi^2, bound)`` of a shot-based first DD recursion against
    the marginal of the same pipeline's FD answer.

    ``bound`` is §3.2's one-sigma error scale, ``2^K * 2 / sqrt(shots)``
    (:func:`~repro.postprocess.shots.estimate_required_shots` inverted at
    ``confidence_sigmas=1``).
    """
    fd = pipeline.fd_query().probabilities
    query = pipeline.dd_query(
        max_active_qubits=max_active_qubits,
        max_recursions=1,
        shots_per_variant=shots,
        seed=seed,
    )
    first = query.recursions[0]
    marginal = marginalize(fd, list(first.active), pipeline.circuit.num_qubits)
    error = float(np.abs(first.probabilities - marginal).max())
    chi2 = chi_square_loss(
        np.clip(first.probabilities, 0.0, None), np.clip(marginal, 0.0, None)
    )
    bound = 2.0 ** pipeline.cut().num_cuts * 2.0 / np.sqrt(shots)
    return error, chi2, bound
