"""Turn raw subcircuit results into per-cut *term tensors*.

Equation (2) expands every cut into four paired terms.  For the upstream
(measured) side the four terms are linear combinations of the attributed
Pauli-basis results::

    t1 = p_I + p_Z     t2 = p_I - p_Z     t3 = p_X     t4 = p_Y

and for the downstream (initialized) side::

    t1 = q_0           t2 = q_1
    t3 = 2 q_+  - q_0 - q_1
    t4 = 2 q_+i - q_0 - q_1

where ``p_M`` is the subcircuit distribution measured in basis ``M`` with
the cut qubit *attributed away* with signs per Eq. (3) (+ for outcome 0,
- for outcome 1; basis I attributes both outcomes with +), and ``q_s`` is
the distribution with the cut qubit initialized to ``s``.

A subcircuit touching ``m`` cuts therefore yields a tensor with one
length-4 axis per cut plus a length ``2^f`` axis of effective outputs; the
reconstructor combines these tensors over all ``4^K`` assignments.  The
tensor is built once per :class:`SubcircuitResult` and memoised on it.

An exact result holds amplitudes, not ``p``/``q`` vectors, and the tensor is
built from them directly: the ``q_s`` rows by linearity in the inits, and
the upstream terms as sesquilinear forms of the measured qubit's amplitudes
(``t1, t2 = 2|psi_0|^2, 2|psi_1|^2``, ``t3 = <X>``, ``t4 = <Y>``, with
outcome 0 of the Y circuit ``H Sdg`` being the ``+i`` eigenstate) — no raw
vector is formed.  Results without amplitudes (noisy, device, custom
backend, sampled shots: a mixed state has none) build from
their ``(4^rho, 3^O, 2^w)`` distributions array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cutting.variants import (
    _BASIS_MATRICES,
    MEAS_BASES,
    SubcircuitResult,
    expand_inits,
)
from ..obs import trace
from ..obs.metrics import get_registry

__all__ = [
    "UPSTREAM_TERMS",
    "DOWNSTREAM_TERMS",
    "ATTRIBUTION_BASES",
    "MEASURE_FORMS",
    "TermTensor",
    "build_term_tensor",
]

#: Attribution bases, in the axis order used below (I reuses the Z circuit).
ATTRIBUTION_BASES: Tuple[str, ...] = ("I", "X", "Y", "Z")

#: Rows = the four cut terms, columns = attributed bases (I, X, Y, Z).
UPSTREAM_TERMS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],   # t1 = p_I + p_Z
        [1.0, 0.0, 0.0, -1.0],  # t2 = p_I - p_Z
        [0.0, 1.0, 0.0, 0.0],   # t3 = p_X
        [0.0, 0.0, 1.0, 0.0],   # t4 = p_Y
    ]
)

#: Rows = the four cut terms, columns = init states (|0>, |1>, |+>, |+i>).
DOWNSTREAM_TERMS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],    # t1 = q_0
        [0.0, 1.0, 0.0, 0.0],    # t2 = q_1
        [-1.0, -1.0, 2.0, 0.0],  # t3 = 2 q_plus - q_0 - q_1
        [-1.0, -1.0, 0.0, 2.0],  # t4 = 2 q_plus_i - q_0 - q_1
    ]
)

#: Eq. (3)'s outcome signs per attributed basis: I sums, X/Y/Z subtract.
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
#: Attributed basis -> the physical circuit that measures it (I reuses Z).
_CIRCUIT = np.char.replace(ATTRIBUTION_BASES, "I", "Z")[:, None] == MEAS_BASES
#: One measurement line, whole: ``(4 terms, 3 physical bases, 2 outcomes)``
#: — :data:`UPSTREAM_TERMS` with the signs and the I->Z reuse folded in.
MEASURE_TERMS = np.einsum("ta,ab,as->tbs", UPSTREAM_TERMS, 1.0 * _CIRCUIT, _SIGNS)
#: The same four terms as sesquilinear forms of one measured qubit's
#: amplitudes: ``t = sum_aa' MEASURE_FORMS[t, 2a + a'] psi[a] conj(psi[a'])``.
#: Derived from the constants the raw-vector build uses, so it cannot drift;
#: evaluates to ``<psi|M|psi>`` for ``M = 2|0><0|, 2|1><1|, X, Y``.
_ROTATIONS = np.stack([np.eye(2), _BASIS_MATRICES["X"], _BASIS_MATRICES["Y"]])
MEASURE_FORMS = np.einsum(
    "tbs,bsa,bsc->tac", MEASURE_TERMS, _ROTATIONS, _ROTATIONS.conj()
).reshape(4, 4)

#: Raw bytes gathered per step, so a build never holds a second copy of a
#: subcircuit's results and each step's block stays cache-resident.
_GATHER_BYTES = 1 << 20

_BUILD_SECONDS = get_registry().histogram(
    "repro_attribute_seconds", "Term-tensor build wall time per subcircuit."
)
_BUILDS = get_registry().counter(
    "repro_attribute_builds_total",
    "build_term_tensor calls by whether the result's memo served them.",
    ("cached",),
)


@dataclass
class TermTensor:
    """All 4-term combinations of one subcircuit, ready for reconstruction.

    ``data[row]`` is the effective-output vector for the cut-term
    assignment encoded by ``row``: with ``cut_order = [c1, ..., cm]``,
    ``row = t(c1) * 4^(m-1) + ... + t(cm)`` where ``t(c)`` in 0..3.
    """

    subcircuit_index: int
    cut_order: List[int]
    num_effective: int
    data: np.ndarray  # shape (4^m, 2^f)
    nonzero: np.ndarray  # bool per row — rows of all zeros can be skipped

    @property
    def num_cuts(self) -> int:
        return len(self.cut_order)

    def row_for(self, terms: Dict[int, int]) -> int:
        """Row index for a global cut->term assignment."""
        row = 0
        for cut_id in self.cut_order:
            row = row * 4 + terms[cut_id]
        return row

    def vector(self, terms: Dict[int, int]) -> np.ndarray:
        return self.data[self.row_for(terms)]


def build_term_tensor(result: SubcircuitResult) -> TermTensor:
    """The result's term tensor: built on first use, then served from it.

    A re-evaluated (or rebound-dirty) subcircuit is a new
    :class:`SubcircuitResult`, so the memo never needs invalidating.  The
    build is array algebra, no per-variant loop, and its source is chosen
    by what the result holds: ``amplitudes`` (exact) or ``distributions``.
    """
    if result.term_tensor is not None:
        _BUILDS.inc(cached="true")
        return result.term_tensor
    subcircuit = result.subcircuit
    init_lines, meas_lines = subcircuit.init_lines, subcircuit.meas_lines
    vec_len = 1 << subcircuit.num_effective
    cut_ids = [line.init_cut for line in init_lines]
    cut_ids += [line.meas_cut for line in meas_lines]
    if result.amplitudes is not None:
        source, fill = "amplitudes", _attribute_amplitudes
        read = result.amplitudes.nbytes
    else:
        source, fill = "vectors", _attribute_vectors
        read = result.distributions.nbytes
    began = time.perf_counter()
    with trace.span(
        "attribute",
        {"subcircuit": subcircuit.index, "rho": len(init_lines),
         "num_meas": len(meas_lines), "source": source, "bytes": read},
    ):
        # One row per init combination, then one length-4 *term* axis per
        # measurement line, then the effective-output axis.
        attributed = np.empty(
            (4 ** len(init_lines),) + (4,) * len(meas_lines) + (vec_len,)
        )
        fill(result, attributed)
        result.term_tensor = transform_attributed_to_terms(
            attributed.reshape((4,) * len(cut_ids) + (vec_len,)),
            num_init=len(init_lines), num_meas=0,  # meas axes hold terms already
            axis_cut_ids=cut_ids, num_effective=subcircuit.num_effective,
            subcircuit_index=subcircuit.index,
        )
    _BUILD_SECONDS.observe(time.perf_counter() - began)
    _BUILDS.inc(cached="false")
    return result.term_tensor


def _attribute_amplitudes(result: SubcircuitResult, attributed: np.ndarray) -> None:
    """Fill ``attributed`` from an exact result's basis-column amplitudes.

    Per block of init rows: (i) the rows' amplitudes by linearity in the
    inits; (ii) with the measured qubits in front, the outer product
    ``psi[a] * conj(psi)[a']`` over them — pairs ``(a, a')`` interleaved
    per line — and one :data:`MEASURE_FORMS` gemm per measured line, each
    rotating its line's term axis to the back; the real part is the block.
    Leading init lines are expanded once, the trailing ones per block, so
    the temporaries stay within ``_GATHER_BYTES``.
    """
    subcircuit = result.subcircuit
    num_init = len(subcircuit.init_lines)
    meas = [1 + line.line for line in subcircuit.meas_lines]
    kept = [1 + line.line for line in subcircuit.output_lines]
    terms = (4,) * len(meas)
    # The outer product holds 4^O * 2^f complex numbers per init row; a
    # block is the 4^tail rows of one combination of the leading inits.
    step = max(1, _GATHER_BYTES // (16 * 4 ** len(meas) * 2 ** len(kept)))
    tail = min(num_init, (step.bit_length() - 1) // 2)
    rows = 4**tail
    lead = expand_inits(
        result.amplitudes.reshape(1 << (num_init - tail), -1), num_init - tail
    )
    for block, columns in enumerate(lead):
        psi = expand_inits(columns.reshape(1 << tail, -1), tail)
        psi = psi.reshape((rows,) + (2,) * subcircuit.width)
        ket = psi.transpose(meas + [0] + kept).reshape((2, 1) * len(meas) + (-1,))
        tensor = ket * ket.conj().reshape((1, 2) * len(meas) + (-1,))
        for _ in meas:
            tensor = tensor.reshape(4, -1).T @ MEASURE_FORMS.T
        attributed[block * rows : (block + 1) * rows] = np.moveaxis(
            tensor.real.reshape((rows, -1) + terms), 1, -1
        )


def _attribute_vectors(result: SubcircuitResult, attributed: np.ndarray) -> None:
    """Fill ``attributed`` from a result's ``(4^rho, 3^O, 2^w)``
    distributions (noisy, device, custom backend, sampled shots):
    ``_GATHER_BYTES`` of init rows at a time, each measurement line's
    (basis axis, qubit axis) pair contracted against
    :data:`MEASURE_TERMS`."""
    subcircuit = result.subcircuit
    meas_lines = subcircuit.meas_lines
    num_meas = len(meas_lines)
    distributions = result.distributions
    step = max(1, _GATHER_BYTES // distributions[0].nbytes)
    for start in range(0, len(distributions), step):
        block = distributions[start : start + step]
        tensor = block.reshape(
            (len(block),) + (3,) * num_meas + (2,) * subcircuit.width
        )
        # Highest line first: lower qubit axes keep their positions, each
        # step shrinks the block 6 -> 4 and prepends the line's term axis.
        for line in reversed(meas_lines):
            axes = ([1, 2], [num_meas, num_meas + 1 + line.line])
            tensor = np.tensordot(MEASURE_TERMS, tensor, axes=axes)
        tensor = tensor.reshape((4,) * num_meas + (len(block), -1))
        attributed[start : start + step] = np.moveaxis(tensor, num_meas, 0)


def transform_attributed_to_terms(
    attributed: np.ndarray,
    num_init: int,
    num_meas: int,
    axis_cut_ids: Sequence[int],
    num_effective: int,
    subcircuit_index: int,
) -> TermTensor:
    """Apply the 4-term transforms and canonicalize cut-axis order.

    ``attributed`` has one length-4 axis per init cut (init-state index),
    one length-4 axis per measurement cut (attributed basis index in
    :data:`ATTRIBUTION_BASES` order) and a trailing output axis.
    """
    tensor = np.ascontiguousarray(attributed)
    terms = [DOWNSTREAM_TERMS] * num_init + [UPSTREAM_TERMS] * num_meas
    for axis, matrix in enumerate(terms):
        # (4, 4) @ (lead, 4, rest): the term axis lands where ``axis`` was.
        tensor = np.matmul(matrix, tensor.reshape(4**axis, 4, -1))
    tensor = tensor.reshape(attributed.shape)

    # Reorder the cut axes to ascending cut id (the reconstructor's
    # canonical order) and flatten to (4^m, 2^f).
    order = sorted(range(len(axis_cut_ids)), key=lambda i: axis_cut_ids[i])
    tensor = np.transpose(tensor, axes=list(order) + [len(axis_cut_ids)])
    cut_order = [axis_cut_ids[i] for i in order]

    data = tensor.reshape(4 ** len(cut_order), attributed.shape[-1])
    return TermTensor(
        subcircuit_index, cut_order, num_effective, data,
        nonzero=np.any(data != 0.0, axis=1),
    )
