"""Turn raw subcircuit results into per-cut *term tensors*.

Equation (2) expands every cut into four paired terms: the upstream
(measured) side contributes ``u = (p_I + p_Z, p_I - p_Z, p_X, p_Y)`` and
the downstream (initialized) side ``D q``, where ``p_M`` is the subcircuit
distribution measured in basis ``M`` with the cut qubit *attributed away*
with signs per Eq. (3) (+ for outcome 0, - for outcome 1; basis I
attributes both outcomes with +), ``q = (q_0, q_1, q_+, q_+i)`` holds the
distributions with the cut qubit initialized to each state, and ``D`` is
:data:`DOWNSTREAM_TERMS`::

    D q = (q_0,  q_1,  2 q_+ - q_0 - q_1,  2 q_+i - q_0 - q_1)

Every consumer only ever forms the per-cut pairing ``sum_t u_t (D q)_t``,
and ``sum_t u_t (D q)_t = sum_s (D^T u)_s q_s``.  So the term tensors pair
the cut the other way round: a downstream row ``s`` *is* ``q_s`` (no
transform at all), and an upstream row ``s`` is ``(D^T u)_s``::

    D^T u = (u_1 - u_3 - u_4,  u_2 - u_3 - u_4,  2 u_3,  2 u_4)

``D^T`` is folded into the constant per-line maps :data:`MEASURE_TERMS`
and :data:`MEASURE_FORMS`, so the contraction the upstream side runs
anyway applies it, and no pass over the ``4^K``-row tensor transforms it
afterwards.  Each cut's index is shared by exactly two tensors and
summed over, so every reconstruction — kron, tensor network, DD
collapse — equals Eq. (2)'s; only the rows of one tensor on its own
differ from Eq. (2)'s terms.

A subcircuit touching ``m`` cuts yields a tensor with one length-4 axis
per cut, in cut-id order, plus a length ``2^f`` axis of effective
outputs; the reconstructor combines these tensors over all ``4^K``
assignments.  The tensor is built once per
:class:`SubcircuitResult` and memoised on it, and each block of it is
written once, straight into its final place.

An exact result holds amplitudes, not ``p``/``q`` vectors, and the tensor is
built from them directly: the ``q_s`` rows by linearity in the inits, and
the upstream rows as sesquilinear forms of the measured qubit's amplitudes
(``<psi|M|psi>`` for ``M = 2|0><0| - X - Y, 2|1><1| - X - Y, 2X, 2Y``,
with outcome 0 of the Y circuit ``H Sdg`` being the ``+i`` eigenstate) —
no raw vector is formed.  Results without amplitudes (noisy, device,
custom backend, sampled shots: a mixed state has none) build from their
``(4^rho, 3^O, 2^w)`` distributions array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.variants import SubcircuitResult
from ..obs import trace
from ..obs.metrics import get_registry
from ..sim.noisy_batch import BASIS_MATRICES, MEAS_BASES, expand_inits

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

#: Eq. (2)'s upstream terms ``u``: rows = the four cut terms, columns =
#: attributed bases (I, X, Y, Z).
UPSTREAM_TERMS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],   # t1 = p_I + p_Z
        [1.0, 0.0, 0.0, -1.0],  # t2 = p_I - p_Z
        [0.0, 1.0, 0.0, 0.0],   # t3 = p_X
        [0.0, 0.0, 1.0, 0.0],   # t4 = p_Y
    ]
)

#: Eq. (2)'s downstream terms ``D``: rows = the four cut terms, columns =
#: init states (|0>, |1>, |+>, |+i>).  Folded into the upstream side as
#: ``D^T``; no downstream row is ever transformed.
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
#: One measurement line, whole: ``(4 rows, 3 physical bases, 2 outcomes)``,
#: row ``s`` giving ``(D^T u)_s`` — :data:`UPSTREAM_TERMS` with the signs,
#: the I->Z reuse and :data:`DOWNSTREAM_TERMS` transposed folded in.
MEASURE_TERMS = np.einsum(
    "ts,ta,ab,ac->sbc", DOWNSTREAM_TERMS, UPSTREAM_TERMS, 1.0 * _CIRCUIT, _SIGNS
)
#: The same four rows as sesquilinear forms of one measured qubit's
#: amplitudes: ``row = sum_aa' MEASURE_FORMS[s, 2a + a'] psi[a] conj(psi[a'])``.
#: Derived from the constants the raw-vector build uses, so it cannot drift;
#: evaluates to ``<psi|M|psi>`` for ``M = 2|0><0| - X - Y, 2|1><1| - X - Y,
#: 2X, 2Y``.
_ROTATIONS = np.stack([np.eye(2), BASIS_MATRICES["X"], BASIS_MATRICES["Y"]])
MEASURE_FORMS = np.einsum(
    "tbs,bsa,bsc->tac", MEASURE_TERMS, _ROTATIONS, _ROTATIONS.conj()
).reshape(4, 4)

#: Raw bytes gathered per step, so a build never holds a second copy of a
#: subcircuit's results and each step's block stays cache-resident.
_GATHER_BYTES = 1 << 20

_BUILD_SECONDS = get_registry().histogram(
    "repro_attribute_seconds", "Term-tensor build wall time per subcircuit.",
    ("source",),
)
_BUILDS = get_registry().counter(
    "repro_attribute_builds_total",
    "build_term_tensor calls by whether the result's memo served them.",
    ("cached",),
)


@dataclass
class TermTensor:
    """All 4-row combinations of one subcircuit, ready for reconstruction.

    ``data[row]`` is the effective-output vector for the cut-row assignment
    encoded by ``row``: with ``cut_order = [c1, ..., cm]``,
    ``row = t(c1) * 4^(m-1) + ... + t(cm)`` where ``t(c)`` in 0..3.  An
    init cut's row ``s`` is ``q_s``, a measured cut's is ``(D^T u)_s``
    (module docstring), so pairing the two sides' rows of a cut gives
    Eq. (2)'s sum.  ``nonzero`` flags the rows that are not all zero (a
    reconstruction skips the others); it is derived from ``data`` when not
    given.
    """

    subcircuit_index: int
    cut_order: List[int]
    num_effective: int
    data: np.ndarray  # shape (4^m, 2^f)
    nonzero: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.nonzero is None:
            self.nonzero = np.logical_or.reduce(self.data != 0.0, axis=1)

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
    cut_ids = [line.init_cut for line in init_lines]
    cut_ids += [line.meas_cut for line in meas_lines]
    if result.amplitudes is not None:
        source, read = "amplitudes", result.amplitudes.nbytes
    else:
        source, read = "vectors", result.distributions.nbytes
    began = time.perf_counter()
    data, out = _term_layout(cut_ids, 1 << subcircuit.num_effective)
    with trace.span(
        "attribute",
        {"subcircuit": subcircuit.index, "rho": len(init_lines),
         "num_meas": len(meas_lines), "source": source, "bytes": read,
         "bytes_out": data.nbytes},
    ):
        if result.amplitudes is not None:
            _attribute_amplitudes(result, out)
        else:
            meas_axes = [line.line for line in meas_lines]
            _attribute_vectors(result.distributions, meas_axes, out)
        result.term_tensor = TermTensor(
            subcircuit.index, sorted(cut_ids), subcircuit.num_effective, data
        )
    _BUILD_SECONDS.observe(time.perf_counter() - began, source=source)
    _BUILDS.inc(cached="false")
    return result.term_tensor


def _term_layout(
    cut_ids: Sequence[int], vec_len: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A term tensor's ``(4^m, vec_len)`` data, rows in ascending cut-id
    order, and a view of it with one length-4 axis per entry of
    ``cut_ids`` *in the order given*, then the output axis: a fill writes
    in its own axis order and the data comes out in the reconstructor's."""
    data = np.empty((4 ** len(cut_ids), vec_len))
    axes = np.argsort(np.argsort(cut_ids)).tolist() + [len(cut_ids)]
    out = data.reshape((4,) * len(cut_ids) + (vec_len,)).transpose(axes)
    return data, out


def _init_blocks(
    out: np.ndarray, num_init: int, row_bytes: int
) -> Tuple[int, Iterator[np.ndarray]]:
    """Cut ``out``'s leading ``num_init`` (init) axes into blocks of the
    ``4^tail`` rows of the trailing ``tail`` of them, as many as fit in
    ``_GATHER_BYTES`` at ``row_bytes`` each: ``(tail, the blocks' views in
    row order)``."""
    step = max(1, _GATHER_BYTES // row_bytes)
    tail = min(num_init, (step.bit_length() - 1) // 2)
    return tail, (out[index] for index in np.ndindex((4,) * (num_init - tail)))


def _attribute_amplitudes(result: SubcircuitResult, out: np.ndarray) -> None:
    """Fill ``out`` (init axes, then measured lines, then outputs) from an
    exact result's basis-column amplitudes.

    Per block of init rows: (i) the rows' amplitudes by linearity in the
    inits; (ii) with the measured qubits in front, the outer product
    ``psi[a] * conj(psi)[a']`` over them — pairs ``(a, a')`` interleaved
    per line — and one :data:`MEASURE_FORMS` gemm per measured line, each
    rotating its line's row axis to the back; the real part is the block,
    written once into its place.  Without measured lines the block is
    ``re^2 + im^2``.  Leading init lines are expanded once, the trailing
    ones per block, so the temporaries stay within ``_GATHER_BYTES``.
    """
    subcircuit = result.subcircuit
    num_init = len(subcircuit.init_lines)
    meas = [1 + line.line for line in subcircuit.meas_lines]
    kept = [1 + line.line for line in subcircuit.output_lines]
    # The outer product holds 4^O * 2^f complex numbers per init row.
    tail, blocks = _init_blocks(out, num_init, 16 * 4 ** len(meas) * 2 ** len(kept))
    lead = expand_inits(
        result.amplitudes.reshape(1 << (num_init - tail), -1), num_init - tail
    )
    for columns, block in zip(lead, blocks):
        psi = expand_inits(columns.reshape(1 << tail, -1), tail)
        if not meas:
            block[...] = (psi.real**2 + psi.imag**2).reshape(block.shape)
            continue
        psi = psi.reshape((4**tail,) + (2,) * subcircuit.width)
        ket = psi.transpose(meas + [0] + kept).reshape((2, 1) * len(meas) + (-1,))
        tensor = ket * ket.conj().reshape((1, 2) * len(meas) + (-1,))
        for _ in meas:
            tensor = tensor.reshape(4, -1).T @ MEASURE_FORMS.T
        # (init rows, outputs, measured rows): the outputs move to the back.
        tensor = tensor.real.reshape((4,) * tail + (-1,) + (4,) * len(meas))
        block[...] = np.moveaxis(tensor, tail, -1)


def _attribute_vectors(
    distributions: np.ndarray, meas_axes: Sequence[int], out: np.ndarray
) -> None:
    """Fill ``out`` (init axes, then measured lines, then outputs) from
    ``(4^rho, 3^O, 2^w)`` distributions (noisy, device, custom backend,
    sampled shots), whose measured lines are the qubit axes ``meas_axes``
    (ascending): ``_GATHER_BYTES`` of init rows at a time, each measured
    line's (basis axis, qubit axis) pair contracted against
    :data:`MEASURE_TERMS`, each block written once into its place."""
    num_meas = len(meas_axes)
    width = distributions.shape[-1].bit_length() - 1
    tail, blocks = _init_blocks(out, out.ndim - 1 - num_meas, distributions[0].nbytes)
    rows = 4**tail
    for index, block in enumerate(blocks):
        tensor = distributions[index * rows : (index + 1) * rows].reshape(
            (rows,) + (3,) * num_meas + (2,) * width
        )
        # Highest line first: lower qubit axes keep their positions, each
        # step shrinks the block 6 -> 4 and prepends the line's row axis.
        for axis in reversed(meas_axes):
            axes = ([1, 2], [num_meas, num_meas + 1 + axis])
            tensor = np.tensordot(MEASURE_TERMS, tensor, axes=axes)
        # (measured rows, init rows, outputs): the init rows move to the front.
        tensor = tensor.reshape((4,) * (num_meas + tail) + (-1,))
        block[...] = np.moveaxis(tensor, range(num_meas), range(tail, tail + num_meas))
