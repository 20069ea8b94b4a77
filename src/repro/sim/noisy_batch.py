"""Compiled body programs and the three executors that run them.

A subcircuit's ``3^O * 4^rho`` physical variants share one
measurement-free body (paper §3, Fig. 3); only the 1q prep and basis
fragments around it differ.  :class:`BodyProgram` compiles that shared
structure once — the fused clean unitaries with every depolarizing site
located in its block, the exact channel's fused superoperators (compiled
on first use), the prep and basis :class:`Fragment` objects and the map
back to the logical qubits — and :func:`cached_program` memoises it per
process.  The caller routes and keys the body; this module imports
nothing from ``cutting`` or ``devices``.  Three executors run a program,
for cut pieces and uncut circuits (``VirtualDevice.run``) alike:

* **exact**: :func:`basis_column_amplitudes` runs the ``2^rho`` basis
  columns of the init wires in one fused pass, and
  :func:`materialise_distributions` expands them into distributions;
* **density**: the exact channel on a
  :class:`~repro.sim.batch.BatchedStatevector` over ``2n`` axes (ket,
  then bra), prep folded into the product initial state;
* **trajectory**: every trajectory's Pauli injections come from three
  keyed array draws (:func:`draw_injections`).  A body pattern only
  appends Paulis after some gates, so the fusion partition is unchanged:
  a trajectory equals the fused clean walk up to its first injected
  block and rebuilds only the injected blocks (:func:`injected_suffix`).

All three end in one basis-tree walk and one readout / shots /
marginalise epilogue; :func:`noisy_distributions` runs the noisy two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Gate
from ..circuits.gates import gate_matrix
from ..obs import trace
from ..utils import BoundedMemo
from .batch import (
    FUSION_WIDTH,
    BatchedStatevector,
    FusedOp,
    _expand_to_block,
    apply_on_axes,
    block_unitary,
    fuse_gates,
    gate_partition,
)
from .noise import NoiseModel, clean_log_weight, keyed_uniforms, spawn_rng
from .sampler import sample_distribution
from .statevector import INITIAL_STATES

__all__ = [
    "MEAS_BASES",
    "INIT_LABELS",
    "PREP_GATES",
    "BASIS_GATES",
    "BASIS_MATRICES",
    "Fragment",
    "BodyProgram",
    "compile_program",
    "cached_program",
    "program_stats",
    "labels_code",
    "bases_code",
    "expand_inits",
    "basis_column_amplitudes",
    "materialise_distributions",
    "noisy_distributions",
    "draw_injections",
    "fold_matrices",
    "injected_suffix",
    "superoperator",
    "product_density",
    "evolve_density",
    "density_probabilities",
    "apply_readout_error_rows",
    "marginalize_rows",
    "PAULI_NAMES_1Q",
    "PAULI_PAIRS_2Q",
]

#: Physical measurement bases (I reuses the Z circuit during attribution).
MEAS_BASES: Tuple[str, ...] = ("Z", "X", "Y")
#: Downstream initialization states: the row order of an init cut's term axis.
INIT_LABELS: Tuple[str, ...] = ("zero", "one", "plus", "plus_i")
#: ``(4, 2)``: row ``l`` is the 2-vector of ``INIT_LABELS[l]`` — the map from
#: a cut wire's two basis columns to its four initial states.
INIT_MATRIX = np.array([INITIAL_STATES[label] for label in INIT_LABELS])

#: The 1q gates that prepare each init state from |0>, in order.
PREP_GATES: Dict[str, Tuple[str, ...]] = {
    "zero": (),
    "one": ("x",),
    "plus": ("h",),
    "plus_i": ("h", "s"),
}
#: The 1q gates that rotate each basis onto Z before measurement.
BASIS_GATES: Dict[str, Tuple[str, ...]] = {
    "Z": (),
    "X": ("h",),
    "Y": ("sdg", "h"),
}
#: The 2x2 unitary each non-Z basis rotation applies (gate order folded:
#: Y measures through sdg then h, i.e. ``H @ Sdg`` as one matrix).
BASIS_MATRICES: Dict[str, np.ndarray] = {
    "X": gate_matrix("h"),
    "Y": gate_matrix("h") @ gate_matrix("sdg"),
}

PAULI_NAMES_1Q: Tuple[str, ...] = ("x", "y", "z")
#: Non-identity two-qubit Pauli pairs, in the serial simulator's order.
PAULI_PAIRS_2Q: Tuple[Tuple[str, str], ...] = tuple(
    (a, b)
    for a in ("i", "x", "y", "z")
    for b in ("i", "x", "y", "z")
    if not (a == "i" and b == "i")
)
_KET_ZERO = INITIAL_STATES["zero"]
_ZERO_RHO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def labels_code(labels: Sequence[str], alphabet=INIT_LABELS) -> int:
    """Global combo index: mixed-radix over ``alphabet`` (init labels, or
    :data:`MEAS_BASES` for :func:`bases_code`).

    Derived from the combo *content*, so RNG keys built on it are
    independent of how the init space was chunked across workers.
    """
    code = 0
    for label in labels:
        code = code * len(alphabet) + alphabet.index(label)
    return code


def bases_code(bases: Sequence[str]) -> int:
    """Global basis-combo index (mixed-radix over :data:`MEAS_BASES`)."""
    return labels_code(bases, MEAS_BASES)


# ----------------------------------------------------------------------
# The compiled program and its memo
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Fragment:
    """A compiled 1q prep/basis fragment on one simulated wire.

    ``gates`` are the fragment's (possibly native-decomposed) gates on
    the simulated register; ``matrices`` are their 2x2 unitaries and
    ``matrix`` the noise-free fold of those; ``log_clean`` the fragment's
    no-injection log-weight.  Prep fragments also carry ``rho``/``vector``,
    the per-qubit 2x2 noisy density / clean 2-vector they leave behind —
    this is how prep folds into the first body block instead of costing a
    pass.
    """

    gates: Tuple[Gate, ...]
    wire: int
    log_clean: float
    matrices: Tuple[np.ndarray, ...]
    matrix: np.ndarray
    rho: Optional[np.ndarray] = None
    vector: Optional[np.ndarray] = None


def _as_is(gate: Gate) -> Tuple[Gate, ...]:
    return (gate,)


#: Injected blocks one program keeps (<= 4 KiB each): an ``fd_noisy`` pass
#: reuses at most ~50 per program, and a fixed seed repeats them.
_INJECTED_LIMIT = 128


@dataclass(frozen=True, eq=False)
class BodyProgram:
    """One subcircuit body, compiled once for every variant and executor.

    The body: ``blocks`` holds the gate tuple of each fusion block and
    ``ops`` its clean unitary; the gates carrying a depolarizing site
    have their rates in ``site_rates``, their number of non-identity
    Paulis (3 or 15) in ``site_choices`` and their ``(block, offset)`` in
    ``site_slots``, in circuit order; ``log_clean`` is the body's
    no-injection log-weight.  The density executor runs
    :attr:`density_ops`, compiled from the same gates on first use.

    The variants: ``init_wires`` / ``meas_wires`` are where the init /
    measurement lines start / end, ``keep`` the wire each logical qubit
    is measured on (``None`` when the register is the subcircuit's own)
    and ``lower`` the rewrite of a 1q fragment gate into the gates that
    run.  The fragments (:attr:`prep`, :attr:`basis`, :attr:`edges`)
    compile on first use, so the exact path never builds a prep one.

    ``injected`` memoises :func:`injected_suffix`'s blocks by ``(block,
    ((offset, choice), ...))``, bounded at :data:`_INJECTED_LIMIT`.
    """

    num_wires: int
    noise: NoiseModel
    blocks: Tuple[Tuple[Gate, ...], ...]
    ops: Tuple[FusedOp, ...]
    site_rates: np.ndarray
    site_choices: np.ndarray
    site_slots: Tuple[Tuple[int, int], ...]
    log_clean: float
    init_wires: Tuple[int, ...]
    meas_wires: Tuple[int, ...]
    keep: Optional[Tuple[int, ...]] = None
    lower: Callable[[Gate], Sequence[Gate]] = _as_is
    injected: BoundedMemo = field(
        default_factory=lambda: BoundedMemo("program_injected", _INJECTED_LIMIT),
        init=False, repr=False,
    )

    @property
    def num_meas(self) -> int:
        return len(self.meas_wires)

    @property
    def width(self) -> int:
        """Qubits of one output distribution (the logical register)."""
        return self.num_wires if self.keep is None else len(self.keep)

    def _fragment(self, names: Sequence[str], wire: int, prep: bool) -> Fragment:
        gates = tuple(g for name in names for g in self.lower(Gate(name, (wire,))))
        matrices = tuple(gate.matrix() for gate in gates)
        matrix = fold_matrices(matrices)
        return Fragment(
            gates=gates, wire=wire, log_clean=clean_log_weight(gates, self.noise),
            matrices=matrices, matrix=matrix,
            rho=_prep_density(gates, self.noise.error_1q) if prep else None,
            vector=matrix @ _KET_ZERO if prep else None,
        )

    @cached_property
    def prep(self) -> Dict[Tuple[str, int], Fragment]:
        """The prep :class:`Fragment` of each ``(label, line)``."""
        return {
            (label, line): self._fragment(PREP_GATES[label], wire, True)
            for line, wire in enumerate(self.init_wires)
            for label in INIT_LABELS
        }

    @cached_property
    def basis(self) -> Dict[Tuple[str, int], Fragment]:
        """The basis :class:`Fragment` of each ``(basis, line)``."""
        return {
            (name, line): self._fragment(BASIS_GATES[name], wire, False)
            for line, wire in enumerate(self.meas_wires)
            for name in MEAS_BASES
        }

    @cached_property
    def edges(self) -> Tuple[Tuple[Tuple[int, int], Fragment], ...]:
        """The basis tree's edges whose fragment has gates, as ``((line,
        child code), fragment)`` — the items trajectory draws key on."""
        edges = []
        for line in range(self.num_meas):
            for child in range(len(MEAS_BASES) ** (line + 1)):
                fragment = self.basis[(MEAS_BASES[child % len(MEAS_BASES)], line)]
                if fragment.gates:
                    edges.append(((line, child), fragment))
        return tuple(edges)

    @cached_property
    def density_ops(self) -> Tuple[FusedOp, ...]:
        """The exact channel as fused superoperators on ``2n`` axes.

        The flattened ``blocks`` are a valid gate order.  Each gate,
        followed by its site's depolarizing map (if it has one), is one
        :func:`superoperator`; the gates are partitioned to
        ``FUSION_WIDTH // 2`` qubits, so a fused op acts on at most
        ``FUSION_WIDTH`` axes — ket qubits ``Q`` then bra axes
        ``n + Q`` — of a :func:`product_density` state.  Compiled only
        when a density pass first asks, and held with the program in the
        bounded program memo.
        """
        gates = [gate for block in self.blocks for gate in block]
        starts = np.cumsum([0] + [len(block) for block in self.blocks])
        rates = [0.0] * len(gates)
        for rate, (block, offset) in zip(self.site_rates, self.site_slots):
            rates[starts[block] + offset] = float(rate)
        ops = []
        for members in gate_partition(gates, FUSION_WIDTH // 2):
            qubits = sorted({q for p in members for q in gates[p].qubits})
            position_of = {qubit: index for index, qubit in enumerate(qubits)}
            width = 2 * len(qubits)
            matrix = np.eye(1 << width, dtype=complex)
            for position in members:
                gate = gates[position]
                ket = [position_of[q] for q in gate.qubits]
                bra = [len(qubits) + index for index in ket]
                channel = superoperator(gate.matrix(), rates[position])
                matrix = _expand_to_block(channel, ket + bra, width) @ matrix
            axes = tuple(qubits) + tuple(self.num_wires + q for q in qubits)
            ops.append(FusedOp(matrix=matrix, qubits=axes))
        return tuple(ops)


def fold_matrices(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """The 2x2 product of ``matrices`` applied in order."""
    matrix = np.eye(2, dtype=complex)
    for factor in matrices:
        matrix = factor @ matrix
    return matrix


def _prep_density(gates: Sequence[Gate], error_1q: float) -> np.ndarray:
    """The 2x2 density a noisy 1q prep fragment leaves on its wire."""
    rho = _ZERO_RHO.copy()
    lam = error_1q * 4.0 / 3.0
    for gate in gates:
        matrix = gate.matrix()
        rho = matrix @ rho @ matrix.conj().T
        if error_1q > 0.0:
            rho = (1.0 - lam) * rho + lam * np.trace(rho) * np.eye(2) / 2.0
    return rho


def compile_program(
    gates: Sequence[Gate],
    num_wires: int,
    init_wires: Sequence[int],
    meas_wires: Sequence[int],
    noise: NoiseModel,
    keep: Optional[Sequence[int]] = None,
    lower: Callable[[Gate], Sequence[Gate]] = _as_is,
) -> BodyProgram:
    """Compile a body placed on ``num_wires`` simulated wires.

    ``init_wires`` / ``meas_wires`` are where each init / measurement
    line starts / ends on that register; ``lower`` rewrites one 1q
    fragment gate into the gates that run (a device's native
    decomposition).  Depolarizing noise applies after *every* gate with a
    non-zero rate; each such gate becomes a site, located by its fusion
    block and its offset in it.  With a noiseless model the program has
    no sites and ``ops`` is the exact path's fused body.
    """
    gates = tuple(gates)
    rates = [noise.error_2q if g.is_multiqubit else noise.error_1q for g in gates]
    site_gates = [position for position, rate in enumerate(rates) if rate > 0.0]
    members = gate_partition(gates)
    slot_of = {
        position: (block, offset)
        for block, group in enumerate(members)
        for offset, position in enumerate(group)
    }
    return BodyProgram(
        num_wires=int(num_wires),
        noise=noise,
        blocks=tuple(tuple(gates[p] for p in group) for group in members),
        ops=tuple(fuse_gates(gates)),
        site_rates=np.array([float(rates[p]) for p in site_gates]),
        site_choices=np.array(
            [len(PAULI_PAIRS_2Q if gates[p].is_multiqubit else PAULI_NAMES_1Q)
             for p in site_gates],
            dtype=np.intp,
        ),
        site_slots=tuple(slot_of[position] for position in site_gates),
        log_clean=clean_log_weight(gates, noise),
        init_wires=tuple(init_wires),
        meas_wires=tuple(meas_wires),
        keep=None if keep is None else tuple(keep),
        lower=lower,
    )


#: Per-process program memo — the fused-body residency layer: chunks of
#: the same subcircuit landing on the same warm worker reuse the routed,
#: planned and fused body instead of re-transpiling/re-fusing per payload.
_PROGRAMS = BoundedMemo("program", 128)


def cached_program(
    key: Hashable, build: Callable[[], BodyProgram]
) -> BodyProgram:
    """The memoised program for ``key``; ``build()`` runs on a miss.

    ``key`` must determine the program: the body, where its lines sit,
    the routing target and the noise model.  Two threads missing on one
    key both build the same program.
    """
    return _PROGRAMS.get_or_build(key, build)


def program_stats() -> dict:
    """Per-process ``{hits, misses, size}`` of the program memo."""
    return _PROGRAMS.stats()


# ----------------------------------------------------------------------
# The shared basis-tree walk and epilogue
# ----------------------------------------------------------------------

def _walk(program, state, leaf, noisy=None, prune=False, density=False,
          line=0, bases=(), code=0):
    """Depth-first over measurement lines, sharing basis prefixes.

    Calls ``leaf(bases, probabilities)`` once per basis combo reached, in
    :func:`bases_code` order.  A pure ``state`` takes each fragment's
    ``matrix`` on its wire; a ``density`` state takes the 4x4
    superoperator of its gates and 1q sites on the wire's ket and bra
    axes.  ``noisy`` maps a tree edge ``(line,
    child code)`` to its injected fragment matrix; with ``prune`` only
    subtrees holding such an edge are entered, and everything below one.
    ``state`` is never written to.
    """
    if line == program.num_meas:
        leaf(bases, density_probabilities(state) if density
             else state.probabilities())
        return
    noisy = noisy or {}
    for number, name in enumerate(MEAS_BASES):
        child = code * len(MEAS_BASES) + number
        if prune and not any(
            at >= line and edge // len(MEAS_BASES) ** (at - line) == child
            for at, edge in noisy
        ):
            continue
        fragment = program.basis[(name, line)]
        matrix = noisy.get((line, child))
        branch = state
        if fragment.gates and density:
            # The fragment's gates, each with its 1q site: one 4x4
            # superoperator on the wire's ket and bra axes.
            channel = np.eye(4, dtype=complex)
            for factor in fragment.matrices:
                channel = superoperator(factor, program.noise.error_1q) @ channel
            axes = [fragment.wire, program.num_wires + fragment.wire]
            branch = state.applied(channel, axes)
        elif fragment.gates:
            rotation = fragment.matrix if matrix is None else matrix
            branch = state.applied(rotation, [fragment.wire])
        _walk(program, branch, leaf, noisy, prune and matrix is None,
              density, line + 1, bases + (name,), child)


def _distributions(program, leaves, codes, shots, seed, index):
    """The epilogue: readout, shots and marginalisation of every leaf.

    ``leaves`` maps a basis combo to its ``(len(codes), 2^num_wires)``
    rows; row ``r`` is init combo ``codes[r]``.  Shots draw from
    :func:`~repro.sim.noise.spawn_rng` at ``(3, index, row code, basis
    code)``, before marginalising.  Returns the ``(len(codes), 3^O,
    2^width)`` float64 distributions.
    """
    distributions = np.empty(
        (len(codes), len(MEAS_BASES) ** program.num_meas, 1 << program.width)
    )
    for bases, rows in leaves.items():
        rows = apply_readout_error_rows(rows, program.noise.readout)
        code = bases_code(bases)
        if shots:
            rows = np.stack(
                [
                    sample_distribution(
                        rows[row], shots, spawn_rng(seed, 3, index, codes[row], code)
                    )
                    for row in range(len(codes))
                ]
            )
        if program.keep is not None:
            rows = marginalize_rows(rows, program.keep, program.num_wires)
        distributions[:, code] = rows
    return distributions


# ----------------------------------------------------------------------
# Exact executor: one fused body pass over the 2^rho basis columns
# ----------------------------------------------------------------------

def basis_column_amplitudes(
    program: BodyProgram,
    columns: Optional[Tuple[int, int]] = None,
    index: int = 0,
) -> Tuple[np.ndarray, int]:
    """Final amplitudes of the init wires' computational-basis columns.

    Column ``c`` puts bit ``k`` of ``c`` (MSB first) on init line ``k`` and
    ``|0>`` on every other wire: the initial batch is rows of an identity
    scattered to the init wires.  ``columns = (start, stop)`` restricts
    the sweep to a range — the init batch a
    :class:`~repro.core.executor.VariantExecutor` payload carries; the
    range is one fused pass (``(stop - start) * 2^width * 16`` bytes per
    live tensor).  ``index`` labels the span.  Returns the ``(stop -
    start, 2^width)`` complex128 slab and the number of passes, 1.
    """
    width = program.num_wires
    wires = program.init_wires
    start, stop = columns or (0, 1 << len(wires))
    members = np.arange(start, stop)
    basis_index = np.zeros_like(members)
    for k, wire in enumerate(wires):
        bit = (members >> (len(wires) - 1 - k)) & 1
        basis_index |= bit << (width - 1 - wire)
    count = stop - start
    with trace.span(
        "evaluate.variant_batch",
        {"subcircuit": index, "width": width, "columns": count,
         "rho": len(wires), "num_meas": program.num_meas},
    ):
        data = np.zeros((count, 1 << width), dtype=complex)
        data[np.arange(count), basis_index] = 1.0
        state = BatchedStatevector(width, count, data)
        return state.apply_fused(program.ops).amplitudes(), 1


def expand_inits(columns: np.ndarray, num_lines: int) -> np.ndarray:
    """Fan-in by linearity: ``(2^k, m)`` basis-column amplitudes to the
    ``(4^k, m)`` amplitudes of every :data:`INIT_LABELS` combination."""
    tensor = columns
    for axis in range(num_lines):
        # (4, 2) @ (lead, 2, rest): the label axis lands where ``axis`` was.
        tensor = np.matmul(INIT_MATRIX, tensor.reshape(4**axis, 2, -1))
    return tensor.reshape(4**num_lines, -1)


def materialise_distributions(
    program: BodyProgram, amplitudes: np.ndarray
) -> np.ndarray:
    """The ``(4^rho, 3^O, 2^width)`` variant distributions of an exact result.

    Expands the inits, walks the ``3^O`` basis rotations and squares.
    Off the hot path: term tensors build from the amplitudes.
    """
    states = expand_inits(amplitudes, len(program.init_wires))
    leaves: Dict[Tuple[str, ...], np.ndarray] = {}
    _walk(
        program, BatchedStatevector(program.num_wires, len(states), states),
        leaves.__setitem__,
    )
    return _distributions(program, leaves, range(len(states)), None, None, 0)


# ----------------------------------------------------------------------
# Density and trajectory executors
# ----------------------------------------------------------------------

def noisy_distributions(
    program: BodyProgram,
    combos: Sequence[Tuple[str, ...]],
    method: str,
    trajectories: int,
    shots: Optional[int],
    seed: Optional[int],
    index: int,
) -> Tuple[np.ndarray, int]:
    """Every noisy variant distribution of the init ``combos``.

    ``method="density"`` evolves the exact channel in one batched pass;
    ``"trajectory"`` mixes the clean distribution with the mean of
    ``trajectories`` Pauli-injection samples by the analytic clean weight,
    like the serial oracle ``tests/noisy_oracle.py``
    (:func:`_trajectory_leaves`).  Injections and shots (0 or ``None``:
    none) are keyed on ``seed``, ``index`` and content, so results are
    bit-identical for any worker count or chunking.  Returns the
    ``(len(combos), 3^O, 2^width)`` distributions, marginalised to
    ``program.keep``, and the body passes run (trajectory: clean walk +
    forked suffixes).
    """
    codes = [labels_code(labels) for labels in combos]
    with trace.span(
        "evaluate.noisy_variant_batch",
        {"subcircuit": index, "method": method, "members": len(combos)},
    ) as span:
        if method == "density":
            leaves, num_passes = _density_leaves(program, combos)
        else:
            leaves, num_passes = _trajectory_leaves(
                program, combos, codes, trajectories, seed, index, span
            )
    return _distributions(program, leaves, codes, shots, seed, index), num_passes


def _per_wire(program, members, fill):
    """``members[b]`` maps a wire to its state; other wires hold ``fill``."""
    rows = [[fill] * program.num_wires for _ in members]
    for row, states in zip(rows, members):
        for wire, state in states.items():
            row[wire] = state
    return rows


def _prep_fragments(program, combos):
    """Per init combo, the prep fragment of each init line."""
    return [
        [program.prep[(label, line)] for line, label in enumerate(labels)]
        for labels in combos
    ]


def _density_leaves(program, combos):
    """One exact-channel pass; returns ``bases -> (B, 2^n)`` rows."""
    members = [
        {fragment.wire: fragment.rho for fragment in row}
        for row in _prep_fragments(program, combos)
    ]
    state = product_density(_per_wire(program, members, _ZERO_RHO))
    leaves: Dict[Tuple[str, ...], np.ndarray] = {}
    _walk(program, evolve_density(program, state), leaves.__setitem__,
          density=True)
    return leaves, 1


def _trajectory_leaves(program, combos, codes, trajectories, seed, index, span):
    """One fused clean walk, forked once per injecting trajectory.

    A trajectory whose pattern first injects in block ``b`` shares
    blocks ``0..b-1`` with the clean walk, so it forks off the walk
    there and runs only ``b..end`` with its injected blocks rebuilt.
    One that injects nothing in the body reads the walk's final state,
    and only in the basis subtrees where one of its fragment draws
    fired — every other leaf it would produce is the clean leaf, which
    the estimator does not accumulate.  Rows whose prep fragment fired
    do not start from the walk's state; they run the trajectory's whole
    body as a batch of their own.  All draws come first
    (:func:`draw_injections`, keyed on content), so none of this moves a
    draw.

    Live states are bounded by the walk, one fork and one trajectory's
    prep-fired rows (plus one branch per tree level of a basis walk) —
    never by ``trajectories``.
    """
    batch = len(combos)
    prep = _prep_fragments(program, combos)
    walk = BatchedStatevector.from_product_batch(_per_wire(
        program, [{f.wire: f.vector for f in row} for row in prep], _KET_ZERO
    ))
    sums = {}
    counts = {}
    for bases in itertools.product(MEAS_BASES, repeat=program.num_meas):
        sums[bases] = np.zeros((batch, 1 << program.num_wires))
        counts[bases] = np.zeros(batch, dtype=np.int64)
    forks = []  # blocks applied by each forked pass

    def run(state, ops, first_block, noisy, prune, rows, pick):
        if ops:  # a new batch; ``applied`` never writes to the shared one
            with trace.span(
                "sim.noisy.trajectory_body",
                {"first_block": first_block, "blocks": len(ops)},
            ):
                for op in ops:
                    state = state.applied(op.matrix, op.qubits)
            forks.append(len(ops))

        def accumulate(bases, probabilities):
            sums[bases][rows] += probabilities[pick]
            counts[bases][rows] += 1

        _walk(program, state, accumulate, noisy, prune)

    schedule = []
    for pattern, prep_fired, noisy in draw_injections(
        program, prep, codes, program.edges, program.noise.error_1q, seed,
        index, trajectories,
    ):
        first_block, suffix = (
            (len(program.ops), []) if pattern is None
            else injected_suffix(program, pattern)
        )
        schedule.append((first_block, suffix, prep_fired, noisy))
    cursor = skipped = 0
    for first_block, suffix, prep_fired, noisy in sorted(
        schedule, key=lambda draw: draw[0]
    ):
        for op in program.ops[cursor:first_block]:
            walk.apply_matrix(op.matrix, op.qubits)
        cursor = first_block
        ran = len(forks)
        fired_rows = np.array(sorted(prep_fired), dtype=np.intp)
        rows = slice(None)
        if prep_fired:
            rows = np.flatnonzero(np.bincount(fired_rows, minlength=batch) == 0)
        if len(prep_fired) < batch and (suffix or noisy):
            run(walk, suffix, first_block, noisy, not suffix, rows, rows)
        if prep_fired:
            fired = [prep_fired[row] for row in fired_rows]
            run(
                BatchedStatevector.from_product_batch(
                    _per_wire(program, fired, _KET_ZERO)
                ),
                list(program.ops[:first_block]) + suffix, 0,
                noisy, False, fired_rows, slice(None),
            )
        skipped += ran == len(forks)
    for op in program.ops[cursor:]:
        walk.apply_matrix(op.matrix, op.qubits)
    clean_leaves: Dict[Tuple[str, ...], np.ndarray] = {}
    _walk(program, walk, clean_leaves.__setitem__)
    span.set(
        trajectories=trajectories, forked=len(forks), skipped=skipped,
        blocks_applied=len(program.ops) + sum(forks),
    )

    log_prep = np.array(
        [sum(fragment.log_clean for fragment in row) for row in prep]
    )
    leaves: Dict[Tuple[str, ...], np.ndarray] = {}
    for bases, clean_rows in clean_leaves.items():
        log_weight = (
            program.log_clean
            + log_prep
            + sum(
                program.basis[(name, line)].log_clean
                for line, name in enumerate(bases)
            )
        )
        weight = np.exp(log_weight)[:, None]
        count = counts[bases]
        mixed = clean_rows.copy()
        sampled = count > 0
        if sampled.any():
            mean = sums[bases][sampled] / count[sampled, None]
            mixed[sampled] = (
                weight[sampled] * clean_rows[sampled]
                + (1.0 - weight[sampled]) * mean
            )
        leaves[bases] = mixed
    return leaves, 1 + len(forks)


# ----------------------------------------------------------------------
# Trajectory draws: one shared injection pattern per batched pass
# ----------------------------------------------------------------------

#: Keyed-draw stages (the second key field); stage 3 is shot sampling,
#: which still draws from :func:`~repro.sim.noise.spawn_rng`.
_BODY, _PREP, _BASIS = 0, 1, 2
#: The last key field: lane 0 decides whether an entry fires, lane 1
#: picks its Pauli.
_LANES = np.arange(2).reshape(2, 1, 1)
_PAULI_MATRICES_1Q = tuple(gate_matrix(name) for name in PAULI_NAMES_1Q)


def _fired(seed, key, trajectories, entries, rates, choices):
    """One keyed draw over every ``(trajectory, entry)`` pair.

    ``entries`` are the per-entry key fields, each an ``(E,)`` array, so
    the pair's uniforms sit at ``(*key, trajectory, *entries, lane)``.
    Returns the fired pairs as ``(trajectory, entry, choice)`` lists —
    ``choice`` indexes the entry's ``choices`` non-identity Paulis — and
    the number of uniforms drawn.
    """
    uniforms = keyed_uniforms(
        seed, *key, np.arange(trajectories)[:, None], *entries, _LANES
    )
    trajectory, entry = np.nonzero(uniforms[0] < rates)
    if np.ndim(choices):
        choices = choices[entry]
    choice = (uniforms[1, trajectory, entry] * choices).astype(np.intp)
    return trajectory.tolist(), entry.tolist(), choice.tolist(), uniforms.size


def _injected_fragment(fragment: Any, fired: Dict[int, int]) -> np.ndarray:
    """``fragment``'s gates folded with the Pauli ``fired[g]`` after each
    fired gate ``g``."""
    factors = []
    for gate, matrix in enumerate(fragment.matrices):
        factors.append(matrix)
        if gate in fired:
            factors.append(_PAULI_MATRICES_1Q[fired[gate]])
    return fold_matrices(factors)


def _fragment_hits(seed, key, trajectories, streams, items, rate):
    """One keyed draw over every gate of every 1q fragment stream.

    ``streams[s]`` lists stream ``s``'s fragments and ``items[s]`` its
    key fields; a gate's ``position`` counts the stream's fragment gates
    in order.  Returns ``{(trajectory, s): {fragment: {gate: choice}}}``
    over the fired gates, the number of uniforms drawn and of gates fired.
    """
    slots = [
        (stream, number, gate)
        for stream, fragments in enumerate(streams)
        for number, fragment in enumerate(fragments)
        for gate in range(len(fragment.matrices))
    ]
    if not slots:
        return {}, 0, 0
    of_stream = np.array([stream for stream, _, _ in slots])
    # A slot's offset from its stream's first slot.
    positions = np.arange(len(slots)) - np.searchsorted(of_stream, of_stream)
    fields = np.array(items, dtype=np.int64).reshape(len(items), -1)
    trajectories_hit, entries, choices, keys = _fired(
        seed, key, trajectories, (*fields[of_stream].T, positions), rate,
        len(PAULI_NAMES_1Q),
    )
    hits: Dict[Tuple[int, int], Dict[int, Dict[int, int]]] = {}
    for trajectory, entry, choice in zip(trajectories_hit, entries, choices):
        stream, number, gate = slots[entry]
        stream_hits = hits.setdefault((trajectory, stream), {})
        stream_hits.setdefault(number, {})[gate] = choice
    return hits, keys, len(entries)


def draw_injections(
    program: BodyProgram,
    prep: Sequence[Sequence[Fragment]],
    codes: Sequence[int],
    edges: Sequence[Tuple[Tuple[int, int], Fragment]],
    error_1q: float,
    seed: Optional[int],
    index: int,
    trajectories: int,
) -> List[Tuple[Optional[List], Dict, Dict]]:
    """Every trajectory's Pauli injections for one init chunk.

    Per noise site, and per gate of a 1q fragment: with probability
    ``rate``, a uniformly random non-identity Pauli (pair) — the
    conditional draws of the serial trajectory loop
    (``tests/noisy_oracle.py``).  The
    draws are three :func:`~repro.sim.noise.keyed_uniforms` calls, one
    per stage, keyed ``(seed, stage, index, trajectory, *item, position,
    lane)``:

    * body: no item; ``position`` is the site in ``program.site_slots``;
    * prep: item is ``codes[row]``, the row's global init-combo code;
      ``position`` counts the gates of ``prep[row]``'s fragments, in
      order;
    * basis: item is the tree edge ``(line, child)`` of ``edges``;
      ``position`` is the gate in its fragment.

    Every key derives from content, never from the chunk, so a draw is
    the same however the init space is split.  Past listing the fragment
    gates, Python touches only the entries that fired.

    Returns one ``(pattern, prep-fired rows, fired basis edges)`` tuple
    per trajectory: the body pattern for :func:`injected_suffix`, its
    fired ``(site, choice)`` pairs in site order (``None`` when no site
    fired); ``{row: {wire: 2-vector}}`` for every
    row whose prep drew a Pauli; ``{(line, child): fragment matrix}``
    for every edge that did.
    """
    patterns: List[Optional[List]] = [None] * trajectories
    prep_fired: List[Dict] = [{} for _ in range(trajectories)]
    noisy: List[Dict] = [{} for _ in range(trajectories)]
    keys = fired = 0
    num_sites = len(program.site_slots)
    with trace.span("sim.noisy.draw") as span:
        if num_sites:
            *hits, keys = _fired(
                seed, (_BODY, index), trajectories,
                (np.arange(num_sites),), program.site_rates,
                program.site_choices,
            )
            for trajectory, site, choice in zip(*hits):
                if patterns[trajectory] is None:
                    patterns[trajectory] = []
                patterns[trajectory].append((site, choice))
            fired = len(hits[0])
        if error_1q > 0.0:
            prep_hits, prep_keys, prep_count = _fragment_hits(
                seed, (_PREP, index), trajectories, prep, codes, error_1q
            )
            for (trajectory, row), row_hits in prep_hits.items():
                # A prep fragment acts on |0>: its first column.
                prep_fired[trajectory][row] = {
                    fragment.wire: (
                        fragment.vector if number not in row_hits else
                        _injected_fragment(fragment, row_hits[number])[:, 0]
                    )
                    for number, fragment in enumerate(prep[row])
                }
            edge_hits, edge_keys, edge_count = _fragment_hits(
                seed, (_BASIS, index), trajectories,
                [(fragment,) for _, fragment in edges],
                [edge for edge, _ in edges], error_1q,
            )
            for (trajectory, number), fragment_hits in edge_hits.items():
                edge, fragment = edges[number]
                noisy[trajectory][edge] = _injected_fragment(
                    fragment, fragment_hits[0]
                )
            keys += prep_keys + edge_keys
            fired += prep_count + edge_count
        span.set(keys=keys, fired=fired)
    return list(zip(patterns, prep_fired, noisy))


def injected_suffix(
    program: BodyProgram, pattern: Sequence[Tuple[int, int]]
) -> Tuple[int, List[FusedOp]]:
    """The part of the fused body a fixed ``pattern`` changes.

    ``pattern`` lists the fired ``(site, choice)`` pairs in site order:
    ``choice`` indexes :data:`PAULI_PAIRS_2Q` at a two-qubit site and
    :data:`PAULI_NAMES_1Q` otherwise.  Returns ``(first_block, ops)``:
    the trajectory's body is ``program.ops[:first_block] + ops``, where
    ``ops`` runs from the first injected block to the end with every
    injected block's unitary built from its gates plus the drawn Paulis,
    memoised (thread-safe) in :attr:`BodyProgram.injected`.  A pattern
    that injects nothing returns ``(len(program.ops), [])``.
    """
    picks: Dict[int, List[Tuple[int, int]]] = {}
    for site, choice in pattern:
        block, offset = program.site_slots[site]
        picks.setdefault(block, []).append((offset, choice))
    if not picks:
        return len(program.ops), []
    first_block = min(picks)
    ops = list(program.ops[first_block:])
    for block, chosen in picks.items():
        key = (block, tuple(chosen))
        op = program.injected.get(key)
        if op is None:
            gates = list(program.blocks[block])
            # Last pick first: an insertion leaves the earlier offsets valid.
            for offset, choice in reversed(chosen):
                site_gate = gates[offset]
                names = (PAULI_PAIRS_2Q[choice] if site_gate.is_multiqubit
                         else (PAULI_NAMES_1Q[choice],))
                gates[offset + 1 : offset + 1] = [
                    Gate(name, (qubit,))
                    for name, qubit in zip(names, site_gate.qubits) if name != "i"
                ]
            op = program.injected.put(key, block_unitary(gates))
        ops[block - first_block] = op
    return first_block, ops


# ----------------------------------------------------------------------
# Density path: the exact channel as a batch over 2n axes
# ----------------------------------------------------------------------

def superoperator(matrix: np.ndarray, rate: float = 0.0) -> np.ndarray:
    """``rho -> U rho U^dagger``, then a depolarizing site, as a matrix.

    The ``4^k x 4^k`` result acts on the gate's ``k`` ket axes followed
    by its ``k`` bra axes: ``U (x) U*``, then (for ``rate > 0``) the
    uniform non-identity Pauli channel in its twirled closed form
    ``(1 - lam) I + (lam / d) |vec I><vec I|``, ``d = 2^k``,
    ``lam = rate * d^2 / (d^2 - 1)`` — the map the serial oracle's
    ``_depolarize_tensor`` (``tests/density_oracle.py``) applies.
    """
    dim = len(matrix)
    channel = np.kron(matrix, matrix.conj())
    if rate > 0.0:
        lam = rate * dim * dim / (dim * dim - 1.0)
        identity = np.eye(dim).reshape(-1)
        channel = (1.0 - lam) * channel + (lam / dim) * np.outer(
            identity, identity @ channel
        )
    return channel


def product_density(
    states: Sequence[Sequence[np.ndarray]],
) -> BatchedStatevector:
    """A batch of product mixed states as a ``2n``-axis batch.

    ``states[b][q]`` is the 2x2 density matrix of qubit ``q`` in batch
    member ``b``; axes ``0..n-1`` of a member are its ket indices and
    ``n..2n-1`` its bra indices.  A noisy 1q prep fragment keeps the
    state a product of per-qubit densities, so prep never costs a body
    pass.  More than 14 qubits is refused before anything is allocated.
    """
    num_qubits = len(states[0])
    if num_qubits > 14:
        raise ValueError(
            f"{num_qubits} qubits needs 4^{num_qubits} complex entries "
            "per batch member; use the batched trajectory path instead"
        )
    batch = len(states)
    block = np.ones((batch, 1, 1), dtype=complex)
    for qubit in range(num_qubits):
        column = np.array([member[qubit] for member in states], dtype=complex)
        dim = block.shape[1]
        block = np.einsum("bik,bjl->bijkl", block, column).reshape(
            batch, dim * 2, dim * 2
        )
    return BatchedStatevector(2 * num_qubits, batch, block)


def evolve_density(
    program: BodyProgram, state: BatchedStatevector
) -> BatchedStatevector:
    """Advance a :func:`product_density` batch through the noisy body.

    One ``apply_matrix`` per fused superoperator of
    :attr:`BodyProgram.density_ops`, batch-wide — the serial
    ``DensityMatrixSimulator`` channel (``tests/density_oracle.py``) to
    round-off, paid once per batch instead of once per variant.
    """
    ops = program.density_ops
    with trace.span(
        "sim.noisy.density_body",
        {"ops": len(ops), "amplitudes": state.batch_size << state.num_qubits},
    ):
        for op in ops:
            state.apply_matrix(op.matrix, op.qubits)
    return state


def density_probabilities(state: BatchedStatevector) -> np.ndarray:
    """``(B, 2^n)`` probabilities: the real diagonal of each member."""
    dim = 1 << (state.num_qubits // 2)
    matrices = state.amplitudes().reshape(state.batch_size, dim, dim)
    return np.real(np.diagonal(matrices, axis1=1, axis2=2)).astype(float)


# ----------------------------------------------------------------------
# Vectorized classical post-steps
# ----------------------------------------------------------------------

def apply_readout_error_rows(rows: np.ndarray, flip: float) -> np.ndarray:
    """Symmetric per-qubit readout confusion over ``(V, 2^n)`` rows."""
    rows = np.asarray(rows, dtype=float)
    if flip == 0.0:
        return rows
    num_qubits = int(np.log2(rows.shape[1]))
    if 1 << num_qubits != rows.shape[1]:
        raise ValueError("row length is not a power of two")
    confusion = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    tensor = rows.reshape((rows.shape[0],) + (2,) * num_qubits)
    for qubit in range(num_qubits):
        tensor = apply_on_axes(tensor, confusion, (qubit,))
    return tensor.reshape(rows.shape[0], -1)


def marginalize_rows(
    rows: np.ndarray, keep: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Marginalize ``(V, 2^n)`` rows down to ``keep`` (in given order)."""
    keep = list(keep)
    tensor = np.asarray(rows).reshape((-1,) + (2,) * num_qubits)
    drop = tuple(1 + q for q in range(num_qubits) if q not in keep)
    summed = tensor.sum(axis=drop) if drop else tensor
    position_of = {q: axis for axis, q in enumerate(sorted(keep))}
    axes = [0] + [1 + position_of[q] for q in keep]
    return np.transpose(summed, axes=axes).reshape(rows.shape[0], -1)
