"""Batched noisy simulation: fused body plans + shared-pass trajectories.

The noisy counterpart of :mod:`repro.sim.batch`.  A subcircuit's
``3^O * 4^rho`` physical variants share one measurement-free body; a
serial noisy simulator (the test oracles ``tests/noisy_oracle.py`` and
``tests/density_oracle.py``) re-runs that body once per variant *per
trajectory*.  This module provides the primitives that collapse the
sweep, for cut pieces and uncut circuits (``VirtualDevice.run``) alike:

* :func:`noisy_body_plan` compiles a gate sequence against a
  :class:`~repro.sim.noise.NoiseModel` into an executable plan: the
  body fused to clean unitaries (Aer-style, via
  :func:`~repro.sim.batch.fuse_gates`) with every depolarizing site
  located in its block.  Plans are memoized per process, so warm
  workers never re-fuse a body they have already seen.
* :func:`draw_injections` draws every trajectory's Pauli injections for
  one init chunk — body sites, prep fragments and basis-tree edges — in
  three array draws from :func:`~repro.sim.noise.keyed_uniforms`.  A
  *fixed* body pattern is the clean gate list with Paulis appended after
  a few gates on those gates' own qubits, so the body's fusion partition
  is unchanged: the trajectory equals the fused clean pass up to its
  first injected block, and from there on only the injected blocks need
  a new unitary (:func:`injected_suffix`, :func:`fork_suffix`).
* :func:`evolve_density` evolves the exact channel: a batch of density
  matrices is a :class:`~repro.sim.batch.BatchedStatevector` over ``2n``
  axes (ket, then bra), and each gate with its depolarizing site is one
  superoperator, fused into the plan's :attr:`NoisyBodyPlan.density_ops`.
* :func:`apply_readout_error_rows` / :func:`marginalize_rows` vectorize
  the classical post-steps over a stacked ``(V, 2^n)`` matrix of variant
  distributions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..circuits.gates import gate_matrix
from ..obs import trace
from .batch import (
    FUSION_WIDTH,
    BatchedStatevector,
    FusedOp,
    _expand_to_block,
    fuse_gates,
    fused_block,
    gate_partition,
)
from .noise import NoiseModel, clean_log_weight, keyed_uniforms

__all__ = [
    "NoisySite",
    "NoisyBodyPlan",
    "noisy_body_plan",
    "draw_injections",
    "fold_matrices",
    "injected_suffix",
    "fork_suffix",
    "superoperator",
    "product_density",
    "evolve_density",
    "density_probabilities",
    "apply_readout_error_rows",
    "marginalize_rows",
    "PAULI_NAMES_1Q",
    "PAULI_PAIRS_2Q",
]

PAULI_NAMES_1Q: Tuple[str, ...] = ("x", "y", "z")
#: Non-identity two-qubit Pauli pairs, in the serial simulator's order.
PAULI_PAIRS_2Q: Tuple[Tuple[str, str], ...] = tuple(
    (a, b)
    for a in ("i", "x", "y", "z")
    for b in ("i", "x", "y", "z")
    if not (a == "i" and b == "i")
)


@dataclass(frozen=True)
class NoisySite:
    """One body gate followed by a depolarizing site of strength ``rate``."""

    qubits: Tuple[int, ...]
    rate: float

    @property
    def is_2q(self) -> bool:
        return len(self.qubits) > 1


@dataclass(frozen=True)
class NoisyBodyPlan:
    """A compiled noisy body: the fused clean body + its noise sites.

    ``sites`` lists the gates carrying a depolarizing site, in circuit
    order, with ``site_rates`` their rates and ``site_choices`` their
    number of non-identity Paulis (3 or 15) as arrays; ``log_clean`` is
    the body's no-injection log-weight.

    The trajectory path runs the *fully* fused body: ``blocks`` holds the
    gate tuple of each fusion block, ``ops`` its clean unitary, and
    ``site_slots[i]`` the ``(block, offset)`` of the gate that carries
    site ``i``.  The density path runs :attr:`density_ops`, compiled
    from the same gates on first use.
    """

    num_qubits: int
    sites: Tuple[NoisySite, ...]
    site_rates: np.ndarray
    site_choices: np.ndarray
    log_clean: float
    blocks: Tuple[Tuple[Gate, ...], ...]
    ops: Tuple[FusedOp, ...]
    site_slots: Tuple[Tuple[int, int], ...]

    @cached_property
    def density_ops(self) -> Tuple[FusedOp, ...]:
        """The exact channel as fused superoperators on ``2n`` axes.

        The flattened ``blocks`` are a valid gate order.  Each gate,
        followed by its site's depolarizing map (if it has one), is one
        :func:`superoperator`; the gates are partitioned to
        ``FUSION_WIDTH // 2`` qubits, so a fused op acts on at most
        ``FUSION_WIDTH`` axes — ket qubits ``Q`` then bra axes
        ``n + Q`` — of a :func:`product_density` state.  Compiled only
        when a density pass first asks, and held with the plan in the
        bounded plan memo.
        """
        gates = [gate for block in self.blocks for gate in block]
        starts = np.cumsum([0] + [len(block) for block in self.blocks])
        rates = [0.0] * len(gates)
        for site, (block, offset) in zip(self.sites, self.site_slots):
            rates[starts[block] + offset] = site.rate
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
            axes = tuple(qubits) + tuple(self.num_qubits + q for q in qubits)
            ops.append(FusedOp(matrix=matrix, qubits=axes))
        return tuple(ops)


#: Per-process plan memo — the noisy analogue of ``batch._FUSION_CACHE``:
#: chunks of the same subcircuit landing on the same warm worker reuse
#: the compiled (fused) body instead of re-planning per payload.
_PLAN_CACHE: "OrderedDict[Tuple, NoisyBodyPlan]" = OrderedDict()
_PLAN_CACHE_LIMIT = 128


def noisy_body_plan(
    circuit: Union[QuantumCircuit, Sequence[Gate]],
    noise: NoiseModel,
    num_qubits: int,
) -> NoisyBodyPlan:
    """Compile ``circuit`` into a :class:`NoisyBodyPlan` (memoized).

    Depolarizing noise applies after *every* gate with a non-zero rate;
    each such gate becomes a site, located by its fusion block and its
    offset in it.  With a noiseless model the plan has no sites and
    ``ops`` is the exact path's fused body.
    """
    gates = tuple(
        circuit.gates if isinstance(circuit, QuantumCircuit) else circuit
    )
    key = (gates, noise.error_1q, noise.error_2q, num_qubits)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        try:
            _PLAN_CACHE.move_to_end(key)
        except KeyError:  # pragma: no cover - concurrent eviction
            pass
        return cached
    sites: List[NoisySite] = []
    site_gates: List[int] = []
    for position, gate in enumerate(gates):
        rate = noise.error_2q if gate.is_multiqubit else noise.error_1q
        if rate > 0.0:
            sites.append(NoisySite(qubits=tuple(gate.qubits), rate=float(rate)))
            site_gates.append(position)
    members = gate_partition(gates)
    slot_of = {
        position: (block, offset)
        for block, group in enumerate(members)
        for offset, position in enumerate(group)
    }
    plan = NoisyBodyPlan(
        num_qubits=int(num_qubits),
        sites=tuple(sites),
        site_rates=np.array([site.rate for site in sites]),
        site_choices=np.array(
            [
                len(PAULI_PAIRS_2Q) if site.is_2q else len(PAULI_NAMES_1Q)
                for site in sites
            ],
            dtype=np.intp,
        ),
        log_clean=clean_log_weight(gates, noise),
        blocks=tuple(tuple(gates[p] for p in group) for group in members),
        ops=tuple(fuse_gates(gates)),
        site_slots=tuple(slot_of[position] for position in site_gates),
    )
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# Trajectory path: one shared injection pattern per batched pass
# ----------------------------------------------------------------------

#: Keyed-draw stages (the second key field); stage 3 is shot sampling,
#: which still draws from :func:`~repro.sim.noise.spawn_rng`.
_BODY, _PREP, _BASIS = 0, 1, 2
#: The last key field: lane 0 decides whether an entry fires, lane 1
#: picks its Pauli.
_LANES = np.arange(2).reshape(2, 1, 1)
_PAULI_MATRICES_1Q = tuple(gate_matrix(name) for name in PAULI_NAMES_1Q)


def fold_matrices(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """The 2x2 product of ``matrices`` applied in order."""
    matrix = np.eye(2, dtype=complex)
    for factor in matrices:
        matrix = factor @ matrix
    return matrix


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
    plan: NoisyBodyPlan,
    prep: Sequence[Sequence[Any]],
    codes: Sequence[int],
    edges: Sequence[Tuple[Tuple[int, int], Any]],
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

    * body: no item; ``position`` is the site in ``plan.sites``;
    * prep: item is ``codes[row]``, the row's global init-combo code;
      ``position`` counts the gates of ``prep[row]``'s fragments, in
      order;
    * basis: item is the tree edge ``(line, child)`` of ``edges``;
      ``position`` is the gate in its fragment.

    Every key derives from content, never from the chunk, so a draw is
    the same however the init space is split.  Fragments are compiled 1q
    fragments (``matrices``; prep ones also ``wire`` and ``vector``).
    Past listing the fragment gates, Python touches only the entries
    that fired.

    Returns one ``(pattern, prep-fired rows, fired basis edges)`` tuple
    per trajectory: the body pattern for :func:`injected_suffix`
    (``None`` when no site fired); ``{row: {wire: 2-vector}}`` for every
    row whose prep drew a Pauli; ``{(line, child): fragment matrix}``
    for every edge that did.
    """
    patterns: List[Optional[List]] = [None] * trajectories
    prep_fired: List[Dict] = [{} for _ in range(trajectories)]
    noisy: List[Dict] = [{} for _ in range(trajectories)]
    keys = fired = 0
    with trace.span("sim.noisy.draw") as span:
        sites = plan.sites
        if sites:
            *hits, keys = _fired(
                seed, (_BODY, index), trajectories,
                (np.arange(len(sites)),), plan.site_rates, plan.site_choices,
            )
            for trajectory, site, choice in zip(*hits):
                if patterns[trajectory] is None:
                    patterns[trajectory] = [None] * len(sites)
                patterns[trajectory][site] = (
                    PAULI_PAIRS_2Q[choice] if sites[site].is_2q
                    else (PAULI_NAMES_1Q[choice],)
                )
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
    plan: NoisyBodyPlan, pattern: Sequence[Optional[Tuple[str, ...]]]
) -> Tuple[int, List[FusedOp]]:
    """The part of the fused body a fixed ``pattern`` changes.

    Returns ``(first_block, ops)``: the trajectory's body is
    ``plan.ops[:first_block] + ops``, where ``ops`` runs from the first
    injected block to the end with every injected block's unitary
    rebuilt from its gates plus the drawn Paulis (memoized with the
    clean blocks).  A pattern that injects nothing returns
    ``(len(plan.ops), [])``.
    """
    spliced: Dict[int, List[Gate]] = {}
    # Last site first: an insertion leaves the earlier offsets valid.
    for site in range(len(pattern) - 1, -1, -1):
        choice = pattern[site]
        if choice is not None:
            block, offset = plan.site_slots[site]
            gates = spliced.setdefault(block, list(plan.blocks[block]))
            gates[offset + 1 : offset + 1] = [
                Gate(name, (qubit,))
                for name, qubit in zip(choice, gates[offset].qubits)
                if name != "i"
            ]
    if not spliced:
        return len(plan.ops), []
    first_block = min(spliced)
    ops = list(plan.ops[first_block:])
    for block, gates in spliced.items():
        ops[block - first_block] = fused_block(tuple(gates))
    return first_block, ops


def fork_suffix(
    state: BatchedStatevector, ops: Sequence[FusedOp], first_block: int
) -> BatchedStatevector:
    """A new batch: ``state`` advanced through ``ops``; ``state`` itself
    is left untouched (``applied`` never writes to the shared tensor)."""
    # One span per forked pass (the per-block loop is the hot path).
    with trace.span(
        "sim.noisy.trajectory_body",
        {"first_block": first_block, "blocks": len(ops)},
    ):
        for op in ops:
            state = state.applied(op.matrix, op.qubits)
    return state


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
    plan: NoisyBodyPlan, state: BatchedStatevector
) -> BatchedStatevector:
    """Advance a :func:`product_density` batch through the noisy body.

    One ``apply_matrix`` per fused superoperator of
    :attr:`NoisyBodyPlan.density_ops`, batch-wide — the serial
    ``DensityMatrixSimulator`` channel (``tests/density_oracle.py``) to
    round-off, paid once per batch instead of once per variant.
    """
    ops = plan.density_ops
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
    for axis in range(1, num_qubits + 1):
        moved = np.moveaxis(tensor, axis, -1)
        shape = moved.shape
        moved = np.ascontiguousarray(moved).reshape(-1, 2) @ confusion.T
        tensor = np.moveaxis(moved.reshape(shape), -1, axis)
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
