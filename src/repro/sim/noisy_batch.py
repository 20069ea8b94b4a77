"""Batched noisy simulation: fused body plans + shared-pass trajectories.

The noisy counterpart of :mod:`repro.sim.batch`.  A subcircuit's
``3^O * 4^rho`` physical variants share one measurement-free body; the
serial noisy simulators re-run that body once per variant *per
trajectory*.  This module provides the primitives that collapse the
sweep:

* :func:`noisy_body_plan` compiles a gate sequence against a
  :class:`~repro.sim.noise.NoiseModel` into an executable plan — maximal
  noise-free gate runs are fused into unitaries (Aer-style, via
  :func:`~repro.sim.batch.fuse_gates`) while every gate carrying a
  depolarizing site stays an individual step, preserving the per-gate
  noise placement exactly.  Plans are memoized per process, so warm
  workers never re-fuse a body they have already seen.
* :func:`draw_injections` draws every trajectory's Pauli injections for
  one init chunk — body sites, prep fragments and basis-tree edges — in
  three array draws from :func:`~repro.sim.noise.keyed_uniforms`.  A
  *fixed* body pattern is the clean gate list with Paulis appended after
  a few gates on those gates' own qubits, so the body's fusion partition
  is unchanged: the trajectory equals the fused clean pass up to its
  first injected block, and from there on only the injected blocks need
  a new unitary (:func:`injected_suffix`, :func:`fork_suffix`).
* :func:`run_density_body` drives a
  :class:`~repro.sim.density.BatchedDensityMatrix` through the plan with
  the exact depolarizing channel applied batch-wide after each noisy
  gate.
* :func:`apply_readout_error_rows` / :func:`marginalize_rows` vectorize
  the classical post-steps over a stacked ``(V, 2^n)`` matrix of variant
  distributions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..circuits.gates import gate_matrix
from ..obs import trace
from .batch import (
    BatchedStatevector,
    FusedOp,
    fuse_gates,
    fused_block,
    gate_partition,
)
from .density import BatchedDensityMatrix
from .noise import NoiseModel, clean_log_weight, keyed_uniforms

__all__ = [
    "NoisySite",
    "NoisyBodyPlan",
    "noisy_body_plan",
    "draw_injections",
    "fold_matrices",
    "injected_suffix",
    "fork_suffix",
    "run_density_body",
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

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    rate: float

    @property
    def is_2q(self) -> bool:
        return len(self.qubits) > 1


@dataclass(frozen=True)
class NoisyBodyPlan:
    """A compiled noisy body: fused noise-free runs + individual sites.

    ``steps`` interleaves :class:`~repro.sim.batch.FusedOp` entries
    (maximal runs of zero-rate gates, fused) with :class:`NoisySite`
    entries (one per gate carrying a depolarizing site, in circuit
    order) — the density path's schedule.  ``sites`` lists the noisy
    steps again for pattern sampling, with ``site_rates`` their rates and
    ``site_choices`` their number of non-identity Paulis (3 or 15) as
    arrays; ``log_clean`` is the body's no-injection log-weight.

    The trajectory path runs the *fully* fused body instead: ``blocks``
    holds the gate tuple of each fusion block, ``ops`` its clean
    unitary, and ``site_slots[i]`` the ``(block, offset)`` of the gate
    that carries site ``i``.
    """

    num_qubits: int
    steps: Tuple[Union[FusedOp, NoisySite], ...]
    sites: Tuple[NoisySite, ...]
    site_rates: np.ndarray
    site_choices: np.ndarray
    log_clean: float
    blocks: Tuple[Tuple[Gate, ...], ...]
    ops: Tuple[FusedOp, ...]
    site_slots: Tuple[Tuple[int, int], ...]


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

    Depolarizing noise applies after *every* gate, so gates with a
    non-zero rate cannot fuse across their noise site without changing
    the channel; only maximal runs of zero-rate gates fold into fused
    unitaries.  With a noiseless model the whole body becomes one fused
    run (the exact-path plan).
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
    steps: List[Union[FusedOp, NoisySite]] = []
    sites: List[NoisySite] = []
    site_gates: List[int] = []
    run: List[Gate] = []

    def flush() -> None:
        if run:
            steps.extend(fuse_gates(tuple(run)))
            run.clear()

    for position, gate in enumerate(gates):
        rate = noise.error_2q if gate.is_multiqubit else noise.error_1q
        if rate <= 0.0:
            run.append(gate)
            continue
        flush()
        site = NoisySite(
            matrix=gate.matrix(), qubits=tuple(gate.qubits), rate=float(rate)
        )
        steps.append(site)
        sites.append(site)
        site_gates.append(position)
    flush()
    members = gate_partition(gates)
    slot_of = {
        position: (block, offset)
        for block, group in enumerate(members)
        for offset, position in enumerate(group)
    }
    plan = NoisyBodyPlan(
        num_qubits=int(num_qubits),
        steps=tuple(steps),
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
    ``rate``, a uniformly random non-identity Pauli (pair) — the serial
    :class:`~repro.sim.noise.NoisySimulator`'s conditional draws.  The
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
# Density path: the exact channel, batch-wide
# ----------------------------------------------------------------------

def run_density_body(
    plan: NoisyBodyPlan, state: BatchedDensityMatrix
) -> BatchedDensityMatrix:
    """Advance a batch of density matrices through the noisy body.

    Fused zero-rate runs apply as plain unitaries; every noisy gate is a
    unitary followed by its depolarizing superoperator, batch-wide —
    bit-for-bit the serial :class:`~repro.sim.density.DensityMatrixSimulator`
    channel, paid once per batch instead of once per variant.
    """
    with trace.span("sim.noisy.density_body"):
        for step in plan.steps:
            state.apply_matrix(step.matrix, step.qubits)
            if isinstance(step, NoisySite):
                state.apply_depolarizing(step.qubits, step.rate)
    return state


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
