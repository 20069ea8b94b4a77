"""Query plans: the shared abstraction FD and DD queries dispatch through.

Every postprocessing query — the full-definition reconstruction, each
dynamic-definition recursion, and each shard of a streaming FD query —
evaluates the same object: the ``4^K``-term contraction of per-subcircuit
term tensors, *collapsed* per a qubit-role spec that marks each original
wire ``active`` (kept), ``merged`` (summed out) or ``fixed`` (indexed).
This module owns that shared machinery:

:class:`QueryPlan`
    A role spec plus the requested output qubit order.  ``FD`` is the
    plan with every wire active; a DD recursion is a plan with the
    zoomed wires fixed and the new batch active; a streaming-FD shard is
    a plan with the shard qubits fixed and the rest active.  Plans are
    *prepared* (tensors collapsed through a provider) and *contracted*
    (through the shared :class:`~repro.postprocess.engine.ContractionEngine`),
    either one at a time or as a parallel batch.

:class:`CachingTensorProvider`
    The incremental collapse cache.  A subcircuit's collapsed tensor
    depends only on the roles of *its own* output wires (the restricted
    role signature), so sibling bins, successive recursions and
    neighbouring shards can reuse collapses instead of re-summing full
    tensors.  The cache stores the *generalized* collapse (every fixed
    wire kept active) and derives fixed variants by cheap axis indexing:
    all ``2^s`` shards of a streaming query, or all sibling bins of a DD
    zoom round, share a single full collapse per subcircuit.

:func:`binned_tensor`
    The primitive collapse of one term tensor per a role spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit, Subcircuit
from ..cutting.variants import SubcircuitResult
from ..obs import trace
from ..utils import BoundedMemo, permute_qubits
from .attribution import TermTensor, build_term_tensor
from .engine import ContractionEngine, ContractionResult

__all__ = [
    "Role",
    "RoleMap",
    "Signature",
    "Piece",
    "binned_tensor",
    "TensorProvider",
    "CachingTensorProvider",
    "PrecomputedTensorProvider",
    "QueryPlan",
    "PreparedPlan",
    "PlanExecution",
]

#: One wire's role: ``("active",)`` | ``("merged",)`` | ``("fixed", bit)``.
Role = Tuple

#: Role of every original wire, keyed by wire index.
RoleMap = Dict[int, Role]

#: A subcircuit's restricted role signature (its output wires only).
Signature = Tuple[Tuple[int, Role], ...]

#: A subcircuit, its collapse-memo key and its fixed-wire selection.
Piece = Tuple[Subcircuit, Signature, Optional["_FixedSelection"]]


def _fixed_bits(roles: RoleMap) -> Dict[int, int]:
    return {w: int(role[1]) for w, role in roles.items() if role[0] == "fixed"}


class TensorProvider(Protocol):
    """Supplies collapsed term tensors for qubit-role layouts.

    :meth:`pieces` is what every role map laid out like ``roles`` (the
    same fixed, active and merged wires) shares, worked out once;
    :meth:`collapse_pieces` collapses each subcircuit for one assignment
    of the fixed wires' bits and counts the collapse-memo hits and misses
    that took.
    """

    @property
    def num_qubits(self) -> int: ...

    @property
    def num_cuts(self) -> int: ...

    def pieces(self, roles: RoleMap) -> List[Piece]: ...

    def collapse_pieces(
        self, pieces: Sequence[Piece], fixed: Dict[int, int]
    ) -> Tuple[List[Tuple[TermTensor, List[int]]], int, int]: ...


# ----------------------------------------------------------------------
# The collapse primitive
# ----------------------------------------------------------------------

def binned_tensor(
    tensor: TermTensor,
    subcircuit: Subcircuit,
    roles: Dict[int, Tuple],
) -> Tuple[TermTensor, List[int]]:
    """Collapse a term tensor per a DD qubit-role spec.

    ``roles`` maps each original wire to ``("active",)``, ``("merged",)``
    or ``("fixed", bit)``.  Output lines of the subcircuit are summed out
    (merged), indexed (fixed) or kept (active); the returned tensor spans
    only the active lines, and the second return value lists their wires
    in axis order.

    With every line active the result shares the source's memory and its
    ``nonzero`` flags.  Fixed wires are one ``take``; each merged wire,
    highest position first, adds its two halves (the one add per element
    a length-2 ``sum`` makes, bit-identically, minus numpy's slow
    inner-axis reduce).  Never fuse the adds into one
    ``sum(axis=tuple)``: it rounds differently.
    """
    wires = [line.wire for line in subcircuit.output_lines]
    for wire in wires:
        if roles[wire][0] not in ("active", "merged", "fixed"):
            raise ValueError(f"unknown qubit role {roles[wire]!r}")
    fixed = {w: int(roles[w][1]) for w in wires if roles[w][0] == "fixed"}
    kept = [wire for wire in wires if wire not in fixed]
    merged = [axis for axis, wire in enumerate(kept) if roles[wire][0] == "merged"]
    with trace.span(
        "collapse", {"merged": len(merged), "fixed": len(fixed),
                     "bytes_in": tensor.data.nbytes},
    ) as span:
        working = tensor.data
        if fixed:
            working = _FixedSelection(wires, fixed).select(working, fixed)
        working = working.reshape((working.shape[0],) + (2,) * len(kept))
        for axis in reversed(merged):
            head = (slice(None),) * (1 + axis)
            working = np.add(working[head + (0,)], working[head + (1,)])
        data = np.ascontiguousarray(working).reshape(tensor.data.shape[0], -1)
        span.set(bytes_out=data.nbytes)
    active_wires = [wire for wire in kept if roles[wire][0] == "active"]
    collapsed = TermTensor(
        subcircuit_index=tensor.subcircuit_index,
        cut_order=list(tensor.cut_order),
        num_effective=len(active_wires),
        data=data,
        # An all-active collapse is its source: no rescan for zero rows.
        nonzero=None if fixed or merged else tensor.nonzero,
    )
    return collapsed, active_wires


#: Collapsed ``(subcircuit, generalized signature)`` entries one provider keeps.
_COLLAPSE_LIMIT = 512


class CachingTensorProvider:
    """Base tensor provider with the incremental collapse cache.

    Subclasses implement :meth:`_collapse_subcircuit` — the raw collapse
    of one subcircuit for a role map — and inherit a cache keyed by the
    *generalized* restricted signature.  On a miss the provider collapses
    once with fixed wires kept active, stores that, and derives the
    requested fixed assignment by indexing; subsequent bins/shards that
    differ only in fixed values (or leave the subcircuit untouched) are
    cache hits.
    """

    def __init__(self, cut_circuit: CutCircuit, cache: bool = True):
        self.cut_circuit = cut_circuit
        self.cache_enabled = bool(cache)
        self._cache = BoundedMemo("collapse", _COLLAPSE_LIMIT)

    @property
    def cache_stats(self) -> Dict[str, int]:
        """``{hits, misses, size}`` of the collapse memo."""
        return self._cache.stats()

    @property
    def num_qubits(self) -> int:
        return self.cut_circuit.circuit.num_qubits

    @property
    def num_cuts(self) -> int:
        return self.cut_circuit.num_cuts

    # -- subclass hook --------------------------------------------------
    def _collapse_subcircuit(
        self, subcircuit: Subcircuit, roles: RoleMap
    ) -> Tuple[TermTensor, List[int]]:
        raise NotImplementedError

    # -- public API -----------------------------------------------------
    def collapsed(self, roles: RoleMap) -> List[Tuple[TermTensor, List[int]]]:
        """Every subcircuit collapsed per ``roles``."""
        return self.collapse_pieces(self.pieces(roles), _fixed_bits(roles))[0]

    def clear_cache(self) -> None:
        self._cache.clear()

    def pieces(self, roles: RoleMap) -> List[Piece]:
        """Per subcircuit, its collapse-memo key and the selection of its
        fixed wires, if it carries any.

        The key is the subcircuit's roles restricted to its own output
        wires, with every fixed wire promoted back to active: its collapse
        depends on nothing else, and keeping the fixed wires as axes lets
        every assignment of their bits (all sibling bins of a DD depth,
        all shards of a stream) be derived from one collapse by indexing.
        """
        pieces = []
        for subcircuit in self.cut_circuit.subcircuits:
            generalized, fixed = [], set()
            for line in subcircuit.output_lines:
                role = tuple(roles[line.wire])
                if role[0] == "fixed":
                    fixed.add(line.wire)
                    role = ("active",)
                generalized.append((line.wire, role))
            # A collapse's wires are its signature's active ones.
            kept = [wire for wire, role in generalized if role[0] == "active"]
            selection = _FixedSelection(kept, fixed) if fixed else None
            pieces.append((subcircuit, tuple(generalized), selection))
        return pieces

    def collapse_pieces(
        self, pieces: Sequence[Piece], fixed: Dict[int, int]
    ) -> Tuple[List[Tuple[TermTensor, List[int]]], int, int]:
        """The collapsed tensors with the fixed wires at their ``fixed``
        bits, and the memo's hits and misses (a miss collapses with the
        fixed wires kept active).  Without the cache, each subcircuit
        collapses with its fixed roles as they are."""
        collapsed = []
        hits = misses = 0
        for subcircuit, generalized, selection in pieces:
            if not self.cache_enabled:
                roles = dict(generalized)
                for wire, _ in selection.shifts if selection else ():
                    roles[wire] = ("fixed", fixed[wire])
                collapsed.append(self._collapse_subcircuit(subcircuit, roles))
                continue
            key = (subcircuit.index, generalized)
            entry = self._cache.get(key)
            if entry is None:
                misses += 1
                entry = self._cache.put(
                    key, self._collapse_subcircuit(subcircuit, dict(generalized))
                )
            else:
                hits += 1
            collapsed.append(
                entry if selection is None else selection.derive(entry[0], fixed)
            )
        return collapsed, hits, misses


class PrecomputedTensorProvider(CachingTensorProvider):
    """Default provider: collapse fully-evaluated subcircuit term tensors.

    Collapses are served through the incremental cache: a subcircuit is
    re-collapsed only when the roles of *its own* output wires change in
    a way that cannot be derived from a cached generalized collapse.
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        results: Optional[Sequence[SubcircuitResult]] = None,
        tensors: Optional[Sequence[TermTensor]] = None,
        cache: bool = True,
    ):
        super().__init__(cut_circuit, cache=cache)
        if tensors is None:
            if results is None:
                raise ValueError("provide subcircuit results or term tensors")
            tensors = [build_term_tensor(result) for result in results]
        self.tensors = sorted(tensors, key=lambda t: t.subcircuit_index)

    def _collapse_subcircuit(
        self, subcircuit: Subcircuit, roles: RoleMap
    ) -> Tuple[TermTensor, List[int]]:
        return binned_tensor(
            self.tensors[subcircuit.index], subcircuit, roles
        )


class _FixedSelection:
    """The columns of a generalized tensor over ``wires`` that one
    assignment to its ``fixed_wires`` keeps, in order.

    Built once per layout, then one ``take`` per assignment.  Selection
    commutes bitwise with the merged sums already performed, so a derived
    tensor is identical to collapsing the full tensor directly with the
    fixed roles (the property tests assert exact equality).
    """

    def __init__(self, wires: Sequence[int], fixed_wires):
        top = len(wires) - 1
        self.shifts = [
            (wire, top - axis) for axis, wire in enumerate(wires)
            if wire in fixed_wires
        ]
        self.remaining = [wire for wire in wires if wire not in fixed_wires]
        columns = np.zeros(1, dtype=np.intp)
        for axis, wire in enumerate(wires):
            if wire not in fixed_wires:
                columns = np.add.outer(columns, (0, 1 << (top - axis))).ravel()
        self.columns = columns

    def select(self, data: np.ndarray, fixed: Dict[int, int]) -> np.ndarray:
        """``data``'s columns with each fixed wire at its ``fixed`` bit."""
        offset = sum(fixed[wire] << shift for wire, shift in self.shifts)
        return data.take(self.columns + offset, axis=1)

    def derive(
        self, tensor: TermTensor, fixed: Dict[int, int]
    ) -> Tuple[TermTensor, List[int]]:
        derived = TermTensor(
            subcircuit_index=tensor.subcircuit_index,
            cut_order=tensor.cut_order,
            num_effective=len(self.remaining),
            data=self.select(tensor.data, fixed),
        )
        return derived, self.remaining


# ----------------------------------------------------------------------
# Query plans
# ----------------------------------------------------------------------

@dataclass
class PlanExecution:
    """The outcome of executing one query plan."""

    probabilities: np.ndarray
    contraction: ContractionResult
    order: Tuple[int, ...]


@dataclass
class QueryPlan:
    """A role spec plus the requested output qubit order.

    ``active`` lists the wires whose joint distribution the query wants,
    in output order; every wire in it must have role ``("active",)``.
    """

    num_qubits: int
    num_cuts: int
    roles: RoleMap
    active: Tuple[int, ...]

    @classmethod
    def binned(
        cls,
        num_qubits: int,
        num_cuts: int,
        fixed: Dict[int, int],
        active: Sequence[int],
    ) -> "QueryPlan":
        """A binned plan: ``fixed`` wires indexed, ``active`` kept,
        every other wire merged (one DD recursion or one FD shard; FD
        itself is ``binned(n, K, {}, range(n))``)."""
        active_set = set(active)
        roles: RoleMap = {}
        for wire in range(num_qubits):
            if wire in fixed:
                roles[wire] = ("fixed", int(fixed[wire]))
            elif wire in active_set:
                roles[wire] = ("active",)
            else:
                roles[wire] = ("merged",)
        return cls(
            num_qubits=num_qubits,
            num_cuts=num_cuts,
            roles=roles,
            active=tuple(active),
        )

    # ------------------------------------------------------------------
    def prepared(
        self,
        provider: TensorProvider,
        order: Optional[Sequence[int]] = None,
    ) -> "PreparedPlan":
        """Collapse the tensors through ``provider`` and fix the
        contraction order (greedy smallest-first unless given)."""
        collapsed, hits, misses = provider.collapse_pieces(
            provider.pieces(self.roles), _fixed_bits(self.roles)
        )
        prepared = self.assemble(collapsed, order)
        prepared.cache_hits, prepared.cache_misses = hits, misses
        return prepared

    def assemble(
        self,
        collapsed: Sequence[Tuple[TermTensor, List[int]]],
        order: Optional[Sequence[int]] = None,
    ) -> "PreparedPlan":
        """This plan over already collapsed ``(tensor, wires)`` pairs."""
        tensors = [item[0] for item in collapsed]
        if order is None:
            order = sorted(
                range(len(tensors)), key=lambda i: tensors[i].num_effective
            )
        # Inverse map instead of repeated list.index() — O(n), not O(n^2).
        position_of = {
            wire: position
            for position, wire in enumerate(
                wire for index in order for wire in collapsed[index][1]
            )
        }
        return PreparedPlan(
            plan=self,
            tensors=tensors,
            order=tuple(order),
            permutation=[position_of[wire] for wire in self.active],
        )


@dataclass
class PreparedPlan:
    """A plan with tensors collapsed and contraction order fixed, and the
    collapse-memo hits and misses the collapse took."""

    plan: QueryPlan
    tensors: List[TermTensor]
    order: Tuple[int, ...]
    permutation: List[int]
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def payload(self) -> Tuple[List[TermTensor], Tuple[int, ...], int]:
        """The (tensors, order, num_cuts) triple for batch contraction."""
        return (self.tensors, self.order, self.plan.num_cuts)

    def contract(
        self,
        engine: ContractionEngine,
        strategy: Optional[str] = None,
        early_termination: Optional[bool] = None,
    ) -> PlanExecution:
        contraction = engine.contract(
            self.tensors,
            self.order,
            self.plan.num_cuts,
            strategy=strategy,
            early_termination=early_termination,
        )
        return self.finish(contraction)

    def finish(self, contraction: ContractionResult) -> PlanExecution:
        """Scale and permute a raw contraction into plan output order."""
        vector = contraction.vector * (0.5 ** self.plan.num_cuts)
        probabilities = permute_qubits(vector, self.permutation)
        return PlanExecution(
            probabilities=probabilities,
            contraction=contraction,
            order=self.order,
        )
