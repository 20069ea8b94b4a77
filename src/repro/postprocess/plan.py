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
    "binned_tensor",
    "restricted_signature",
    "generalized_signature",
    "collapse_lookups",
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


class TensorProvider(Protocol):
    """Supplies collapsed term tensors for a qubit-role spec."""

    @property
    def num_qubits(self) -> int: ...

    @property
    def num_cuts(self) -> int: ...

    def collapsed(
        self, roles: RoleMap
    ) -> List[Tuple[TermTensor, List[int]]]: ...


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

    Fixed wires are one view; each merged wire, highest position first,
    adds its two halves (the one add per element a length-2 ``sum`` makes,
    bit-identically, minus numpy's slow inner-axis reduce).  Never fuse
    the adds into one ``sum(axis=tuple)``: it rounds differently.
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
        working = _select_fixed(tensor.data, wires, fixed)
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
    )
    return collapsed, active_wires


def _select_fixed(
    data: np.ndarray, wires: Sequence[int], fixed: Dict[int, int]
) -> np.ndarray:
    """``data`` as a ``(rows, 2, ..., 2)`` view over ``wires`` with every
    ``fixed`` wire indexed out: one basic index, no copy."""
    shaped = data.reshape((data.shape[0],) + (2,) * len(wires))
    return shaped[(slice(None),) + tuple(fixed.get(w, slice(None)) for w in wires)]


# ----------------------------------------------------------------------
# Role signatures (collapse-cache keys)
# ----------------------------------------------------------------------

def restricted_signature(subcircuit: Subcircuit, roles: RoleMap) -> Signature:
    """The roles restricted to this subcircuit's output wires.

    A subcircuit's collapsed tensor depends on nothing else, so this is
    the collapse-cache key: two role maps that agree on the subcircuit's
    output wires collapse identically no matter how the rest of the
    circuit is binned.
    """
    return tuple(
        (line.wire, tuple(roles[line.wire]))
        for line in subcircuit.output_lines
    )


def generalized_signature(signature: Signature) -> Signature:
    """The signature with every fixed wire promoted back to active.

    The generalized collapse retains the fixed wires as tensor axes, so
    any fixed-bit assignment over them can be *derived* by indexing —
    much cheaper than re-collapsing the full tensor.  All sibling bins
    of a DD zoom round and all shards of a streaming FD query share one
    generalized signature per subcircuit.
    """
    return tuple(
        (wire, ("active",) if role[0] == "fixed" else role)
        for wire, role in signature
    )


#: Collapsed ``(subcircuit, generalized signature)`` entries one provider keeps.
_COLLAPSE_LIMIT = 512


def collapse_lookups(provider, since: Tuple[int, int] = (0, 0)) -> Tuple[int, int]:
    """``(hits, misses)`` of ``provider``'s collapse memo after the snapshot
    ``since`` (floored at zero, should the memo have been cleared in
    between); zeros for a provider without a memo."""
    stats = getattr(provider, "cache_stats", None)
    if stats is None:
        return 0, 0
    return max(0, stats["hits"] - since[0]), max(0, stats["misses"] - since[1])


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
        return [
            self._collapsed_one(subcircuit, roles)
            for subcircuit in self.cut_circuit.subcircuits
        ]

    def clear_cache(self) -> None:
        self._cache.clear()

    # -- cache machinery ------------------------------------------------
    def _collapsed_one(
        self, subcircuit: Subcircuit, roles: RoleMap
    ) -> Tuple[TermTensor, List[int]]:
        if not self.cache_enabled:
            return self._collapse_subcircuit(subcircuit, roles)
        signature = restricted_signature(subcircuit, roles)
        generalized = generalized_signature(signature)
        entry = self._cache.get_or_build(
            (subcircuit.index, generalized),
            # A miss collapses with the fixed wires kept active.
            lambda: self._collapse_subcircuit(
                subcircuit, {**roles, **dict(generalized)}
            ),
        )
        if generalized == signature:
            return entry
        return _derive_fixed(entry[0], entry[1], signature)


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


def _derive_fixed(
    tensor: TermTensor, active_wires: List[int], signature: Signature
) -> Tuple[TermTensor, List[int]]:
    """Index the fixed wires of ``signature`` out of a generalized tensor.

    Selection commutes bitwise with the merged sums already performed, so
    the result is identical to collapsing the full tensor directly with
    the fixed roles (the property tests assert exact equality).  The view
    is copied once, at its final size.
    """
    fixed = {
        wire: int(role[1]) for wire, role in signature if role[0] == "fixed"
    }
    view = _select_fixed(tensor.data, active_wires, fixed)
    remaining = [wire for wire in active_wires if wire not in fixed]
    data = np.ascontiguousarray(view).reshape(tensor.data.shape[0], -1)
    derived = TermTensor(
        subcircuit_index=tensor.subcircuit_index,
        cut_order=list(tensor.cut_order),
        num_effective=len(remaining),
        data=data,
    )
    return derived, remaining


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
        collapsed = provider.collapsed(self.roles)
        tensors = [item[0] for item in collapsed]
        if order is None:
            order = sorted(
                range(len(tensors)), key=lambda i: tensors[i].num_effective
            )
        else:
            order = list(order)
        kron_wires: List[int] = []
        for index in order:
            kron_wires.extend(collapsed[index][1])
        # Inverse map instead of repeated list.index() — O(n), not O(n^2).
        position_of = {wire: pos for pos, wire in enumerate(kron_wires)}
        permutation = [position_of[wire] for wire in self.active]
        return PreparedPlan(
            plan=self,
            tensors=tensors,
            order=tuple(order),
            permutation=permutation,
        )

    def execute(
        self,
        provider: TensorProvider,
        engine: ContractionEngine,
        order: Optional[Sequence[int]] = None,
        strategy: Optional[str] = None,
        early_termination: Optional[bool] = None,
    ) -> PlanExecution:
        """Prepare and contract in one call."""
        with trace.span(
            "query.plan.execute", {"active": len(self.active)}
        ):
            return self.prepared(provider, order=order).contract(
                engine,
                strategy=strategy,
                early_termination=early_termination,
            )


@dataclass
class PreparedPlan:
    """A plan with tensors collapsed and contraction order fixed."""

    plan: QueryPlan
    tensors: List[TermTensor]
    order: Tuple[int, ...]
    permutation: List[int]

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
