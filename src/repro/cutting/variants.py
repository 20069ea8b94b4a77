"""Enumerate and evaluate the physical variants of a subcircuit.

Per Fig. 3, the upstream side of every cut is measured in one of the Pauli
bases {I, X, Y, Z} and the downstream side is initialized in one of
{|0>, |1>, |+>, |+i>}.  The I and Z measurements share the same physical
circuit, so a subcircuit with ``O`` measurement lines and ``rho``
initialization lines has ``3^O * 4^rho`` distinct physical variants — the
circuits a quantum device actually runs.  The exact statevector backend
does not run them: the final state is linear in each init wire's 2-vector,
so it simulates the ``2^rho`` basis columns once and an exact
:class:`SubcircuitResult` *is* those amplitudes.  Every other result is one
``(4^rho, 3^O, 2^width)`` ``distributions`` array in
:func:`generate_variants` order; an exact result materialises that array
only when something reads it.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..circuits.gates import gate_matrix
from ..obs import trace
from ..sim.noise import NoiseModel, check_seed, clean_log_weight
from ..sim.statevector import INITIAL_STATES
from .cutter import Subcircuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..devices.device import VirtualDevice
    from ..postprocess.attribution import TermTensor

__all__ = [
    "MEAS_BASES",
    "INIT_LABELS",
    "SubcircuitVariant",
    "generate_variants",
    "variant_circuit",
    "VariantCircuitFactory",
    "basis_column_amplitudes",
    "materialise_distributions",
    "NoisyEvalSpec",
    "batched_noisy_variant_probabilities",
    "SubcircuitResult",
    "num_physical_variants",
]

#: Physical measurement bases (I reuses the Z circuit during attribution).
MEAS_BASES: Tuple[str, ...] = ("Z", "X", "Y")
#: Downstream initialization states: the row order of an init cut's term axis.
INIT_LABELS: Tuple[str, ...] = ("zero", "one", "plus", "plus_i")
#: ``(4, 2)``: row ``l`` is the 2-vector of ``INIT_LABELS[l]`` — the map from
#: a cut wire's two basis columns to its four initial states.
INIT_MATRIX = np.array([INITIAL_STATES[label] for label in INIT_LABELS])

_PREP_GATES: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "zero": (),
    "one": (("x",),),
    "plus": (("h",),),
    "plus_i": (("h",), ("s",)),
}

_BASIS_GATES: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "Z": (),
    "X": (("h",),),
    "Y": (("sdg",), ("h",)),
}

#: The 2x2 unitary each non-Z basis rotation applies (gate order folded:
#: Y measures through sdg then h, i.e. ``H @ Sdg`` as one matrix).
_BASIS_MATRICES: Dict[str, np.ndarray] = {
    "X": gate_matrix("h"),
    "Y": gate_matrix("h") @ gate_matrix("sdg"),
}


@dataclass(frozen=True)
class SubcircuitVariant:
    """One physical variant: init labels and measurement bases per line."""

    inits: Tuple[str, ...]
    bases: Tuple[str, ...]


def num_physical_variants(subcircuit: Subcircuit) -> int:
    """``3^O * 4^rho`` — the device workload per subcircuit."""
    return (len(MEAS_BASES) ** len(subcircuit.meas_lines)) * (
        len(INIT_LABELS) ** len(subcircuit.init_lines)
    )


def generate_variants(subcircuit: Subcircuit) -> List[SubcircuitVariant]:
    """All physical variants, inits varying slowest (deterministic order)."""
    init_choices = itertools.product(
        INIT_LABELS, repeat=len(subcircuit.init_lines)
    )
    variants = []
    for inits in init_choices:
        for bases in itertools.product(MEAS_BASES, repeat=len(subcircuit.meas_lines)):
            variants.append(SubcircuitVariant(inits=tuple(inits), bases=tuple(bases)))
    return variants


class VariantCircuitFactory:
    """Emit variant circuits without re-walking the shared body per variant.

    ``variant_circuit`` used to rebuild the whole gate list — body
    included — for every one of the ``3^O * 4^rho`` variants.  The
    factory hoists the (already validated) body gate tuple once and
    materializes each variant as prep fragment + body + basis fragment,
    so per-variant cost is proportional to the *fragment* size.

    It also owns the **structural key**: the cheap hashable identity
    ``(width, body gates, init/meas line positions, inits, bases)``.
    Two variants — of the same or of different subcircuits — with equal
    structural keys produce identical physical circuits.  The key is
    ``(body_key, inits, bases)``, so grouping subcircuits by
    :attr:`body_key` shares exactly the circuits the key would.
    """

    def __init__(self, subcircuit: Subcircuit):
        self.subcircuit = subcircuit
        self._width = subcircuit.width
        self._body = subcircuit.circuit.gates
        self._init_positions = tuple(
            line.line for line in subcircuit.init_lines
        )
        self._meas_positions = tuple(
            line.line for line in subcircuit.meas_lines
        )
        self._prep_fragments = {
            (label, position): tuple(
                Gate(spec[0], (position,)) for spec in _PREP_GATES[label]
            )
            for label in INIT_LABELS
            for position in self._init_positions
        }
        self._basis_fragments = {
            (basis, position): tuple(
                Gate(spec[0], (position,)) for spec in _BASIS_GATES[basis]
            )
            for basis in MEAS_BASES
            for position in self._meas_positions
        }
        #: Shared-body identity; equal body keys mean *every* variant of
        #: the two subcircuits coincides pairwise.
        self.body_key: Tuple = (
            self._width,
            self._body,
            self._init_positions,
            self._meas_positions,
        )

    def _check_shape(self, variant: SubcircuitVariant) -> None:
        if len(variant.inits) != len(self._init_positions):
            raise ValueError(
                f"variant has {len(variant.inits)} init labels, subcircuit "
                f"has {len(self._init_positions)} init lines"
            )
        if len(variant.bases) != len(self._meas_positions):
            raise ValueError(
                f"variant has {len(variant.bases)} bases, subcircuit has "
                f"{len(self._meas_positions)} measurement lines"
            )

    def circuit(self, variant: SubcircuitVariant) -> QuantumCircuit:
        """The runnable circuit: state prep + body + basis rotations."""
        self._check_shape(variant)
        gates: List[Gate] = []
        for label, position in zip(variant.inits, self._init_positions):
            gates.extend(self._prep_fragments[(label, position)])
        gates.extend(self._body)
        for basis, position in zip(variant.bases, self._meas_positions):
            gates.extend(self._basis_fragments[(basis, position)])
        return QuantumCircuit._unchecked(self._width, gates)

    def structural_key(self, variant: SubcircuitVariant) -> Tuple:
        """Hashable physical-circuit identity, O(1) per variant."""
        self._check_shape(variant)
        return (self.body_key, variant.inits, variant.bases)


def variant_circuit(
    subcircuit: Subcircuit, variant: SubcircuitVariant
) -> QuantumCircuit:
    """The runnable circuit: state prep + body + basis rotations."""
    return VariantCircuitFactory(subcircuit).circuit(variant)


# ----------------------------------------------------------------------
# Batched evaluation: one fused body pass over the 2^rho basis columns
# ----------------------------------------------------------------------

def basis_column_amplitudes(
    subcircuit: Subcircuit,
    columns: Optional[Tuple[int, int]] = None,
) -> Tuple[np.ndarray, int]:
    """Final amplitudes of the init wires' computational-basis columns.

    Column ``c`` puts bit ``k`` of ``c`` (MSB first) on init line ``k`` and
    ``|0>`` on every other wire: the initial batch is rows of an identity
    scattered to the init positions.  ``columns = (start, stop)`` restricts
    the sweep to a range — the init batch a
    :class:`~repro.core.executor.VariantExecutor` payload carries; the
    range is one fused pass (``(stop - start) * 2^width * 16`` bytes per
    live tensor).  Returns the ``(stop - start, 2^width)`` complex128 slab
    and the number of passes, 1.
    """
    from ..sim import batch

    width = subcircuit.width
    positions = [line.line for line in subcircuit.init_lines]
    start, stop = columns or (0, 1 << len(positions))
    # Looked up at call time: the e2e tracer patches ``batch.fuse_gates``.
    ops = batch.fuse_gates(subcircuit.circuit)
    members = np.arange(start, stop)
    basis_index = np.zeros_like(members)
    for k, position in enumerate(positions):
        bit = (members >> (len(positions) - 1 - k)) & 1
        basis_index |= bit << (width - 1 - position)
    count = stop - start
    with trace.span(
        "evaluate.variant_batch",
        {"subcircuit": subcircuit.index, "width": width, "columns": count,
         "rho": len(positions), "num_meas": len(subcircuit.meas_lines)},
    ):
        data = np.zeros((count, 1 << width), dtype=complex)
        data[np.arange(count), basis_index] = 1.0
        state = batch.BatchedStatevector(width, count, data)
        return state.apply_fused(ops).amplitudes(), 1


def expand_inits(columns: np.ndarray, num_lines: int) -> np.ndarray:
    """Fan-in by linearity: ``(2^k, m)`` basis-column amplitudes to the
    ``(4^k, m)`` amplitudes of every :data:`INIT_LABELS` combination."""
    tensor = columns
    for axis in range(num_lines):
        # (4, 2) @ (lead, 2, rest): the label axis lands where ``axis`` was.
        tensor = np.matmul(INIT_MATRIX, tensor.reshape(4**axis, 2, -1))
    return tensor.reshape(4**num_lines, -1)


def materialise_distributions(
    subcircuit: Subcircuit, amplitudes: np.ndarray
) -> np.ndarray:
    """The ``(4^rho, 3^O, 2^width)`` variant distributions of an exact result.

    Expands the inits, applies the ``3^O`` single-qubit basis rotations and
    squares.  Off the hot path: term tensors build from the amplitudes.
    """
    from ..sim.batch import BatchedStatevector

    states = expand_inits(amplitudes, len(subcircuit.init_lines))
    leaves = [BatchedStatevector(subcircuit.width, len(states), states)]
    for line in subcircuit.meas_lines:  # first line slowest, bases in order
        leaves = [
            leaf if basis == "Z"
            else leaf.applied(_BASIS_MATRICES[basis], [line.line])
            for leaf in leaves
            for basis in MEAS_BASES
        ]
    return np.stack([leaf.probabilities() for leaf in leaves], axis=1)


# ----------------------------------------------------------------------
# Batched *noisy* evaluation: fused-body residency for device backends
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NoisyEvalSpec:
    """Configuration of one batched noisy evaluation.

    Picklable by construction — a spec rides inside the init-batch
    payloads a :class:`~repro.core.executor.VariantExecutor` ships to
    worker processes.  Exactly one of ``noise`` (simulate the raw
    subcircuit under a bare noise model) or ``device`` (transpile the
    body onto the device and use its noise model, the ``--device``
    pipeline path) must be set.  The engine reads a device's uniform
    ``noise`` and its topological layout only, so a
    :class:`~repro.devices.calibration.CalibratedDevice` (per-qubit and
    per-link rates, noise-adaptive layout) is refused rather than run
    as if it were uncalibrated.

    ``method`` selects the estimator: ``"trajectory"`` is the batched
    Pauli-injection Monte-Carlo sampler (the serial trajectory loop it
    replaced is the oracle ``tests/noisy_oracle.py``),
    ``"density"`` evolves the exact depolarizing channel as fused
    superoperators (:func:`~repro.sim.noisy_batch.evolve_density`).
    ``shots`` of 0 or ``None`` return estimated distributions without
    shot noise.  All randomness is a pure function of ``seed`` and
    content-derived keys — Pauli injections from
    :func:`~repro.sim.noise.keyed_uniforms`, shots from
    :func:`~repro.sim.noise.spawn_rng` — so results are bit-identical
    for any worker count or chunking.  ``seed`` is ``None`` or an int
    in ``[0, 2**63)``.
    """

    noise: Optional[NoiseModel] = None
    device: Optional["VirtualDevice"] = None
    method: str = "trajectory"
    trajectories: int = 24
    shots: Optional[int] = 8192
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in ("trajectory", "density"):
            raise ValueError(
                f"method must be 'trajectory' or 'density', got {self.method!r}"
            )
        if (self.noise is None) == (self.device is None):
            raise ValueError("pass exactly one of noise or device")
        from ..devices.calibration import CalibratedDevice

        if isinstance(self.device, CalibratedDevice):
            raise ValueError(
                f"device {self.device.name!r} is a CalibratedDevice: batched "
                "noisy evaluation has no per-qubit rates or noise-adaptive "
                "layout; use its per-circuit backend() instead"
            )
        if self.trajectories <= 0:
            raise ValueError("trajectories must be positive")
        check_seed(self.seed)

    @property
    def effective_noise(self) -> NoiseModel:
        return self.device.noise if self.device is not None else self.noise


@dataclass(frozen=True)
class _Fragment:
    """A compiled 1q prep/basis fragment on one simulated wire.

    ``gates`` are the fragment's (possibly native-decomposed) gates with
    qubits already remapped to the simulated register; ``matrices`` are
    their 2x2 unitaries and ``matrix`` the noise-free fold of those;
    ``log_clean`` the fragment's no-injection
    log-weight; ``rho``/``vector`` (prep only) the per-qubit 2x2 noisy
    density / clean 2-vector the fragment leaves behind — this is how
    prep folds into the first body block instead of costing a pass.
    """

    gates: Tuple[Gate, ...]
    wire: int
    log_clean: float
    matrices: Tuple[np.ndarray, ...]
    matrix: np.ndarray
    rho: Optional[np.ndarray] = None
    vector: Optional[np.ndarray] = None


class _NoisyGeometry:
    """Everything fixed across a subcircuit's variants, compiled once.

    ``edges`` lists the basis tree's edges whose fragment has gates, as
    ``((line, child code), fragment)`` — the items trajectory draws key on.
    """

    __slots__ = ("num_wires", "plan", "prep", "basis", "edges", "keep")

    def __init__(self, num_wires, plan, prep, basis, edges, keep):
        self.num_wires = num_wires
        self.plan = plan
        self.prep = prep
        self.basis = basis
        self.edges = edges
        self.keep = keep


#: Per-process geometry memo — the fused-body residency layer: chunks of
#: the same subcircuit landing on the same warm worker reuse the routed,
#: planned and fused body instead of re-transpiling/re-fusing per payload.
_GEOMETRY_CACHE: "OrderedDict[Tuple, _NoisyGeometry]" = OrderedDict()
_GEOMETRY_CACHE_LIMIT = 64
_GEOMETRY_STATS = {"hits": 0, "misses": 0}


def geometry_stats() -> dict:
    """Per-process noisy-geometry memo counters plus live size.

    Mirrors :func:`repro.sim.batch.fusion_stats`: counters are local to
    the calling process, so pool workers report their own copies via
    ``WorkerPool.cache_stats()`` and land as pid-labelled gauges in the
    metrics registry.
    """
    return {
        "hits": _GEOMETRY_STATS["hits"],
        "misses": _GEOMETRY_STATS["misses"],
        "size": len(_GEOMETRY_CACHE),
    }


def _prep_density(gates: Sequence[Gate], error_1q: float) -> np.ndarray:
    """The 2x2 density a noisy 1q prep fragment leaves on its wire."""
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    lam = error_1q * 4.0 / 3.0
    for gate in gates:
        matrix = gate.matrix()
        rho = matrix @ rho @ matrix.conj().T
        if error_1q > 0.0:
            rho = (1.0 - lam) * rho + lam * np.trace(rho) * np.eye(2) / 2.0
    return rho


def _compiled_noisy_geometry(
    subcircuit: Subcircuit, spec: NoisyEvalSpec
) -> _NoisyGeometry:
    """Compile (and memoize) the variant-invariant noisy machinery.

    On the device path the *body alone* is transpiled: layout selection
    ignores gate contents and the 1q prep/basis fragments route in place
    without SWAPs, so ``native(prep) @ initial_layout + routed(body) +
    native(basis) @ final_layout`` is gate-for-gate the transpile of the
    full variant circuit — one routing pass serves all ``3^O * 4^rho``
    variants.
    """
    from ..sim.noisy_batch import fold_matrices, noisy_body_plan

    noise = spec.effective_noise
    width = subcircuit.width
    init_positions = tuple(line.line for line in subcircuit.init_lines)
    meas_positions = tuple(line.line for line in subcircuit.meas_lines)
    device_key = None
    if spec.device is not None:
        device = spec.device
        device_key = (
            device.name, device.num_qubits, device.coupling_map, device.noise,
        )
    key = (
        subcircuit.circuit.gates, width, init_positions, meas_positions,
        device_key, noise,
    )
    cached = _GEOMETRY_CACHE.get(key)
    if cached is not None:
        _GEOMETRY_STATS["hits"] += 1
        try:
            _GEOMETRY_CACHE.move_to_end(key)
        except KeyError:  # pragma: no cover - concurrent eviction
            pass
        return cached
    _GEOMETRY_STATS["misses"] += 1

    if spec.device is not None:
        from ..devices.transpiler import _native_1q, compact_circuit, transpile

        transpiled = transpile(subcircuit.circuit, spec.device)
        anchors = set(transpiled.initial_layout) | set(transpiled.final_layout)
        compact, kept_wires = compact_circuit(
            transpiled.circuit, keep=sorted(anchors)
        )
        remap = {wire: index for index, wire in enumerate(kept_wires)}
        body_gates = compact.gates
        num_wires = compact.num_qubits

        def fragment_gates(specs, physical):
            gates: List[Gate] = []
            for gate_spec in specs:
                gates.extend(_native_1q(Gate(gate_spec[0], (physical,))))
            return tuple(gates)

        def prep_wire(position):
            return remap[transpiled.initial_layout[position]]

        def basis_wire(position):
            return remap[transpiled.final_layout[position]]

        keep = [remap[transpiled.final_layout[q]] for q in range(width)]
    else:
        body_gates = subcircuit.circuit.gates
        num_wires = width

        def fragment_gates(specs, position):
            return tuple(Gate(gate_spec[0], (position,)) for gate_spec in specs)

        def prep_wire(position):
            return position

        def basis_wire(position):
            return position

        keep = None

    prep: Dict[Tuple[str, int], _Fragment] = {}
    for line_index, position in enumerate(init_positions):
        wire = prep_wire(position)
        for label in INIT_LABELS:
            gates = fragment_gates(_PREP_GATES[label], wire)
            matrices = tuple(gate.matrix() for gate in gates)
            prep[(label, line_index)] = _Fragment(
                gates=gates,
                wire=wire,
                log_clean=clean_log_weight(gates, noise),
                matrices=matrices,
                matrix=fold_matrices(matrices),
                rho=_prep_density(gates, noise.error_1q),
                vector=fold_matrices(matrices) @ INITIAL_STATES["zero"],
            )
    basis: Dict[Tuple[str, int], _Fragment] = {}
    for line_index, position in enumerate(meas_positions):
        wire = basis_wire(position)
        for name in MEAS_BASES:
            gates = fragment_gates(_BASIS_GATES[name], wire)
            matrices = tuple(gate.matrix() for gate in gates)
            basis[(name, line_index)] = _Fragment(
                gates=gates,
                wire=wire,
                log_clean=clean_log_weight(gates, noise),
                matrices=matrices,
                matrix=fold_matrices(matrices),
            )

    edges = []
    for line_index in range(len(meas_positions)):
        for child in range(len(MEAS_BASES) ** (line_index + 1)):
            fragment = basis[(MEAS_BASES[child % len(MEAS_BASES)], line_index)]
            if fragment.gates:
                edges.append(((line_index, child), fragment))
    geometry = _NoisyGeometry(
        num_wires=num_wires,
        plan=noisy_body_plan(body_gates, noise, num_wires),
        prep=prep,
        basis=basis,
        edges=tuple(edges),
        keep=keep,
    )
    _GEOMETRY_CACHE[key] = geometry
    while len(_GEOMETRY_CACHE) > _GEOMETRY_CACHE_LIMIT:
        _GEOMETRY_CACHE.popitem(last=False)
    return geometry


def _labels_code(labels: Sequence[str]) -> int:
    """Global init-combo index (mixed-radix over :data:`INIT_LABELS`).

    Derived from the combo *content*, so RNG keys built on it are
    independent of how the init space was chunked across workers.
    """
    code = 0
    for label in labels:
        code = code * len(INIT_LABELS) + INIT_LABELS.index(label)
    return code


def _bases_code(bases: Sequence[str]) -> int:
    code = 0
    for name in bases:
        code = code * len(MEAS_BASES) + MEAS_BASES.index(name)
    return code


def batched_noisy_variant_probabilities(
    subcircuit: Subcircuit,
    spec: NoisyEvalSpec,
    init_combos: Optional[Sequence[Tuple[str, ...]]] = None,
) -> Tuple[np.ndarray, int]:
    """Every *noisy* variant distribution from shared batched body passes.

    The noisy analogue of :func:`basis_column_amplitudes`: the
    (transpiled, on the device path) measurement-free body is evolved
    once per init batch — prep fragments folded into the initial product
    states, so ``rho = 0`` variants never cost an extra pass — and all
    ``3^O`` basis distributions are derived from the retained states by
    applying only the cheap noisy 1q basis fragments.

    ``method="trajectory"`` mixes the clean distribution with the mean
    of ``spec.trajectories`` Pauli-injection samples by the analytic
    clean weight, exactly like the serial trajectory loop kept as the
    oracle ``tests/noisy_oracle.py``; a chunk costs one walk
    over the fused clean body plus one forked suffix per trajectory
    that injected (see ``trajectory_chunk``).  ``method="density"``
    evolves the exact channel in one batched density pass.  Body, prep
    and basis-fragment injections come from three array draws of the
    counter-based :func:`~repro.sim.noise.keyed_uniforms`, keyed
    ``(seed, stage, subcircuit, trajectory, item, position, lane)``
    (:func:`~repro.sim.noisy_batch.draw_injections`); shot sampling
    draws from :func:`~repro.sim.noise.spawn_rng` at ``(3, subcircuit,
    row code, basis code)``.  Every key derives from content, so results
    are bit-identical regardless of worker count or chunk order.

    Returns ``(distributions, num_body_passes)``: a ``(len(init_combos),
    3^O, 2^width)`` float64 array, rows in ``init_combos`` order and bases
    in :func:`generate_variants` order (trajectory passes: clean walk +
    forked suffixes); on the device path each distribution is already
    marginalized to the subcircuit's logical qubits.
    """
    from ..sim.batch import BatchedStatevector
    from ..sim.noise import spawn_rng
    from ..sim.noisy_batch import (
        apply_readout_error_rows,
        density_probabilities,
        draw_injections,
        evolve_density,
        fork_suffix,
        injected_suffix,
        marginalize_rows,
        product_density,
        superoperator,
    )
    from ..sim.sampler import sample_distribution

    geometry = _compiled_noisy_geometry(subcircuit, spec)
    noise = spec.effective_noise
    gate_noise = noise.error_1q > 0.0 or noise.error_2q > 0.0
    num_meas = len(subcircuit.meas_lines)
    index = subcircuit.index
    seed = spec.seed
    zero_vector = INITIAL_STATES["zero"]
    zero_rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

    if init_combos is None:
        init_combos = [
            tuple(combo)
            for combo in itertools.product(
                INIT_LABELS, repeat=len(subcircuit.init_lines)
            )
        ]
    else:
        init_combos = [tuple(combo) for combo in init_combos]

    def product_state(members):
        """``members[b]`` maps a wire to its 2-vector; other wires are |0>."""
        rows = []
        for vectors in members:
            per_wire = [zero_vector] * geometry.num_wires
            for wire, vector in vectors.items():
                per_wire[wire] = vector
            rows.append(per_wire)
        return BatchedStatevector.from_product_batch(rows)

    def density_chunk(combos):
        """One exact-channel pass; returns ``bases -> (B, 2^n)`` rows."""
        members = []
        for labels in combos:
            per_wire = [zero_rho] * geometry.num_wires
            for line_index, label in enumerate(labels):
                fragment = geometry.prep[(label, line_index)]
                per_wire[fragment.wire] = fragment.rho
            members.append(per_wire)
        state = evolve_density(geometry.plan, product_density(members))
        leaves: Dict[Tuple[str, ...], np.ndarray] = {}

        def emit(state, line_index, bases):
            if line_index == num_meas:
                leaves[bases] = density_probabilities(state)
                return
            for name in MEAS_BASES:
                fragment = geometry.basis[(name, line_index)]
                branch = state
                if fragment.matrices:
                    # The fragment's gates, each with its 1q site: one
                    # 4x4 superoperator on the wire's ket and bra axes.
                    channel = np.eye(4, dtype=complex)
                    for matrix in fragment.matrices:
                        channel = superoperator(matrix, noise.error_1q) @ channel
                    branch = state.applied(
                        channel, [fragment.wire, geometry.num_wires + fragment.wire]
                    )
                emit(branch, line_index + 1, bases + (name,))

        emit(state, 0, ())
        return leaves, 1

    def fan_out(state, noisy, prune, leaf, line_index=0, bases=(), code=0):
        """Depth-first over measurement lines, sharing basis prefixes.

        ``noisy`` maps a tree edge ``(line, child code)`` to its injected
        fragment; with ``prune`` only subtrees holding such an edge are
        entered, and everything below one.  ``state`` is never written to.
        """
        if line_index == num_meas:
            leaf(bases, state.probabilities())
            return
        for number, name in enumerate(MEAS_BASES):
            child = code * len(MEAS_BASES) + number
            if prune and not any(
                line >= line_index
                and edge // len(MEAS_BASES) ** (line - line_index) == child
                for line, edge in noisy
            ):
                continue
            fragment = geometry.basis[(name, line_index)]
            matrix = noisy.get((line_index, child))
            branch = state
            if fragment.gates:
                branch = state.applied(
                    fragment.matrix if matrix is None else matrix,
                    [fragment.wire],
                )
            fan_out(
                branch, noisy, prune and matrix is None, leaf,
                line_index + 1, bases + (name,), child,
            )

    def trajectory_chunk(combos, codes, span):
        """One fused clean walk, forked once per injecting trajectory.

        A trajectory whose pattern first injects in block ``b`` shares
        blocks ``0..b-1`` with the clean walk, so it forks off the walk
        there and runs only ``b..end`` with its injected blocks rebuilt.
        One that injects nothing in the body reads the walk's final
        state, and only in the basis subtrees where one of its fragment
        draws fired — every other leaf it would produce is the clean
        leaf, which the estimator does not accumulate.  Rows whose prep
        fragment fired do not start from the walk's state; they run the
        trajectory's whole body as a batch of their own.  All draws come
        first (:func:`~repro.sim.noisy_batch.draw_injections`, keyed on
        content), so none of this moves a draw.

        Live states are bounded by the walk, one fork and one
        trajectory's prep-fired rows (plus one branch per tree level of
        a fan-out) — never by ``spec.trajectories``.
        """
        batch = len(combos)
        plan = geometry.plan
        prep = [
            [geometry.prep[(label, line)] for line, label in enumerate(labels)]
            for labels in combos
        ]
        walk = product_state(
            [{fragment.wire: fragment.vector for fragment in row} for row in prep]
        )
        clean_leaves: Dict[Tuple[str, ...], np.ndarray] = {}
        if not gate_noise:
            # The serial simulator's shortcut: no gate noise means the
            # clean pass *is* the estimate (readout applies downstream).
            fan_out(
                walk.apply_fused(plan.ops), {}, False, clean_leaves.__setitem__
            )
            return clean_leaves, 1

        sums = {}
        counts = {}
        for bases in itertools.product(MEAS_BASES, repeat=num_meas):
            sums[bases] = np.zeros((batch, 1 << geometry.num_wires))
            counts[bases] = np.zeros(batch, dtype=np.int64)
        forks = []  # blocks applied by each forked pass

        def run(state, ops, first_block, noisy, prune, rows, pick):
            if ops:
                state = fork_suffix(state, ops, first_block)
                forks.append(len(ops))

            def accumulate(bases, probabilities):
                sums[bases][rows] += probabilities[pick]
                counts[bases][rows] += 1

            fan_out(state, noisy, prune, accumulate)

        schedule = []
        for pattern, prep_fired, noisy in draw_injections(
            plan, prep, codes, geometry.edges, noise.error_1q, seed, index,
            spec.trajectories,
        ):
            first_block, suffix = (
                (len(plan.ops), []) if pattern is None
                else injected_suffix(plan, pattern)
            )
            schedule.append((first_block, suffix, prep_fired, noisy))
        cursor = skipped = 0
        for first_block, suffix, prep_fired, noisy in sorted(
            schedule, key=lambda draw: draw[0]
        ):
            for op in plan.ops[cursor:first_block]:
                walk.apply_matrix(op.matrix, op.qubits)
            cursor = first_block
            ran = len(forks)
            fired_rows = np.array(sorted(prep_fired), dtype=np.intp)
            rows = slice(None)
            if prep_fired:
                rows = np.setdiff1d(np.arange(batch), fired_rows)
            if len(prep_fired) < batch and (suffix or noisy):
                run(walk, suffix, first_block, noisy, not suffix, rows, rows)
            if prep_fired:
                run(
                    product_state([prep_fired[row] for row in fired_rows]),
                    list(plan.ops[:first_block]) + suffix, 0,
                    noisy, False, fired_rows, slice(None),
                )
            skipped += ran == len(forks)
        for op in plan.ops[cursor:]:
            walk.apply_matrix(op.matrix, op.qubits)
        fan_out(walk, {}, False, clean_leaves.__setitem__)
        span.set(
            trajectories=spec.trajectories, forked=len(forks), skipped=skipped,
            blocks_applied=len(plan.ops) + sum(forks),
        )

        log_prep = np.array(
            [sum(fragment.log_clean for fragment in row) for row in prep]
        )
        leaves: Dict[Tuple[str, ...], np.ndarray] = {}
        for bases, clean_rows in clean_leaves.items():
            log_weight = (
                plan.log_clean
                + log_prep
                + sum(
                    geometry.basis[(name, line_index)].log_clean
                    for line_index, name in enumerate(bases)
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

    codes = [_labels_code(labels) for labels in init_combos]
    with trace.span(
        "evaluate.noisy_variant_batch",
        {"subcircuit": index, "method": spec.method,
         "members": len(init_combos)},
    ) as span:
        if spec.method == "density":
            leaves, num_passes = density_chunk(init_combos)
        else:
            leaves, num_passes = trajectory_chunk(init_combos, codes, span)
    distributions = np.empty(
        (len(init_combos), len(MEAS_BASES) ** num_meas, 1 << subcircuit.width)
    )
    for bases, rows in leaves.items():
        rows = apply_readout_error_rows(rows, noise.readout)
        code = _bases_code(bases)
        if spec.shots:
            rows = np.stack(
                [
                    sample_distribution(
                        rows[row],
                        spec.shots,
                        spawn_rng(seed, 3, index, codes[row], code),
                    )
                    for row in range(len(init_combos))
                ]
            )
        if geometry.keep is not None:
            rows = marginalize_rows(rows, geometry.keep, geometry.num_wires)
        distributions[:, code] = rows
    return distributions, num_passes


class SubcircuitResult:
    """Evaluation results of all physical variants of one subcircuit.

    An **exact** batched result holds ``amplitudes`` — the
    ``(2^rho, 2^width)`` complex128 :func:`basis_column_amplitudes`, which
    determine every variant.  Any other result (noisy, device, custom
    backend, sampled shots) holds ``distributions`` — a mixed state has no
    amplitude: one float64 ``(4^rho, 3^O, 2^width)`` array whose
    ``[i, b]`` row is the probability vector of the ``i``-th init combo
    measured in the ``b``-th basis combo, both in :func:`generate_variants`
    order (line 0 is the most significant bit of a row).  Reading
    ``distributions`` on an exact result materialises the array once.
    :meth:`vector` reads one row by its labels.

    ``num_variants`` / ``num_unique_circuits`` record how much of the
    variant space was served by shared physical executions (beyond the
    I/Z sharing already folded into :data:`MEAS_BASES`).  ``mode`` says
    how the result was produced (``"backend"`` circuit executions or a
    ``"batched"`` engine's fused body passes); ``num_body_passes`` counts
    the fused passes (0 under a backend; on the noisy trajectory path:
    clean walk + forked suffixes).  ``term_tensor`` is the
    memo slot of :func:`repro.postprocess.attribution.build_term_tensor`
    (the data never changes after construction, so neither does it).
    """

    def __init__(
        self,
        subcircuit: Subcircuit,
        distributions: Optional[np.ndarray] = None,
        num_variants: int = 0,
        num_unique_circuits: int = 0,
        mode: str = "backend",
        num_body_passes: int = 0,
        amplitudes: Optional[np.ndarray] = None,
    ):
        self.subcircuit = subcircuit
        self._distributions = distributions
        self.num_variants = num_variants
        self.num_unique_circuits = num_unique_circuits
        self.mode = mode
        self.num_body_passes = num_body_passes
        self.amplitudes = amplitudes
        self.term_tensor: Optional["TermTensor"] = None

    @property
    def distributions(self) -> np.ndarray:
        if self._distributions is None:
            self._distributions = materialise_distributions(
                self.subcircuit, self.amplitudes
            )
        return self._distributions

    @property
    def dedup_ratio(self) -> float:
        """Variants per physical execution (>= 1; 1.0 means no sharing)."""
        if self.num_unique_circuits <= 0:
            return 1.0
        return self.num_variants / self.num_unique_circuits

    def vector(self, inits: Sequence[str], bases: Sequence[str]) -> np.ndarray:
        """The probability vector of the ``(inits, bases)`` variant."""
        lines = (len(self.subcircuit.init_lines), len(self.subcircuit.meas_lines))
        if (len(inits), len(bases)) != lines:
            raise KeyError((tuple(inits), tuple(bases)))
        return self.distributions[_labels_code(inits), _bases_code(bases)]


def stack_variant_rows(subcircuit: Subcircuit, rows: Sequence) -> np.ndarray:
    """A backend's variant vectors, in :func:`generate_variants` order,
    as one float64 ``(4^rho, 3^O, 2^width)`` distributions array."""
    for row in rows:
        if np.size(row) != 1 << subcircuit.width:
            raise ValueError(
                f"backend returned vector of size {np.size(row)} for a "
                f"{subcircuit.width}-qubit variant"
            )
    return np.asarray(rows, dtype=float).reshape(
        len(INIT_LABELS) ** len(subcircuit.init_lines),
        len(MEAS_BASES) ** len(subcircuit.meas_lines),
        1 << subcircuit.width,
    )
