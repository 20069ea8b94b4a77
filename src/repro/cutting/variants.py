"""Enumerate the physical variants of a subcircuit, and hold their results.

Per Fig. 3, the upstream side of every cut is measured in one of the Pauli
bases {I, X, Y, Z} and the downstream side is initialized in one of
{|0>, |1>, |+>, |+i>}.  The I and Z measurements share the same physical
circuit, so a subcircuit with ``O`` measurement lines and ``rho``
initialization lines has ``3^O * 4^rho`` distinct physical variants — the
circuits a quantum device actually runs.

Every variant shares the subcircuit's body, so no engine runs them one by
one: :func:`body_program` compiles the body once (routed onto the device
on the ``device=`` path) into a :class:`~repro.sim.noisy_batch.BodyProgram`,
and the executors of :mod:`repro.sim.noisy_batch` run it.  The exact one
simulates the ``2^rho`` basis columns of the init wires once — the final
state is linear in each init wire's 2-vector — and an exact
:class:`SubcircuitResult` *is* those amplitudes.  Every other result is
one ``(4^rho, 3^O, 2^width)`` ``distributions`` array in
:func:`generate_variants` order; an exact result materialises that array
only when something reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..sim.noise import NoiseModel, check_seed
from ..sim.noisy_batch import (
    BASIS_GATES,
    INIT_LABELS,
    MEAS_BASES,
    PREP_GATES,
    BodyProgram,
    bases_code,
    cached_program,
    compile_program,
    labels_code,
    materialise_distributions,
    noisy_distributions,
)
from ..utils import check_count
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
    "NOISY_METHODS",
    "NoisyEvalSpec",
    "body_program",
    "batched_noisy_variant_probabilities",
    "SubcircuitResult",
    "num_physical_variants",
]


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
        gates: List[Gate] = [
            Gate(name, (position,))
            for label, position in zip(variant.inits, self._init_positions)
            for name in PREP_GATES[label]
        ]
        gates.extend(self._body)
        gates.extend(
            Gate(name, (position,))
            for basis, position in zip(variant.bases, self._meas_positions)
            for name in BASIS_GATES[basis]
        )
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
# Evaluation: one compiled body program per subcircuit (fused-body
# residency), run by the executors of repro.sim.noisy_batch
# ----------------------------------------------------------------------

#: The batched noisy estimators (``NoisyEvalSpec.method``).
NOISY_METHODS = ("trajectory", "density")


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
        if self.method not in NOISY_METHODS:
            raise ValueError(
                f"noisy_method must be one of {NOISY_METHODS}, got {self.method!r}"
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
        check_count("trajectories", self.trajectories, 1)
        if self.shots is not None:
            check_count("shots", self.shots)
        check_seed(self.seed)

    @property
    def effective_noise(self) -> NoiseModel:
        return self.device.noise if self.device is not None else self.noise


def body_program(
    subcircuit: Subcircuit, spec: Optional[NoisyEvalSpec] = None
) -> BodyProgram:
    """The subcircuit's compiled body program, memoised per process.

    Without a ``spec`` it is the exact program (no noise); with one, the
    program of ``spec.effective_noise``.  On the device path the *body
    alone* is transpiled: layout selection ignores gate contents and the
    1q prep/basis fragments route in place without SWAPs, so
    ``native(prep) @ initial_layout + routed(body) + native(basis) @
    final_layout`` is gate-for-gate the transpile of the full variant
    circuit — one routing pass serves all ``3^O * 4^rho`` variants.
    """
    noise = NoiseModel() if spec is None else spec.effective_noise
    device = None if spec is None else spec.device
    init_positions = tuple(line.line for line in subcircuit.init_lines)
    meas_positions = tuple(line.line for line in subcircuit.meas_lines)
    device_key = None
    if device is not None:
        device_key = (
            device.name, device.num_qubits, device.coupling_map, device.noise,
        )
    key = (
        subcircuit.circuit.gates, subcircuit.width, init_positions,
        meas_positions, device_key, noise,
    )

    def build() -> BodyProgram:
        if device is None:
            return compile_program(
                subcircuit.circuit.gates, subcircuit.width, init_positions,
                meas_positions, noise,
            )
        # Looked up at call time: the e2e tracer patches ``transpile``.
        from ..devices import transpiler

        transpiled = transpiler.transpile(subcircuit.circuit, device)
        initial, final = transpiled.initial_layout, transpiled.final_layout
        compact, kept_wires = transpiler.compact_circuit(
            transpiled.circuit, keep=sorted(set(initial) | set(final))
        )
        wire_of = {wire: index for index, wire in enumerate(kept_wires)}
        return compile_program(
            compact.gates,
            compact.num_qubits,
            [wire_of[initial[position]] for position in init_positions],
            [wire_of[final[position]] for position in meas_positions],
            noise,
            keep=[wire_of[final[q]] for q in range(subcircuit.width)],
            lower=transpiler._native_1q,
        )

    return cached_program(key, build)


def batched_noisy_variant_probabilities(
    subcircuit: Subcircuit,
    spec: NoisyEvalSpec,
    init_combos: Optional[Sequence[Tuple[str, ...]]] = None,
) -> Tuple[np.ndarray, int]:
    """Every *noisy* variant distribution from shared batched body passes.

    Runs ``spec.method``'s executor
    (:func:`~repro.sim.noisy_batch.noisy_distributions`) on the
    subcircuit's :func:`body_program` over ``init_combos`` (default:
    every :data:`INIT_LABELS` combination).  Returns ``(distributions,
    num_body_passes)``: ``(len(init_combos), 3^O, 2^width)`` float64, rows
    in ``init_combos`` order and bases in :func:`generate_variants` order.
    """
    if init_combos is None:
        init_combos = itertools.product(
            INIT_LABELS, repeat=len(subcircuit.init_lines)
        )
    return noisy_distributions(
        body_program(subcircuit, spec),
        [tuple(combo) for combo in init_combos],
        spec.method,
        spec.trajectories,
        spec.shots,
        spec.seed,
        subcircuit.index,
    )


class SubcircuitResult:
    """Evaluation results of all physical variants of one subcircuit.

    An **exact** batched result holds ``amplitudes`` — the
    ``(2^rho, 2^width)`` complex128
    :func:`~repro.sim.noisy_batch.basis_column_amplitudes`, which
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
                body_program(self.subcircuit), self.amplitudes
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
        return self.distributions[labels_code(inits), bases_code(bases)]


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
