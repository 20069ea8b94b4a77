"""The per-variant evaluation the batched engines replaced, kept as oracle.

:func:`evaluate_variants` is the loop ``VariantExecutor`` ran before every
evaluation became a body-key group of init batches: every ``(subcircuit,
variant)`` pair of the batch, deduplicated by structural key across
subcircuits, one ``backend(circuit)`` call per distinct physical circuit
in first-seen order, each subcircuit's rows stacked in
``generate_variants`` order.  Its default backend is the dense
statevector simulator run once per variant circuit — the independent
reference for the exact engine's basis-column amplitudes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import QuantumCircuit
from repro.cutting.cutter import Subcircuit
from repro.cutting.variants import (
    SubcircuitResult,
    VariantCircuitFactory,
    generate_variants,
    stack_variant_rows,
)
from repro.sim import simulate_probabilities

Backend = Callable[[QuantumCircuit], np.ndarray]


def evaluate_variants(
    subcircuits: Sequence[Subcircuit], backend: Optional[Backend] = None
) -> List[SubcircuitResult]:
    """Every variant of ``subcircuits`` through ``backend``, one circuit
    per distinct structural key across the whole batch."""
    backend = backend or simulate_probabilities
    executed: Dict[Tuple, np.ndarray] = {}
    results = []
    for subcircuit in subcircuits:
        factory = VariantCircuitFactory(subcircuit)
        keys = [factory.structural_key(v) for v in generate_variants(subcircuit)]
        for key, variant in zip(keys, generate_variants(subcircuit)):
            if key not in executed:
                executed[key] = backend(factory.circuit(variant))
        results.append(
            SubcircuitResult(
                subcircuit=subcircuit,
                distributions=stack_variant_rows(
                    subcircuit, [executed[key] for key in keys]
                ),
                num_variants=len(keys),
                num_unique_circuits=len(set(keys)),
            )
        )
    return results


def evaluate_subcircuit(
    subcircuit: Subcircuit, backend: Optional[Backend] = None
) -> SubcircuitResult:
    """One subcircuit's variants through ``backend``, per variant."""
    return evaluate_variants([subcircuit], backend)[0]
