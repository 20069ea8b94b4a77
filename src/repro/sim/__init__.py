"""Simulation backends: exact statevector, shot sampling, and noisy NISQ."""

from .statevector import (
    INITIAL_STATES,
    Statevector,
    initial_state,
    simulate_probabilities,
    simulate_statevector,
)
from .batch import (
    BatchedStatevector,
    FusedOp,
    fuse_gates,
)
from .sampler import (
    ShotSampler,
    counts_to_probabilities,
    probabilities_to_counts_dict,
    sample_counts,
    sample_distribution,
)
from .noise import (
    NoiseModel,
    clean_log_weight,
    keyed_uniforms,
    spawn_rng,
)
from .noisy_batch import (
    BodyProgram,
    compile_program,
    draw_injections,
    injected_suffix,
)
from .feynman import FeynmanPathSimulator, gate_schmidt_terms

__all__ = [
    "INITIAL_STATES",
    "Statevector",
    "initial_state",
    "simulate_probabilities",
    "simulate_statevector",
    "BatchedStatevector",
    "FusedOp",
    "fuse_gates",
    "ShotSampler",
    "counts_to_probabilities",
    "probabilities_to_counts_dict",
    "sample_counts",
    "sample_distribution",
    "NoiseModel",
    "clean_log_weight",
    "keyed_uniforms",
    "spawn_rng",
    "BodyProgram",
    "compile_program",
    "draw_injections",
    "injected_suffix",
    "FeynmanPathSimulator",
    "gate_schmidt_terms",
]
