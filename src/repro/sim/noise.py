"""NISQ noise model and the keyed randomness of noisy evaluation.

Substitutes for IBM hardware (see DESIGN.md): depolarizing noise after
every gate plus readout (measurement) bit-flip error.  The batched noisy
engine (:mod:`repro.sim.noisy_batch`, driven by
:func:`~repro.cutting.variants.batched_noisy_variant_probabilities`)
averages stochastic Pauli-injection trajectories — an unbiased sampler
of the depolarizing channel — or evolves the channel exactly, then
applies the readout confusion and finally shot noise.  Larger/deeper
circuits accumulate more injected errors, which reproduces the fidelity
trends of Figures 1 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..circuits import Gate

__all__ = [
    "NoiseModel",
    "check_seed",
    "clean_log_weight",
    "keyed_uniforms",
    "spawn_rng",
]


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing + readout error rates.

    Attributes
    ----------
    error_1q:
        Probability that a single-qubit gate is followed by a uniformly
        random non-identity Pauli on its qubit.
    error_2q:
        Probability that a two-qubit gate is followed by a uniformly random
        non-identity two-qubit Pauli on its qubits.
    readout:
        Per-qubit probability that a measured bit is flipped.
    """

    error_1q: float = 0.0
    error_2q: float = 0.0
    readout: float = 0.0

    def __post_init__(self) -> None:
        for name in ("error_1q", "error_2q", "readout"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def is_noiseless(self) -> bool:
        return self.error_1q == 0.0 and self.error_2q == 0.0 and self.readout == 0.0

    def scaled(self, factor: float) -> "NoiseModel":
        """A model with all rates multiplied by ``factor`` (clipped to 1)."""
        return NoiseModel(
            error_1q=min(1.0, self.error_1q * factor),
            error_2q=min(1.0, self.error_2q * factor),
            readout=min(1.0, self.readout * factor),
        )


def clean_log_weight(gates: Iterable[Gate], noise: NoiseModel) -> float:
    """``sum(log1p(-rate))`` over a gate sequence — the log-probability
    that a Pauli-injection trajectory through it draws no error.

    Returns ``-inf`` when any applicable rate saturates at 1.
    """
    log_p = 0.0
    for gate in gates:
        rate = noise.error_2q if gate.is_multiqubit else noise.error_1q
        if rate >= 1.0:
            return float("-inf")
        log_p += np.log1p(-rate)
    return float(log_p)


def check_seed(seed: Optional[int]) -> None:
    """Refuse a root seed that is neither ``None`` nor an int in
    ``[0, 2**63)``, with an error that names the ``seed`` field."""
    if seed is None:
        return
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(
            f"seed must be None or an integer, got {type(seed).__name__}"
        )
    if not 0 <= seed < 1 << 63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")


def spawn_rng(seed: Optional[int], *key: int) -> np.random.Generator:
    """A child generator at spawn-key ``key`` under root ``seed``.

    Uses the :class:`numpy.random.SeedSequence` spawn-tree (the mechanism
    behind ``Generator.spawn``) with an explicit integer key instead of a
    sequential child counter, so the stream assigned to a work item —
    e.g. (row, basis code) — is the same no matter which worker runs it,
    how the init space is chunked, or in what order tasks complete.
    ``seed=None`` maps to the fixed root 0: noisy batched evaluation is
    deterministic by default.  Batched noisy evaluation uses it only for
    shot sampling (stage 3); Pauli injections draw from
    :func:`keyed_uniforms`, because building a ``SeedSequence`` per
    stream cost more than the draws themselves.
    """
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=0 if seed is None else int(seed),
            spawn_key=tuple(int(k) for k in key),
        )
    )


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
# The same constants as numpy scalars: a Python int above 2**63 costs a
# slow conversion in every uint64 op.
_GOLDEN_U64, _MIX_1_U64, _MIX_2_U64 = map(np.uint64, (_GOLDEN, _MIX_1, _MIX_2))


def keyed_uniforms(seed: Optional[int], *key) -> np.ndarray:
    """Uniforms in ``[0, 1)`` that are a pure function of ``(seed, *key)``.

    A counter-based generator in the sense of Salmon et al., "Parallel
    random numbers: as easy as 1, 2, 3" (SC'11): no generator state, just
    a hash of the key.  The hash chains SplitMix64 — starting from
    ``h = seed`` (``None`` maps to 0), each key field ``f`` moves ``h`` to
    the ``f``-th output of a SplitMix64 stream at state ``h``,
    ``h <- mix64(h + (f + 1) * golden)`` — and the top 53 bits of the
    final ``h`` are the uniform.  Key fields are non-negative integers or
    integer arrays that broadcast together; the result has their
    broadcast shape, so one call draws a whole block of keys in a few
    numpy passes.  ``tests/keyed_draw_oracle.py`` holds the scalar
    pure-Python reference.
    """
    shape = np.broadcast_shapes(*(np.shape(field) for field in key))
    fields = list(key)
    # The leading scalar fields in Python ints: a numpy step is a dozen
    # ufunc calls, and per-call overhead dominates the small arrays one
    # init chunk draws.
    h = 0 if seed is None else int(seed)
    while fields and not np.ndim(fields[0]):
        z = (h + (int(fields.pop(0)) + 1) * _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
        h = z ^ (z >> 31)
    # Shape >= (1,) arrays, never numpy scalars: scalar uint64 arithmetic
    # warns on the wrap-around the hash relies on.
    h = np.full(1, h, dtype=np.uint64)
    for field in fields:
        h = h + (np.array(field, dtype=np.uint64, ndmin=1) + 1) * _GOLDEN_U64
        h ^= h >> 30
        h *= _MIX_1_U64
        h ^= h >> 27
        h *= _MIX_2_U64
        h ^= h >> 31
    return ((h >> 11) * 2.0**-53).reshape(shape)
