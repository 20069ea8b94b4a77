"""Scalar pure-Python reference of the keyed noise draws.

:func:`keyed_uniform` computes one value of
:func:`repro.sim.noise.keyed_uniforms` with Python integers: the key's
SplitMix64 chain, one field at a time, masked to 64 bits by hand.
:func:`fired_choice` is one injection point of
:func:`repro.sim.noisy_batch.draw_injections` (lane 0 decides, lane 1
picks the Pauli), and :func:`sample_injection_pattern` one trajectory's
body pattern drawn site by site — the serial replay in
``tests/test_noisy_batch.py`` steps gate by gate through these;
:func:`fired_sites` turns that pattern into the drawn ``(site, choice)``
form.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.noisy_batch import PAULI_NAMES_1Q, PAULI_PAIRS_2Q

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
BODY, PREP, BASIS = 0, 1, 2


def keyed_uniform(seed: Optional[int], *key: int) -> float:
    """The uniform at ``(seed, *key)``, one SplitMix64 step per field."""
    h = 0 if seed is None else seed
    for field in key:
        z = (h + (field + 1) * GOLDEN) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        h = z ^ (z >> 31)
    return (h >> 11) * 2.0**-53


def fired_choice(
    rate: float, choices: int, seed: Optional[int], *key: int
) -> Optional[int]:
    """The Pauli index drawn at ``key``, or ``None`` if it did not fire."""
    if keyed_uniform(seed, *key, 0) < rate:
        return int(keyed_uniform(seed, *key, 1) * choices)
    return None


def sample_injection_pattern(
    program, seed: Optional[int], index: int, trajectory: int
) -> Tuple[Tuple[Optional[Tuple[str, ...]], ...], bool]:
    """One trajectory's Pauli pattern over ``program``'s sites, one by one.

    Returns ``(pattern, injected)``: ``pattern[i]`` is site ``i``'s Pauli
    name tuple (or ``None``); ``injected`` says whether any site fired.
    """
    pattern = []
    for position, (rate, choices) in enumerate(
        zip(program.site_rates.tolist(), program.site_choices.tolist())
    ):
        choice = fired_choice(
            rate, choices, seed, BODY, index, trajectory, position
        )
        if choice is None:
            pattern.append(None)
        elif choices == len(PAULI_PAIRS_2Q):
            pattern.append(PAULI_PAIRS_2Q[choice])
        else:
            pattern.append((PAULI_NAMES_1Q[choice],))
    return tuple(pattern), any(choice is not None for choice in pattern)


def fired_sites(program, pattern) -> Tuple[Tuple[int, int], ...]:
    """A per-site name ``pattern`` as the ``((site, choice), ...)`` pairs
    that :func:`~repro.sim.noisy_batch.draw_injections` returns."""
    fired = []
    for site, names in enumerate(pattern):
        if names is not None:
            choices = (
                PAULI_PAIRS_2Q
                if program.site_choices[site] == len(PAULI_PAIRS_2Q)
                else tuple((name,) for name in PAULI_NAMES_1Q)
            )
            fired.append((site, choices.index(names)))
    return tuple(fired)
