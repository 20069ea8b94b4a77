"""The counter-based generator behind the noisy trajectory draws.

:func:`~repro.sim.noise.keyed_uniforms` must equal its scalar pure-Python
reference (``tests/keyed_draw_oracle.py``) bit for bit, stay pinned to
its first values, fire at the requested rates and pick Paulis uniformly;
:func:`~repro.sim.noisy_batch.draw_injections` must draw each init chunk
in a constant number of generator calls, whatever the trajectory count.
"""

import math

import numpy as np
import pytest

from repro import make_device
from repro.cutting.variants import (
    NoisyEvalSpec,
    batched_noisy_variant_probabilities,
    body_program,
)
from repro.library import get_benchmark
from repro.core import CutQC
from repro.obs import trace
from repro.sim import NoiseModel, noise, noisy_batch
from repro.sim.noise import keyed_uniforms
from repro.sim.noisy_batch import draw_injections
from tests.keyed_draw_oracle import (
    fired_sites,
    keyed_uniform,
    sample_injection_pattern,
)

NOISE = NoiseModel(error_1q=1e-3, error_2q=1e-2, readout=0.015)


def _chi2_survival(statistic, dof):
    """``P(X > statistic)`` for a chi-squared variable of even ``dof``."""
    half = statistic / 2.0
    return math.exp(-half) * sum(
        half**i / math.factorial(i) for i in range(dof // 2)
    )


class TestScalarReference:
    def test_vectorised_is_bit_equal_on_random_keys(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            seed = int(rng.integers(0, 1 << 63))
            fields = rng.integers(0, 1 << 40, size=(5, 7))
            got = keyed_uniforms(seed, 3, fields[0][:, None], fields[1], 1)
            for i in range(7):
                for j in range(7):
                    expected = keyed_uniform(
                        seed, 3, int(fields[0][i]), int(fields[1][j]), 1
                    )
                    assert got[i, j] == expected

    def test_broadcast_shape_and_scalar_keys(self):
        assert keyed_uniforms(5, 1, 2).shape == ()
        assert keyed_uniforms(5, np.arange(4)[:, None], np.arange(3)).shape == (
            4, 3,
        )
        assert keyed_uniforms(5, 1, 2) == keyed_uniform(5, 1, 2)
        # None is the fixed root 0.
        assert keyed_uniforms(None, 1, 2) == keyed_uniforms(0, 1, 2)

    @pytest.mark.parametrize(
        "key, value",
        [
            ((0, 0, 0, 0, 0, 0), 0.47141042966848024),
            ((3, 0, 1, 5, 17, 0), 0.42384799153882224),
            ((3, 1, 2, 23, 255, 4, 1), 0.08128033789751288),
            ((7, 2, 0, 11, 1, 4, 2, 0), 0.37551562758558066),
            (((1 << 63) - 1, 2, 9, 0, 0, 0, 0, 1), 0.46787049477597886),
        ],
    )
    def test_first_values_are_pinned(self, key, value):
        # Changing these re-keys every trajectory answer: bump the
        # trajectory store tag with them.
        assert keyed_uniforms(*key) == value
        assert keyed_uniform(*key) == value


class TestDistribution:
    KEYS = 200_000

    @pytest.mark.parametrize("rate", [1e-3, 1e-2, 0.1, 0.5])
    def test_fire_frequency_within_five_sigma(self, rate):
        fire = keyed_uniforms(3, 0, 7, np.arange(self.KEYS), 17, 0)
        fired = int((fire < rate).sum())
        sigma = math.sqrt(self.KEYS * rate * (1.0 - rate))
        assert abs(fired - self.KEYS * rate) <= 5.0 * sigma

    @pytest.mark.parametrize("choices", [3, 15])
    def test_pauli_choice_is_uniform(self, choices):
        picks = keyed_uniforms(11, 2, 4, np.arange(self.KEYS), 3, 1)
        counts = np.bincount((picks * choices).astype(np.intp),
                             minlength=choices)
        assert len(counts) == choices
        expected = self.KEYS / choices
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert _chi2_survival(statistic, choices - 1) > 1e-4

    def test_streams_of_neighbouring_keys_are_uncorrelated(self):
        a = keyed_uniforms(3, 0, 1, np.arange(self.KEYS), 0)
        b = keyed_uniforms(3, 0, 1, np.arange(self.KEYS) + 1, 0)
        c = keyed_uniforms(3, 0, 1, np.arange(self.KEYS), 1)
        for other in (b, c):
            assert abs(np.corrcoef(a, other)[0, 1]) <= 5.0 / math.sqrt(self.KEYS)


class TestDrawInjections:
    def _middle(self):
        cut = CutQC(get_benchmark("bv", 10), 6).cut()
        return max(cut.subcircuits, key=lambda s: len(s.init_lines))

    def test_body_patterns_match_the_scalar_replay(self):
        subcircuit = self._middle()
        spec = NoisyEvalSpec(
            noise=NoiseModel(error_1q=0.05, error_2q=0.2), shots=None, seed=4
        )
        program = body_program(subcircuit, spec)
        drawn = draw_injections(
            program, [], [], (), 0.0, spec.seed, subcircuit.index, 16
        )
        for trajectory, (pattern, prep_fired, noisy) in enumerate(drawn):
            expected, injected = sample_injection_pattern(
                program, spec.seed, subcircuit.index, trajectory
            )
            assert (pattern is not None) == injected
            assert tuple(pattern or ()) == fired_sites(program, expected)
            assert prep_fired == {} and noisy == {}

    @pytest.mark.parametrize("trajectories", [6, 48])
    def test_generator_calls_per_chunk_are_constant(
        self, monkeypatch, trajectories
    ):
        spawned = []
        drawn = []
        spawn_rng, uniforms = noise.spawn_rng, noisy_batch.keyed_uniforms
        monkeypatch.setattr(
            noise, "spawn_rng",
            lambda *key: spawned.append(key) or spawn_rng(*key),
        )
        monkeypatch.setattr(
            noisy_batch, "keyed_uniforms",
            lambda *key: drawn.append(key) or uniforms(*key),
        )
        device = make_device("count", 6, "line", noise=NOISE, seed=3)
        spec = NoisyEvalSpec(
            device=device, trajectories=trajectories, shots=0, seed=3
        )
        cut = CutQC(get_benchmark("bv", 10), 6).cut()
        for subcircuit in cut.subcircuits:
            drawn.clear()
            batched_noisy_variant_probabilities(subcircuit, spec)
            # body, prep and basis: at most one call each per chunk.
            assert 1 <= len(drawn) <= 3
        assert spawned == []

    def test_traced_device_run_emits_the_draw_span(self):
        device = make_device("traced", 6, "line", noise=NOISE, seed=3)
        pipeline = CutQC(
            get_benchmark("bv", 10), 6, device=device, device_shots=0, seed=3
        )
        pipeline.cut()
        with trace.start("root") as root:
            pipeline.evaluate()

        def batches(span):
            if span.name == "evaluate.noisy_variant_batch":
                yield span
            for child in span.children:
                yield from batches(child)

        found = list(batches(root))
        assert found
        for batch in found:
            (draw,) = [c for c in batch.children if c.name == "sim.noisy.draw"]
            assert draw.attrs["keys"] > 0
            assert 0 <= draw.attrs["fired"] <= draw.attrs["keys"]
