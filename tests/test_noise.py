"""Tests for the NISQ noise model and the serial trajectory oracle."""

import numpy as np
import pytest

from repro import QuantumCircuit
from repro.sim import NoiseModel, spawn_rng
from tests.noisy_oracle import NoisySimulator, apply_readout_error


class TestNoiseModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(error_1q=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(error_2q=1.5)

    def test_is_noiseless(self):
        assert NoiseModel().is_noiseless
        assert not NoiseModel(readout=0.01).is_noiseless

    def test_scaled_clips_at_one(self):
        model = NoiseModel(error_1q=0.5, error_2q=0.6, readout=0.4)
        scaled = model.scaled(3.0)
        assert scaled.error_1q == 1.0
        assert scaled.error_2q == 1.0
        assert np.isclose(scaled.readout, 1.0)

    def test_scaled_proportional(self):
        scaled = NoiseModel(error_1q=0.01, error_2q=0.02, readout=0.03).scaled(2.0)
        assert np.isclose(scaled.error_1q, 0.02)
        assert np.isclose(scaled.error_2q, 0.04)


class TestReadoutError:
    def test_zero_flip_identity(self):
        probs = np.array([0.3, 0.7])
        assert np.allclose(apply_readout_error(probs, 0.0), probs)

    def test_single_qubit_analytic(self):
        out = apply_readout_error(np.array([1.0, 0.0]), 0.1)
        assert np.allclose(out, [0.9, 0.1])

    def test_two_qubit_analytic(self):
        out = apply_readout_error(np.array([1.0, 0.0, 0.0, 0.0]), 0.1)
        assert np.allclose(out, [0.81, 0.09, 0.09, 0.01])

    def test_preserves_total_probability(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8))
        out = apply_readout_error(probs, 0.07)
        assert np.isclose(out.sum(), 1.0)

    def test_half_flip_is_uniform(self):
        out = apply_readout_error(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out, 0.25)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            apply_readout_error(np.ones(3) / 3, 0.1)


class TestNoisySimulator:
    def test_noiseless_matches_exact(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        sim = NoisySimulator(NoiseModel(), shots=None, seed=0)
        assert np.allclose(sim.run(circuit), [0.5, 0, 0, 0.5])

    def test_trajectories_positive(self):
        with pytest.raises(ValueError):
            NoisySimulator(NoiseModel(), trajectories=0)

    def test_noise_reduces_solution_probability(self):
        # A deterministic circuit: noise must leak probability away.
        circuit = QuantumCircuit(3)
        circuit.x(0).cx(0, 1).cx(1, 2)
        noisy = NoisySimulator(
            NoiseModel(error_1q=0.01, error_2q=0.05, readout=0.02),
            trajectories=64,
            shots=None,
            seed=5,
        ).run(circuit)
        solution = 0b111
        assert noisy[solution] < 1.0
        assert noisy[solution] > 0.5  # but still dominant at these rates

    def test_more_gates_means_more_noise(self):
        def chain(reps):
            circuit = QuantumCircuit(2)
            circuit.x(0)
            for _ in range(reps):
                circuit.cx(0, 1).cx(0, 1)  # identity pairs
            return circuit

        noise = NoiseModel(error_2q=0.03)
        shallow = NoisySimulator(noise, trajectories=96, shots=None, seed=1).run(chain(1))
        deep = NoisySimulator(noise, trajectories=96, shots=None, seed=1).run(chain(10))
        assert deep[0b10] < shallow[0b10]

    def test_distribution_valid(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).t(1).cz(0, 1)
        out = NoisySimulator(
            NoiseModel(error_1q=0.02, error_2q=0.05, readout=0.05),
            trajectories=32,
            shots=None,
            seed=2,
        ).run(circuit)
        assert np.isclose(out.sum(), 1.0, atol=1e-9)
        assert np.all(out >= -1e-12)

    def test_shot_noise_applied(self):
        circuit = QuantumCircuit(1).h(0)
        out = NoisySimulator(NoiseModel(), shots=101, seed=3).run(circuit)
        # With 101 shots probabilities are multiples of 1/101.
        assert np.allclose(out * 101, np.round(out * 101))

    def test_clean_probability(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        sim = NoisySimulator(NoiseModel(error_1q=0.1, error_2q=0.2), seed=0)
        expected = (1 - 0.1) * (1 - 0.2)
        assert np.isclose(sim._clean_probability(circuit), expected)

    def test_readout_only_noise(self):
        circuit = QuantumCircuit(1).x(0)
        out = NoisySimulator(
            NoiseModel(readout=0.2), trajectories=4, shots=None, seed=0
        ).run(circuit)
        assert np.allclose(out, [0.2, 0.8])


class TestSpawnRng:
    @pytest.mark.parametrize("seed", [None, 0, 7])
    @pytest.mark.parametrize(
        "key", [(), (0,), (0, 3, 11), (1, 0, 23, 255), (2, 1, 5, 1, 8)]
    )
    def test_stream_is_the_spawn_tree_child(self, seed, key):
        # How the stream was first defined: a root SeedSequence, then a
        # child carrying the root's entropy at the explicit spawn key.
        root = np.random.SeedSequence(0 if seed is None else seed)
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=key)
        expected = np.random.default_rng(child)
        got = spawn_rng(seed, *key)
        assert np.array_equal(got.random(4), expected.random(4))
        assert np.array_equal(
            got.integers(15, size=4), expected.integers(15, size=4)
        )
