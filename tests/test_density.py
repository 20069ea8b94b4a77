"""Tests for the density-matrix simulator — and the crucial cross-check
that the Monte-Carlo trajectory sampler converges to the exact channel."""

import numpy as np
import pytest

from repro import QuantumCircuit
from repro.sim import NoiseModel, simulate_probabilities
from tests.conftest import random_connected_circuit
from tests.density_oracle import DensityMatrix, DensityMatrixSimulator
from tests.noisy_oracle import NoisySimulator


class TestDensityMatrixBasics:
    def test_initial_state(self):
        state = DensityMatrix(2)
        assert np.isclose(state.probabilities()[0], 1.0)
        assert np.isclose(state.trace().real, 1.0)
        assert np.isclose(state.purity(), 1.0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            DensityMatrix(0)
        with pytest.raises(ValueError):
            DensityMatrix(15)

    def test_from_statevector(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        state = DensityMatrix.from_statevector(bell)
        assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5])
        assert np.isclose(state.purity(), 1.0)

    def test_from_labels(self):
        state = DensityMatrix.from_labels(["one", "plus"])
        assert np.allclose(state.probabilities(), [0, 0, 0.5, 0.5])

    def test_data_shape_validated(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, np.eye(3))

    def test_unitary_matches_statevector_sim(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(1).cz(1, 2).ry(0.7, 2)
        state = DensityMatrix(3)
        for gate in circuit:
            state.apply_gate(gate)
        assert np.allclose(
            state.probabilities(), simulate_probabilities(circuit), atol=1e-10
        )
        assert np.isclose(state.purity(), 1.0)

    def test_depolarizing_reduces_purity(self):
        state = DensityMatrix(1)
        state.apply_gate(QuantumCircuit(1).h(0)[0])
        state.apply_depolarizing([0], 0.2)
        assert state.purity() < 1.0
        assert np.isclose(state.trace().real, 1.0)

    def test_full_depolarizing_single_qubit(self):
        # p=1 single-qubit depolarizing maps any state to I/2 ... for the
        # uniform-over-XYZ convention only diagonal states stay diagonal;
        # check on |0>: (X|0>, Y|0>, Z|0>) average has p(1) = 2/3.
        state = DensityMatrix(1)
        state.apply_depolarizing([0], 1.0)
        assert np.allclose(state.probabilities(), [1 / 3, 2 / 3])

    def test_two_qubit_depolarizing_trace_preserving(self):
        state = DensityMatrix(2)
        state.apply_gate(QuantumCircuit(2).h(0)[0])
        state.apply_depolarizing([0, 1], 0.3)
        assert np.isclose(state.trace().real, 1.0)


class TestDensityMatrixSimulator:
    def test_noiseless_matches_statevector(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).t(0)
        out = DensityMatrixSimulator().run(circuit)
        assert np.allclose(out, simulate_probabilities(circuit), atol=1e-10)

    def test_readout_error_applied(self):
        out = DensityMatrixSimulator(NoiseModel(readout=0.1)).run(
            QuantumCircuit(1).x(0)
        )
        assert np.allclose(out, [0.1, 0.9])

    def test_initial_labels(self):
        out = DensityMatrixSimulator().run(
            QuantumCircuit(2).i(0).i(1), initial_labels=["one", "zero"]
        )
        assert np.isclose(out[0b10], 1.0)

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            DensityMatrixSimulator().run(QuantumCircuit(2).h(0), ["zero"])

    def test_noise_spreads_probability(self):
        circuit = QuantumCircuit(2).x(0).cx(0, 1)
        out = DensityMatrixSimulator(NoiseModel(error_2q=0.1)).run(circuit)
        assert out[0b11] < 1.0
        assert np.isclose(out.sum(), 1.0)


class TestTrajectoryConvergence:
    """The trajectory sampler is an unbiased estimator of the channel the
    density-matrix simulator computes exactly."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trajectories_converge_to_exact_channel(self, seed):
        circuit = random_connected_circuit(3, 6, seed)
        noise = NoiseModel(error_1q=0.02, error_2q=0.05, readout=0.03)
        exact = DensityMatrixSimulator(noise).run(circuit)
        sampled = NoisySimulator(
            noise, trajectories=1500, shots=None, seed=seed
        ).noisy_distribution(circuit)
        assert np.allclose(sampled, exact, atol=0.02), (
            f"max deviation {np.abs(sampled - exact).max():.4f}"
        )

    def test_convergence_improves_with_trajectories(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).t(0).cx(0, 1)
        noise = NoiseModel(error_1q=0.03, error_2q=0.08)
        exact = DensityMatrixSimulator(noise).run(circuit)

        def deviation(trajectories, seed):
            out = NoisySimulator(
                noise, trajectories=trajectories, shots=None, seed=seed
            ).noisy_distribution(circuit)
            return np.abs(out - exact).max()

        few = np.mean([deviation(8, s) for s in range(8)])
        many = np.mean([deviation(512, s) for s in range(8)])
        assert many < few
