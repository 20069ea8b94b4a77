"""Tests for shot-level DD evaluation and shot-budget estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cut_circuit, cut_circuit_from_assignment
from repro.circuits import build_circuit_graph
from repro.core.executor import VariantExecutor
from repro.cutting import num_physical_variants
from repro.library import bv, bv_solution
from repro.postprocess.dd import DynamicDefinitionQuery
from repro.postprocess.shots import (
    ShotBasedTensorProvider,
    estimate_required_shots,
)
from repro.sim import simulate_probabilities
from repro.utils import marginalize
from tests.conftest import random_connected_circuit
from tests.attribution_oracle import from_eq2_basis, to_eq2_basis
from tests.shot_merge_oracle import merged_collapse
from tests.variant_oracle import evaluate_subcircuit


def _provider(cut, **options):
    """A shot provider over per-variant exact results of ``cut``."""
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    return ShotBasedTensorProvider(cut, results, **options)


class TestShotBasedProvider:
    def test_protocol_fields(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        provider = _provider(cut, shots=128, seed=0)
        assert provider.num_qubits == 5
        assert provider.num_cuts == 1

    def test_shots_validated(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            _provider(cut, shots=0)

    def test_converges_to_exact_marginal(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        provider = _provider(cut, shots=200_000, seed=1)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        recursion = query.step()
        truth = marginalize(simulate_probabilities(fig4_circuit), [0, 1], 5)
        assert np.allclose(recursion.probabilities, truth, atol=0.02)

    def test_more_shots_less_error(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        truth = marginalize(simulate_probabilities(fig4_circuit), [0, 1], 5)

        def error(shots):
            deviations = []
            for seed in range(4):
                provider = _provider(cut, shots=shots, seed=seed)
                query = DynamicDefinitionQuery(provider, max_active_qubits=2)
                recursion = query.step()
                deviations.append(np.abs(recursion.probabilities - truth).max())
            return float(np.mean(deviations))

        assert error(50_000) < error(500)

    def test_locates_bv_solution_with_shots(self):
        circuit = bv(6)
        cut = cut_circuit(circuit, [(5, 1)])
        provider = _provider(cut, shots=4096, seed=3)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(3)
        states = query.solution_states(threshold=0.5)
        assert states and states[0][0] == bv_solution(6)

    def test_distribution_cache_reused(self, fig4_circuit):
        calls = []

        def backend(circuit):
            calls.append(1)
            return simulate_probabilities(circuit)

        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = VariantExecutor(backend=backend).run(cut.subcircuits)
        provider = ShotBasedTensorProvider(
            cut, results, shots=64, seed=0, cache=False
        )
        query = DynamicDefinitionQuery(provider, max_active_qubits=1)
        query.run(2)
        # 7 physical variants total, simulated once although each of the
        # 2 recursions redraws its shots.
        assert sum(calls) == 7

    def test_bins_roughly_normalized(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        provider = _provider(cut, shots=20_000, seed=5)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        recursion = query.step()
        assert np.isclose(recursion.probabilities.sum(), 1.0, atol=0.05)


class TestShotCollapseOracle:
    """The provider's collapse against the long-hand shot merge."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([64, 1024, 4096, 100, 3000]),
    )
    def test_matches_merged_counts_and_consumes_the_same_draws(
        self, n, seed, shots
    ):
        circuit = random_connected_circuit(n, 2 * n, seed)
        graph = build_circuit_graph(circuit)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, 3, graph.num_vertices)
        cut = cut_circuit_from_assignment(circuit, list(assignment), graph=graph)
        if any(num_physical_variants(s) > 4**4 for s in cut.subcircuits):
            return
        kinds = [("active",), ("merged",), ("fixed", 0), ("fixed", 1)]
        roles = {
            wire: kinds[int(choice)]
            for wire, choice in enumerate(rng.integers(0, 4, n))
        }
        results = VariantExecutor().run(cut.subcircuits)
        provider = ShotBasedTensorProvider(
            cut, results, shots=shots, seed=seed, cache=False
        )
        oracle_rng = np.random.default_rng(seed)
        for (got, wires), result in zip(provider.collapsed(roles), results):
            want, want_wires = merged_collapse(
                result.subcircuit, result.distributions, roles, shots, oracle_rng
            )
            assert wires == want_wires
            assert got.cut_order == want.cut_order
            assert got.data.shape == want.data.shape
            # The basis maps hold 0, +-1, 2 and 1/2 only: dyadics stay exact.
            eq2 = to_eq2_basis(got, result.subcircuit).data
            if shots & (shots - 1) == 0:  # frequencies are exact dyadics
                assert np.array_equal(eq2, want.data)
                paired = from_eq2_basis(want, result.subcircuit)
                assert np.array_equal(got.nonzero, paired.nonzero)
            else:
                assert np.abs(eq2 - want.data).max() <= 1e-12
        assert (
            provider._rng.bit_generator.state == oracle_rng.bit_generator.state
        )


class TestShotEstimator:
    def test_scaling_with_cuts(self, fig4_circuit):
        one_cut = cut_circuit(fig4_circuit, [(2, 1)])
        needed_1 = estimate_required_shots(one_cut, target_error=0.01)
        from repro import QuantumCircuit

        chain = QuantumCircuit(6)
        for q in range(5):
            chain.cx(q, q + 1)
        two_cuts = cut_circuit(chain, [(2, 1), (4, 1)])
        needed_2 = estimate_required_shots(two_cuts, target_error=0.01)
        assert needed_2 > needed_1

    def test_scaling_with_target(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        loose = estimate_required_shots(cut, target_error=0.1)
        tight = estimate_required_shots(cut, target_error=0.01)
        assert tight == pytest.approx(loose * 100, rel=0.01)

    def test_target_validated(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            estimate_required_shots(cut, target_error=0.0)

    def test_bound_is_sufficient_in_practice(self, fig4_circuit):
        """Shots at the bound achieve the target error (it is loose)."""
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        target = 0.05
        shots = estimate_required_shots(cut, target_error=target)
        provider = _provider(cut, shots=shots, seed=11)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        recursion = query.step()
        truth = marginalize(simulate_probabilities(fig4_circuit), [0, 1], 5)
        assert np.abs(recursion.probabilities - truth).max() < target
