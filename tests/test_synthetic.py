"""Tests for the synthetic (beyond-simulation-limit) tensor provider."""

import numpy as np
import pytest

from repro import cut_circuit
from repro.library import bv, supremacy
from repro.postprocess import PrecomputedTensorProvider, RandomTensorProvider
from repro.postprocess.dd import DynamicDefinitionQuery
from repro.cutting import find_cuts
from tests.variant_oracle import evaluate_subcircuit


class TestRandomTensorProvider:
    def test_protocol_fields(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        provider = RandomTensorProvider(cut, seed=0)
        assert provider.num_qubits == 5
        assert provider.num_cuts == 1

    def test_collapsed_shapes_match_precomputed(self, fig4_circuit):
        """Synthetic tensors have exactly the shapes real ones would."""
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        real = PrecomputedTensorProvider(cut, results=results)
        fake = RandomTensorProvider(cut, seed=0)
        roles = {0: ("active",), 1: ("active",), 2: ("merged",),
                 3: ("fixed", 1), 4: ("merged",)}
        for (rt, rw), (ft, fw) in zip(real.collapsed(roles), fake.collapsed(roles)):
            assert rt.data.shape == ft.data.shape
            assert rw == fw
            assert rt.cut_order == ft.cut_order

    def test_uniform_distribution_mode(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        provider = RandomTensorProvider(cut, seed=0, distribution="uniform")
        roles = {w: ("active",) if w < 2 else ("merged",) for w in range(5)}
        collapsed = provider.collapsed(roles)
        # Uniform outputs kill every X/Y attributed term: rows 2 and 3 of
        # the upstream tensor are zero.
        upstream = next(
            t for t, _ in collapsed if t.subcircuit_index == 0
        )
        assert not upstream.nonzero[2] and not upstream.nonzero[3]

    def test_unknown_distribution_rejected(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            RandomTensorProvider(cut, distribution="gaussian")

    def test_seeded_reproducibility(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        roles = {w: ("merged",) if w else ("active",) for w in range(5)}
        a = RandomTensorProvider(cut, seed=9).collapsed(roles)
        b = RandomTensorProvider(cut, seed=9).collapsed(roles)
        for (ta, _), (tb, _) in zip(a, b):
            assert np.allclose(ta.data, tb.data)

    def test_memory_guard(self):
        circuit = supremacy(42, seed=0, depth=8)
        solution = find_cuts(circuit, 30, method="heuristic", max_cuts=8)
        cut = solution.apply(circuit)
        provider = RandomTensorProvider(cut, seed=0)
        # All 42 qubits active would need astronomically large tensors.
        roles = {w: ("active",) for w in range(42)}
        with pytest.raises(MemoryError):
            provider.collapsed(roles)


class TestLargeScaleDD:
    def test_dd_recursion_beyond_simulation_limit(self):
        """A 48-qubit BV DD recursion runs without any simulation."""
        circuit = bv(48)
        solution = find_cuts(circuit, 30, method="heuristic", max_cuts=8)
        cut = solution.apply(circuit)
        provider = RandomTensorProvider(cut, seed=2)
        query = DynamicDefinitionQuery(provider, max_active_qubits=10)
        recursion = query.step()
        assert recursion.probabilities.size == 1 << 10
        assert len(query.bins) == 1 << 10

    def test_multiple_recursions_zoom(self):
        circuit = bv(32)
        solution = find_cuts(circuit, 20, method="heuristic", max_cuts=8)
        cut = solution.apply(circuit)
        provider = RandomTensorProvider(cut, seed=3)
        query = DynamicDefinitionQuery(provider, max_active_qubits=6)
        query.run(3)
        assert len(query.recursions) == 3
        # Each later recursion fixes more qubits.
        fixed_counts = [len(r.fixed) for r in query.recursions]
        assert fixed_counts == sorted(fixed_counts)
