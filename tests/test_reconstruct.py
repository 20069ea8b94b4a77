"""FD reconstruction correctness: the paper's central identity.

The theory (§3.2.3) guarantees that the CutQC output *strictly equals*
the uncut circuit's output when subcircuits are evaluated exactly.  These
tests enforce that equality across circuits, cut shapes, option
combinations, and (via hypothesis) randomized circuits/cuts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    QuantumCircuit,
    cut_circuit,
    cut_circuit_from_assignment,
    simulate_probabilities,
)
from repro.circuits import build_circuit_graph
from repro.postprocess import ContractionEngine, Reconstructor, WorkerPool
from tests.conftest import random_connected_circuit
from tests.variant_oracle import evaluate_subcircuit


def _fd(cut, results, **kwargs):
    return Reconstructor(cut, results=results).reconstruct(**kwargs)


def _reconstruct(circuit, cuts, **kwargs):
    cut = cut_circuit(circuit, cuts)
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    return cut, _fd(cut, results, **kwargs)


class TestExactEquality:
    def test_fig4_single_cut(self, fig4_circuit):
        _, result = _reconstruct(fig4_circuit, [(2, 1)])
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-10)

    def test_chain_two_cuts(self):
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.ry(0.3 + 0.2 * q, q)
        for q in range(5):
            circuit.cx(q, q + 1)
        for q in range(6):
            circuit.rz(0.1 * q, q)
        _, result = _reconstruct(circuit, [(2, 1), (4, 1)])
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-10)

    def test_wire_revisiting_cluster(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).t(1)
        circuit.cx(0, 1).cx(0, 2).cx(0, 1)
        circuit.ry(0.5, 0)
        cut = cut_circuit(circuit, [(0, 1), (0, 2)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        result = _fd(cut, results)
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-10)

    def test_entangled_across_cut(self):
        # Bell pair split across the cut: tests sign bookkeeping hard.
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.h(1)
        cut = cut_circuit(circuit, [(0, 1), (1, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        result = _fd(cut, results)
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_circuits_random_cuts_property(self, n, seed):
        """The headline property: cut anywhere valid, rebuild exactly."""
        circuit = random_connected_circuit(n, 2 * n, seed)
        graph = build_circuit_graph(circuit)
        rng = np.random.default_rng(seed + 1)
        # Random bipartition of gate vertices (retry until both sides
        # non-empty); the implied edge cuts are always a valid cut set.
        for _ in range(20):
            assignment = rng.integers(0, 2, size=graph.num_vertices)
            if 0 < assignment.sum() < graph.num_vertices:
                break
        cut = cut_circuit_from_assignment(circuit, list(assignment))
        if cut.num_cuts > 7:
            return  # keep runtime bounded
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        result = _fd(cut, results)
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)


class TestOptions:
    @pytest.fixture
    def cut_and_results(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        return fig4_circuit, cut, results

    def test_greedy_order_sorts_by_effective_size(self, cut_and_results):
        _, cut, results = cut_and_results
        rec = Reconstructor(cut, results=results)
        order = rec.reconstruct(greedy_order=True).stats.subcircuit_order
        sizes = [rec.provider.tensors[i].num_effective for i in order]
        assert sizes == sorted(sizes)

    def test_natural_order_option(self, cut_and_results):
        _, cut, results = cut_and_results
        rec = Reconstructor(cut, results=results)
        stats = rec.reconstruct(greedy_order=False).stats
        assert stats.subcircuit_order == (0, 1)

    def test_all_option_combinations_agree(self, cut_and_results):
        circuit, cut, results = cut_and_results
        truth = simulate_probabilities(circuit)
        for greedy in (True, False):
            for early in (True, False):
                result = _fd(
                    cut, results, greedy_order=greedy,
                    early_termination=early, strategy="kron",
                )
                assert np.allclose(result.probabilities, truth, atol=1e-10)

    def test_tensor_network_strategy_matches(self, cut_and_results):
        circuit, cut, results = cut_and_results
        kron = _fd(cut, results, strategy="kron")
        tn = _fd(cut, results, strategy="tensor_network")
        assert np.allclose(kron.probabilities, tn.probabilities, atol=1e-10)

    def test_unknown_strategy_rejected(self, cut_and_results):
        _, cut, results = cut_and_results
        with pytest.raises(ValueError):
            _fd(cut, results, strategy="magic")

    def test_parallel_workers_match_serial(self):
        # Four cuts: 4^4 = 256 terms.  A whole query is one sweep, so it
        # runs inline even with a pool attached, in the inline order.
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.ry(0.2 * (q + 1), q)
        for q in range(5):
            circuit.cx(q, q + 1)
        cut = cut_circuit(circuit, [(1, 1), (2, 1), (3, 1), (4, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        serial = _fd(cut, results, strategy="kron")
        with WorkerPool(workers=2) as pool:
            engine = ContractionEngine(strategy="kron", pool=pool)
            parallel = Reconstructor(cut, results=results, engine=engine)
            parallel = parallel.reconstruct()
            assert pool.stats().tasks_by_kind == {}
        assert np.array_equal(serial.probabilities, parallel.probabilities)
        assert not hasattr(parallel.stats, "workers")

    def test_stats_fields(self, cut_and_results):
        _, cut, results = cut_and_results
        result = _fd(cut, results, strategy="kron")
        stats = result.stats
        assert stats.num_cuts == 1
        assert stats.num_terms == 4
        assert stats.elapsed_seconds >= 0.0
        assert stats.strategy == "kron"
        assert 0 <= stats.num_skipped <= stats.num_terms

    def test_early_termination_skips_zero_rows(self):
        # BV subcircuits have deterministic outputs -> many zero terms.
        from repro.library import bv

        circuit = bv(5)
        cut = cut_circuit(circuit, [(4, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        result = _fd(
            cut, results, early_termination=True, strategy="kron"
        )
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-10)


class TestReconstructorValidation:
    def test_requires_results_or_tensors(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            Reconstructor(cut)

    def test_tensor_count_checked(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(cut.subcircuits[0])]
        with pytest.raises(ValueError):
            Reconstructor(cut, results=results)

    def test_output_is_normalized_distribution(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        probs = _fd(cut, results).probabilities
        assert np.isclose(probs.sum(), 1.0, atol=1e-9)
        assert np.all(probs >= -1e-9)


class TestExhaustiveCutPositions:
    """Every single-edge cut of a fixed circuit reconstructs exactly —
    sweeps all wires and positions rather than sampling."""

    def test_all_single_cuts_of_cx_chain(self):
        circuit = QuantumCircuit(5)
        for q in range(5):
            circuit.ry(0.3 + 0.1 * q, q)
        for q in range(4):
            circuit.cx(q, q + 1)
            circuit.t(q)
        circuit.cz(3, 4).cx(2, 3)  # extra depth near the tail
        for q in range(5):
            circuit.rz(0.2 * q, q)
        truth = simulate_probabilities(circuit)
        graph = build_circuit_graph(circuit)
        tested = 0
        for edge in graph.edges:
            try:
                cut = cut_circuit(circuit, [(edge.wire, edge.wire_index)])
            except ValueError:
                continue  # not a separating single cut
            results = [evaluate_subcircuit(s) for s in cut.subcircuits]
            result = _fd(cut, results)
            assert np.allclose(result.probabilities, truth, atol=1e-9), (
                f"cut ({edge.wire}, {edge.wire_index}) failed"
            )
            tested += 1
        assert tested >= 2  # the chain has several bridge edges

    def test_all_two_cut_pairs_of_short_chain(self):
        circuit = QuantumCircuit(4)
        for q in range(4):
            circuit.h(q)
        for q in range(3):
            circuit.cx(q, q + 1)
        circuit.t(1).t(2)
        for q in range(3):
            circuit.cz(q, q + 1)
        truth = simulate_probabilities(circuit)
        graph = build_circuit_graph(circuit)
        positions = [(e.wire, e.wire_index) for e in graph.edges]
        tested = 0
        import itertools

        for pair in itertools.combinations(positions, 2):
            try:
                cut = cut_circuit(circuit, list(pair))
            except ValueError:
                continue
            if cut.num_cuts != 2:
                continue
            results = [evaluate_subcircuit(s) for s in cut.subcircuits]
            result = _fd(cut, results)
            assert np.allclose(result.probabilities, truth, atol=1e-9), pair
            tested += 1
        assert tested >= 3
