"""Tests for the cut-search front-end."""

import functools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CutQC,
    CutSearchError,
    QuantumCircuit,
    build_circuit_graph,
    find_cuts,
    simulate_probabilities,
    supremacy,
)
from repro.cutting import (
    CutSearchBudgetExceeded,
    CutSolution,
    branch_and_bound_search,
    clear_cut_memo,
    cut_memo_stats,
    searcher,
)
from repro.cutting.searcher import cut_positions
from repro.library import adder, bv, get_benchmark, hwea
from tests.conftest import random_connected_circuit


class TestFindCuts:
    def test_auto_uses_mip_for_small_circuits(self, fig4_circuit):
        solution = find_cuts(fig4_circuit, 3)
        assert solution.method == "mip"
        assert solution.num_cuts == 1

    def test_auto_uses_heuristic_for_large_circuits(self):
        solution = find_cuts(bv(30), 16)
        assert solution.method == "heuristic"

    def test_forced_methods(self, fig4_circuit):
        assert find_cuts(fig4_circuit, 3, method="mip").method == "mip"
        assert (
            find_cuts(fig4_circuit, 3, method="heuristic").method == "heuristic"
        )

    def test_unknown_method(self, fig4_circuit):
        with pytest.raises(ValueError):
            find_cuts(fig4_circuit, 3, method="quantum")

    def test_infeasible_raises(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        with pytest.raises(CutSearchError):
            find_cuts(circuit, 2, max_subcircuits=2, max_cuts=1)

    def test_solution_apply_respects_budget(self, fig4_circuit):
        solution = find_cuts(fig4_circuit, 3)
        cut = solution.apply(fig4_circuit)
        assert cut.max_subcircuit_width() <= 3
        assert cut.num_cuts == solution.num_cuts

    def test_objective_positive_for_real_cut(self, fig4_circuit):
        solution = find_cuts(fig4_circuit, 3)
        assert solution.objective > 0

    def test_cut_positions_round_trip(self, fig4_circuit):
        solution = find_cuts(fig4_circuit, 3)
        positions = cut_positions(solution, fig4_circuit)
        from repro import cut_circuit

        cut = cut_circuit(fig4_circuit, positions)
        assert cut.num_cuts == solution.num_cuts

    def test_more_than_double_expansion(self):
        """Paper contribution 1: circuits > 2x the device size map fine."""
        circuit = bv(11)
        solution = find_cuts(circuit, 5)
        cut = solution.apply(circuit)
        assert cut.max_subcircuit_width() <= 5
        assert circuit.num_qubits > 2 * 5

    def test_supremacy_on_quarter_device(self):
        circuit = supremacy(16, seed=0)
        solution = find_cuts(circuit, 12)
        cut = solution.apply(circuit)
        assert cut.max_subcircuit_width() <= 12


def _cold(circuit, *args, **kwargs):
    clear_cut_memo()
    return find_cuts(circuit, *args, **kwargs)


def _same(left, right):
    return (
        left.assignment == right.assignment
        and left.cost.to_dict() == right.cost.to_dict()
        and left.method == right.method
    )


_FAMILIES = [
    ("supremacy", 12, 8), ("aqft", 8, 5), ("grover", 5, 5), ("bv", 11, 5),
    ("adder", 10, 6), ("hwea", 12, 7), ("qaoa", 8, 5),
]


class TestCutMemo:
    @pytest.mark.parametrize("family,qubits,device", _FAMILIES,
                             ids=[f[0] for f in _FAMILIES])
    def test_hit_equals_cold_search(self, family, qubits, device):
        circuit = get_benchmark(family, qubits)
        cold = _cold(circuit, device)
        hit = find_cuts(circuit, device)
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        assert _same(cold, hit)
        assert hit is not cold and hit.assignment is not cold.assignment

    @settings(max_examples=25, deadline=None)
    @given(
        qubits=st.integers(3, 6),
        extra=st.integers(0, 6),
        seed=st.integers(0, 10_000),
        device=st.integers(2, 5),
        method=st.sampled_from(["auto", "mip", "heuristic"]),
    )
    def test_hit_equals_cold_search_on_generated_circuits(
        self, qubits, extra, seed, device, method
    ):
        circuit = random_connected_circuit(qubits, qubits - 1 + extra, seed)
        try:
            cold = _cold(circuit, device, method=method)
        except CutSearchError as error:
            with pytest.raises(type(error)) as again:
                find_cuts(circuit, device, method=method)
            assert str(again.value) == str(error)
            assert again.value.proved == error.proved
        else:
            assert _same(cold, find_cuts(circuit, device, method=method))
        assert cut_memo_stats()["hits"] == 1

    def test_key_ignores_angles_and_single_qubit_gates(self):
        first = find_cuts(hwea(8, seed=1), 5)
        assert _same(first, find_cuts(hwea(8, seed=2), 5))
        find_cuts(supremacy(12, seed=0), 8)
        find_cuts(supremacy(12, seed=5), 8)
        assert cut_memo_stats() == {"hits": 2, "misses": 2, "size": 2}

    def test_hit_splits_the_circuit_it_was_asked_about(self):
        plain = bv(8)
        masked = bv(8).x(1).x(4)
        find_cuts(plain, 5)
        solution = find_cuts(masked, 5)
        assert cut_memo_stats()["hits"] == 1
        cut = solution.apply(masked)
        assert cut.circuit is masked and cut.graph is solution.graph
        emitted = sum(len(sub.circuit) for sub in cut.subcircuits)
        assert emitted == len(masked) == len(plain) + 2
        # Applied to any other circuit the carried graph is not used.
        assert solution.apply(plain).graph.circuit is plain
        answer = CutQC(masked, 5).fd_query().probabilities
        assert cut_memo_stats()["hits"] == 2
        assert np.allclose(answer, simulate_probabilities(masked), atol=1e-10)
        assert not np.allclose(answer, simulate_probabilities(plain), atol=1e-3)

    def test_anything_the_search_reads_is_in_the_key(self, monkeypatch):
        circuit = supremacy(12, seed=0)
        find_cuts(circuit, 9)
        find_cuts(circuit, 8)
        find_cuts(circuit, 9, max_cuts=9)
        find_cuts(circuit, 9, max_subcircuits=4)
        find_cuts(circuit, 9, method="heuristic")
        assert cut_memo_stats() == {"hits": 0, "misses": 5, "size": 5}

        # The same three gates with wires 0 and 1 relabelled: equal vertex
        # weights, the same edges, listed in another order.
        find_cuts(QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 2), 2)
        find_cuts(QuantumCircuit(3).cx(1, 0).cx(0, 2).cx(1, 2), 2)
        assert cut_memo_stats()["misses"] == 7

        def moved_weight(circuit):
            graph = build_circuit_graph(circuit)
            graph.vertex_weights[0] -= 1
            graph.vertex_weights[-1] += 1
            return graph

        monkeypatch.setattr(searcher, "build_circuit_graph", moved_weight)
        find_cuts(circuit, 9)
        assert cut_memo_stats() == {"hits": 0, "misses": 8, "size": 8}

    def test_callers_cannot_poison_the_memo(self, fig4_circuit):
        first = find_cuts(fig4_circuit, 3)
        expected = (list(first.assignment), first.cost.to_dict())
        first.assignment[0] = 99
        first.cost.alpha[0] = 99
        first.cost.num_cuts = 99
        second = find_cuts(fig4_circuit, 3)
        assert (second.assignment, second.cost.to_dict()) == expected
        second.assignment.clear()
        third = find_cuts(fig4_circuit, 3)
        assert (third.assignment, third.cost.to_dict()) == expected

    def test_refusal_is_memoised_with_type_message_and_verdict(self):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 2)
        with pytest.raises(CutSearchError) as cold:
            find_cuts(circuit, 2, max_subcircuits=2, max_cuts=1)
        with pytest.raises(CutSearchError) as hit:
            find_cuts(circuit, 2, max_subcircuits=2, max_cuts=1)
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        assert hit.value is not cold.value
        assert type(hit.value) is type(cold.value) is CutSearchError
        assert str(hit.value) == str(cold.value)
        assert hit.value.proved is cold.value.proved is True

    def test_heuristic_give_up_is_not_a_proof(self):
        # 32 vertices: above the exact-search limit, only heuristics run.
        circuit = supremacy(16, seed=0)
        for _ in range(2):
            with pytest.raises(CutSearchError, match="gave up") as caught:
                find_cuts(circuit, 10)
            assert caught.value.proved is False
        assert cut_memo_stats()["hits"] == 1

    def test_forced_mip_budget_refusal_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(
            searcher, "branch_and_bound_search",
            functools.partial(branch_and_bound_search, node_limit=10),
        )
        circuit = random_connected_circuit(6, 14, seed=9, with_1q=False)
        for _ in range(2):
            with pytest.raises(CutSearchBudgetExceeded, match="node limit") as caught:
                find_cuts(circuit, 4, method="mip")
            assert caught.value.proved is False
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_node_budget_fallback_lands_on_heuristic(self, monkeypatch):
        monkeypatch.setattr(
            searcher, "branch_and_bound_search",
            functools.partial(branch_and_bound_search, node_limit=10),
        )
        circuit = bv(11)
        cold = find_cuts(circuit, 5)
        assert cold.method == "heuristic"
        assert _same(cold, find_cuts(circuit, 5))
        assert cut_memo_stats()["hits"] == 1

    def test_lru_stays_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(searcher._CUT_MEMO, "limit", 3)
        circuits = [bv(n) for n in (6, 7, 8, 9)]
        for circuit in circuits[:3]:
            find_cuts(circuit, 5)
        find_cuts(circuits[0], 5)  # refresh bv-6: bv-7 is now the oldest
        find_cuts(circuits[3], 5)
        assert cut_memo_stats() == {"hits": 1, "misses": 4, "size": 3}
        find_cuts(circuits[0], 5)
        find_cuts(circuits[2], 5)
        assert cut_memo_stats()["hits"] == 3
        find_cuts(circuits[1], 5)
        assert cut_memo_stats() == {"hits": 3, "misses": 5, "size": 3}

    def test_default_bound_holds_after_one_graph_too_many(self):
        bound = searcher._CUT_MEMO.limit
        for depth in range(1, bound + 2):
            circuit = QuantumCircuit(2)
            for _ in range(depth):
                circuit.cx(0, 1)
            with pytest.raises(CutSearchError):
                find_cuts(circuit, 2, max_cuts=0)
        assert cut_memo_stats() == {"hits": 0, "misses": bound + 1, "size": bound}

    def test_racing_threads_agree_and_leave_one_entry(self):
        circuit = adder(10, seed=3)
        barrier = threading.Barrier(2)
        results = []

        def race():
            barrier.wait(timeout=30)
            results.append(find_cuts(circuit, 6))

        threads = [threading.Thread(target=race) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 2 and _same(*results)
        assert results[0].assignment is not results[1].assignment
        stats = cut_memo_stats()
        assert stats["size"] == 1 and stats["hits"] + stats["misses"] == 2

    def test_threads_churning_a_small_memo_lose_no_update(self, monkeypatch):
        """More threads than cores over more keys than the bound: every
        lookup is counted once, the bound holds, every answer is right."""
        monkeypatch.setattr(searcher._CUT_MEMO, "limit", 2)
        circuits = [bv(n) for n in (6, 7, 8)]
        expected = [_cold(circuit, 5) for circuit in circuits]
        clear_cut_memo()
        rounds, workers = 60, 4
        wrong = []

        def churn(offset):
            for step in range(rounds):
                index = (offset + step) % len(circuits)
                if not _same(find_cuts(circuits[index], 5), expected[index]):
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(offset,))
                for offset in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cut_memo_stats()
        assert not wrong
        assert stats["hits"] + stats["misses"] == rounds * workers
        assert stats["size"] <= 2

    def test_clear_resets_entries_and_counters(self, fig4_circuit):
        find_cuts(fig4_circuit, 3)
        find_cuts(fig4_circuit, 3)
        clear_cut_memo()
        assert cut_memo_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_solution_dict_round_trip_drops_the_graph(self, fig4_circuit):
        solution = find_cuts(fig4_circuit, 3)
        restored = CutSolution.from_dict(solution.to_dict())
        assert restored == solution and restored.graph is None
        assert restored.apply(fig4_circuit).num_cuts == solution.num_cuts

    def test_refusal_survives_pickling(self):
        error = pickle.loads(pickle.dumps(CutSearchError("gave up", proved=False)))
        assert (type(error), str(error), error.proved) == (
            CutSearchError, "gave up", False
        )
        budget = pickle.loads(pickle.dumps(CutSearchBudgetExceeded("node limit")))
        assert type(budget) is CutSearchBudgetExceeded and budget.proved is False
