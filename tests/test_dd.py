"""Tests for the dynamic-definition query (Algorithm 1)."""

import functools
import gc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CutQC,
    cut_circuit,
    get_benchmark,
    simulate_probabilities,
    supremacy,
)
from repro.library import bv, bv_solution
from repro.metrics import chi_square_loss
from repro.obs import trace
from repro.postprocess import (
    ContractionEngine,
    DynamicDefinitionQuery,
    PrecomputedTensorProvider,
    binned_tensor,
    build_term_tensor,
)
from repro.postprocess.attribution import TermTensor
from repro.postprocess.dd import Bin, _descending_prefix
from repro.utils import marginalize
from tests import collapse_oracle
from tests.dd_frontier_oracle import replay_frontier
from tests.variant_oracle import evaluate_subcircuit


def _provider(circuit, cuts):
    cut = cut_circuit(circuit, cuts)
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    return cut, PrecomputedTensorProvider(cut, results=results)


class TestBinnedTensor:
    def test_merged_matches_marginal(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        sub = cut.subcircuits[0]
        tensor = build_term_tensor(evaluate_subcircuit(sub))
        roles = {w: ("merged",) for w in range(5)}
        for line in sub.output_lines:
            roles[line.wire] = ("active",)
        collapsed, wires = binned_tensor(tensor, sub, roles)
        assert wires == [line.wire for line in sub.output_lines]
        assert np.allclose(collapsed.data, tensor.data)

    def test_full_merge_sums_rows(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        sub = cut.subcircuits[0]
        tensor = build_term_tensor(evaluate_subcircuit(sub))
        roles = {w: ("merged",) for w in range(5)}
        collapsed, wires = binned_tensor(tensor, sub, roles)
        assert wires == []
        assert np.allclose(collapsed.data[:, 0], tensor.data.sum(axis=1))

    def test_fixed_selects_bit(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        sub = cut.subcircuits[0]
        tensor = build_term_tensor(evaluate_subcircuit(sub))
        wire0 = sub.output_lines[0].wire
        roles = {w: ("merged",) for w in range(5)}
        roles[wire0] = ("fixed", 1)
        collapsed, _ = binned_tensor(tensor, sub, roles)
        full = tensor.data.reshape(4, 2, 2)
        assert np.allclose(collapsed.data[:, 0], full[:, 1, :].sum(axis=1))

    def test_unknown_role_rejected(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        sub = cut.subcircuits[0]
        tensor = build_term_tensor(evaluate_subcircuit(sub))
        roles = {w: ("bogus",) for w in range(5)}
        with pytest.raises(ValueError):
            binned_tensor(tensor, sub, roles)


class TestDDRecursions:
    def test_first_recursion_bins_sum_to_one(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        recursion = query.step()
        assert np.isclose(recursion.probabilities.sum(), 1.0, atol=1e-9)
        assert recursion.active == (0, 1)
        assert recursion.fixed == {}

    def test_bins_match_true_marginal(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        recursion = query.step()
        truth = simulate_probabilities(fig4_circuit)
        expected = marginalize(truth, [0, 1], 5)
        assert np.allclose(recursion.probabilities, expected, atol=1e-9)

    def test_zoomed_recursion_matches_conditional(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.step()
        second = query.step()
        # The second recursion fixes the highest-probability first-bin
        # state and activates the next two wires.
        assert set(second.fixed) == {0, 1}
        assert second.active == (2, 3)
        truth = simulate_probabilities(fig4_circuit).reshape((2,) * 5)
        conditional = truth[second.fixed[0], second.fixed[1]].sum(axis=2)
        assert np.allclose(second.probabilities, conditional.reshape(-1), atol=1e-9)

    def test_bv_solution_located_like_fig7(self):
        """The paper's Fig. 7: 4-qubit BV on 3-qubit devices, 1 active
        qubit per recursion, solution found in 4 recursions."""
        circuit = bv(4)
        pipeline = CutQC(circuit, max_subcircuit_qubits=3)
        query = pipeline.dd_query(max_active_qubits=1, max_recursions=4)
        assert len(query.recursions) == 4
        states = query.solution_states(threshold=0.9)
        assert states[0][0] == bv_solution(4)
        assert states[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_recursion_vector_lengths_bounded(self):
        circuit = bv(4)
        pipeline = CutQC(circuit, max_subcircuit_qubits=3)
        query = pipeline.dd_query(max_active_qubits=1, max_recursions=4)
        for recursion in query.recursions:
            assert recursion.probabilities.size == 2  # 2^1 per Fig. 7

    def test_active_order_override(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(
            provider, max_active_qubits=2, active_order=[4, 3, 2, 1, 0]
        )
        recursion = query.step()
        assert recursion.active == (4, 3)

    def test_invalid_active_order(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            DynamicDefinitionQuery(provider, 2, active_order=[0, 0, 1, 2, 3])

    def test_max_active_validation(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            DynamicDefinitionQuery(provider, 0)

    def test_run_stops_when_fully_resolved(self):
        circuit = bv(4)
        pipeline = CutQC(circuit, max_subcircuit_qubits=3)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=50)
        # 4 qubits at 2 active per recursion: after a couple of recursions
        # the top bin is fully resolved; run() must terminate early rather
        # than loop 50 times.
        assert len(query.recursions) < 50


class TestApproximateDistribution:
    def test_partition_tiles_space(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(3)
        approx = query.approximate_distribution()
        assert np.isclose(approx.sum(), 1.0, atol=1e-8)

    def test_chi2_decreases_with_recursions_like_fig8(self):
        circuit = supremacy(4, seed=0)
        truth = simulate_probabilities(circuit)
        pipeline = CutQC(circuit, max_subcircuit_qubits=3)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=1)
        losses = [chi_square_loss(query.approximate_distribution(), truth)]
        for _ in range(3):
            query.step()
            losses.append(chi_square_loss(query.approximate_distribution(), truth))
        assert losses[-1] <= losses[0]

    def test_exact_when_all_qubits_active(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=5)
        query.step()
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(query.approximate_distribution(), truth, atol=1e-9)

    def test_current_partition_excludes_zoomed(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(2)
        zoomed = [b for b in query.bins if b.zoomed]
        assert len(zoomed) == 1
        assert all(not b.zoomed for b in query.current_partition)


class TestBinSemantics:
    def test_bin_assignment_decoding(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.step()
        bin_10 = next(b for b in query.bins if b.index == 0b10)
        assert bin_10.assignment == {0: 1, 1: 0}
        assert bin_10.merged_wires(5) == [2, 3, 4]

    def test_num_resolved_matches_assignment(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(2)
        for candidate in query.bins:
            assert candidate.num_resolved == len(candidate.assignment)


class TestBatchedZoom:
    def test_zoom_width_locates_bv_solution(self):
        circuit = bv(6)
        pipeline = CutQC(circuit, max_subcircuit_qubits=4)
        query = pipeline.dd_query(
            max_active_qubits=2, max_recursions=8, zoom_width=3
        )
        states = query.solution_states(threshold=0.9)
        assert states and states[0][0] == bv_solution(6)

    def test_rounds_fewer_than_recursions(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(
            provider, max_active_qubits=1, zoom_width=4
        )
        query.run(9)
        stats = query.stats()
        assert stats.num_recursions == len(query.recursions)
        # Root round is width 1, then each round expands up to 4 bins.
        assert stats.num_rounds < stats.num_recursions

    def test_round_bins_sum_to_parent_mass(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(
            provider, max_active_qubits=2, zoom_width=2
        )
        query.run(3)
        for recursion in query.recursions[1:]:
            parent = recursion.parent_bin
            assert parent is not None and parent.zoomed
            assert np.isclose(
                recursion.probabilities.sum(), parent.probability, atol=1e-9
            )

    def test_parallel_zoom_matches_serial(self, fig4_circuit):
        _, provider_a = _provider(fig4_circuit, [(2, 1)])
        _, provider_b = _provider(fig4_circuit, [(2, 1)])
        from repro.postprocess import ContractionEngine, WorkerPool

        serial = DynamicDefinitionQuery(
            provider_a,
            max_active_qubits=1,
            zoom_width=2,
            engine=ContractionEngine(strategy="kron"),
        )
        serial.run(5)
        with WorkerPool(workers=2) as pool:
            parallel = DynamicDefinitionQuery(
                provider_b,
                max_active_qubits=1,
                zoom_width=2,
                engine=ContractionEngine(strategy="kron", pool=pool),
            )
            parallel.run(5)
            assert pool.stats().tasks_completed > 0
        assert len(serial.recursions) == len(parallel.recursions)
        for got, want in zip(parallel.recursions, serial.recursions):
            assert got.fixed == want.fixed
            assert np.allclose(got.probabilities, want.probabilities, atol=1e-12)


class TestDDStats:
    def test_stats_fields(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(3)
        stats = query.stats()
        assert stats.num_recursions == 3
        assert stats.num_bins == len(query.bins)
        assert stats.total_elapsed_seconds >= 0.0
        assert stats.cache_hits + stats.cache_misses == 3 * 2  # 2 subcircuits
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        document = stats.as_dict()
        assert document["num_recursions"] == 3
        assert "cache_hit_rate" in document

    def test_cache_disabled_reports_zero(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results, cache=False)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(3)
        stats = query.stats()
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0

    def test_stats_snapshot_on_reused_provider(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        first = DynamicDefinitionQuery(provider, max_active_qubits=2)
        first.run(3)
        second = DynamicDefinitionQuery(provider, max_active_qubits=2)
        second.run(3)
        stats = second.stats()
        # The second query's counters cover only its own collapses, not
        # the provider's lifetime (2 subcircuits x 3 recursions).
        assert stats.cache_hits + stats.cache_misses == 3 * 2


class TestDDTrace:
    def test_one_prepare_span_per_expanded_bin(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(
            provider, max_active_qubits=1, zoom_width=2
        )
        with trace.start("dd") as root:
            query.run(5)
        stats = query.stats()
        rounds = root.to_dict()["children"]
        assert [r["name"] for r in rounds] == (
            ["query.dd.round"] * stats.num_rounds
        )
        prepares = [
            child["attrs"]
            for each in rounds
            for child in each["children"]
            if child["name"] == "query.dd.prepare"
        ]
        assert [(p["fixed"], p["active"]) for p in prepares] == [
            (len(r.fixed), len(r.active)) for r in query.recursions
        ]
        assert sum(p["cache_hits"] for p in prepares) == stats.cache_hits
        assert sum(p["cache_misses"] for p in prepares) == stats.cache_misses


class TestProgressiveRun:
    def test_repeated_run_deepens(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(2)
        assert len(query.recursions) == 2
        query.run(1)  # run() adds *further* recursions on repeat calls
        assert len(query.recursions) == 3


# ----------------------------------------------------------------------
# The array frontier against the heap-of-Bins it replaced
# ----------------------------------------------------------------------

#: Inputs whose bins tie: exact zeros ordered by index (hwea, adder), equal
#: masses in different recursions (bv), round-off negatives (adder).  Which
#: operands leave negative dust follows the arithmetic of the term-tensor
#: build; ``test_tie_cases_do_tie`` checks these still do.
_TIE_CASES = {
    "bv": (8, 5, {}),
    "hwea": (8, 5, {"seed": 3}),
    "adder": (8, 5, {"seed": 1}),
}


@functools.lru_cache(maxsize=None)
def _tie_provider(family):
    qubits, device, kwargs = _TIE_CASES[family]
    pipeline = CutQC(get_benchmark(family, qubits, **kwargs), device)
    return PrecomputedTensorProvider(
        pipeline.cut(), results=pipeline.evaluate()
    )


def _vector_provider(vector):
    """A zero-cut provider whose whole distribution is one given vector."""
    vector = np.asarray(vector, dtype=float)
    num_qubits = int(np.log2(vector.size))
    piece = SimpleNamespace(
        index=0, output_lines=[SimpleNamespace(wire=w) for w in range(num_qubits)]
    )
    cut = SimpleNamespace(
        circuit=SimpleNamespace(num_qubits=num_qubits), num_cuts=0,
        subcircuits=[piece],
    )
    tensor = TermTensor(0, [], num_qubits, vector.reshape(1, -1), np.array([True]))
    return PrecomputedTensorProvider(cut, tensors=[tensor])


def _assert_replays(query, budgets):
    parents, frontier_size = replay_frontier(query, budgets)
    assert [r.parent_bin for r in query.recursions] == parents
    assert query.stats().frontier_size == frontier_size


def _scanned_solution_states(query, threshold):
    """``solution_states`` as the per-bin scan it replaced."""
    total = query.provider.num_qubits
    states = []
    for candidate in query.bins:
        if candidate.num_resolved < total:
            continue
        if candidate.probability < threshold:
            continue
        resolved = candidate.assignment
        bits = "".join(str(resolved[w]) for w in range(total))
        states.append((bits, candidate.probability))
    states.sort(key=lambda item: -item[1])
    return states


class TestFrontierReplay:
    """Every parent bin is the one the old (-probability, creation
    sequence) heap of ``Bin`` objects pops, ties included."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(_TIE_CASES)),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    def test_tying_benchmarks(self, family, active, zoom_width, first, more):
        query = DynamicDefinitionQuery(
            _tie_provider(family), active, zoom_width=zoom_width
        )
        query.run(first)
        query.run(more)  # a budget extended by a second run()
        _assert_replays(query, [first, more])
        for threshold in (0.0, 0.25):
            assert query.solution_states(threshold) == (
                _scanned_solution_states(query, threshold)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        # Masses k/64 (exact under every merged sum), signed zeros and
        # round-off dust: repeated values within and across recursions.
        st.lists(
            st.sampled_from([0.0, -0.0, 1e-17, -1e-17, 1 / 64, 2 / 64, 3 / 64]),
            min_size=32,
            max_size=32,
        ),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10),
    )
    def test_synthetic_repeated_values(
        self, vector, active, zoom_width, first, more
    ):
        query = DynamicDefinitionQuery(
            _vector_provider(vector), active, zoom_width=zoom_width
        )
        query.run(first)
        query.run(more)
        _assert_replays(query, [first, more])

    def test_tie_cases_do_tie(self):
        """The property above is only as strong as its inputs."""
        masses = {}
        for family in _TIE_CASES:
            query = DynamicDefinitionQuery(_tie_provider(family), 2)
            query.run(12)
            masses[family] = np.concatenate(
                [r.probabilities for r in query.recursions]
            )
        assert np.count_nonzero(masses["hwea"] == 0.0) > 10
        assert np.count_nonzero(masses["adder"] == 0.0) > 10
        assert np.count_nonzero(masses["adder"] < 0.0) > 0
        positive = masses["bv"][masses["bv"] > 0.0]
        assert np.unique(positive).size < positive.size


class TestCollapseOracleQuery:
    """A query whose provider collapses and derives with the axis-by-axis
    oracle (tests/collapse_oracle.py), on a role map it rebuilds for each
    recursion from the recursion's fixed bits, makes the same recursions,
    bit for bit, the same contractions and the same ``DDStats`` counts as
    one on the default provider."""

    @staticmethod
    def _counts(query):
        stats = query.stats()
        return (
            stats.num_recursions, stats.num_rounds, stats.num_bins,
            stats.frontier_size, stats.cache_hits, stats.cache_misses,
        )

    def _assert_same(self, cut, tensors, active, zoom_width, budgets):
        def run(provider):
            engine = ContractionEngine(strategy="auto")
            contractions = []
            real = engine.contract

            def recording(*args, **kwargs):
                result = real(*args, **kwargs)
                contractions.append((result.strategy, result.num_skipped))
                return result

            engine.contract = recording
            query = DynamicDefinitionQuery(
                provider, active, engine=engine, zoom_width=zoom_width
            )
            for budget in budgets:
                query.run(budget)
            return query, contractions

        fast, fast_contractions = run(
            PrecomputedTensorProvider(cut, tensors=tensors)
        )
        slow, slow_contractions = run(
            collapse_oracle.OracleTensorProvider(cut, tensors, active)
        )
        assert len(fast.recursions) == len(slow.recursions) > 1
        wires = list(range(cut.circuit.num_qubits))
        for got, want in zip(fast.recursions, slow.recursions):
            assert got.probabilities.tobytes() == want.probabilities.tobytes()
            assert (got.fixed, got.active) == (want.fixed, want.active)
            assert list(got.active) == collapse_oracle.next_active(
                got.fixed, active, wires
            )
            assert got.parent_bin == want.parent_bin
        assert fast_contractions == slow_contractions
        assert len(fast_contractions) == len(fast.recursions)
        assert self._counts(fast) == self._counts(slow)
        for threshold in (0.0, 0.5):
            assert fast.solution_states(threshold) == slow.solution_states(
                threshold
            )
        # The lazily sorted frontier pops what the one-heap frontier did.
        _assert_replays(fast, budgets)

    @pytest.mark.parametrize("family", sorted(_TIE_CASES))
    @pytest.mark.parametrize(
        "active, zoom_width", [(1, 1), (2, 1), (2, 3), (3, 2)]
    )
    def test_tie_cases(self, family, active, zoom_width):
        shared = _tie_provider(family)
        self._assert_same(
            shared.cut_circuit, shared.tensors, active, zoom_width, [9, 5]
        )

    @pytest.mark.parametrize(
        "family, qubits, device, kwargs",
        [("bv", 20, 11, {}), ("adder", 20, 12, {"seed": 3})],
    )
    def test_wide_jobs(self, family, qubits, device, kwargs):
        pipeline = CutQC(get_benchmark(family, qubits, **kwargs), device)
        tensors = [build_term_tensor(r) for r in pipeline.evaluate()]
        self._assert_same(pipeline.cut(), tensors, 6, 1, [16])

    @pytest.mark.parametrize(
        "family, qubits, device, kwargs, active, recursions",
        [("bv", 30, 16, {}, 12, 32),
         ("bv", 26, 14, {}, 10, 32),
         ("adder", 20, 12, {"seed": 3}, 10, 48),
         ("hwea", 20, 11, {"seed": 3}, 10, 32)],
        ids=["bv-30", "bv-26", "adder-20", "hwea-20"],
    )
    def test_dd_wide_catalog_jobs(
        self, family, qubits, device, kwargs, active, recursions
    ):
        """The benchmark's ``dd_wide`` jobs, at their catalog definition
        and recursion budget."""
        pipeline = CutQC(get_benchmark(family, qubits, **kwargs), device)
        tensors = [build_term_tensor(r) for r in pipeline.evaluate()]
        self._assert_same(pipeline.cut(), tensors, active, 1, [recursions])

    def test_collapse_spans_only_on_misses(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=1)
        with trace.start("dd") as root:
            query.run(4)
        prepares = [
            child
            for each in root.to_dict()["children"]
            for child in each["children"]
            if child["name"] == "query.dd.prepare"
        ]
        collapses = [
            grandchild
            for prepare in prepares
            for grandchild in prepare.get("children", [])
            if grandchild["name"] == "collapse"
        ]
        assert len(collapses) == query.stats().cache_misses > 0
        for span in collapses:
            assert set(span["attrs"]) == {
                "merged", "fixed", "bytes_in", "bytes_out"
            }


class TestTypedRefusals:
    """Counts are refused by name when they are bools, non-integers or
    negative, instead of failing later or silently doing nothing."""

    @pytest.mark.parametrize("value", [0, -2, 2.5, True, "3"])
    @pytest.mark.parametrize("name", ["max_active_qubits", "zoom_width"])
    def test_query_counts(self, fig4_circuit, name, value):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        kwargs = {"max_active_qubits": 2, name: value}
        with pytest.raises(ValueError, match=name):
            DynamicDefinitionQuery(provider, **kwargs)

    @pytest.mark.parametrize("value", [-3, 2.5, True, "3", None])
    def test_run_budget(self, fig4_circuit, value):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        with pytest.raises(ValueError, match="max_recursions"):
            query.run(value)
        assert query.run(0) == []  # a zero budget stays a no-op
        assert len(query.run(np.int64(2))) == 2

    def test_pipeline_refuses_negative_recursions(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, max_subcircuit_qubits=3)
        with pytest.raises(ValueError, match="max_recursions"):
            pipeline.dd_query(2, max_recursions=-3)


class TestBinsMaterialiseOnRead:
    def test_run_creates_no_per_bin_objects(self):
        def live_bins():
            gc.collect()
            return sum(isinstance(o, Bin) for o in gc.get_objects())

        before = live_bins()
        query = DynamicDefinitionQuery(_tie_provider("bv"), 3, zoom_width=2)
        query.run(9)
        num_bins = sum(2 ** len(r.active) for r in query.recursions)
        assert query.stats().num_bins == num_bins > 5 * len(query.recursions)
        # Only the popped parents exist, one per non-root recursion ...
        assert live_bins() - before == len(query.recursions) - 1
        # ... until a caller reads the partition, and again once it is dropped.
        partition = query.current_partition
        assert live_bins() - before == len(query.recursions) - 1 + len(partition)
        assert len(query.bins) == num_bins
        del partition
        assert live_bins() - before == len(query.recursions) - 1

    def test_bins_share_their_recursions_fixed_mapping(self):
        query = DynamicDefinitionQuery(_tie_provider("bv"), 2)
        query.run(3)
        for entry in query.bins:
            assert entry.fixed is query.recursions[entry.recursion].fixed

    def test_exhausted_recursion_releases_its_order(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(5)  # the root's four bins are all zoomed by now
        root = query.recursions[0]
        assert root.zoomed.all() and root.order is None
        for recursion in query.recursions:
            # An order exists exactly while there is a bin left to zoom.
            open_bins = recursion.num_resolved < 5 and not recursion.zoomed.all()
            assert (recursion.order is not None) == open_bins


class TestDescendingPrefix:
    """A recursion's frontier order is sorted lazily: every prefix it
    hands out is exactly the start of the full stable descending sort."""

    @pytest.mark.parametrize("size", [1, 16, 300, 1024, 4096])
    @pytest.mark.parametrize("count", [1, 16, 32, 500])
    def test_prefix_of_the_stable_sort(self, size, count):
        rng = np.random.default_rng(size * 7 + count)
        values = [0.0, -0.0, 1e-17, -1e-17, 0.25, 0.5, np.nan]
        for probabilities in (
            rng.random(size),
            rng.choice(values, size),  # ties, signed zeros and NaNs
            np.zeros(size),
        ):
            want = np.argsort(-probabilities, kind="stable")
            got = _descending_prefix(probabilities, count)
            assert min(count, size) <= got.size <= size
            assert np.array_equal(got, want[: got.size])


class TestSolutionStates:
    def test_matches_per_bin_scan(self):
        pipeline = CutQC(bv(6), max_subcircuit_qubits=4)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=8)
        for threshold in (0.0, 0.25, 0.9, 2.0):
            assert query.solution_states(threshold) == (
                _scanned_solution_states(query, threshold)
            )
        assert query.solution_states(0.9)[0][0] == bv_solution(6)
        assert query.solution_states(2.0) == []

    def test_no_fully_resolved_recursion(self, fig4_circuit):
        _, provider = _provider(fig4_circuit, [(2, 1)])
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.run(2)  # at most 4 of 5 wires resolved
        assert query.solution_states(0.0) == []
