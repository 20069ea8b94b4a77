"""Golden tests for sharded streaming FD reconstruction.

The contract: shards concatenated in index order reproduce ``fd_query``'s
distribution exactly (atol=1e-12), at peak memory of one shard.  Streams
are :meth:`Reconstructor.shards` — the same object (and collapse cache)
that answers the whole FD query.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CutQC, cut_circuit
from repro.library import bv, bv_solution, get_benchmark
from repro.postprocess import ContractionEngine, Reconstructor, WorkerPool
from tests.test_attribution import _random_cut
from tests.variant_oracle import evaluate_subcircuit


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


def _streamer(circuit, cuts):
    cut = cut_circuit(circuit, cuts)
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    full = Reconstructor(cut, results=results).reconstruct().probabilities
    return Reconstructor(cut, results=results), full


def _concatenated(reconstructor, shard_qubits):
    return np.concatenate(
        [shard.probabilities for shard in reconstructor.shards(shard_qubits)]
    )


class TestShardsConcatenateExactly:
    @pytest.mark.parametrize("shard_qubits", [0, 1, 2, 3, 5])
    def test_fig4_all_definitions(self, fig4_circuit, shard_qubits):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        got = _concatenated(streamer, shard_qubits)
        assert got.shape == full.shape
        assert np.allclose(got, full, atol=1e-12)

    @pytest.mark.parametrize(
        "name,size,device",
        [
            ("bv", 8, 5),
            ("hwea", 8, 5),
            ("supremacy", 9, 6),
            ("aqft", 6, 4),
        ],
    )
    def test_fig6_sweep_circuits(self, name, size, device):
        """The acceptance golden: fig6 benchmarks, exact to 1e-12."""
        kwargs = {"seed": 0, "depth": 8} if name == "supremacy" else {}
        circuit = get_benchmark(name, size, **kwargs)
        pipeline = CutQC(circuit, max_subcircuit_qubits=device)
        full = pipeline.fd_query().probabilities
        shard_qubits = min(3, size)
        pieces = [s.probabilities for s in pipeline.fd_stream(shard_qubits)]
        assert all(p.size == 1 << (size - shard_qubits) for p in pieces)
        assert np.allclose(np.concatenate(pieces), full, atol=1e-12)

    def test_shard_slices_match_full(self, fig4_circuit):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        width = 5 - 2
        for shard in streamer.shards(2):
            want = full[shard.index << width : (shard.index + 1) << width]
            assert np.allclose(shard.probabilities, want, atol=1e-12)


class TestLazinessAndMemory:
    def test_shards_is_lazy_iterator(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        shards = streamer.shards(2)
        assert iter(shards) is shards  # a generator, not a list
        next(shards)
        assert streamer.last_stats.num_shards_emitted == 1
        assert streamer.last_stats.num_shards_total == 4

    def test_peak_shard_bytes_bounded(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        for _ in streamer.shards(2):
            pass
        stats = streamer.last_stats
        assert stats.peak_shard_bytes == (1 << 3) * 8  # 2^(5-2) float64s

    def test_collapse_cache_one_miss_per_subcircuit(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        num_subcircuits = streamer.cut_circuit.num_subcircuits
        for _ in streamer.shards(2):
            pass
        stats = streamer.last_stats
        # One full collapse per subcircuit for the whole stream; every
        # other shard derives from the cached generalized tensor.
        assert stats.cache_misses == num_subcircuits
        assert stats.cache_hits == 3 * num_subcircuits

    def test_shard_indices_subset(self, fig4_circuit):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        width = 5 - 2
        shards = list(streamer.shards(2, shard_indices=[3, 1]))
        assert [s.index for s in shards] == [3, 1]
        for shard in shards:
            want = full[shard.index << width : (shard.index + 1) << width]
            assert np.allclose(shard.probabilities, want, atol=1e-12)
        assert streamer.last_stats.num_shards_emitted == 2


class TestTopK:
    def test_matches_argsort(self, fig4_circuit):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        states = streamer.top_k(2, 4)
        order = np.argsort(full)[::-1][:4]
        got_probabilities = [p for _, p in states]
        assert np.allclose(got_probabilities, full[order], atol=1e-12)
        got_indices = [int(bits, 2) for bits, _ in states]
        assert got_probabilities == sorted(got_probabilities, reverse=True)
        assert set(got_indices) == {
            int(i) for i in order
        } or np.allclose(full[got_indices], full[order], atol=1e-12)

    def test_bv_solution_found_via_stream(self):
        circuit = bv(8)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        pipeline.evaluate()
        states = pipeline.fd_top_k(3, 1)
        assert states[0][0] == bv_solution(8)
        assert states[0][1] == pytest.approx(1.0, abs=1e-9)
        assert pipeline.stream_stats.peak_shard_bytes == (1 << 5) * 8

    def test_k_validated(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            streamer.top_k(2, 0)


class TestValidation:
    def test_shard_qubits_range(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            streamer.shards(6)
        with pytest.raises(ValueError):
            streamer.shards(-1)

    def test_shard_index_range(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        with pytest.raises(ValueError):
            list(streamer.shards(1, shard_indices=[2]))

    def test_provider_reuse_shares_cache(self, fig4_circuit):
        streamer, _ = _streamer(fig4_circuit, [(2, 1)])
        provider = streamer.provider
        for _ in streamer.shards(1):
            pass
        first_misses = provider.cache_stats["misses"]
        for _ in streamer.shards(1):
            pass
        assert provider.cache_stats["misses"] == first_misses  # all hits
        assert streamer.last_stats.cache_misses == 0


class TestOneReconstructor:
    """FD, streams and top-k on one reconstructor share one cache."""

    def test_stream_after_fd_is_all_hits(self, fig4_circuit):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        whole = streamer.reconstruct().probabilities
        assert np.array_equal(whole, full)
        # FD's all-active collapse is every shard's generalized collapse.
        got = _concatenated(streamer, 2)
        assert streamer.last_stats.cache_misses == 0
        assert np.allclose(got, whole, atol=1e-12)

    def test_pipeline_queries_share_one_reconstructor(self):
        pipeline = CutQC(bv(8), max_subcircuit_qubits=5)
        reconstructor = pipeline.reconstructor()
        pipeline.fd_query()
        pipeline.fd_top_k(3, 2)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=2)
        assert pipeline.reconstructor() is reconstructor
        assert query.provider is reconstructor.provider
        assert pipeline.stream_stats is reconstructor.last_stats
        pipeline.load_results(pipeline.evaluate())
        assert pipeline.reconstructor() is not reconstructor


def _random_pipeline(num_qubits, seed, parts):
    """A pipeline over a random connected circuit and a random explicit
    cut (the searcher is bypassed), or None when no small cut came up."""
    cut = _random_cut(num_qubits, seed, parts)
    if cut is None:
        return None
    return CutQC(cut.circuit, cut.max_subcircuit_width()).load_cut(cut)


class TestEveryQueryReadsOneReconstructor:
    """Streams, top-k, the pool and a later DD agree with FD on one
    reconstructor, over random circuits and explicit cuts."""

    @settings(max_examples=8, deadline=None)
    @given(
        num_qubits=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
        parts=st.integers(min_value=2, max_value=3),
    )
    def test_queries_agree(self, pool, num_qubits, seed, parts):
        pipeline = _random_pipeline(num_qubits, seed, parts)
        if pipeline is None:
            return
        reconstructor = pipeline.reconstructor()
        full = pipeline.fd_query().probabilities
        for shard_qubits in range(num_qubits + 1):
            got = _concatenated(reconstructor, shard_qubits)
            assert np.abs(got - full).max() <= 1e-12
        k = 5
        top = reconstructor.top_k(num_qubits // 2, k)
        want = np.sort(full)[::-1][:k]
        assert np.abs([p for _, p in top] - want).max() <= 1e-12
        for bits, probability in top:
            assert abs(full[int(bits, 2)] - probability) <= 1e-12

        pooled = Reconstructor(
            pipeline.cut(),
            results=pipeline.evaluate(),
            engine=ContractionEngine(pool=pool),
        )
        for shard_qubits in (1, 2):
            inline = _concatenated(reconstructor, shard_qubits)
            shipped = _concatenated(pooled, shard_qubits)
            assert pooled.last_stats.transport == "pool"
            assert np.array_equal(shipped, inline)
            assert pooled.top_k(shard_qubits, k) == reconstructor.top_k(
                shard_qubits, k
            )
        pooled.close()

        after = pipeline.dd_query(max_active_qubits=2, max_recursions=4)
        fresh = CutQC(pipeline.circuit, config=pipeline.config)
        fresh.load_cut(pipeline.cut())
        alone = fresh.dd_query(max_active_qubits=2, max_recursions=4)
        assert len(after.recursions) == len(alone.recursions)
        for got, want in zip(after.recursions, alone.recursions):
            assert got.fixed == want.fixed and got.active == want.active
            assert np.array_equal(got.probabilities, want.probabilities)
        assert after.solution_states() == alone.solution_states()


class TestOneReconstructionPath:
    """FD, streamed and top-k queries have one front end."""

    def test_removed_paths_stay_removed(self):
        package = Path(repro.__file__).parent
        assert not (package / "postprocess" / "stream.py").exists()
        removed = {"StreamingReconstructor", "reconstruct_full"}
        found = set()
        for path in package.rglob("*.py"):
            where = path.relative_to(package).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    methods = {
                        item.name: item
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    }
                    if node.name == "QueryPlan" and "full" in methods:
                        found.add(f"{where}: QueryPlan.full")
                    if node.name == "CutQC" and "dd_query" in methods:
                        args = methods["dd_query"].args
                        if "cache" in {
                            a.arg for a in args.args + args.kwonlyargs
                        }:
                            found.add(f"{where}: CutQC.dd_query(cache=)")
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "full"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "QueryPlan"
                ):
                    found.add(f"{where}: QueryPlan.full")
                name = (
                    getattr(node, "name", None)
                    or getattr(node, "id", None)
                    or getattr(node, "attr", None)
                    or getattr(node, "value", None)
                )
                if isinstance(name, str) and name in removed:
                    found.add(f"{where}: {name}")
        assert found == set()
