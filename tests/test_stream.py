"""Golden tests for sharded streaming FD reconstruction.

The contract: shards concatenated in index order reproduce ``fd_query``'s
distribution exactly (atol=1e-12), at peak memory of one shard.
"""

import numpy as np
import pytest

from repro import CutQC, cut_circuit
from repro.library import bv, bv_solution, get_benchmark
from repro.postprocess import (
    PrecomputedTensorProvider,
    StreamingReconstructor,
    reconstruct_full,
)
from tests.variant_oracle import evaluate_subcircuit


def _streamer(circuit, cuts):
    cut = cut_circuit(circuit, cuts)
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    full = reconstruct_full(cut, results).probabilities
    return StreamingReconstructor(cut, results=results), full


class TestShardsConcatenateExactly:
    @pytest.mark.parametrize("shard_qubits", [0, 1, 2, 3, 5])
    def test_fig4_all_definitions(self, fig4_circuit, shard_qubits):
        streamer, full = _streamer(fig4_circuit, [(2, 1)])
        got = streamer.full_distribution(shard_qubits)
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
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        streamer = StreamingReconstructor(cut, provider=provider)
        for _ in streamer.shards(1):
            pass
        first_misses = provider.cache_stats.misses
        for _ in streamer.shards(1):
            pass
        assert provider.cache_stats.misses == first_misses  # all hits
