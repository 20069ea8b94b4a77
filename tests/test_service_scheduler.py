"""Job scheduler: stage checkpointing, warm-cache reuse, failure paths."""

import numpy as np
import pytest

from repro import CutQC, simulate_probabilities
from repro.cutting import cut_memo_stats
from repro.library import bv
from repro.service import ArtifactStore, JobScheduler, JobSpec


@pytest.fixture
def scheduler(tmp_path):
    instance = JobScheduler(ArtifactStore(tmp_path / "store"), workers=2)
    yield instance
    instance.shutdown()


def _bv_spec(**overrides):
    spec = {"benchmark": "bv", "qubits": 6, "device_size": 5, "query": "fd",
            "top": 3}
    spec.update(overrides)
    return JobSpec(**spec)


def _stable(result):
    """A result document with the measured-latency fields dropped."""
    document = dict(result)
    document.pop("elapsed_seconds", None)
    document.pop("stats", None)
    document.pop("stream", None)
    return document


class TestSpecValidation:
    def test_requires_exactly_one_circuit_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(device_size=5).validate()
        with pytest.raises(ValueError, match="exactly one"):
            JobSpec(device_size=5, benchmark="bv", qubits=6,
                    qasm="OPENQASM 2.0;").validate()

    def test_rejects_unknown_benchmark_and_query(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            JobSpec(device_size=5, benchmark="shor", qubits=6).validate()
        with pytest.raises(ValueError, match="unknown query"):
            _bv_spec(query="magic").validate()

    @pytest.mark.parametrize("seed", [-1, 1 << 63, 1.5, "3", True])
    def test_rejects_bad_seed_by_name(self, seed):
        with pytest.raises(ValueError, match="seed"):
            _bv_spec(seed=seed).validate()
        _bv_spec(seed=(1 << 63) - 1).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("active", 2.5), ("active", True), ("active", 0),
         ("recursions", 2.5), ("recursions", "3"), ("recursions", -1),
         ("zoom_width", 0), ("zoom_width", 1.0), ("zoom_width", False)],
    )
    def test_rejects_bad_dd_counts_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            _bv_spec(query="dd", **{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("top", 2.0), ("trajectories", True), ("device_size", "5"),
         ("qubits", 6.5), ("shard_qubits", 1.5), ("shard_qubits", -1)],
    )
    def test_rejects_other_bad_counts_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            _bv_spec(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["active", "recursions"])
    def test_dd_counts_typed_on_every_query(self, field):
        with pytest.raises(ValueError, match=field):
            _bv_spec(**{field: 2.5}).validate()
        _bv_spec(**{field: 0}).validate()  # unused by fd: zero is fine

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job fields"):
            JobSpec.from_dict({"device_size": 5, "benchmark": "bv",
                               "qubits": 6, "frobnicate": True})

    def test_round_trip(self):
        spec = _bv_spec(query="dd", active=3)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestJobExecution:
    def test_fd_job_matches_direct_pipeline(self, scheduler):
        record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert record.state == "done"
        assert record.error is None
        assert record.cache_hits == {"cut": False, "evaluate": False}
        assert set(record.timings) == {"cut", "evaluate", "query", "total"}
        direct = CutQC(bv(6), 5).fd_query().probabilities
        top = record.result["top_states"][0]
        assert top["state"] == "111111"
        assert top["probability"] == pytest.approx(float(direct.max()))

    def test_second_job_is_fully_warm_and_identical(self, scheduler):
        cold = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        warm = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert warm.cache_hits == {"cut": True, "evaluate": True}
        assert _stable(warm.result) == _stable(cold.result)
        assert warm.fingerprints == cold.fingerprints
        stats = scheduler.stats()
        assert stats["cache"]["stage_hits"] == {"cut": 1, "evaluate": 1}
        assert stats["cache"]["stage_misses"] == {"cut": 1, "evaluate": 1}
        assert stats["jobs"]["by_state"]["done"] == 2

    def test_store_miss_on_a_searched_graph_is_not_a_store_hit(self, scheduler):
        """An X-masked BV has BV's gate graph: its cut stage misses the
        store (another structure), skips the search through the
        ``find_cuts`` memo, and is reported cold all the same."""
        from repro.circuits.qasm import to_qasm

        scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert cut_memo_stats() == {"hits": 0, "misses": 1, "size": 1}
        masked = bv(6).x(0).x(3)
        spec = JobSpec(device_size=5, qasm=to_qasm(masked), query="fd", top=1)
        record = scheduler.wait(scheduler.submit(spec), timeout=60)
        assert record.state == "done"
        assert record.cache_hits == {"cut": False, "evaluate": False}
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        truth = simulate_probabilities(masked)
        top = record.result["top_states"][0]
        assert int(top["state"], 2) == int(np.argmax(truth))
        assert top["probability"] == pytest.approx(float(truth.max()))
        cache = scheduler.stats()["cache"]
        assert cache["stage_hits"] == {"cut": 0, "evaluate": 0}
        assert cache["stage_misses"] == {"cut": 2, "evaluate": 2}

    def test_sibling_query_reuses_cut_and_evaluation(self, scheduler):
        scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        sibling = scheduler.wait(
            scheduler.submit(_bv_spec(query="dd", active=2, recursions=4)),
            timeout=60,
        )
        assert sibling.state == "done"
        # Different query, same circuit+cut+backend: both stages warm.
        assert sibling.cache_hits == {"cut": True, "evaluate": True}
        assert sibling.result["solution_states"][0]["state"] == "111111"

    def test_seed_is_inert_for_deterministic_backend(self, scheduler):
        """bv ignores the generator seed and statevector evaluation is
        deterministic, so a different seed must still run fully warm."""
        scheduler.wait(scheduler.submit(_bv_spec(seed=0)), timeout=60)
        warm = scheduler.wait(scheduler.submit(_bv_spec(seed=1)), timeout=60)
        assert warm.cache_hits == {"cut": True, "evaluate": True}

    def test_top_k_query(self, scheduler):
        record = scheduler.wait(
            scheduler.submit(_bv_spec(query="top_k", shard_qubits=2)),
            timeout=60,
        )
        assert record.state == "done"
        assert record.result["mode"] == "top_k"
        assert record.result["top_states"][0]["state"] == "111111"
        assert record.result["stream"]["num_shards_emitted"] == 4

    def test_qasm_job(self, scheduler):
        from repro.circuits.qasm import to_qasm

        spec = JobSpec(device_size=5, qasm=to_qasm(bv(6)), query="fd", top=1)
        record = scheduler.wait(scheduler.submit(spec), timeout=60)
        assert record.state == "done"
        assert record.result["top_states"][0]["state"] == "111111"

    def test_infeasible_cut_fails_cleanly(self, scheduler):
        spec = JobSpec(benchmark="grover", qubits=5, device_size=4,
                       max_cuts=2)
        record = scheduler.wait(scheduler.submit(spec), timeout=60)
        assert record.state == "failed"
        assert "CutSearchError" in record.error
        assert scheduler.stats()["jobs"]["by_state"]["failed"] == 1

    def test_queued_job_cancellation(self, tmp_path):
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, autostart=False
        )
        job_id = scheduler.submit(_bv_spec())
        assert scheduler.cancel(job_id) is True
        scheduler.start()
        record = scheduler.wait(job_id, timeout=10)
        assert record.state == "cancelled"
        assert record.result is None
        assert scheduler.cancel(job_id) is False  # already terminal
        scheduler.shutdown()

    def test_corrupted_artifact_recomputed_not_served(self, scheduler):
        cold = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        _, tensor_path = scheduler.store.evaluation_path(
            cold.fingerprints["evaluate"]
        )
        tensor_path.write_bytes(b"not an npz archive")
        recomputed = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert recomputed.state == "done"
        # Cut artifact still intact; evaluation detected corrupt -> miss.
        assert recomputed.cache_hits == {"cut": True, "evaluate": False}
        assert scheduler.store.stats.corrupt == 1
        assert _stable(recomputed.result) == _stable(cold.result)
        # And the recomputed artifact is healthy again.
        warm = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert warm.cache_hits == {"cut": True, "evaluate": True}

    def test_stats_shape(self, scheduler):
        scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        stats = scheduler.stats()
        assert stats["jobs"]["submitted"] == 1
        assert stats["workers"] == 2
        assert stats["uptime_seconds"] > 0
        assert "cut" in stats["stage_seconds_mean"]
        assert stats["store"]["artifacts"] == {
            "cuts": 1, "evaluations": 1, "traces": 1,
        }


class TestPayloadRetention:
    """Only the newest K terminal records keep result/trace in memory."""

    def test_old_payloads_drop_and_are_served_from_the_store(
        self, scheduler, monkeypatch
    ):
        from repro.service import scheduler as scheduler_module
        from repro.service.api import JobServiceAPI

        monkeypatch.setattr(scheduler_module, "_RETAINED_PAYLOADS", 3)
        api = JobServiceAPI(scheduler)
        first_fetch = {}
        job_ids = []
        for _ in range(13):  # K + 10
            job_id = scheduler.submit(_bv_spec())
            scheduler.wait(job_id, timeout=60)
            first_fetch[job_id] = (api.job_result(job_id), api.job_trace(job_id))
            job_ids.append(job_id)
        for job_id in job_ids[:10]:
            record = scheduler.get(job_id)
            assert record.result is None and record.trace is None
        for job_id in job_ids[10:]:
            record = scheduler.get(job_id)
            assert record.result is not None and record.trace is not None
        for job_id in job_ids[:4]:  # rehydrated on demand, equal documents
            assert api.job_result(job_id) == first_fetch[job_id][0]
            assert api.job_trace(job_id) == first_fetch[job_id][1]
        # Rehydrated payloads re-enter the same window; nothing accumulates.
        held = [j for j in job_ids if scheduler.get(j).result is not None]
        assert len(held) == 3
        assert scheduler.stats()["jobs"]["by_state"]["done"] == 13

    def test_unjournaled_scheduler_keeps_everything(self, tmp_path, monkeypatch):
        from repro.service import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "_RETAINED_PAYLOADS", 1)
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, journal=False
        )
        try:
            records = [
                scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
                for _ in range(4)
            ]
            assert all(r.result is not None and r.trace is not None for r in records)
        finally:
            scheduler.shutdown()

    def test_load_persisted_fills_only_empty_fields(self, scheduler):
        record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        timings, hits = dict(record.timings), dict(record.cache_hits)
        document = scheduler.store.get_job_document(record.job_id)
        document["timings"] = {"cut": 99.0}
        document["cache_hits"] = {"cut": True}
        document["result"] = dict(document["result"], num_qubits=-1)
        scheduler.store.put_job_document(record.job_id, document)
        kept = record.result
        scheduler.load_persisted(record)  # result live: nothing is read
        assert record.result is kept
        record.update(result=None)  # as past the retention window
        scheduler.load_persisted(record)
        assert record.result["num_qubits"] == -1  # filled from the store
        assert (record.timings, record.cache_hits) == (timings, hits)

    def test_one_cut_fingerprint_per_job(self, scheduler, monkeypatch):
        from repro.service import store as store_module

        calls = []
        real = store_module.cut_fingerprint
        monkeypatch.setattr(
            store_module, "cut_fingerprint",
            lambda *args: calls.append(1) or real(*args),
        )
        record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
        assert record.state == "done" and len(calls) == 1


class TestPipelinePreloading:
    def test_load_cut_rejects_budget_violation(self):
        circuit = bv(6)
        cut = CutQC(circuit, 5).cut()
        with pytest.raises(ValueError, match="budget"):
            CutQC(circuit, 3).load_cut(cut)

    def test_load_cut_rejects_wrong_circuit(self):
        cut = CutQC(bv(6), 5).cut()
        with pytest.raises(ValueError, match="circuit"):
            CutQC(bv(8), 7).load_cut(cut)

    def test_load_results_requires_matching_count(self):
        pipeline = CutQC(bv(6), 5)
        results = pipeline.evaluate()
        fresh = CutQC(bv(6), 5)
        with pytest.raises(ValueError, match="subcircuits"):
            fresh.load_results(results[:1])

    def test_preloaded_pipeline_reproduces_fd(self):
        pipeline = CutQC(bv(6), 5)
        truth = pipeline.fd_query().probabilities
        warm = CutQC(bv(6), 5)
        warm.load_cut(pipeline.cut(), pipeline.solution)
        warm.load_results(pipeline.evaluate())
        assert np.array_equal(warm.fd_query().probabilities, truth)
        # Adopting a cut never consults the search memo.
        assert cut_memo_stats() == {"hits": 0, "misses": 1, "size": 1}
