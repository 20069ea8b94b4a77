"""Artifact store: fingerprints, bit-identical round trips, corruption."""

import hashlib
import io
import json
import os

import numpy as np
import pytest

from repro import CutQC, find_cuts
from repro.core import VariantExecutor
from repro.cutting import SubcircuitResult, generate_variants
from repro.library import bv, supremacy
from repro.service import store as store_module
from repro.service.scheduler import JobSpec
from repro.service.store import (
    ArtifactStore,
    _digest,
    circuit_digest,
    cut_fingerprint,
    evaluation_fingerprint,
)
from tests.variant_oracle import evaluate_subcircuit


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _cut_bv(qubits=6, device=5):
    circuit = bv(qubits)
    solution = find_cuts(circuit, device)
    return circuit, solution, solution.apply(circuit)


class TestFingerprints:
    def test_circuit_digest_stable_and_content_sensitive(self):
        assert circuit_digest(bv(6)) == circuit_digest(bv(6))
        assert circuit_digest(bv(6)) != circuit_digest(bv(7))
        assert circuit_digest(supremacy(8, seed=0)) != circuit_digest(
            supremacy(8, seed=1)
        )

    def test_option_key_order_is_irrelevant(self):
        circuit = bv(6)
        a = cut_fingerprint(circuit, {"max_cuts": 10, "method": "auto",
                                      "max_subcircuit_qubits": 5})
        b = cut_fingerprint(circuit, {"max_subcircuit_qubits": 5,
                                      "method": "auto", "max_cuts": 10})
        assert a == b

    def test_none_options_treated_as_absent(self):
        circuit = bv(6)
        assert cut_fingerprint(circuit, {"max_cuts": 10, "cuts": None}) == (
            cut_fingerprint(circuit, {"max_cuts": 10})
        )

    def test_explicit_cut_order_is_irrelevant(self):
        circuit = bv(8)
        a = cut_fingerprint(circuit, {"cuts": [(2, 1), (4, 1)]})
        b = cut_fingerprint(circuit, {"cuts": [(4, 1), (2, 1)]})
        assert a == b

    def test_option_values_change_the_fingerprint(self):
        circuit = bv(6)
        base = cut_fingerprint(circuit, {"max_subcircuit_qubits": 5})
        assert base != cut_fingerprint(circuit, {"max_subcircuit_qubits": 4})
        assert base != cut_fingerprint(bv(8), {"max_subcircuit_qubits": 5})

    def test_evaluation_fingerprint_covers_backend_config(self):
        base = evaluation_fingerprint("cutkey")
        assert base == evaluation_fingerprint("cutkey", "statevector")
        assert base != evaluation_fingerprint("cutkey", "device:bogota")
        assert base != evaluation_fingerprint("cutkey", shots=1024)
        assert base != evaluation_fingerprint("cutkey", seed=7)
        assert base != evaluation_fingerprint("otherkey")

    def test_pipeline_fingerprint_hooks(self):
        pipeline = CutQC(bv(6), 5)
        again = CutQC(bv(6), 5)
        assert pipeline.cut_fingerprint() == again.cut_fingerprint()
        assert pipeline.cut_fingerprint() != CutQC(bv(6), 4).cut_fingerprint()
        assert (
            pipeline.evaluation_fingerprint()
            != pipeline.evaluation_fingerprint(backend="device:bogota")
        )


class TestCutRoundTrip:
    def test_solution_restored_bit_identically(self, store):
        circuit, solution, cut = _cut_bv()
        key = cut_fingerprint(circuit, {"max_subcircuit_qubits": 5})
        store.put_cut(key, circuit, cut, solution)
        restored_cut, restored_solution = store.get_cut(key, circuit)
        assert restored_cut.assignment == cut.assignment
        assert restored_cut.num_cuts == cut.num_cuts
        assert [s.circuit for s in restored_cut.subcircuits] == [
            s.circuit for s in cut.subcircuits
        ]
        assert restored_solution.assignment == solution.assignment
        assert restored_solution.method == solution.method
        assert restored_solution.objective == solution.objective
        assert restored_solution.cost.to_dict() == solution.cost.to_dict()
        assert store.stats.hits == 1

    def test_missing_cut_is_a_miss(self, store):
        assert store.get_cut("deadbeef", bv(6)) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_cut_for_wrong_circuit_is_rejected(self, store):
        circuit, solution, cut = _cut_bv()
        key = "samekey"
        store.put_cut(key, circuit, cut, solution)
        # Same key, different circuit (fingerprint collision / tampering):
        # the embedded circuit digest catches it.
        assert store.get_cut(key, bv(8)) is None
        assert store.stats.corrupt == 1

    def test_tampered_cut_detected(self, store):
        circuit, solution, cut = _cut_bv()
        key = cut_fingerprint(circuit, {})
        path = store.put_cut(key, circuit, cut, solution)
        document = json.loads(path.read_text())
        document["payload"]["assignment"][0] ^= 1
        path.write_text(json.dumps(document))
        assert store.get_cut(key, circuit) is None
        assert store.stats.corrupt == 1
        # The corrupt file is removed so the slot self-heals.
        assert not path.exists()


class TestEvaluationRoundTrip:
    def test_results_restored_bit_identically(self, store):
        circuit, solution, cut = _cut_bv()
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        key = evaluation_fingerprint("cutkey")
        store.put_evaluation(key, results)
        restored = store.get_evaluation(key, cut)
        assert restored is not None
        assert len(restored) == len(results)
        for original, loaded in zip(results, restored):
            assert loaded.subcircuit is cut.subcircuits[original.subcircuit.index]
            assert loaded.num_variants == original.num_variants
            assert loaded.num_unique_circuits == original.num_unique_circuits
            assert loaded.amplitudes is None
            assert loaded.distributions.dtype == original.distributions.dtype
            # Bit-identical, not merely close.
            assert np.array_equal(loaded.distributions, original.distributions)

    def test_restored_results_reconstruct_identically(self, store):
        circuit, solution, cut = _cut_bv()
        pipeline = CutQC(circuit, 5)
        pipeline.load_cut(cut, solution)
        truth = pipeline.fd_query().probabilities
        key = "reconkey"
        store.put_evaluation(key, pipeline.evaluate())
        warm = CutQC(circuit, 5)
        warm.load_cut(cut, solution)
        warm.load_results(store.get_evaluation(key, warm.cut()))
        assert np.array_equal(warm.fd_query().probabilities, truth)

    def test_corrupted_tensor_payload_detected(self, store):
        circuit, solution, cut = _cut_bv()
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        key = "corruptkey"
        store.put_evaluation(key, results)
        _, tensor_path = store.evaluation_path(key)
        raw = bytearray(tensor_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        tensor_path.write_bytes(bytes(raw))
        assert store.get_evaluation(key, cut) is None
        assert store.stats.corrupt == 1
        assert not tensor_path.exists()  # self-healed

    def test_truncated_tensor_payload_detected(self, store):
        circuit, solution, cut = _cut_bv()
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        key = "shortkey"
        store.put_evaluation(key, results)
        _, tensor_path = store.evaluation_path(key)
        tensor_path.write_bytes(tensor_path.read_bytes()[:16])
        assert store.get_evaluation(key, cut) is None
        assert store.stats.corrupt == 1

    def test_artifact_counts(self, store):
        circuit, solution, cut = _cut_bv()
        store.put_cut("c1", circuit, cut, solution)
        store.put_evaluation(
            "e1", [evaluate_subcircuit(s) for s in cut.subcircuits]
        )
        assert store.artifact_counts() == {
            "cuts": 1, "evaluations": 1, "traces": 0,
        }
        assert store.as_dict()["writes"] == 2


def _rewrite_tensors(store, key, edit):
    """Apply ``edit`` to the artifact's arrays and re-seal both checksums,
    so only the content — not the envelope — is wrong."""
    meta_path, tensor_path = store.evaluation_path(key)
    with np.load(io.BytesIO(tensor_path.read_bytes())) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    tensor_path.write_bytes(buffer.getvalue())
    document = json.loads(meta_path.read_text())
    document["payload"]["tensors_sha256"] = hashlib.sha256(
        buffer.getvalue()
    ).hexdigest()
    document["checksum"] = _digest(document["payload"])
    meta_path.write_text(json.dumps(document))


class TestExactEvaluationArtifacts:
    """An exact result is stored as what it holds: its amplitudes."""

    @pytest.fixture
    def exact(self):
        circuit, solution, cut = _cut_bv()
        results = VariantExecutor().run(cut.subcircuits)
        position = [bool(s.init_lines) for s in cut.subcircuits].index(True)
        return cut, results, position

    def test_amplitudes_persist_without_a_variant_row_list(self, store, exact):
        cut, results, _ = exact
        meta_path = store.put_evaluation("key", results)
        assert all(r._distributions is None for r in results)  # put stayed lazy
        for meta in json.loads(meta_path.read_text())["payload"]["subcircuits"]:
            assert set(meta) == {
                "index", "width", "num_variants", "num_unique_circuits",
                "mode", "num_body_passes",
            }
        with np.load(store.evaluation_path("key")[1]) as archive:
            assert sorted(archive.files) == [f"amp{i}" for i in range(len(results))]
        for original, loaded in zip(results, store.get_evaluation("key", cut)):
            assert loaded._distributions is None
            assert loaded.amplitudes.dtype == np.complex128
            assert np.array_equal(loaded.amplitudes, original.amplitudes)
            assert loaded.mode == original.mode == "batched"
            assert loaded.num_variants == original.num_variants
            assert loaded.num_body_passes == original.num_body_passes

    @pytest.mark.parametrize(
        "damage",
        ["shape", "dtype", "width", "missing",
         "dist-shape", "dist-dtype", "dist-width", "dist-missing"],
    )
    def test_mismatched_amplitudes_are_a_miss_and_discarded(
        self, store, exact, damage
    ):
        cut, results, position = exact
        name = f"amp{position}"
        if damage.startswith("dist-"):
            # The same damage to a distributions array: a backend result.
            damage = damage[len("dist-"):]
            name = f"dist{position}"
            results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        edits = {
            "shape": lambda arrays: arrays.update({name: arrays[name][:1]}),
            "dtype": lambda arrays: arrays.update(
                {name: arrays[name].astype(np.complex64)}
            ),
            "width": lambda arrays: arrays.update({name: arrays[name][..., ::2]}),
            "missing": lambda arrays: arrays.pop(name),
        }
        store.put_evaluation("key", results)
        _rewrite_tensors(store, "key", edits[damage])
        assert store.get_evaluation("key", cut) is None
        assert store.stats.corrupt == 1
        assert not any(path.exists() for path in store.evaluation_path("key"))

    def test_v2_artifact_is_a_miss_under_the_v3_key(self, store, exact):
        cut, results, _ = exact
        base = dict(device_size=5, benchmark="bv", qubits=6)
        tag = JobSpec(**base).run_config().evaluation_identity()["backend"]
        assert tag == "statevector:batched:v3"
        # What a v2 engine stored: every raw vector, under the v2 tag.
        v2_results = [
            SubcircuitResult(
                subcircuit=r.subcircuit, distributions=r.distributions,
                num_variants=r.num_variants, mode="batched",
                num_unique_circuits=r.num_unique_circuits,
            )
            for r in results
        ]
        v2_key = evaluation_fingerprint("cut", backend="statevector:batched:v2")
        store.put_evaluation(v2_key, v2_results)
        v3_key = evaluation_fingerprint("cut", backend=tag)
        assert store.get_evaluation(v3_key, cut) is None  # recomputed ...
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)
        old = store.get_evaluation(v2_key, cut)  # ... never misread
        assert all(r.amplitudes is None for r in old)


def _put_parent_layout(store, key, results):
    """Persist ``results`` as the previous artifact layout did: each
    variant's row in a 2-D ``sub{i}`` array plus a variant -> row map."""
    arrays, metas = {}, []
    for position, result in enumerate(results):
        rows, variants = [], []
        for variant in generate_variants(result.subcircuit):
            variants.append([list(variant.inits), list(variant.bases), len(rows)])
            rows.append(result.vector(variant.inits, variant.bases))
        arrays[f"sub{position}"] = np.stack(rows)
        metas.append({
            "index": result.subcircuit.index,
            "width": result.subcircuit.width,
            "num_variants": result.num_variants,
            "num_unique_circuits": result.num_unique_circuits,
            "mode": result.mode,
            "num_body_passes": result.num_body_passes,
            "variants": variants,
        })
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    meta_path, tensor_path = store.evaluation_path(key)
    store._write_atomic(tensor_path, buffer.getvalue())
    store._put_sealed(meta_path, "evaluation", key, {
        "subcircuits": metas,
        "tensors_sha256": hashlib.sha256(buffer.getvalue()).hexdigest(),
    })


class TestPreviousLayoutArtifacts:
    def test_device_artifact_is_a_miss_and_the_job_recomputes(self, tmp_path):
        """A store written before the distributions layout: its batched
        device artifact sits under the ``:v1`` tag, which no job asks for
        now — a plain miss, not a corrupt read, and the same answer."""
        from repro.devices import get_device
        from repro.service.scheduler import JobScheduler

        spec = JobSpec(
            device_size=5, benchmark="bv", qubits=6, device="bogota",
            shots=1024, trajectories=8, query="fd", top=4,
        )
        pipeline = CutQC(
            spec.build_circuit(), 5, device=get_device("bogota", seed=0),
            device_shots=1024, trajectories=8, seed=0,
        )
        cut_key = pipeline.cut_fingerprint()
        old_key = pipeline.evaluation_fingerprint(
            backend="device:bogota:trajectory:batched:v1", shots=1024, seed=0,
            config={"trajectories": 8}, cut_key=cut_key,
        )
        store = ArtifactStore(tmp_path / "old")
        store.put_cut(cut_key, pipeline.circuit, pipeline.cut(), pipeline.solution)
        _put_parent_layout(store, old_key, pipeline.evaluate())

        records = []
        for target in (store, ArtifactStore(tmp_path / "fresh")):
            scheduler = JobScheduler(target, workers=1)
            try:
                records.append(scheduler.wait(scheduler.submit(spec), timeout=120))
            finally:
                scheduler.shutdown()
        old, fresh = records
        assert old.state == fresh.state == "done"
        assert old.cache_hits == {"cut": True, "evaluate": False}
        assert old.fingerprints["evaluate"] != old_key
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)
        assert store.stats.misses_by_kind == {"evaluation": 1}
        assert old.result["top_states"] == fresh.result["top_states"]


class TestLruBudget:
    """Bounded mode: byte budget, LRU order, pin protection, counters."""

    def _three_cuts(self, root):
        """Three cut artifacts with mtimes forced oldest -> newest."""
        store = ArtifactStore(root)
        keys = []
        for index, qubits in enumerate((6, 7, 8)):
            circuit = bv(qubits)
            solution = find_cuts(circuit, 5)
            key = f"cut{index}"
            path = store.put_cut(
                key, circuit, solution.apply(circuit), solution
            )
            os.utime(path, (1_000 + index, 1_000 + index))
            keys.append(key)
        return store, keys

    def test_budget_evicts_oldest_first_and_counts(self, tmp_path):
        unbounded, keys = self._three_cuts(tmp_path / "store")
        total = unbounded.total_bytes()
        bounded = ArtifactStore(tmp_path / "store", max_bytes=total - 1)
        evicted = bounded.enforce_budget()
        assert evicted == [keys[0]]  # least recently used goes first
        assert not bounded.has_cut(keys[0])
        assert bounded.has_cut(keys[1]) and bounded.has_cut(keys[2])
        assert bounded.stats.evictions == 1
        assert bounded.stats.evicted_bytes > 0
        assert bounded.total_bytes() <= bounded.max_bytes

    def test_pinned_artifact_is_never_evicted(self, tmp_path):
        unbounded, keys = self._three_cuts(tmp_path / "store")
        total = unbounded.total_bytes()
        bounded = ArtifactStore(tmp_path / "store", max_bytes=total - 1)
        bounded.pin("cut", keys[0])
        try:
            evicted = bounded.enforce_budget()
            # The pinned oldest survives; the next-oldest pays instead.
            assert keys[0] not in evicted
            assert bounded.has_cut(keys[0])
            assert evicted == [keys[1]]
        finally:
            bounded.unpin("cut", keys[0])
        # Unpinned, it becomes evictable again.
        tight = ArtifactStore(tmp_path / "store", max_bytes=1)
        assert keys[0] in tight.enforce_budget()

    def test_hits_refresh_recency(self, tmp_path):
        unbounded, keys = self._three_cuts(tmp_path / "store")
        # Touch the oldest through a read: it becomes the newest.
        assert unbounded.get_cut(keys[0], bv(6)) is not None
        total = unbounded.total_bytes()
        bounded = ArtifactStore(tmp_path / "store", max_bytes=total - 1)
        evicted = bounded.enforce_budget()
        assert keys[0] not in evicted
        assert evicted == [keys[1]]

    def test_write_protects_itself_and_triggers_enforcement(self, tmp_path):
        unbounded, keys = self._three_cuts(tmp_path / "store")
        total = unbounded.total_bytes()
        bounded = ArtifactStore(tmp_path / "store", max_bytes=total)
        circuit = bv(9)
        solution = find_cuts(circuit, 5)
        # This put pushes the footprint over budget; the enforcement it
        # triggers must evict old artifacts, never the fresh write.
        bounded.put_cut("fresh", circuit, solution.apply(circuit), solution)
        assert bounded.has_cut("fresh")
        assert not bounded.has_cut(keys[0])
        assert bounded.total_bytes() <= bounded.max_bytes

    def test_job_documents_do_not_count_toward_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=64)
        store.put_job_document("job-1", {"state": "done", "blob": "x" * 4096})
        assert store.total_bytes() == 0
        assert store.enforce_budget() == []
        assert store.get_job_document("job-1")["state"] == "done"

    def test_eviction_feeds_the_metrics_registry(self, tmp_path):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "repro_store_evictions_total", "", ("kind",)
        )
        before = counter.value(kind="cut")
        unbounded, keys = self._three_cuts(tmp_path / "store")
        bounded = ArtifactStore(
            tmp_path / "store", max_bytes=unbounded.total_bytes() - 1
        )
        bounded.enforce_budget()
        assert counter.value(kind="cut") == before + 1
        assert "repro_store_bytes" in get_registry().render()

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactStore(tmp_path / "store", max_bytes=0)


def _warm_pipeline(store, circuit, device=5):
    """A pipeline fed from ``store`` the way a warm job is."""
    pipeline = CutQC(circuit, device)
    pipeline.load_cut(*store.get_cut("cut", circuit))
    pipeline.load_results(store.get_evaluation("eval", pipeline.cut()))
    return pipeline


def _answers(pipeline):
    dd = pipeline.dd_query(max_active_qubits=3, max_recursions=4)
    return (
        pipeline.fd_query().probabilities,
        [r.probabilities for r in dd.recursions],
        pipeline.fd_top_k(2, 3),
    )


class TestResidentTier:
    """Verified artifacts stay parsed in memory, in front of the files."""

    @pytest.fixture
    def filled(self, tmp_path):
        circuit, solution, cut = _cut_bv(8, 5)
        store = ArtifactStore(tmp_path / "store")
        store.put_cut("cut", circuit, cut, solution)
        store.put_evaluation(
            "eval", VariantExecutor().run(cut.subcircuits)
        )
        return store, circuit

    def test_a_put_does_not_populate_and_a_hit_returns_the_same_objects(
        self, filled
    ):
        store, circuit = filled
        assert store.stats.resident_entries == 0  # a cold job's puts: nothing
        first = _warm_pipeline(store, circuit)
        assert (store.stats.hits, store.stats.resident_hits) == (2, 0)
        second = _warm_pipeline(store, circuit)
        assert (store.stats.hits, store.stats.resident_hits) == (4, 2)
        assert second.cut() is first.cut()
        assert all(a is b for a, b in zip(second.evaluate(), first.evaluate()))
        assert second.evaluate() is not first.evaluate()  # a list per caller
        assert store.as_dict()["resident_entries"] == 2
        assert 0 < store.as_dict()["resident_bytes"] <= store_module._RESIDENT_MAX_BYTES

    def test_resident_answers_equal_the_disk_paths(self, filled, tmp_path):
        store, circuit = filled
        _warm_pipeline(store, circuit)  # admits
        resident = _answers(_warm_pipeline(store, circuit))
        disk = _answers(_warm_pipeline(ArtifactStore(tmp_path / "store"), circuit))
        assert store.stats.resident_hits == 2
        assert np.array_equal(resident[0], disk[0])
        assert len(resident[1]) == len(disk[1]) and all(
            np.array_equal(a, b) for a, b in zip(resident[1], disk[1])
        )
        assert resident[2] == disk[2]

    def test_deleted_file_ends_residency(self, filled):
        store, circuit = filled
        cut = _warm_pipeline(store, circuit).cut()
        store.cut_path("cut").unlink()
        store.evaluation_path("eval")[1].unlink()
        assert store.get_cut("cut", circuit) is None
        assert store.get_evaluation("eval", cut) is None
        assert (store.stats.misses, store.stats.corrupt) == (2, 0)
        assert store.stats.resident_entries == 0

    def test_rewritten_file_is_verified_again_not_served_from_memory(self, filled):
        store, circuit = filled
        cut = _warm_pipeline(store, circuit).cut()
        _, tensor_path = store.evaluation_path("eval")
        tensor_path.write_bytes(tensor_path.read_bytes()[:-7])
        assert store.get_evaluation("eval", cut) is None
        assert store.stats.corrupt == 1
        assert not tensor_path.exists()
        # Recompute, as the scheduler would: served from disk again first.
        store.put_evaluation(
            "eval", VariantExecutor().run(cut.subcircuits)
        )
        hits = store.stats.resident_hits
        assert store.get_evaluation("eval", cut) is not None
        assert store.stats.resident_hits == hits

    def test_budget_eviction_is_not_masked(self, filled, tmp_path):
        store, circuit = filled
        cut = _warm_pipeline(store, circuit).cut()
        peer = ArtifactStore(tmp_path / "store", max_bytes=1)
        assert sorted(peer.enforce_budget()) == ["cut", "eval"]
        assert store.get_cut("cut", circuit) is None
        assert store.get_evaluation("eval", cut) is None

    def test_a_rebind_is_not_served_another_bindings_cut(self, store):
        from repro.library import get_benchmark

        circuit = get_benchmark("hwea", 6)
        solution = find_cuts(circuit, 4)
        store.put_cut("cut", circuit, solution.apply(circuit), solution)
        first, _ = store.get_cut("cut", circuit)
        assert store.get_cut("cut", circuit)[0] is first
        assert store.stats.resident_hits == 1
        rebound, _ = circuit.bind([p + 0.25 for p in circuit.parameters()])
        other, _ = store.get_cut("cut", rebound)
        assert store.stats.resident_hits == 1  # same key, no resident hit
        assert other is not first
        assert other.circuit.parameters() == rebound.parameters()
        gates = [g for s in other.subcircuits for g in s.circuit.gates]
        assert {p for g in gates for p in g.params} <= set(rebound.parameters())

    def test_results_of_another_cut_object_are_not_served(self, filled, tmp_path):
        store, circuit = filled
        _warm_pipeline(store, circuit)
        foreign = ArtifactStore(tmp_path / "store").get_cut("cut", circuit)[0]
        hits = store.stats.resident_hits
        restored = store.get_evaluation("eval", foreign)
        assert store.stats.resident_hits == hits
        assert all(
            r.subcircuit is s for r, s in zip(restored, foreign.subcircuits)
        )

    def test_threads_share_one_artifact_and_never_mutate_it(self, filled):
        import threading

        store, circuit = filled
        results = _warm_pipeline(store, circuit).evaluate()

        def fingerprint():
            return [hashlib.sha256(r.amplitudes.tobytes()).hexdigest() for r in results]

        before = fingerprint()
        answers = [None, None]

        def work(slot):
            for _ in range(5):
                answers[slot] = _answers(_warm_pipeline(store, circuit))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert fingerprint() == before
        assert np.array_equal(answers[0][0], answers[1][0])
        assert answers[0][2] == answers[1][2]
        assert store.stats.resident_hits == 20
        assert all(r._distributions is None for r in results)  # queries stayed lazy

    def test_tier_stays_under_its_bounds(self, filled, monkeypatch):
        store, circuit = filled
        cut = _warm_pipeline(store, circuit).cut()
        one = store.stats.resident_bytes
        results = VariantExecutor().run(cut.subcircuits)
        monkeypatch.setattr(store_module, "_RESIDENT_MAX_ENTRIES", 4)
        for index in range(5):  # N + 1 distinct artifacts
            store.put_evaluation(f"e{index}", results)
            assert store.get_evaluation(f"e{index}", cut) is not None
            assert store.stats.resident_entries <= 4
        assert store.get_evaluation("e4", cut) is not None
        assert store.stats.resident_hits == 1  # the newest stayed
        monkeypatch.setattr(store_module, "_RESIDENT_MAX_BYTES", one)
        store.get_evaluation("e0", cut)
        assert store.stats.resident_bytes <= one
        # 200 cold jobs (lookup misses, then writes) admit nothing.
        held = store.stats.resident_entries
        for index in range(200):
            assert store.get_evaluation(f"cold{index}", cut) is None
            store.put_evaluation(f"cold{index}", results)
        assert store.stats.resident_entries == held

    def test_resident_hits_feed_the_metrics_registry(self, filled):
        from repro.obs.metrics import get_registry

        counter = get_registry().counter(
            "repro_store_resident_hits_total", "", ("kind",)
        )
        store, circuit = filled
        before = counter.value(kind="evaluation")
        _warm_pipeline(store, circuit)
        _warm_pipeline(store, circuit)
        assert counter.value(kind="evaluation") == before + 1
        assert "repro_store_resident_bytes" in get_registry().render()


class TestPinMarkers:
    def test_unbudgeted_store_writes_no_marker(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.pin("cut", "k")
        assert list((tmp_path / "store" / "pins").iterdir()) == []
        assert "cut-k" in store.pinned_tokens()  # still pinned in-process
        store.unpin("cut", "k")
        assert store.pinned_tokens() == set()

    def test_budgeted_store_honours_a_peers_marker(self, tmp_path):
        circuit, solution, cut = _cut_bv()
        peer = ArtifactStore(tmp_path / "store", max_bytes=1 << 30)
        peer.put_cut("k", circuit, cut, solution)
        peer.pin("cut", "k")
        assert len(list((tmp_path / "store" / "pins").iterdir())) == 1
        tight = ArtifactStore(tmp_path / "store", max_bytes=1)
        assert tight.enforce_budget() == []
        peer.unpin("cut", "k")
        assert tight.enforce_budget() == ["k"]

    def test_old_indented_artifacts_and_compact_documents_both_load(self, store):
        circuit, solution, cut = _cut_bv()
        path = store.put_cut("k", circuit, cut, solution)
        assert "\n  " in path.read_text()  # artifacts stay human-readable
        path.write_text(json.dumps(json.loads(path.read_text())))  # compact
        assert store.get_cut("k", circuit) is not None
        document = store.put_job_document("job-1", {"state": "done", "n": [1, 2]})
        assert document.read_text() == '{"state":"done","n":[1,2]}\n'
        assert store.put_trace("job-1", {"a": {"b": 1}}).read_text() == '{"a":{"b":1}}\n'
