"""Deterministic fault injection (:mod:`repro.chaos`) end to end.

This module is the fault-tolerance acceptance suite: every scenario
drives a *real* pipeline — pooled contractions, scheduler jobs, the HTTP
front — with chaos configured, and asserts the system recovers to the
bit-identical answer an unfaulted run produces:

* a worker SIGKILL'd mid-task is respawned and its task transparently
  re-executed (``worker_respawns``/``task_retries`` observable);
* a hung worker is detected via the per-task deadline, killed and its
  task retried;
* a task that kills its worker on *every* attempt is quarantined after
  its attempt budget — it fails alone, the pool survives;
* a pool whose respawn budget is exhausted turns unrecoverable, and the
  scheduler degrades the job to serial in-process evaluation
  (``degraded=true``) instead of failing it;
* transient store IO errors are absorbed by the staged-retry policy;
* a corrupted artifact is detected by checksum and recomputed;
* the overloaded front door answers a typed 503.
"""

import numpy as np
import pytest

from repro import CutQC, chaos
from repro.faults import (
    ChaosInjectedError,
    PoisonedTaskError,
    PoolUnrecoverableError,
    TransientFault,
    WorkerCrashError,
    is_transient,
)
from repro.library import bv
from repro.obs.metrics import get_registry
from repro.postprocess import ContractionEngine, WorkerPool
from repro.postprocess.attribution import build_term_tensor
from repro.service import ArtifactStore, JobScheduler, JobSpec
from repro.service.api import ApiError, JobServiceAPI
from tests.variant_oracle import evaluate_subcircuit


@pytest.fixture(autouse=True)
def _chaos_off():
    """Every test starts and ends with chaos fully deactivated."""
    chaos.configure(None)
    yield
    chaos.configure(None)


@pytest.fixture(scope="module")
def contraction_case():
    """A small contraction batch plus its serially computed truth."""
    cut = CutQC(bv(8), max_subcircuit_qubits=5).cut()
    tensors = [build_term_tensor(evaluate_subcircuit(s))
               for s in cut.subcircuits]
    order = list(range(len(tensors)))
    batch = [(tensors, order, cut.num_cuts)] * 3
    serial = ContractionEngine(strategy="kron").contract_batch(batch)
    return batch, serial


def _bv_spec(**overrides):
    spec = {"benchmark": "bv", "qubits": 6, "device_size": 5, "query": "fd",
            "top": 3}
    spec.update(overrides)
    return JobSpec(**spec)


def _stable(result):
    document = dict(result)
    document.pop("elapsed_seconds", None)
    document.pop("stats", None)
    document.pop("stream", None)
    return document


class TestSpecGrammar:
    def test_parse_full_grammar(self):
        rules = chaos.parse_spec(
            "worker_exit@task=7;store_ioerror@p=0.1;slow_task=2.5s;"
            "corrupt_artifact@nth=3"
        )
        by_name = {rule.name: rule for rule in rules}
        assert by_name["worker_exit"].at == 7
        assert by_name["store_ioerror"].p == 0.1
        assert by_name["slow_task"].param == "2.5s"
        assert by_name["corrupt_artifact"].nth == 3

    def test_unknown_rule_and_selector_raise(self):
        with pytest.raises(ValueError, match="unknown chaos rule"):
            chaos.parse_spec("frobnicate")
        with pytest.raises(ValueError, match="unknown chaos selector"):
            chaos.parse_spec("worker_exit@when=later")

    def test_at_fires_once_and_skips_retries_unless_every(self):
        once, = chaos.parse_spec("worker_exit@task=3")
        assert not once.fires(ordinal=2, attempt=1)
        assert once.fires(ordinal=3, attempt=1)
        assert not once.fires(ordinal=3, attempt=2)  # retry survives
        always, = chaos.parse_spec("worker_exit@task=3@every")
        assert always.fires(ordinal=3, attempt=1)
        assert always.fires(ordinal=3, attempt=2)  # poisoned outright

    def test_p_selector_is_seed_deterministic(self):
        draws = []
        for _ in range(2):
            rule, = chaos.parse_spec("store_ioerror@p=0.5", seed=7)
            draws.append([rule.fires() for _ in range(32)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_configure_exports_and_clears_environment(self, monkeypatch):
        import os
        chaos.configure("slow_task=0.1", seed=3)
        assert chaos.enabled()
        assert chaos.active_spec() == "slow_task=0.1"
        assert os.environ["CHAOS_SPEC"] == "slow_task=0.1"
        assert os.environ["CHAOS_SEED"] == "3"
        chaos.configure(None)
        assert not chaos.enabled()
        assert "CHAOS_SPEC" not in os.environ
        assert "CHAOS_SEED" not in os.environ

    def test_disabled_hooks_are_inert(self):
        assert not chaos.enabled()
        chaos.on_worker_task(1, 1)
        chaos.on_pool_dispatch()
        chaos.on_store_read("cut")
        chaos.on_journal_append()
        assert chaos.on_store_write(b"payload") == b"payload"

    def test_taxonomy(self):
        assert is_transient(WorkerCrashError("boom"))
        assert is_transient(TransientFault("boom"))
        assert is_transient(OSError("disk sneeze"))
        assert not is_transient(PoolUnrecoverableError("dead"))
        assert not is_transient(PoisonedTaskError("poisoned"))
        assert not is_transient(ValueError("caller bug"))
        assert isinstance(ChaosInjectedError("x"), RuntimeError)


class TestPoolChaos:
    def test_worker_kill_respawns_and_matches_serial(self, contraction_case):
        """The headline recovery proof: SIGKILL mid-batch, bit-identical
        answer, one respawn and one retry on the books."""
        batch, serial = contraction_case
        respawns = get_registry().counter("repro_pool_worker_respawns_total")
        before = respawns.value()
        chaos.configure("worker_exit@task=2")
        with WorkerPool(workers=2) as pool:
            pooled = pool.contract_batch(batch, strategy="kron")
            stats = pool.stats()
        assert stats.worker_respawns == 1
        assert stats.task_retries == 1
        assert stats.tasks_failed == 0
        assert stats.tasks_quarantined == 0
        assert not pool.broken
        assert respawns.value() == before + 1
        for got, want in zip(pooled, serial):
            assert np.array_equal(got.vector, want.vector)
            np.testing.assert_allclose(got.vector, want.vector, atol=1e-10)
            assert got.num_skipped == want.num_skipped

    def test_hung_worker_is_killed_and_task_retried(self, contraction_case):
        """A task sleeping past ``task_timeout`` is treated as a death:
        the worker is killed, respawned, and the task re-run cleanly."""
        batch, serial = contraction_case
        chaos.configure("slow_task=30@task=1")
        with WorkerPool(workers=1, task_timeout=1.0) as pool:
            pooled = pool.contract_batch(batch[:1], strategy="kron")
            stats = pool.stats()
        assert stats.worker_respawns >= 1
        assert stats.task_retries >= 1
        assert stats.tasks_failed == 0
        assert np.array_equal(pooled[0].vector, serial[0].vector)

    def test_poisoned_task_is_quarantined_pool_survives(
        self, contraction_case
    ):
        """``@every`` re-kills on retry: after the attempt budget the task
        fails alone with PoisonedTaskError; the pool keeps serving."""
        batch, serial = contraction_case
        chaos.configure("worker_exit@task=1@every")
        with WorkerPool(
            workers=1, max_task_attempts=2, max_worker_respawns=10
        ) as pool:
            with pytest.raises(PoisonedTaskError, match="quarantined"):
                pool.contract_batch(batch[:1], strategy="kron")
            assert not pool.broken
            assert pool.stats().tasks_quarantined == 1
            # The next task (global id 2) is untargeted and sails through.
            pooled = pool.contract_batch(batch[:1], strategy="kron")
        assert np.array_equal(pooled[0].vector, serial[0].vector)

    def test_respawn_budget_exhaustion_marks_pool_broken(
        self, contraction_case
    ):
        batch, _ = contraction_case
        chaos.configure("worker_exit@task=1@every")
        with WorkerPool(workers=1, max_worker_respawns=0) as pool:
            with pytest.raises(PoolUnrecoverableError, match="respawn"):
                pool.contract_batch(batch[:1], strategy="kron")
            assert pool.broken
            # Once broken, every dispatch refuses fast — no new workers.
            with pytest.raises(PoolUnrecoverableError):
                pool.contract_batch(batch[:1], strategy="kron")

    def test_injected_task_error_is_not_retried(self, contraction_case):
        """Task exceptions are the caller's bug, not the pool's: they
        surface on first occurrence instead of burning retries."""
        batch, _ = contraction_case
        chaos.configure("task_error@task=1")
        with WorkerPool(workers=1) as pool:
            with pytest.raises(ChaosInjectedError):
                pool.contract_batch(batch[:1], strategy="kron")
            stats = pool.stats()
        assert stats.task_retries == 0
        assert stats.tasks_failed == 1
        assert not pool.broken


class TestSchedulerChaos:
    def test_transient_store_error_is_retried(self, tmp_path):
        """One injected OSError on the first cut-cache read: the stage
        retries and the job completes as if nothing happened."""
        retries = get_registry().counter(
            "repro_scheduler_stage_retries_total", labelnames=("stage",)
        )
        before = retries.value(stage="cut")
        scheduler = JobScheduler(ArtifactStore(tmp_path / "store"), workers=1)
        try:
            chaos.configure("store_ioerror@at=1")
            record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert record.state == "done", record.error
            assert record.attempts["cut"] == 2
            assert record.degraded is False
            assert record.result["top_states"][0]["state"] == "111111"
            assert retries.value(stage="cut") == before + 1
            assert record.as_dict()["attempts"]["cut"] == 2
        finally:
            scheduler.shutdown()

    def test_permanent_store_error_fails_after_budget(self, tmp_path):
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1,
            max_retries=1, retry_backoff=0.01,
        )
        try:
            chaos.configure("store_ioerror@nth=1")  # every consultation
            record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert record.state == "failed"
            assert "chaos: injected store read error" in record.error
            assert record.attempts["cut"] == 2  # 1 try + max_retries
        finally:
            scheduler.shutdown()

    def test_corrupt_artifact_is_detected_and_recomputed(self, tmp_path):
        """Bit-flipped cut artifact: the checksum turns the warm read
        into a recorded corrupt miss and the stage recomputes."""
        store = ArtifactStore(tmp_path / "store")
        scheduler = JobScheduler(store, workers=1)
        try:
            chaos.configure("corrupt_artifact@at=1")  # first store write
            cold = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert cold.state == "done", cold.error
            chaos.configure(None)
            second = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert second.state == "done", second.error
            # The corrupted cut can't serve the warm path; the evaluation
            # artifact (written after the targeted first write) still does.
            assert second.cache_hits == {"cut": False, "evaluate": True}
            assert _stable(second.result) == _stable(cold.result)
            assert store.as_dict()["corrupt"] >= 1
        finally:
            scheduler.shutdown()

    def test_read_hook_fires_once_per_lookup_on_resident_hits_too(
        self, tmp_path
    ):
        """Warm jobs are served from the store's resident tier; the fault
        site in front of it must still be consulted exactly once each."""
        retries = get_registry().counter(
            "repro_scheduler_stage_retries_total", labelnames=("stage",)
        )
        store = ArtifactStore(tmp_path / "store")
        scheduler = JobScheduler(store, workers=1)
        try:
            for _ in range(3):  # cold, disk-warm (admits), resident-warm
                done = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert store.stats.resident_hits == 2
            before = retries.value(stage="evaluate")
            # Lookups of the next job: cut = 1, evaluation = 2.
            chaos.configure("store_ioerror@at=2")
            record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert record.state == "done", record.error
            assert record.attempts == {"cut": 1, "evaluate": 2, "query": 1}
            assert retries.value(stage="evaluate") == before + 1
            assert record.cache_hits == {"cut": True, "evaluate": True}
            assert _stable(record.result) == _stable(done.result)
            assert store.stats.resident_hits == 4
        finally:
            scheduler.shutdown()

    def test_pool_down_degrades_job_instead_of_failing(self, tmp_path):
        degraded_gauge = get_registry().gauge("repro_scheduler_degraded_mode")
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, pool_workers=1
        )
        try:
            chaos.configure("pool_down")
            record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert record.state == "done", record.error
            assert record.degraded is True
            assert record.as_dict()["degraded"] is True
            assert record.result["top_states"][0]["state"] == "111111"
            assert degraded_gauge.value() == 1
            assert scheduler.stats()["jobs"]["degraded"] == 1
        finally:
            scheduler.shutdown()
            degraded_gauge.set(0)

    def test_no_degrade_surfaces_pool_failure(self, tmp_path):
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, pool_workers=1,
            degrade=False,
        )
        try:
            chaos.configure("pool_down")
            record = scheduler.wait(scheduler.submit(_bv_spec()), timeout=60)
            assert record.state == "failed"
            assert "unrecoverable" in record.error
            assert record.degraded is False
        finally:
            scheduler.shutdown()


class TestOverload:
    def test_typed_503_mirrors_quota_shape(self, tmp_path, monkeypatch):
        rejections = get_registry().counter("repro_overload_rejections_total")
        scheduler = JobScheduler(ArtifactStore(tmp_path / "store"), workers=1)
        try:
            api = JobServiceAPI(scheduler, max_pending=2)
            monkeypatch.setattr(scheduler, "queue_depth", lambda: 2)
            before = rejections.value()
            with pytest.raises(ApiError) as excinfo:
                api.create_job(_bv_spec().to_dict())
            assert excinfo.value.status == 503
            document = excinfo.value.as_dict()
            assert document["code"] == "overloaded"
            assert document["limit"] == 2
            assert document["pending"] == 2
            assert rejections.value() == before + 1
            # Below the bound, submissions are admitted normally.
            monkeypatch.setattr(scheduler, "queue_depth", lambda: 1)
            created = api.create_job(_bv_spec().to_dict())
            assert scheduler.wait(
                created["job_id"], timeout=60
            ).state == "done"
        finally:
            scheduler.shutdown()

    def test_max_pending_validation(self, tmp_path):
        scheduler = JobScheduler(ArtifactStore(tmp_path / "store"), workers=1)
        try:
            with pytest.raises(ValueError, match="max_pending"):
                JobServiceAPI(scheduler, max_pending=0)
        finally:
            scheduler.shutdown()


class TestHttpChaos:
    def test_faulted_job_recovers_end_to_end_with_metrics(self, tmp_path):
        """The acceptance scenario over the real HTTP surface: a worker
        kill plus a transient store error inside one job, which still
        completes with the right answer; /metrics shows the respawn and
        the stage retry; overload answers a typed 503."""
        import time

        from repro.service import JobServer, ServiceClientError, request_json

        respawns = get_registry().counter("repro_pool_worker_respawns_total")
        retries = get_registry().counter(
            "repro_scheduler_stage_retries_total", labelnames=("stage",)
        )
        respawns_before = respawns.value()
        retries_before = retries.value(stage="cut")
        with JobServer(
            store_dir=tmp_path / "store", port=0, workers=1,
            pool_workers=2, max_pending=8,
        ) as server:
            server.start()
            chaos.configure("worker_exit@task=1;store_ioerror@at=1")
            created = request_json(
                "POST", f"{server.url}/jobs",
                payload={
                    "circuit": {"benchmark": "bv", "qubits": 6, "seed": 0},
                    "device_size": 5,
                    "query": {"type": "fd", "top": 3},
                },
            )
            deadline = time.monotonic() + 120
            while True:
                status = request_json(
                    "GET", f"{server.url}/jobs/{created['job_id']}"
                )
                if status["state"] in ("done", "failed", "cancelled"):
                    break
                assert time.monotonic() < deadline, f"job stuck: {status}"
                time.sleep(0.02)
            assert status["state"] == "done", status.get("error")
            assert status["attempts"]["cut"] == 2
            assert status["degraded"] is False
            result = request_json(
                "GET", f"{server.url}/jobs/{created['job_id']}/result"
            )
            assert result["result"]["top_states"][0]["state"] == "111111"
            assert respawns.value() == respawns_before + 1
            assert retries.value(stage="cut") == retries_before + 1

            import urllib.request
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                text = response.read().decode()
            assert "repro_pool_worker_respawns_total" in text
            assert "repro_scheduler_stage_retries_total" in text
            assert "repro_chaos_injections_total" in text

            # Front-door overload: force the accept queue over max_pending.
            original = server.scheduler.queue_depth
            server.scheduler.queue_depth = lambda: 8
            try:
                with pytest.raises(ServiceClientError) as excinfo:
                    request_json(
                        "POST", f"{server.url}/jobs",
                        payload={"benchmark": "bv", "qubits": 6,
                                 "device_size": 5, "query": "fd"},
                    )
                assert excinfo.value.status == 503
                assert excinfo.value.document["code"] == "overloaded"
            finally:
                server.scheduler.queue_depth = original
