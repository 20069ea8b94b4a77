"""Replicas agree: one job-state fold, checked under single faults.

Every way a :class:`~repro.service.JobRecord` moves — the executing
scheduler, a peer tailing the journal, a restarted scheduler replaying
it — goes through :meth:`JobRecord.apply`.  These tests hold the three
views equal, and sweep one injected journal or store fault over every
ordinal of a two-replica, three-job run: each job must finish on every
replica with the unfaulted answer.
"""

import ast
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import chaos
from repro.service import ArtifactStore, JobRecord, JobScheduler, JobSpec
from repro.service.api import JobServiceAPI
from repro.service.journal import JobJournal

_SERVICE = Path(__file__).resolve().parents[1] / "src" / "repro" / "service"
_TERMINAL = ("done", "failed", "cancelled")


@pytest.fixture(autouse=True)
def _chaos_off():
    chaos.configure(None)
    yield
    chaos.configure(None)


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


def _replica(store_dir, **options):
    options.setdefault("workers", 1)
    options.setdefault("journal_poll", 0.02)
    return JobScheduler(ArtifactStore(store_dir), **options)


def _wait_everywhere(schedulers, job_ids, timeout=60.0):
    """Block until every scheduler holds every job in a terminal state."""
    deadline = time.monotonic() + timeout
    for scheduler in schedulers:
        for job_id in job_ids:
            while True:
                try:
                    scheduler.wait(job_id, timeout=0.05)
                    break
                except (KeyError, TimeoutError):
                    assert time.monotonic() < deadline, (
                        f"{job_id} never finished on {scheduler.owner_id}"
                    )


def _events(store_dir, job_id):
    path = Path(store_dir) / "jobs" / "journal.jsonl"
    return [
        event for event in map(json.loads, path.read_text().splitlines())
        if event.get("job_id") == job_id
    ]


class TestFold:
    def _record(self):
        return JobRecord(job_id="job-1", spec=_bv_spec())

    def test_state_event_moves_and_copies_carried_fields(self):
        record = self._record()
        assert record.apply({
            "type": "state", "state": "cutting", "owner": "sched-a",
            "started_at": 5.0, "timings": {"cut": 1.0}, "ignored": 1,
        })
        assert record.state == "cutting"
        assert (record.owner, record.started_at) == ("sched-a", 5.0)
        assert record.timings == {"cut": 1.0}
        assert record.error is None  # absent from the event: untouched

    def test_terminal_state_is_never_left(self):
        record = self._record()
        assert record.apply({"type": "state", "state": "done",
                             "finished_at": 9.0})
        for event in (
            {"type": "state", "state": "querying"},
            {"type": "state", "state": "failed", "error": "late"},
            {"type": "cancel"},
        ):
            assert not record.apply(event)
        assert (record.state, record.error, record.finished_at) == (
            "done", None, 9.0
        )
        assert not record.cancel_requested

    def test_unknown_state_and_kind_are_ignored(self):
        record = self._record()
        assert not record.apply({"type": "state", "state": "exploded"})
        assert not record.apply({"type": "state"})
        assert not record.apply({"type": "submit", "state": "done"})
        assert record.state == "queued"

    def test_cancel_requests_a_live_job(self):
        record = self._record()
        assert record.apply({"type": "cancel"})
        assert record.cancel_requested and record.state == "queued"


class TestOneFoldGuard:
    def test_state_is_assigned_only_in_apply(self):
        """Nothing in the service package moves ``JobRecord.state`` except
        :meth:`JobRecord.apply`: no ``.state =``, no ``setattr(..,
        "state", ..)``, no ``update(state=...)`` or ``JobRecord(state=...)``."""
        offenders = []
        for path in sorted(_SERVICE.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name == "JobRecord":
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and item.name == "apply":
                            allowed.update(id(n) for n in ast.walk(item))
            for node in ast.walk(tree):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "state"
                        and id(target) not in allowed
                    ):
                        offenders.append(f"{path.name}:{node.lineno}")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name == "setattr" and len(node.args) > 1:
                    field = node.args[1]
                    if isinstance(field, ast.Constant) and field.value == "state":
                        offenders.append(f"{path.name}:{node.lineno}")
                if name in ("update", "JobRecord") and any(
                    keyword.arg == "state" for keyword in node.keywords
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestOldJournal:
    OWNER = "sched-1-abcdef"
    SPEC = {"benchmark": "bv", "qubits": 6, "device_size": 5, "top": 3}

    def _journal(self):
        spec, owner = self.SPEC, self.OWNER
        return [
            {"type": "submit", "job_id": "job-done", "ts": 100.0,
             "tenant": "default", "spec": spec},
            {"type": "submit", "job_id": "job-failed", "ts": 101.0,
             "tenant": "acme", "spec": dict(spec, tenant="acme", workers=2)},
            {"type": "submit", "job_id": "job-cancelled", "ts": 102.0,
             "tenant": "default", "spec": spec},
            {"type": "submit", "job_id": "job-queued", "ts": 103.0,
             "tenant": "default", "spec": dict(spec, sim_batch=0)},
            {"type": "state", "job_id": "job-done", "ts": 104.0,
             "state": "cutting", "owner": owner},
            {"type": "state", "job_id": "job-done", "ts": 105.0,
             "state": "evaluating", "owner": owner},
            {"type": "state", "job_id": "job-failed", "ts": 105.5,
             "state": "cutting", "owner": owner},
            {"type": "cancel", "job_id": "job-cancelled", "ts": 106.0},
            {"type": "state", "job_id": "job-cancelled", "ts": 106.0,
             "state": "cancelled", "owner": owner, "terminal": True},
            {"type": "state", "job_id": "job-done", "ts": 107.0,
             "state": "querying", "owner": owner},
            {"type": "state", "job_id": "job-failed", "ts": 108.0,
             "state": "failed", "owner": owner, "terminal": True,
             "error": "CutSearchError: no feasible cut",
             "timings": {"total": 0.25}, "cache_hits": {}},
            {"type": "state", "job_id": "job-done", "ts": 109.0,
             "state": "done", "owner": owner, "terminal": True, "error": None,
             "timings": {"cut": 0.5, "evaluate": 1.25, "query": 0.125,
                         "total": 2.0},
             "cache_hits": {"cut": False, "evaluate": True}},
        ]

    def test_parent_format_replays_to_the_same_records(self, tmp_path):
        """A journal whose terminal events carry only ``error``,
        ``timings`` and ``cache_hits`` (and finish at the event's ``ts``)
        replays to the records the earlier replay built."""
        root = tmp_path / "store"
        (root / "jobs").mkdir(parents=True)
        (root / "jobs" / "journal.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in self._journal())
        )
        empty = {"attempts": {}, "cache_hits": {}, "degraded": False,
                 "error": None, "execution": None, "fingerprints": {},
                 "finished_at": None, "owner": self.OWNER,
                 "started_at": None, "timings": {}, "tenant": "default"}
        want = {
            "job-done": dict(
                empty, state="done", submitted_at=100.0, finished_at=109.0,
                cache_hits={"cut": False, "evaluate": True},
                timings={"cut": 0.5, "evaluate": 1.25, "query": 0.125,
                         "total": 2.0},
            ),
            "job-failed": dict(
                empty, state="failed", submitted_at=101.0, finished_at=108.0,
                tenant="acme", error="CutSearchError: no feasible cut",
                timings={"total": 0.25},
            ),
            "job-cancelled": dict(
                empty, state="cancelled", submitted_at=102.0,
                finished_at=106.0,
            ),
            "job-queued": dict(
                empty, state="queued", submitted_at=103.0, owner=None,
            ),
        }
        scheduler = JobScheduler(
            ArtifactStore(root), workers=1, autostart=False
        )
        try:
            got = {}
            for record in scheduler.records():
                document = record.as_dict()
                document.pop("spec")
                got[document.pop("job_id")] = document
            assert got == want
            assert scheduler.queue_depth() == 1  # the never-started job
        finally:
            scheduler.shutdown()


class TestSubmitAppend:
    def test_one_failed_submit_append_is_retried(self, tmp_path):
        scheduler = _replica(tmp_path / "store")
        try:
            chaos.configure("journal_ioerror@at=1")
            job_id = scheduler.submit(_bv_spec())
            record = scheduler.wait(job_id, timeout=60)
            assert record.state == "done", record.error
            submitted = _events(tmp_path / "store", job_id)[0]
            assert submitted["type"] == "submit"
            assert record.submitted_at == submitted["ts"]
        finally:
            scheduler.shutdown()

    def test_a_submit_that_never_journals_leaves_no_job(self, tmp_path):
        scheduler = _replica(tmp_path / "store", retry_backoff=0.001)
        try:
            chaos.configure("journal_ioerror@nth=1")
            with pytest.raises(OSError, match="journal append"):
                scheduler.submit(_bv_spec())
            assert scheduler.records() == []
            assert scheduler.queue_depth() == 0
            assert scheduler.stats()["jobs"]["submitted"] == 0
        finally:
            scheduler.shutdown()


class TestReplicasAgree:
    def test_dropped_terminal_append_does_not_strand_the_peer(self, tmp_path):
        """The fifth append of a lone job is its terminal event; one
        failure there is retried, so the peer and a replaying replica
        both read ``done``."""
        store_dir = tmp_path / "store"
        owner = _replica(store_dir)
        peer = _replica(store_dir)
        try:
            chaos.configure("journal_ioerror@at=5")
            job_id = owner.submit(_bv_spec())
            _wait_everywhere([owner, peer], [job_id], timeout=30)
            assert owner.get(job_id).state == "done"
            assert peer.get(job_id).state == "done"
            chaos.configure(None)
            replayed = _replica(store_dir, autostart=False)
            try:
                assert replayed.get(job_id).state == "done"
            finally:
                replayed.shutdown()
        finally:
            owner.shutdown()
            peer.shutdown()

    def _assert_three_views_equal(self, store_dir, schedulers, job_id):
        _wait_everywhere(schedulers, [job_id])
        owner_id = schedulers[0].get(job_id).owner
        views = {s.owner_id: s.get(job_id).as_dict() for s in schedulers}
        replayed = _replica(store_dir, autostart=False)
        try:
            want = views[owner_id]
            for document in [*views.values(), replayed.get(job_id).as_dict()]:
                assert document == want
        finally:
            replayed.shutdown()
        return want

    def test_done_and_failed_status_documents_are_equal(self, tmp_path):
        store_dir = tmp_path / "store"
        a, b = _replica(store_dir), _replica(store_dir)
        try:
            done = a.submit(_bv_spec())
            failed = b.submit(JobSpec(
                benchmark="grover", qubits=5, device_size=4, max_cuts=2
            ))
            document = self._assert_three_views_equal(store_dir, [a, b], done)
            assert document["state"] == "done"
            assert document["started_at"] is not None
            assert set(document["fingerprints"]) == {"cut", "evaluate"}
            assert document["attempts"] == {"cut": 1, "evaluate": 1,
                                            "query": 1}
            assert document["execution"]["mode"]
            document = self._assert_three_views_equal(
                store_dir, [a, b], failed
            )
            assert document["state"] == "failed"
            assert "CutSearchError" in document["error"]
        finally:
            a.shutdown()
            b.shutdown()

    def test_degraded_status_documents_are_equal(self, tmp_path):
        store_dir = tmp_path / "store"
        a = _replica(store_dir, pool_workers=1)
        b = _replica(store_dir, pool_workers=1)
        try:
            chaos.configure("pool_down")
            job_id = a.submit(_bv_spec())
            document = self._assert_three_views_equal(
                store_dir, [a, b], job_id
            )
            assert document["state"] == "done"
            assert document["degraded"] is True
        finally:
            a.shutdown()
            b.shutdown()

    def test_a_peers_cancel_request_is_honoured_by_the_owner(
        self, tmp_path, monkeypatch
    ):
        """Only the owner moves a running job: a peer's cancel is a
        request the owner honours at its next stage boundary."""
        entered, release = threading.Event(), threading.Event()
        real_get_cut = ArtifactStore.get_cut

        def blocking_get_cut(store, key, circuit):
            entered.set()
            release.wait(30)
            return real_get_cut(store, key, circuit)

        monkeypatch.setattr(ArtifactStore, "get_cut", blocking_get_cut)
        store_dir = tmp_path / "store"
        a, b = _replica(store_dir), _replica(store_dir)
        try:
            job_id = a.submit(_bv_spec())
            assert entered.wait(30)
            owner_id = a.journal.claim_info(job_id)["owner"]
            owner, other = (a, b) if owner_id == a.owner_id else (b, a)
            deadline = time.monotonic() + 30
            while True:
                try:
                    other.get(job_id)
                    break
                except KeyError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            assert other.cancel(job_id) is True
            assert other.get(job_id).state not in _TERMINAL  # a request
            while not owner.get(job_id).cancel_requested:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            release.set()
            document = self._assert_three_views_equal(
                store_dir, [owner, other], job_id
            )
            assert document["state"] == "cancelled"
            assert document["owner"] == owner_id
        finally:
            release.set()
            a.shutdown()
            b.shutdown()


class TestShutdownRequeue:
    def test_in_flight_job_is_released_and_a_successor_finishes_it(
        self, tmp_path, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()

        def torn_query(self, pipeline, spec):
            entered.set()
            release.wait(30)
            raise OSError("store torn down under the job")

        monkeypatch.setattr(JobScheduler, "_run_query", torn_query)
        store_dir = tmp_path / "store"
        first = _replica(store_dir)
        job_id = first.submit(_bv_spec())
        assert entered.wait(60)
        closer = threading.Thread(target=first.shutdown)
        closer.start()
        while not first._shutdown:
            time.sleep(0.01)
        release.set()
        closer.join(60)
        record = first.get(job_id)
        assert record.state == "queued"
        assert record.started_at is None
        assert first.journal.claim_info(job_id) is None
        assert _events(store_dir, job_id)[-1]["state"] == "queued"

        monkeypatch.undo()
        successor = _replica(store_dir)
        try:
            done = successor.wait(job_id, timeout=60)
            assert done.state == "done", done.error
            assert done.cache_hits == {"cut": True, "evaluate": True}
            assert done.owner == successor.owner_id
        finally:
            successor.shutdown()


def _dead_pid():
    """A pid guaranteed to name no live process."""
    probe = subprocess.Popen([sys.executable, "-c", ""])
    probe.wait()
    return probe.pid


class TestLiveAdoption:
    def _start_elsewhere(self, store_dir, claim=None):
        """Journal a job as started by a scheduler that is not running
        here, holding ``claim`` (a claim document, or none at all)."""
        journal = JobJournal(Path(store_dir) / "jobs")
        job_id, spec = "job-elsewhere", _bv_spec()
        journal.append("submit", job_id, owner="sched-gone",
                       tenant=spec.tenant, spec=spec.to_dict())
        if claim is not None:
            journal.claim_path(job_id).write_text(json.dumps(claim))
        journal.append("state", job_id, owner="sched-gone", state="cutting",
                       started_at=time.time())
        journal.close()
        return job_id

    def test_a_claim_from_another_host_is_not_stolen(self, tmp_path):
        """A dead-looking pid on another host's claim says nothing about
        that host: a live peer's tail polls leave the job alone."""
        store_dir = tmp_path / "store"
        peer = _replica(store_dir, autostart=False)
        try:
            job_id = self._start_elsewhere(store_dir, claim={
                "owner": "sched-gone", "host": "another-host",
                "pid": _dead_pid(), "ts": time.time(),
            })
            for _ in range(3):
                peer._follow_journal()  # one tail poll
            assert peer.get(job_id).state == "cutting"
            assert peer.journal.claim_info(job_id)["owner"] == "sched-gone"
            assert [e.get("state") for e in _events(store_dir, job_id)] == [
                None, "cutting"
            ]
        finally:
            peer.shutdown()

    def test_a_running_job_without_a_claim_is_adopted(self, tmp_path):
        """A replica that released its claim but failed to journal the
        requeue leaves a running, unclaimed job: a live peer's next tail
        poll adopts it."""
        store_dir = tmp_path / "store"
        peer = _replica(store_dir, autostart=False)
        try:
            job_id = self._start_elsewhere(store_dir)
            peer._follow_journal()  # one tail poll
            assert peer.get(job_id).state == "queued"
            assert peer.journal.claim_info(job_id)["owner"] == peer.owner_id
            peer.start()
            record = peer.wait(job_id, timeout=60)
            assert record.state == "done", record.error
            assert record.owner == peer.owner_id
        finally:
            peer.shutdown()

    def test_a_job_queued_twice_runs_once(self, tmp_path, monkeypatch):
        """Two workers that both pop one job and both hold its claim
        before either starts it: only one runs it."""
        both_claimed = threading.Barrier(2, timeout=30)
        real_claim = JobScheduler._claim
        real_execute = JobScheduler._execute_degradable
        runs = []

        def claim_together(scheduler, job_id):
            claimed = real_claim(scheduler, job_id)
            both_claimed.wait()
            return claimed

        def counted_execute(scheduler, record):
            runs.append(record.job_id)
            return real_execute(scheduler, record)

        monkeypatch.setattr(JobScheduler, "_claim", claim_together)
        monkeypatch.setattr(
            JobScheduler, "_execute_degradable", counted_execute
        )
        scheduler = _replica(tmp_path / "store", workers=2, autostart=False)
        try:
            job_id = scheduler.submit(_bv_spec())
            scheduler._queue.push(scheduler.get(job_id).spec.tenant, job_id)
            scheduler.start()
            record = scheduler.wait(job_id, timeout=60)
            assert record.state == "done", record.error
            assert runs == [job_id]
            states = [e.get("state") for e in _events(tmp_path / "store",
                                                      job_id)]
            assert states.count("cutting") == 1
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Single-fault sweep: two replicas, three jobs, one fault at ordinal N.
# ----------------------------------------------------------------------
_SWEEP_SPECS = (
    {"query": "fd", "top": 3},
    {"query": "dd", "active": 2, "recursions": 4},
    {"query": "top_k", "shard_qubits": 2},
)


def _run_scenario(store_dir):
    """Run the three jobs over two replicas, then replay on a third; every
    replica's ``GET /result`` answer, by job."""
    a, b = _replica(store_dir), _replica(store_dir)
    try:
        job_ids = [
            (a, b, a)[index].submit(_bv_spec(**overrides))
            for index, overrides in enumerate(_SWEEP_SPECS)
        ]
        _wait_everywhere([a, b], job_ids)
        chaos.configure(None)
        third = _replica(store_dir, autostart=False)
        try:
            answers = {}
            for scheduler in (a, b, third):
                api = JobServiceAPI(scheduler)
                for job_id in job_ids:
                    record = scheduler.get(job_id)
                    assert record.state == "done", (
                        scheduler.owner_id, record.state, record.error
                    )
                    document = api.job_result(job_id)
                    answers.setdefault(job_id, []).append(
                        _stable(document["result"])
                    )
            return [answers[job_id] for job_id in job_ids]
        finally:
            third.shutdown()
    finally:
        a.shutdown()
        b.shutdown()


@pytest.fixture(scope="module")
def clean_answers(tmp_path_factory):
    chaos.configure(None)
    answers = _run_scenario(tmp_path_factory.mktemp("clean") / "store")
    return [views[0] for views in answers]


@pytest.mark.parametrize(
    "fault",
    [f"journal_ioerror@at={n}" for n in range(1, 17)]
    + [f"store_ioerror@at={n}" for n in range(1, 25)],
)
def test_single_fault_sweep(fault, tmp_path, clean_answers):
    chaos.configure(fault)
    answers = _run_scenario(tmp_path / "store")
    for views, want in zip(answers, clean_answers):
        assert views == [want] * 3
