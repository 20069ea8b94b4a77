"""Durability hardening: journal replay, claim exclusivity, kill recovery.

The acceptance test of the durable service: SIGKILL a scheduler process
mid-stage, start a fresh one on the same store, and assert the job
*resumes* from its checkpointed stages (store cache hits on cut and
evaluate) and finishes bit-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    ArtifactStore,
    JobJournal,
    JobScheduler,
    JobServer,
    JobSpec,
    request_json,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def _replay_with_legacy_field(tmp_path, field, values):
    """Journal two done jobs and one queued job, write ``field`` into
    their journaled specs, and restart: every job must replay."""
    store_dir = tmp_path / "store"
    first = JobScheduler(ArtifactStore(store_dir), workers=1)
    done_ids = [first.submit(_bv_spec(top=top)) for top in (3, 4)]
    done = {job_id: first.wait(job_id, timeout=60) for job_id in done_ids}
    first.shutdown()
    parked = JobScheduler(
        ArtifactStore(store_dir), workers=1, autostart=False
    )
    queued_id = parked.submit(_bv_spec(top=5))
    parked.shutdown()

    journal_path = store_dir / "jobs" / "journal.jsonl"
    events = [json.loads(line) for line in journal_path.read_text().splitlines()]
    submits = [event for event in events if event["type"] == "submit"]
    assert len(submits) == 3
    for event, value in zip(submits, values):
        event["spec"][field] = value
    journal_path.write_text(
        "".join(json.dumps(event) + "\n" for event in events)
    )

    second = JobScheduler(ArtifactStore(store_dir), workers=1)
    try:
        for job_id, want in done.items():
            record = second.get(job_id)
            assert record.state == "done"
            second.load_persisted(record)
            assert _stable(record.result) == _stable(want.result)
        adopted = second.wait(queued_id, timeout=60)
        assert adopted.state == "done", adopted.error
        assert adopted.result["top_states"][0]["state"] == "111111"
        assert field not in adopted.spec.to_dict()
    finally:
        second.shutdown()


def _dead_pid():
    """A pid guaranteed to name no live process."""
    probe = subprocess.Popen([sys.executable, "-c", ""])
    probe.wait()
    return probe.pid


def _kill_child_mid_query(tmp_path, before_kill=None):
    """Run one bv job in a child scheduler process, SIGKILL it once cut
    and evaluate are checkpointed and the query has begun, and return
    the job id.  ``before_kill`` runs while the child still holds the
    job."""
    store_dir = tmp_path / "store"
    marker = tmp_path / "querying.marker"
    child_code = (
        "import sys, time\n"
        "store_dir, marker = sys.argv[1], sys.argv[2]\n"
        "from repro.service import ArtifactStore, JobScheduler, JobSpec\n"
        "def hang(self, pipeline, spec):\n"
        "    open(marker, 'w').write('querying')\n"
        "    time.sleep(600)\n"
        "JobScheduler._run_query = hang\n"
        "scheduler = JobScheduler(ArtifactStore(store_dir), workers=1)\n"
        "spec = JobSpec(device_size=5, benchmark='bv', qubits=6,\n"
        "               query='fd', top=3)\n"
        "open(marker + '.job', 'w').write(scheduler.submit(spec))\n"
        "time.sleep(600)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    child = subprocess.Popen(
        [sys.executable, "-c", child_code, str(store_dir), str(marker)],
        env=env,
    )
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():
            assert child.poll() is None, "child scheduler died early"
            assert time.monotonic() < deadline, "child never reached query"
            time.sleep(0.05)
        job_id = (tmp_path / "querying.marker.job").read_text().strip()
        if before_kill is not None:
            before_kill()
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    return job_id


class TestJournalLog:
    def test_append_then_tail_reads_once(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.append("submit", "job-1", tenant="acme")
        journal.append("state", "job-1", state="cutting")
        events = journal.read_new()
        assert [e["type"] for e in events] == ["submit", "state"]
        assert events[0]["tenant"] == "acme"
        assert journal.read_new() == []  # offset advanced
        journal.append("cancel", "job-1")
        assert [e["type"] for e in journal.read_new()] == ["cancel"]

    def test_rewind_replays_from_the_top(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.append("submit", "job-1")
        journal.read_new()
        journal.rewind()
        assert len(journal.read_new()) == 1

    def test_incomplete_and_garbage_lines_are_tolerated(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.append("submit", "job-1")
        with open(journal.path, "ab") as stream:
            stream.write(b"not json at all\n")
            stream.write(b'{"type":"state","job_id":"job-1"')  # torn line
        events = journal.read_new()
        assert [e["type"] for e in events] == ["submit"]
        # Completing the torn line makes it readable on the next tail.
        with open(journal.path, "ab") as stream:
            stream.write(b',"state":"cutting"}\n')
        assert [e["state"] for e in journal.read_new()] == ["cutting"]

    def test_corrupt_middle_line_is_skipped_counted_and_survived(
        self, tmp_path
    ):
        """A torn line in the *middle* of the log must not hide the
        records appended after it — skip it, count it, keep reading."""
        from repro.obs.metrics import get_registry

        torn = get_registry().counter("repro_journal_torn_lines_total")
        before = torn.value()
        journal = JobJournal(tmp_path / "jobs")
        journal.append("submit", "job-1")
        with open(journal.path, "ab") as stream:
            stream.write(b'{"type":"state","job_id":"job-1","st\xff\xfe}\n')
        journal.append("state", "job-1", state="cutting")
        journal.append("state", "job-1", state="done")
        events = journal.read_new()
        assert [e["type"] for e in events] == ["submit", "state", "state"]
        assert events[-1]["state"] == "done"
        assert torn.value() == before + 1
        # The offset advanced past the torn line: no re-count on re-read.
        assert journal.read_new() == []
        assert torn.value() == before + 1
        # A fresh handle replaying the whole log counts it once more but
        # still recovers every valid record.
        replayer = JobJournal(tmp_path / "jobs")
        assert [e["type"] for e in replayer.read_new()] == [
            "submit", "state", "state"
        ]
        assert torn.value() == before + 2

    def test_two_handles_share_one_log(self, tmp_path):
        writer = JobJournal(tmp_path / "jobs")
        reader = JobJournal(tmp_path / "jobs")
        writer.append("submit", "job-1")
        assert [e["job_id"] for e in reader.read_new()] == ["job-1"]

    def test_two_processes_on_held_descriptors_never_interleave(self, tmp_path):
        """Each writer keeps one O_APPEND descriptor for all its appends;
        long lines from two processes still land whole."""
        from repro.obs.metrics import get_registry

        script = (
            "import sys\n"
            "from repro.service import JobJournal\n"
            "journal = JobJournal(sys.argv[1])\n"
            "fd = journal._descriptor()\n"
            "for index in range(300):\n"
            "    journal.append('state', sys.argv[2], index=index, pad='x' * 5000)\n"
            "assert journal._descriptor() == fd\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / "jobs"), name],
                env=env,
            )
            for name in ("job-a", "job-b")
        ]
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        torn = get_registry().counter("repro_journal_torn_lines_total")
        before = torn.value()
        events = JobJournal(tmp_path / "jobs").read_new()
        assert torn.value() == before
        for name in ("job-a", "job-b"):
            mine = [e["index"] for e in events if e["job_id"] == name]
            assert mine == list(range(300))
        assert all(e["pad"] == "x" * 5000 for e in events)

    def test_append_reopens_after_the_log_was_replaced(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.append("submit", "job-1")
        rotated = tmp_path / "jobs" / "journal.rotated"
        os.replace(journal.path, rotated)  # e.g. an operator's log rotation
        journal.append("submit", "job-2")
        assert [e["job_id"] for e in JobJournal(tmp_path / "jobs").read_new()] == [
            "job-2"
        ]
        assert rotated.read_text().count("\n") == 1
        journal.close()
        journal.append("submit", "job-3")  # a closed journal re-opens too
        journal.rewind()
        assert [e["job_id"] for e in journal.read_new()] == ["job-2", "job-3"]


class TestClaims:
    def test_claim_is_exclusive_but_idempotent_per_owner(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        assert journal.claim("job-1", "sched-a")
        assert journal.claim("job-1", "sched-a")  # re-entry is fine
        assert not journal.claim("job-1", "sched-b")
        info = journal.claim_info("job-1")
        assert info["owner"] == "sched-a"
        assert not journal.claim_is_stale(info)  # we are alive

    def test_stale_claim_is_stolen_live_claim_is_not(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.claim("job-1", "sched-a")
        # A live foreign claim must never be stolen.
        assert not journal.steal_claim("job-1", "sched-b")
        # Rewrite the claim as if its holder died.
        journal.claim_path("job-1").write_text(json.dumps(
            {"owner": "sched-a", "pid": _dead_pid(), "ts": 0.0}
        ))
        assert journal.claim_is_stale(journal.claim_info("job-1"))
        assert journal.steal_claim("job-1", "sched-b")
        assert journal.claim_info("job-1")["owner"] == "sched-b"

    def test_only_a_claim_written_on_this_host_can_be_stale(self, tmp_path):
        """A pid names a process only on its own host: a claim written
        elsewhere is never judged by a local pid probe."""
        journal = JobJournal(tmp_path / "jobs")
        journal.claim("job-1", "sched-a")
        info = journal.claim_info("job-1")
        dead = _dead_pid()
        journal.claim_path("job-1").write_text(json.dumps(
            dict(info, pid=dead, host=info["host"] + "-elsewhere")
        ))
        assert not journal.claim_is_stale(journal.claim_info("job-1"))
        assert not journal.steal_claim("job-1", "sched-b")
        # A claim written before claims carried a host counts as local.
        journal.claim_path("job-1").write_text(json.dumps(
            {"owner": "sched-a", "pid": dead, "ts": 0.0}
        ))
        assert journal.steal_claim("job-1", "sched-b")

    def test_release_claim_only_drops_our_own(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.claim("job-1", "sched-a")
        journal.release_claim("job-1", "sched-b")  # not ours: no-op
        assert journal.claim_info("job-1") is not None
        journal.release_claim("job-1", "sched-a")
        assert journal.claim_info("job-1") is None
        assert journal.claim("job-1", "sched-b")


class TestRestartRecovery:
    def test_restart_resumes_queued_job(self, tmp_path):
        first = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, autostart=False
        )
        job_id = first.submit(_bv_spec())
        first.shutdown()
        # A fresh scheduler on the same store replays the journal and
        # adopts the never-started job.
        second = JobScheduler(ArtifactStore(tmp_path / "store"), workers=1)
        try:
            record = second.wait(job_id, timeout=60)
            assert record.state == "done"
            assert record.owner == second.owner_id
        finally:
            second.shutdown()

    def test_restart_mirrors_terminal_jobs_with_results(self, tmp_path):
        first = JobScheduler(ArtifactStore(tmp_path / "store"), workers=1)
        job_id = first.submit(_bv_spec())
        done = first.wait(job_id, timeout=60)
        first.shutdown()
        second = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, autostart=False
        )
        try:
            record = second.get(job_id)
            assert record.state == "done"
            assert record.timings  # carried by the terminal journal event
            assert record.cache_hits == {"cut": False, "evaluate": False}
            # The (large) result rehydrates lazily from the store.
            assert record.result is None
            second.load_persisted(record)
            assert _stable(record.result) == _stable(done.result)
        finally:
            second.shutdown()

    def test_journal_with_legacy_workers_field_replays_every_job(
        self, tmp_path
    ):
        """Specs journaled while ``workers`` was a JobSpec field carry it
        (``to_dict`` wrote every field); replay drops the key at any
        value instead of skipping the job as malformed."""
        _replay_with_legacy_field(tmp_path, "workers", (1, 3, 3))

    def test_journal_with_legacy_sim_batch_field_replays_every_job(
        self, tmp_path
    ):
        """The same for ``sim_batch``, at the per-variant value and the
        batched one: every job replays and evaluates batched."""
        _replay_with_legacy_field(tmp_path, "sim_batch", (0, 256, 0))

    def test_journal_with_legacy_fusion_width_field_replays_every_job(
        self, tmp_path
    ):
        """The same for ``fusion_width``, at the old default and a wider
        value: bodies fuse at one fixed width, and every job replays."""
        _replay_with_legacy_field(tmp_path, "fusion_width", (2, 4, 2))

    def test_kill_mid_stage_then_restart_resumes_not_restarts(self, tmp_path):
        """SIGKILL the executing process after cut+evaluate checkpointed:
        the successor must resume (cache hits on both stages) and produce
        a result bit-identical to an uninterrupted run."""
        store_dir = tmp_path / "store"
        job_id = _kill_child_mid_query(tmp_path)
        successor = JobScheduler(ArtifactStore(store_dir), workers=1)
        try:
            record = successor.wait(job_id, timeout=60)
            assert record.state == "done", record.error
            # Resumed, not restarted: both checkpointed stages were
            # restored from the store the dead process populated.
            assert record.cache_hits == {"cut": True, "evaluate": True}
            assert record.owner == successor.owner_id
        finally:
            successor.shutdown()

        reference = JobScheduler(ArtifactStore(tmp_path / "fresh"), workers=1)
        try:
            uninterrupted = reference.wait(
                reference.submit(_bv_spec()), timeout=60
            )
        finally:
            reference.shutdown()
        assert _stable(record.result) == _stable(uninterrupted.result)

    def test_live_peer_adopts_a_killed_replicas_job(self, tmp_path):
        """The same kill with a peer already running: its journal tail
        sees the dead claim within a poll and resumes the job — no
        restart needed."""
        store_dir = tmp_path / "store"
        peers = []

        def start_peer():
            peers.append(JobScheduler(
                ArtifactStore(store_dir), workers=1, journal_poll=0.05
            ))

        job_id = _kill_child_mid_query(tmp_path, before_kill=start_peer)
        peer, = peers
        try:
            record = peer.wait(job_id, timeout=15)
            assert record.state == "done", record.error
            assert record.cache_hits == {"cut": True, "evaluate": True}
            assert record.owner == peer.owner_id
        finally:
            peer.shutdown()


class TestMultiScheduler:
    def test_each_job_executes_exactly_once_across_peers(self, tmp_path):
        a = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, journal_poll=0.02
        )
        b = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, journal_poll=0.02
        )
        try:
            ids = [a.submit(_bv_spec()) for _ in range(2)]
            ids += [b.submit(_bv_spec(top=4))]
            deadline = time.monotonic() + 120
            for scheduler in (a, b):
                for job_id in ids:
                    while True:
                        try:
                            record = scheduler.get(job_id)
                        except KeyError:
                            record = None  # tail has not discovered it yet
                        if record is not None and record.done:
                            break
                        assert time.monotonic() < deadline, (
                            f"{job_id} never finished on {scheduler.owner_id}"
                        )
                        time.sleep(0.02)
                    assert scheduler.get(job_id).state == "done"
            owners = {a.owner_id, b.owner_id}
            for job_id in ids:
                info = a.journal.claim_info(job_id)
                assert info is not None and info["owner"] in owners
                assert a.store.get_job_document(job_id) is not None
        finally:
            a.shutdown()
            b.shutdown()

    def test_two_servers_one_store_submit_here_read_there(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with JobServer(store=store, port=0, workers=1,
                       journal_poll=0.02) as front_a:
            front_a.start()
            with JobServer(store=store, port=0, workers=1,
                           journal_poll=0.02) as front_b:
                front_b.start()
                created = request_json(
                    "POST", f"{front_a.url}/jobs",
                    payload={"benchmark": "bv", "qubits": 6,
                             "device_size": 5, "query": "fd", "top": 3},
                )
                job_id = created["job_id"]
                deadline = time.monotonic() + 60
                while True:
                    try:
                        status = request_json(
                            "GET", f"{front_b.url}/jobs/{job_id}"
                        )
                        if status["state"] == "done":
                            break
                        assert status["state"] != "failed", status
                    except Exception:
                        pass  # replica B has not tailed the submit yet
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                result = request_json(
                    "GET", f"{front_b.url}/jobs/{job_id}/result"
                )
                assert result["result"]["top_states"][0]["state"] == "111111"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
