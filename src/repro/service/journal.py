"""Durable job journal: append-only log + file-lock-guarded claims.

The journal is the persistence and coordination substrate of the job
service.  It lives inside the :class:`~repro.service.store.ArtifactStore`
root (``<store>/jobs/``)::

    jobs/journal.jsonl    append-only event log (one JSON object per line)
    jobs/claims/<job_id>  existence = some scheduler owns the job
    jobs/claims.lock      serializes stale-claim stealing across processes

Every event is one JSON object with ``type``, ``job_id``, ``ts`` (the
append time) and ``owner`` (the id of the scheduler that wrote it).
Three types flow through the log:

* ``submit`` — a new job: ``tenant`` and ``spec``, the full ``JobSpec``
  document; its ``ts`` is the job's ``submitted_at``.
* ``state``  — a transition to ``state``, plus any of the record fields
  it carries: ``owner``, ``started_at``, ``finished_at``, ``error``,
  ``timings``, ``cache_hits``, ``fingerprints``, ``attempts``,
  ``degraded``, ``execution``.  The terminal event carries all of them,
  so every replica answers status queries exactly as the executor does.
* ``cancel`` — a cancellation request (any server may record it; the
  owning scheduler honors it at its next stage boundary).

:meth:`repro.service.JobRecord.apply` is the one fold of these events.
Journals written before terminal events carried every field replay
too: a missing field keeps its default, and a terminal event without
``finished_at`` finishes at its ``ts``.

Appends take an exclusive ``flock`` on the log so concurrent writers
(N servers, one store dir) never interleave partial lines; readers tail
from their last byte offset, parsing only complete lines.  Writes are
flushed but not fsynced by default — the journal survives process kills
(the acceptance test SIGKILLs a scheduler mid-stage), while full
power-loss durability costs one ``fsync=True`` flag.

**Claims** make execution exclusive: before running a job a worker
atomically creates ``claims/<job_id>`` (``O_CREAT | O_EXCL``) holding
its owner id, host name and pid.  Creation succeeds exactly once, so of
N schedulers tailing the same journal only one executes each job.  A
claim written on this host whose pid no longer exists is *stale* — a
restarted scheduler, or a live peer on its next tail poll, steals it
(under ``claims.lock``) and resumes the job from its last checkpointed
stage.  A pid means nothing on another host, so a claim written there
is never judged stale here (a claim without a host, from before claims
carried one, counts as local).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

try:  # pragma: no cover - always available on the POSIX CI targets
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .. import chaos
from ..obs.metrics import get_registry

__all__ = ["JobJournal"]

#: Stamped on every claim: a claim's pid is only meaningful on its host.
_HOST = socket.gethostname()

_TORN_LINES = get_registry().counter(
    "repro_journal_torn_lines_total",
    "Corrupted or torn journal lines skipped during replay/tailing.",
)


def _flock(fd: int, exclusive: bool) -> None:
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def _funlock(fd: int) -> None:
    if fcntl is not None:
        fcntl.flock(fd, fcntl.LOCK_UN)


def pid_alive(pid: Optional[int]) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError):
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


def _claim_payload(owner: str) -> str:
    return json.dumps({
        "owner": owner, "host": _HOST, "pid": os.getpid(), "ts": time.time()
    })


class JobJournal:
    """Append-only event log plus claim files under one directory."""

    def __init__(self, root, fsync: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "journal.jsonl"
        self.claims_dir = self.root / "claims"
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self._steal_lock_path = self.root / "claims.lock"
        self._fsync = bool(fsync)
        self._lock = threading.Lock()
        self._offset = 0
        self._fd: Optional[int] = None
        self._descriptor()

    # -- log ------------------------------------------------------------
    def _descriptor(self) -> int:
        """The one held ``O_APPEND`` descriptor every append writes on;
        (re-)opened when absent or when the log file was replaced."""
        try:
            if os.fstat(self._fd).st_ino == os.stat(self.path).st_ino:
                return self._fd
        except (TypeError, OSError):  # no descriptor yet / no file any more
            pass
        self.close()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        return self._fd

    def close(self) -> None:
        """Release the append descriptor (a later append re-opens it)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def append(self, event_type: str, job_id: str, **fields) -> Dict:
        """Append one event; returns the record as written."""
        chaos.on_journal_append()
        record = {"type": event_type, "job_id": job_id, "ts": time.time()}
        record.update(fields)
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self._lock:
            fd = self._descriptor()
            _flock(fd, exclusive=True)
            try:
                os.write(fd, data)
                if self._fsync:
                    os.fsync(fd)
            finally:
                _funlock(fd)
        return record

    def read_new(self) -> List[Dict]:
        """Events appended (by anyone) since the last read.

        Only complete, newline-terminated lines are consumed; a line
        another process is mid-append stays in the file for next time.
        """
        with self._lock:
            try:
                with open(self.path, "rb") as stream:
                    _flock(stream.fileno(), exclusive=False)
                    try:
                        stream.seek(self._offset)
                        data = stream.read()
                    finally:
                        _funlock(stream.fileno())
            except OSError:
                return []
            records: List[Dict] = []
            consumed = 0
            for line in data.split(b"\n")[:-1]:
                consumed += len(line) + 1
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # JSONDecodeError and UnicodeDecodeError both subclass
                    # ValueError; torn lines can be invalid UTF-8, not
                    # just invalid JSON.
                    # Tolerate a torn/garbage line anywhere in the log
                    # (tail *or* middle): skip it, count it, keep
                    # consuming the records after it.
                    _TORN_LINES.inc()
                    continue
                if isinstance(record, dict):
                    records.append(record)
            self._offset += consumed
        return records

    def rewind(self) -> None:
        """Reset the tail offset so the next read replays from the top."""
        with self._lock:
            self._offset = 0

    # -- claims ---------------------------------------------------------
    def claim_path(self, job_id: str) -> Path:
        return self.claims_dir / job_id

    def claim(self, job_id: str, owner: str) -> bool:
        """Atomically claim ``job_id`` for ``owner``.

        True iff the claim was created now or is already held by this
        very owner (idempotent re-entry after a steal).
        """
        payload = _claim_payload(owner)
        try:
            handle = os.open(
                self.claim_path(job_id),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            info = self.claim_info(job_id)
            return bool(info and info.get("owner") == owner)
        with os.fdopen(handle, "w") as stream:
            stream.write(payload)
        return True

    def claim_info(self, job_id: str) -> Optional[Dict]:
        """The claim document, or ``None`` if the job is unclaimed."""
        try:
            return json.loads(self.claim_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def claim_is_stale(self, info: Optional[Dict]) -> bool:
        """A claim is stale when it was written on this host and its
        holder's pid is gone."""
        if info is None or info.get("host", _HOST) != _HOST:
            return False
        return not pid_alive(info.get("pid"))

    def steal_claim(self, job_id: str, owner: str) -> bool:
        """Take over an unclaimed or stale claim (restart recovery).

        Serialized across processes through ``claims.lock`` so two
        recovering schedulers cannot both adopt one orphaned job.
        Returns True iff ``owner`` now holds the claim.
        """
        with open(self._steal_lock_path, "ab") as guard:
            _flock(guard.fileno(), exclusive=True)
            try:
                info = self.claim_info(job_id)
                if info is not None:
                    if info.get("owner") == owner:
                        return True
                    if not self.claim_is_stale(info):
                        return False
                path = self.claim_path(job_id)
                temp = path.with_suffix(".steal")
                temp.write_text(_claim_payload(owner))
                os.replace(temp, path)
                return True
            finally:
                _funlock(guard.fileno())

    def release_claim(self, job_id: str, owner: str) -> None:
        """Drop a claim we hold (used when a claimed job is requeued)."""
        info = self.claim_info(job_id)
        if info is not None and info.get("owner") == owner:
            try:
                self.claim_path(job_id).unlink()
            except OSError:
                pass
