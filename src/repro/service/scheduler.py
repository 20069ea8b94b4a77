"""Async job scheduler: queued CutQC jobs over a shared artifact store.

A *job* is one end-to-end CutQC evaluation — cut search, variant
execution, and a query (FD, DD, streamed top-k, or a server-side
*variational* optimizer loop of :meth:`~repro.core.pipeline.CutQC.rebind`
calls) — described by a
:class:`JobSpec` and tracked by a :class:`JobRecord` through the states::

    queued -> cutting -> evaluating -> querying -> done
                                   \\-> failed | cancelled

The :class:`JobScheduler` runs jobs on a pool of worker threads.  Each
stage is *resumable*: before computing, the worker consults the
content-addressed :class:`~repro.service.store.ArtifactStore` under the
stage's fingerprint and, on a hit, restores the checkpoint instead —
repeat jobs skip cut search and variant evaluation entirely, and sibling
jobs (same circuit+cut, different query) skip straight to the query
stage.  Per-stage wall-clock and cache-hit flags are recorded on the
record, and :meth:`JobScheduler.stats` aggregates them across the job
history — the serving-side observability the HTTP ``/stats`` endpoint
exposes.

Durability and scale-out (see :mod:`repro.service.journal` and
:mod:`repro.service.tenancy`):

* every submission, state transition and cancellation is appended to a
  **journal** inside the store (``jobs/journal.jsonl``), and a job's
  state moves only by folding those events (:meth:`JobRecord.apply`):
  live, in a restarted scheduler replaying the journal, and in a peer
  tailing it.  Restarted and live schedulers alike steal claims whose
  owner died on this host and resume the interrupted jobs — the store
  checkpoints turn "resume" into cache hits on every stage that
  already completed;
* dispatch goes through a per-tenant **weighted-fair queue** with
  admission quotas (:class:`~repro.service.tenancy.TenantConfig`);
* N schedulers (``serve --replicas N``, or N processes on one store
  dir) tail the same journal: any server accepts a submission, exactly
  one executes it (``O_EXCL`` **claim files**), and terminal records are
  persisted to the store so any server answers the result query.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
import uuid
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import CutQC
from ..core.job import QUERY_TYPES, JobSpec, run_query
from ..faults import PoolUnrecoverableError, is_transient
from ..obs import trace
from ..obs.metrics import get_registry
from ..postprocess.parallel import WorkerPool
from .journal import JobJournal
from .store import ArtifactStore
from .tenancy import FairQueue, QuotaExceededError, TenantConfig

__all__ = ["JobSpec", "JobRecord", "JobScheduler", "JOB_STATES", "QUERY_TYPES"]

_JOB_STAGE_SECONDS = get_registry().histogram(
    "repro_job_stage_seconds",
    "Scheduler job stage wall time by stage (cut/evaluate/query/total) "
    "and tenant.",
    ("stage", "tenant"),
)
_JOBS = get_registry().counter(
    "repro_jobs_total",
    "Jobs reaching a terminal state, by state and tenant.",
    ("state", "tenant"),
)
_QUEUE_DEPTH = get_registry().gauge(
    "repro_queue_depth",
    "Jobs waiting in the scheduler's fair queue, per tenant.",
    ("tenant",),
)
_JOBS_RUNNING = get_registry().gauge(
    "repro_jobs_running",
    "Jobs currently executing, per tenant.",
    ("tenant",),
)
_QUOTA_REJECTIONS = get_registry().counter(
    "repro_quota_rejections_total",
    "Submissions rejected by per-tenant admission control.",
    ("tenant", "reason"),
)
_STAGE_RETRIES = get_registry().counter(
    "repro_scheduler_stage_retries_total",
    "Transient failures retried by the staged-retry policy: stage "
    "bodies, journal appends and job-record writes.",
    ("stage",),
)
_DEGRADED_MODE = get_registry().gauge(
    "repro_scheduler_degraded_mode",
    "1 while the scheduler serves jobs serially because its worker "
    "pool is unrecoverable.",
)

JOB_STATES = (
    "queued", "cutting", "evaluating", "querying", "done", "failed",
    "cancelled",
)

#: States a job can never leave.
_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})
#: Record fields a ``state`` event carries; :meth:`JobRecord.apply`
#: copies each one present in the event.  The terminal event carries all
#: of them, so every replica's status document equals the owner's.
_CARRIED = (
    "owner", "started_at", "finished_at", "timings", "cache_hits",
    "fingerprints", "execution", "error", "attempts", "degraded",
)
#: A journaled scheduler keeps ``result``/``trace`` in memory for this many
#: of its newest terminal records; older ones are served from the store.
_RETAINED_PAYLOADS = 64


def _copied(value):
    """A carried field's value, with dicts copied (records never share)."""
    return dict(value) if isinstance(value, dict) else value


@dataclass
class JobRecord:
    """One job's lifecycle: state, per-stage timing, cache hits, result.

    ``state`` moves only through :meth:`apply`, the one fold of journal
    events — the executing scheduler, a restarted one replaying the
    journal and a peer tailing it all move a record the same way.
    """

    job_id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: Dict[str, bool] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Variant-execution accounting (mode, dedup, body passes) when the
    #: evaluate stage actually ran (None on a store cache hit).
    execution: Optional[Dict] = None
    #: Variational jobs append one entry per optimizer iteration *while
    #: running* — ``GET /jobs/<id>`` streams live progress.
    iterations: List[Dict] = field(default_factory=list)
    result: Optional[Dict] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    #: Attempts consumed per stage by the staged-retry policy (1 for a
    #: stage that succeeded first try).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: True when the job completed through serial in-process evaluation
    #: because the scheduler's worker pool was unrecoverable.
    degraded: bool = False
    #: The job's span tree (set once the job reaches a terminal state).
    trace: Optional[Dict] = None
    #: Id of the scheduler that last moved the job — its executor once
    #: it runs; ``None`` until a scheduler first moves it.
    owner: Optional[str] = None
    #: ``(kind, key)`` store artifacts pinned against LRU eviction while
    #: this job runs; released by the worker at the terminal state.
    pins: List[Tuple[str, str]] = field(default_factory=list)
    #: Guards the mutable fields: the worker thread updates state,
    #: timings and cache hits at stage boundaries while pollers
    #: serialize the record — without the lock a reader can observe a
    #: half-written stage transition (state advanced, timing missing).
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    #: Signalled on every state transition; :meth:`JobScheduler.wait`
    #: blocks on it instead of busy-polling.
    _cond: threading.Condition = field(init=False, repr=False, compare=False)
    #: True once terminal bookkeeping (trace/journal/store document) has
    #: completed — the point the record stops changing entirely.
    _settled: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._cond = threading.Condition(self._lock)

    def mark_settled(self) -> None:
        with self._lock:
            self._settled = True
            self._cond.notify_all()

    @property
    def done(self) -> bool:
        return self.state in _TERMINAL_STATES

    def apply(self, event: Dict, expect: Optional[str] = None) -> bool:
        """Fold one journal event into the record; True iff it moved.

        ``cancel`` requests cancellation of a live job.  ``state`` moves
        the job to a state in :data:`JOB_STATES` and copies the
        :data:`_CARRIED` fields present in the event.  A terminal state
        is never left, and an unknown state is ignored.  With ``expect``
        the fold is a compare-and-set: it happens only from that state.
        """
        kind = event.get("type")
        state = event.get("state")
        with self._lock:
            if self.state in _TERMINAL_STATES or expect not in (None, self.state):
                return False
            if kind == "cancel":
                self.cancel_requested = True
                return True
            if kind != "state" or state not in JOB_STATES:
                return False
            self.state = state
            for name in _CARRIED:
                if name in event:
                    setattr(self, name, _copied(event[name]))
            if state in _TERMINAL_STATES and "finished_at" not in event:
                # Journals written before terminal events carried every
                # field: the event's own stamp is the finish time.
                self.finished_at = event.get("ts")
            self._cond.notify_all()
        return True

    def carried(self) -> Dict:
        """A snapshot of the :data:`_CARRIED` fields."""
        with self._lock:
            return {name: _copied(getattr(self, name)) for name in _CARRIED}

    # -- locked mutators (worker thread) -------------------------------
    def update(self, **fields) -> None:
        """Atomically set record attributes (never ``state``)."""
        with self._lock:
            for name, value in fields.items():
                setattr(self, name, value)

    def set_timing(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.timings[stage] = seconds
        _JOB_STAGE_SECONDS.observe(
            seconds, stage=stage, tenant=self.spec.tenant
        )

    def set_cache_hit(self, stage: str, hit: bool) -> None:
        with self._lock:
            self.cache_hits[stage] = bool(hit)

    def set_fingerprint(self, stage: str, key: str) -> None:
        with self._lock:
            self.fingerprints[stage] = key

    def append_iteration(self, entry: Dict) -> None:
        with self._lock:
            self.iterations.append(entry)

    # -- locked snapshots (poller threads) -----------------------------
    def stats_view(
        self,
    ) -> Tuple[str, Dict[str, float], Dict[str, bool], Optional[Dict]]:
        """A consistent (state, timings, cache_hits, execution) snapshot."""
        with self._lock:
            return (
                self.state,
                dict(self.timings),
                dict(self.cache_hits),
                self.execution,
            )

    def as_dict(self, include_result: bool = False) -> Dict:
        with self._lock:
            document = {
                "job_id": self.job_id,
                "state": self.state,
                "tenant": self.spec.tenant,
                "spec": self.spec.to_dict(),
                "submitted_at": self.submitted_at,
                **{name: _copied(getattr(self, name)) for name in _CARRIED},
            }
            if self.iterations or self.spec.query == "variational":
                document["iterations"] = list(self.iterations)
            if include_result:
                document["result"] = self.result
        return document


class JobScheduler:
    """Thread-pool scheduler executing jobs against a shared store.

    With ``pool_workers > 0`` (or an injected ``worker_pool``) the
    scheduler holds one persistent
    :class:`~repro.postprocess.parallel.WorkerPool` for its whole
    lifetime and hands it to every job's pipeline — variant execution,
    streaming-FD shards and DD zoom rounds of *all* jobs share one set
    of warm workers, and the pool's per-stage worker statistics are
    reported by :meth:`stats` (the HTTP ``GET /stats`` payload).
    """

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        autostart: bool = True,
        pool_workers: int = 0,
        worker_pool: Optional[WorkerPool] = None,
        tenants=None,
        journal: bool = True,
        journal_poll: float = 0.25,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        degrade: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.store = store
        self.num_workers = int(workers)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.degrade = bool(degrade)
        self._retry_rng = random.Random()
        self._owns_pool = worker_pool is None and pool_workers > 0
        if worker_pool is None and pool_workers > 0:
            worker_pool = WorkerPool(pool_workers)
        self.worker_pool = worker_pool
        self.tenants = TenantConfig.coerce(tenants)
        self._queue = FairQueue(self.tenants)
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        #: Records not yet seen terminal: what :meth:`_adopt_orphans`
        #: walks on every poll (pruned there); only the running ones cost
        #: a claim-file read.
        self._live: Dict[str, JobRecord] = {}
        self._retained: deque = deque()
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._tail_thread: Optional[threading.Thread] = None
        self._started = False
        self._shutdown = False
        self.started_at = time.time()
        #: Unique executor identity, stamped on claims and journal events.
        self.owner_id = f"sched-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.journal = (
            JobJournal(self.store.root / "jobs") if journal else None
        )
        self._journal_poll = max(0.01, float(journal_poll))
        if self.journal is not None:
            self._follow_journal(startup=True)
        self._register_depth_collector()
        if autostart:
            self.start()

    def _register_depth_collector(self) -> None:
        # Pull-style gauges via a weakly-bound collector: the registry
        # outlives schedulers (tests create hundreds), so a strong ref
        # here would pin every scheduler ever created.
        ref = weakref.ref(self)

        def collect(_registry) -> None:
            scheduler = ref()
            if scheduler is None or scheduler._shutdown:
                return
            running = scheduler._queue.running()
            for tenant, depth in scheduler._queue.depths().items():
                _QUEUE_DEPTH.set(depth, tenant=tenant)
                _JOBS_RUNNING.set(running.get(tenant, 0), tenant=tenant)

        get_registry().add_collector(collect)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"cutqc-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.journal is not None:
            self._tail_thread = threading.Thread(
                target=self._tail_loop, name="cutqc-journal-tail", daemon=True
            )
            self._tail_thread.start()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        if self._shutdown:
            return
        self._shutdown = True
        self._queue.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
            if self._tail_thread is not None:
                self._tail_thread.join(timeout=5)
        if self.journal is not None:
            self.journal.close()
        # Close the owned pool only once every job thread has exited —
        # tearing it down under a still-running job (wait=False, or a
        # join timeout) would fail that job with "worker pool is
        # closed" instead of letting it finish; the pool's finalizer
        # reaps it at interpreter exit in that case.
        if (
            self._owns_pool
            and self.worker_pool is not None
            and all(not thread.is_alive() for thread in self._threads)
        ):
            self.worker_pool.close()

    # ------------------------------------------------------------------
    # Journal: the one fold (replay at startup, the tail on every poll)
    # ------------------------------------------------------------------
    def _follow_journal(self, startup: bool = False) -> None:
        """Fold every journal event not yet read, then adopt orphans.

        At startup this replays the whole journal before the workers
        start: terminal jobs become read-only history (results rehydrate
        lazily from the store's job documents) and live peers' jobs stay
        mirrors.  On every tail poll it folds what peers appended since,
        and queues a job another scheduler made queued (a submission, or
        a requeue) — whichever scheduler claims it first runs it.
        """
        for event in self.journal.read_new():
            record = self._on_event(event)
            if record is not None and not startup:
                self._queue.push(record.spec.tenant, record.job_id)
        self._adopt_orphans(startup)

    def _on_event(self, event: Dict) -> Optional[JobRecord]:
        """Fold one event another scheduler (or an earlier process) wrote.

        Returns the record when the event made it queued.  Our own events
        echoing back are skipped: they were folded when emitted.
        """
        job_id = event.get("job_id")
        if not isinstance(job_id, str) or event.get("owner") == self.owner_id:
            return None
        with self._lock:
            record = self._records.get(job_id)
        if event.get("type") == "submit":
            if record is not None:
                return None
            try:
                spec = JobSpec.from_dict(event.get("spec") or {})
            except (TypeError, ValueError):
                return None  # unreadable record from an older format
            return self._register(job_id, spec, event.get("ts"))
        if record is None or not record.apply(event):
            return None
        if record.done:
            record.mark_settled()
        return record if event.get("state") == "queued" else None

    def _adopt_orphans(self, startup: bool) -> None:
        """Requeue jobs no live scheduler will run.

        A running job whose claim is stale (its replica was killed
        mid-stage) or gone (its replica failed to journal a shutdown
        requeue) is stolen and requeued on every pass; stage checkpoints
        already in the store make the rerun resume, not restart.  At
        startup every queued job is queued here too: the worker that
        pops it claims it, stealing a stale claim, or drops it.
        """
        with self._lock:
            self._live = {
                job_id: record for job_id, record in self._live.items()
                if not record.done
            }
            live = list(self._live.values())
        for record in live:
            if record.state == "queued":
                if startup:
                    self._queue.push(record.spec.tenant, record.job_id)
                continue
            info = self.journal.claim_info(record.job_id)
            if info is not None and not self.journal.claim_is_stale(info):
                continue  # a live scheduler holds it
            if self.journal.steal_claim(
                record.job_id, self.owner_id
            ) and self._transition(record, "queued", started_at=None):
                self._queue.push(record.spec.tenant, record.job_id)

    def _claim(self, job_id: str) -> bool:
        """Claim a queued job for this scheduler, stealing the claim of a
        holder that died before starting it."""
        journal = self.journal
        return journal is None or journal.claim(job_id, self.owner_id) or (
            journal.claim_is_stale(journal.claim_info(job_id))
            and journal.steal_claim(job_id, self.owner_id)
        )

    def _tail_loop(self) -> None:
        """Poll the journal for events appended by peer schedulers."""
        while not self._shutdown:
            try:
                self._follow_journal()
            except Exception:  # pragma: no cover - keep the tail alive
                pass
            time.sleep(self._journal_poll)

    def _emit(self, kind: str, job_id: str, **fields) -> Dict:
        """Journal one event stamped with this scheduler's id, under the
        retry policy; returns the event as written."""
        fields["owner"] = self.owner_id
        if self.journal is None:
            return {"type": kind, "job_id": job_id, "ts": time.time(), **fields}
        return self._retry(
            lambda: self.journal.append(kind, job_id, **fields), "journal"
        )

    def _transition(
        self, record: JobRecord, state: str, journal: bool = True,
        expect: Optional[str] = None, **fields,
    ) -> bool:
        """Fold a ``state`` event into ``record`` (from ``expect`` only,
        when given), then journal it — unless the caller journals it
        later, as the terminal event is.  False (nothing journaled) when
        the fold is refused."""
        fields["state"] = state
        if not record.apply(
            {"type": "state", **fields, "owner": self.owner_id}, expect
        ):
            return False
        if journal:
            self._emit("state", record.job_id, **fields)
        return True

    def _retry(self, body: Callable, label: str):
        """Run ``body`` under the staged-retry policy.

        Transient faults (see :func:`repro.faults.is_transient`) are
        retried up to ``max_retries`` times with exponential backoff and
        jitter.  Permanent faults — including
        :class:`PoolUnrecoverableError`, whose remedy is degradation —
        propagate immediately, as does everything once shutting down.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return body()
            except Exception as error:  # noqa: BLE001 - taxonomy below
                if (
                    attempt > self.max_retries
                    or not is_transient(error)
                    or self._shutdown
                ):
                    raise
                _STAGE_RETRIES.inc(stage=label)
                delay = min(2.0, self.retry_backoff * (2 ** (attempt - 1)))
                time.sleep(delay * (0.5 + self._retry_rng.random()))

    def load_persisted(self, record: JobRecord) -> None:
        """Rehydrate a terminal record from the store's job document.

        Covers jobs executed by a peer server or a previous process, and
        own jobs past the retention window: the journal carries their
        states and carried fields, but the (large) result document lives
        only in the store.  Only empty fields are filled; a live one is
        never overwritten.
        """
        if self.journal is None or not record.done or record.result is not None:
            return
        document = self.store.get_job_document(record.job_id)
        if not document:
            return
        if document.get("result") is not None:
            self._retain(record)
        with record._lock:
            for name in ("result", "iterations", *_CARRIED):
                if not getattr(record, name) and document.get(name):
                    setattr(record, name, document[name])

    def _retain(self, record: JobRecord) -> None:
        """Admit a record whose payloads are in the store to the newest
        ``_RETAINED_PAYLOADS`` that keep them in memory too; the one that
        falls out drops its ``result``/``trace`` (rehydrated on demand by
        :meth:`load_persisted` / ``store.get_trace``)."""
        with self._lock:
            self._retained.append(record)
            if len(self._retained) <= _RETAINED_PAYLOADS:
                return
            stale = self._retained.popleft()
        if stale is not record:
            stale.update(result=None, trace=None)

    def _register(
        self, job_id: str, spec: JobSpec, submitted_at: Optional[float]
    ) -> JobRecord:
        """Add a job built from its ``submit`` event."""
        record = JobRecord(
            job_id=job_id, spec=spec, submitted_at=submitted_at or time.time()
        )
        with self._lock:
            self._records[job_id] = record
            self._live[job_id] = record
            self._order.append(job_id)
        return record

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Validate, admission-check and enqueue a job; returns its id.

        The record is built from the journaled ``submit`` event, so a
        submission whose append fails leaves no job behind.  Raises
        :class:`~repro.service.tenancy.QuotaExceededError` when the
        tenant is over quota (mapped to HTTP 429 by the API layer).
        """
        if self._shutdown:
            raise RuntimeError("scheduler is shut down")
        spec.validate()
        try:
            self.tenants.admit(spec.tenant, self._queue.depth(spec.tenant))
        except QuotaExceededError as error:
            _QUOTA_REJECTIONS.inc(tenant=spec.tenant, reason=error.reason)
            raise
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        event = self._emit(
            "submit", job_id, tenant=spec.tenant, spec=spec.to_dict()
        )
        self._register(job_id, spec, event["ts"])
        self._queue.push(spec.tenant, job_id)
        return job_id

    def queue_depth(self) -> int:
        """Total jobs waiting in the fair queue, across all tenants."""
        return sum(self._queue.depths().values())

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._records[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def records(self) -> List[JobRecord]:
        with self._lock:
            return [self._records[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns False if already terminal.

        The request is journaled, and the job's executor honours it at
        its next stage boundary.  A queued job whose claim this scheduler
        wins is cancelled outright — no other scheduler can start it.
        """
        record = self.get(job_id)
        if record.done:
            return False
        record.apply(self._emit("cancel", job_id))
        if record.state == "queued" and self._claim(job_id):
            if self._transition(
                record, "cancelled",
                **dict(record.carried(), finished_at=time.time()),
            ):
                record.mark_settled()
        return True

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until the job reaches a terminal state (or timeout).

        Sleeps on the record's condition variable, which
        :meth:`JobRecord.apply` notifies on every transition — live,
        replayed or tailed alike.
        """
        deadline = time.monotonic() + timeout
        record = self.get(job_id)
        with record._cond:
            while not record.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.state!r} "
                        f"after {timeout}s"
                    )
                record._cond.wait(remaining)
            # Terminal state is published *before* the worker's final
            # bookkeeping (trace/journal/store document); give that a
            # bounded grace so callers observe a fully-settled record.
            settle_deadline = min(deadline, time.monotonic() + 2.0)
            while not record._settled:
                remaining = settle_deadline - time.monotonic()
                if remaining <= 0:
                    break
                record._cond.wait(remaining)
        return record

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Aggregate serving stats: states, cache hits, stage latencies."""
        with self._lock:
            records = [self._records[job_id] for job_id in self._order]
        by_state = {state: 0 for state in JOB_STATES}
        stage_seconds: Dict[str, List[float]] = {}
        stage_hits: Dict[str, int] = {"cut": 0, "evaluate": 0}
        stage_misses: Dict[str, int] = {"cut": 0, "evaluate": 0}
        evaluate_modes: Dict[str, int] = {}
        by_tenant: Dict[str, Dict[str, int]] = {}
        total_seconds = 0.0
        for record in records:
            # One consistent snapshot per record, taken under the record
            # lock — the worker thread cannot advance the state between
            # the reads that build one row of the aggregate.
            state, timings, cache_hits, execution = record.stats_view()
            by_state[state] = by_state.get(state, 0) + 1
            tenant_states = by_tenant.setdefault(record.spec.tenant, {})
            tenant_states[state] = tenant_states.get(state, 0) + 1
            if execution is not None:
                mode = execution.get("mode", "unknown")
                evaluate_modes[mode] = evaluate_modes.get(mode, 0) + 1
            for stage, seconds in timings.items():
                stage_seconds.setdefault(stage, []).append(seconds)
                if stage != "total":
                    total_seconds += seconds
            for stage, hit in cache_hits.items():
                table = stage_hits if hit else stage_misses
                table[stage] = table.get(stage, 0) + 1
        uptime = time.time() - self.started_at
        done = by_state.get("done", 0)
        depths = self._queue.depths()
        running = self._queue.running()
        pool_stats = (
            self.worker_pool.stats().as_dict()
            if self.worker_pool is not None
            else None
        )
        return {
            "pool": pool_stats,
            "jobs": {
                "submitted": len(records),
                "by_state": by_state,
                "degraded": sum(1 for r in records if r.degraded),
            },
            "cache": {
                "stage_hits": stage_hits,
                "stage_misses": stage_misses,
            },
            "evaluate_modes": evaluate_modes,
            "stage_seconds_mean": {
                stage: sum(values) / len(values)
                for stage, values in stage_seconds.items()
            },
            "uptime_seconds": uptime,
            "jobs_per_second": done / uptime if uptime > 0 else 0.0,
            "busy_seconds": total_seconds,
            "workers": self.num_workers,
            "owner": self.owner_id,
            "tenants": {
                tenant: {
                    "by_state": states,
                    "queued_depth": depths.get(tenant, 0),
                    "running": running.get(tenant, 0),
                    "policy": self.tenants.policy(tenant).to_dict(),
                }
                for tenant, states in sorted(by_tenant.items())
            },
            "store": self.store.as_dict(),
        }

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            popped = self._queue.pop()
            if popped is None:
                return  # queue closed: shutdown
            tenant, job_id = popped
            try:
                self._run_claimed(job_id)
            finally:
                self._queue.task_done(tenant)

    def _run_claimed(self, job_id: str) -> None:
        try:
            record = self.get(job_id)
        except KeyError:  # pragma: no cover - defensive
            return
        if record.state != "queued" or not self._claim(job_id):
            return  # cancelled or started already, or a live peer's job
        started = time.time()
        tracer = trace.start(
            "job",
            {
                "job_id": job_id,
                "query": record.spec.query,
                "tenant": record.spec.tenant,
            },
        )
        result = error = None
        try:
            with tracer as root:
                # Leaving ``queued`` is a compare-and-set: a job can sit in
                # this queue twice (a peer's submit, then its requeue), and
                # only the worker whose fold succeeds runs it.
                if not self._transition(
                    record, "cutting", expect="queued", started_at=started
                ):
                    return
                if not record.cancel_requested:
                    result = self._execute_degradable(record)
        except Exception as failure:  # noqa: BLE001 - job isolation
            if self._shutdown and not record.done:
                self._requeue_on_shutdown(record)
                return
            error = f"{type(failure).__name__}: {failure}"
        if error is not None:
            state = "failed"
        elif result is None:
            state = "cancelled"
        else:
            state = "done"
            record.update(result=result)
        finished = time.time()
        fields = dict(
            record.carried(), owner=self.owner_id, started_at=started,
            finished_at=finished, error=error,
        )
        fields["timings"]["total"] = finished - started
        # Publish first (pollers see the outcome now); journal last, once
        # the job document is in the store, so a replica that reads the
        # terminal event can always load the result.
        if not self._transition(record, state, journal=False, **fields):
            self._release_pins(record)  # cancelled outright meanwhile
            return
        _JOBS.inc(state=state, tenant=record.spec.tenant)
        _JOB_STAGE_SECONDS.observe(
            finished - started, stage="total", tenant=record.spec.tenant
        )
        document = root.to_dict()
        record.update(trace=document)
        traced = self._persist(
            lambda: self.store.put_trace(job_id, document), "trace"
        )
        self._release_pins(record)
        if self.journal is not None:
            documented = self._persist(
                lambda: self.store.put_job_document(
                    job_id, record.as_dict(include_result=True)
                ),
                "job_document",
            )
            self._persist(
                lambda: self.journal.append(
                    "state", job_id, state=state, **fields
                ),
                "journal",
            )
            if traced and documented:
                self._retain(record)
        record.mark_settled()

    def _persist(self, body: Callable, label: str) -> bool:
        """A finished job's write under :meth:`_retry`; False when it still
        failed — the job's outcome stands either way."""
        try:
            self._retry(body, label)
            return True
        except Exception:  # noqa: BLE001 - retries exhausted
            return False

    def _execute_degradable(self, record: JobRecord) -> Optional[Dict]:
        """:meth:`_execute` on the worker pool, re-run serially in-process
        (``degraded``) when the pool is unrecoverable."""
        pool = self.worker_pool
        use_pool = True
        if pool is not None and self.degrade and getattr(pool, "broken", False):
            # The pool is known-unrecoverable: go straight to serial
            # evaluation instead of paying one doomed dispatch per job.
            use_pool = False
            record.update(degraded=True)
            _DEGRADED_MODE.set(1)
        try:
            return self._execute(record, use_pool=use_pool)
        except PoolUnrecoverableError:
            if not self.degrade or pool is None or not use_pool:
                raise
            # Graceful degradation: the stage checkpoints already in the
            # store turn the serial re-run into a resume of whatever had
            # completed.
            record.update(degraded=True)
            _DEGRADED_MODE.set(1)
            with trace.span("job.degrade"):
                return self._execute(record, use_pool=False)

    def _requeue_on_shutdown(self, record: JobRecord) -> None:
        """Shutdown tore a shared resource (worker pool, store) from under
        this in-flight job: release it for the next scheduler instead of
        failing it."""
        self._release_pins(record)
        try:
            if self.journal is not None:
                self.journal.release_claim(record.job_id, self.owner_id)
            self._transition(record, "queued", started_at=None)
        except OSError:  # pragma: no cover - torn teardown
            pass  # unclaimed and running: a live peer or successor adopts it

    def _pin(self, record: JobRecord, kind: str, key: str) -> None:
        """Pin a store artifact for the lifetime of this job."""
        self.store.pin(kind, key)
        with record._lock:
            record.pins.append((kind, key))

    def _release_pins(self, record: JobRecord) -> None:
        for kind, key in record.pins:
            self.store.unpin(kind, key)
        record.pins = []

    def _run_stage(self, record: JobRecord, stage: str, body: Callable):
        """Run one stage body under :meth:`_retry`, recording on the job
        the attempts consumed."""
        attempts = itertools.count(1)

        def attempt():
            count = next(attempts)
            with record._lock:
                record.attempts[stage] = max(
                    count, record.attempts.get(stage, 0)
                )
            return body()

        return self._retry(attempt, stage)

    def _enter_stage(self, record: JobRecord, state: str) -> bool:
        """Move a running job to its next stage; False once cancelled."""
        return not record.cancel_requested and self._transition(record, state)

    def _cut_stage(self, record: JobRecord, pipeline: CutQC) -> str:
        """Stage 1 of every job: restore the pipeline's cut from the store
        or search and checkpoint it; returns the cut fingerprint."""
        began = time.perf_counter()
        circuit = pipeline.circuit
        cut_key = pipeline.cut_fingerprint()  # once: later stages key on it

        def body() -> None:
            record.set_fingerprint("cut", cut_key)
            self._pin(record, "cut", cut_key)
            restored = self.store.get_cut(cut_key, circuit)
            if restored is not None:
                pipeline.load_cut(*restored)
            else:
                cut = pipeline.cut()
                self.store.put_cut(cut_key, circuit, cut, pipeline.solution)
            record.set_cache_hit("cut", restored is not None)

        with trace.span("job.cut"):
            self._run_stage(record, "cut", body)
        record.set_timing("cut", time.perf_counter() - began)
        return cut_key

    def _execute(
        self, record: JobRecord, use_pool: bool = True
    ) -> Optional[Dict]:
        """Run a job's stages; its result, or ``None`` once cancelled."""
        spec = record.spec
        pipeline = CutQC(
            spec.build_circuit(),
            config=spec.run_config(),
            worker_pool=self.worker_pool if use_pool else None,
        )
        cut_key = self._cut_stage(record, pipeline)
        if spec.query == "variational":
            return self._execute_variational(record, pipeline)

        # -- stage 2: evaluate (checkpointed) ---------------------------
        if not self._enter_stage(record, "evaluating"):
            return None
        began = time.perf_counter()

        def evaluate_stage() -> None:
            evaluation_key = pipeline.evaluation_fingerprint(cut_key=cut_key)
            record.set_fingerprint("evaluate", evaluation_key)
            self._pin(record, "evaluation", evaluation_key)
            results = self.store.get_evaluation(
                evaluation_key, pipeline.cut()
            )
            if results is not None:
                pipeline.load_results(results)
                record.set_cache_hit("evaluate", True)
            else:
                results = pipeline.evaluate()
                self.store.put_evaluation(evaluation_key, results)
                record.set_cache_hit("evaluate", False)
                record.update(execution=pipeline.execution_report.as_dict())

        with trace.span("job.evaluate"):
            self._run_stage(record, "evaluate", evaluate_stage)
        record.set_timing("evaluate", time.perf_counter() - began)

        # -- stage 3: query ---------------------------------------------
        if not self._enter_stage(record, "querying"):
            return None
        began = time.perf_counter()
        with trace.span("job.query", {"mode": spec.query}):
            result = self._run_stage(
                record, "query", lambda: self._run_query(pipeline, spec)
            )
        record.set_timing("query", time.perf_counter() - began)
        return result

    def _execute_variational(
        self, record: JobRecord, pipeline: CutQC
    ) -> Optional[Dict]:
        """Server-side SPSA MaxCut loop over the job's pipeline, after the
        shared cut stage.

        The warm-up :meth:`~repro.core.pipeline.CutQC.rebind` evaluates
        every subcircuit (not checkpointed: each binding is new); every
        optimizer iteration then rebinds the two SPSA probe points,
        re-evaluating only subcircuits whose angles moved.  One entry per
        iteration is appended to ``record.iterations`` as it completes, so
        pollers watch the cost trace live.
        """
        import numpy as np

        from ..core.variational import spsa_gains, summary
        from ..library.qaoa import maxcut_cost, qaoa_maxcut

        spec = record.spec
        num_qubits = spec.qubits
        edges = spec.qaoa_edges()
        history = []

        def flat(theta):
            # Expand per-layer (gamma, beta) to the flat per-gate vector
            # through the generator itself, so the layout always matches.
            return qaoa_maxcut(
                num_qubits, edges, layers=spec.layers, parameters=list(theta)
            ).parameters()

        def probe(theta) -> float:
            history.append(pipeline.rebind(flat(theta)))
            probabilities = pipeline.fd_query().probabilities
            return maxcut_cost(probabilities, edges, num_qubits)

        rng = np.random.default_rng(spec.seed)
        theta = rng.uniform(0.1, np.pi - 0.1, size=2 * spec.layers)

        if not self._enter_stage(record, "evaluating"):
            return None
        began = time.perf_counter()
        with trace.span("job.evaluate"):
            warmup = self._run_stage(
                record, "evaluate", lambda: pipeline.rebind(flat(theta))
            )
        history.append(warmup)
        record.set_timing("evaluate", time.perf_counter() - began)
        record.update(execution={"mode": warmup.execution_mode})
        initial_cost = best_cost = maxcut_cost(
            pipeline.fd_query().probabilities, edges, num_qubits
        )
        best_theta = theta.copy()

        if not self._enter_stage(record, "querying"):
            return None
        loop_span = trace.span(
            "job.query", {"mode": "variational", "iterations": spec.iterations}
        )
        loop_began = time.perf_counter()
        with loop_span:
            for k in range(spec.iterations):
                if record.cancel_requested:
                    return None
                began = time.perf_counter()
                a_k, c_k = spsa_gains(k)
                delta = rng.choice((-1.0, 1.0), size=theta.size)
                cost_plus = probe(theta + c_k * delta)
                cost_minus = probe(theta - c_k * delta)
                if cost_plus > best_cost:
                    best_cost = cost_plus
                    best_theta = theta + c_k * delta
                if cost_minus > best_cost:
                    best_cost = cost_minus
                    best_theta = theta - c_k * delta
                # Maximize <C>: ascend the simultaneous-perturbation
                # gradient estimate (1/delta == delta for Rademacher
                # perturbations).
                theta = (
                    theta
                    + a_k * (cost_plus - cost_minus) / (2 * c_k) * delta
                )
                plus, minus = history[-2:]
                record.append_iteration({
                    "iteration": k,
                    "cost_plus": cost_plus,
                    "cost_minus": cost_minus,
                    "best_cost": best_cost,
                    "theta": [float(t) for t in theta],
                    "seconds": time.perf_counter() - began,
                    "reuse": {
                        "cut_cache_hits": (
                            plus.cut_cache_hit + minus.cut_cache_hit
                        ),
                        "subcircuit_evaluations": (
                            len(plus.dirty_subcircuits)
                            + len(minus.dirty_subcircuits)
                        ),
                        "tensors_reused": (
                            plus.tensors_reused + minus.tensors_reused
                        ),
                        "fusion_blocks_built": (
                            plus.fusion_blocks_built
                            + minus.fusion_blocks_built
                        ),
                        "fusion_blocks_reused": (
                            plus.fusion_blocks_reused
                            + minus.fusion_blocks_reused
                        ),
                    },
                })
        record.set_timing("query", time.perf_counter() - loop_began)
        cut = pipeline.cut()
        return {
            "mode": "variational",
            "num_qubits": num_qubits,
            "num_cuts": cut.num_cuts,
            "num_subcircuits": cut.num_subcircuits,
            "num_edges": len(edges),
            "layers": spec.layers,
            "iterations": spec.iterations,
            "initial_cost": initial_cost,
            "best_cost": best_cost,
            "best_theta": [float(t) for t in best_theta],
            "final_theta": [float(t) for t in theta],
            "session": summary(history, pipeline.circuit.num_parameters),
        }

    def _run_query(self, pipeline: CutQC, spec: JobSpec) -> Dict:
        """The query stage's body: a seam tests replace to inject faults."""
        return run_query(pipeline, spec)
