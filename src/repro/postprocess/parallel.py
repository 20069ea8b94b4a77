"""Process-parallel runtime: the one way work leaves the process.

:class:`WorkerPool` is a single persistent, spawn-safe, supervised
process pool shared by the whole pipeline — variant execution
(:class:`~repro.core.executor.VariantExecutor`), DD zoom batches
(:class:`~repro.postprocess.engine.ContractionEngine`) and streaming-FD
shards.  It runs only whole, independent tasks, and every pooled call
goes through one ordered map (:meth:`WorkerPool._map`), so a pooled
answer is the inline answer.  Every caller without a pool runs inline;
this module is the only one in the package that imports
``multiprocessing``.

* **Supervision** — a dead or hung worker (heartbeat deadline) is
  respawned and its task re-dispatched; a task that keeps killing workers
  is quarantined and fails only its caller; past the respawn budget the
  pool is *broken* and callers degrade to inline execution.
* **Shared-memory transport** — term tensors are *published* once via
  ``multiprocessing.shared_memory`` (:meth:`WorkerPool.publish`); work
  items then carry only role-signature plan descriptions (a few hundred
  bytes), never the tensors.  Workers attach lazily and keep their own
  collapse caches, so all ``2^s`` shards of a streaming query cost one
  generalized collapse per worker.
* **Observability** — :class:`ParallelStats` reports per-kind task
  counts, busy seconds, utilization and bytes published; the job
  service surfaces it under ``GET /stats``.

Spawn-safety: every task function is module-level (importable by a
``spawn`` child), so the pool works under the default start method of
macOS and Windows as well as ``fork`` on Linux.  The parent starts the
``resource_tracker`` before it starts any worker, so the whole tree
shares that one tracker: a worker's attach registers a segment the
tracker already holds, and ownership (and the single ``unlink``) stays
with the publishing parent — workers do no tracker bookkeeping at all.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import chaos
from ..faults import PoisonedTaskError, PoolUnrecoverableError
from ..obs import trace
from ..obs.metrics import get_registry
from ..utils import memo_stats
from .attribution import TermTensor
from .engine import ContractionEngine, ContractionResult, contract_terms
from .plan import PrecomputedTensorProvider, QueryPlan, collapse_lookups

__all__ = [
    "ParallelStats",
    "PublishedTensors",
    "WorkerPool",
    "publish_cache_gauges",
]

#: Tensors below this many bytes ride inline in the task pickle; larger
#: ones go through shared memory.
_MIN_SHM_BYTES = 1 << 16

#: Result vectors below this many bytes are pickled straight back.
_MIN_SHM_RESULT_BYTES = 1 << 18


# ----------------------------------------------------------------------
# Worker-side state (one copy per worker process)
# ----------------------------------------------------------------------

_WORKER_SHM: Dict[str, object] = {}  # segment name -> SharedMemory
_WORKER_PROVIDERS: Dict[str, object] = {}  # handle id -> provider
_WORKER_PROVIDER_LIMIT = 8


def _attach_segment(name: str):
    """Attach (and cache) a shared-memory segment in this worker.

    The resource tracker is one process shared by the whole tree and its
    registry is a *set*, so the attach's implicit re-register collapses
    into the parent's original entry; the single ``unlink`` the owning
    parent performs at free/close time balances it.  (Manually
    unregistering here would make that unlink a double-remove.)
    """
    from multiprocessing import shared_memory

    segment = _WORKER_SHM.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        _WORKER_SHM[name] = segment
    return segment


def _tensor_from_ref(ref) -> TermTensor:
    """Materialize a :class:`TermTensor` from a transport reference.

    Published tensors (``cached=True``) stay zero-copy views over the
    worker's cached attachment — they live as long as the publication.
    Per-call transient tensors (a ``contract_batch`` shipment the parent
    frees right after the call) are *copied* out and the segment
    detached immediately, so worker memory does not grow with every
    batch the pool ever served.
    """
    if ref[0] == "inline":
        return ref[1]
    (_, name, shape, dtype, subcircuit_index, cut_order, num_effective,
     cached) = ref
    if cached:
        segment = _attach_segment(name)
        data = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    else:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
        data = np.array(
            np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        )
        segment.close()
    return TermTensor(
        subcircuit_index=subcircuit_index,
        cut_order=list(cut_order),
        num_effective=num_effective,
        data=data,
    )


def _ship_vector(vector: np.ndarray):
    """Worker-side: return a vector inline or through a fresh segment.

    The parent adopts the segment's name from the task result and
    performs the one-and-only ``unlink`` (see :func:`_attach_segment`
    on why no manual tracker bookkeeping happens here).
    """
    from multiprocessing import shared_memory

    if vector.nbytes < _MIN_SHM_RESULT_BYTES:
        return ("inline", vector)
    segment = shared_memory.SharedMemory(create=True, size=vector.nbytes)
    out = np.ndarray(vector.shape, dtype=vector.dtype, buffer=segment.buf)
    out[:] = vector
    name = segment.name
    segment.close()
    return ("shm", name, vector.shape, vector.dtype.str)


def _provider_for(handle_id: str, cut_blob: bytes, refs) -> object:
    """Worker-local provider over the published tensors (cached)."""
    provider = _WORKER_PROVIDERS.get(handle_id)
    if provider is None:
        cut = pickle.loads(cut_blob)
        tensors = [_tensor_from_ref(ref) for ref in refs]
        provider = PrecomputedTensorProvider(cut, tensors=tensors)
        if len(_WORKER_PROVIDERS) >= _WORKER_PROVIDER_LIMIT:
            _WORKER_PROVIDERS.clear()
        _WORKER_PROVIDERS[handle_id] = provider
    return provider


@dataclass
class _TaskMeta:
    """Per-task accounting: every task function returns ``(value, meta)``."""

    pid: int
    elapsed_seconds: float


# ----------------------------------------------------------------------
# Task functions (module-level: picklable under spawn)
# ----------------------------------------------------------------------

def _run_contract(payload) -> Tuple[ContractionResult, _TaskMeta]:
    """One independent contraction (a DD bin or an explicit batch item)."""
    refs, order, num_cuts, strategy, early = payload
    began = time.perf_counter()
    tensors = [_tensor_from_ref(ref) for ref in refs]
    result = contract_terms(
        tensors, order, num_cuts, strategy=strategy, early_termination=early
    )
    meta = _TaskMeta(pid=os.getpid(), elapsed_seconds=time.perf_counter() - began)
    return result, meta


def _run_plan(payload):
    """Execute one :class:`QueryPlan` against published tensors.

    Its value is ``(vector_ref_or_candidates, cache_hits, cache_misses,
    shard_nbytes)``.  With ``top_k`` set, only the shard's top-k
    ``(probability, offset)`` candidates come back (in the exact
    ``argpartition`` order the serial fold uses) instead of the vector.
    """
    handle_id, cut_blob, refs, plan, strategy, early, top_k = payload
    began = time.perf_counter()
    provider = _provider_for(handle_id, cut_blob, refs)
    before = collapse_lookups(provider)
    engine = ContractionEngine(strategy=strategy, early_termination=early)
    probabilities = plan.execute(provider, engine).probabilities
    hits, misses = collapse_lookups(provider, before)
    nbytes = int(probabilities.nbytes)
    if top_k is not None:
        # The same candidate selection the inline fold applies, so the
        # parent's merge replays the inline heap exactly.
        from .reconstruct import _shard_top_candidates

        result = ("topk", _shard_top_candidates(probabilities, top_k))
    else:
        result = _ship_vector(probabilities)
    meta = _TaskMeta(pid=os.getpid(), elapsed_seconds=time.perf_counter() - began)
    return (result, hits, misses, nbytes), meta


def _run_variant_batch(payload):
    """Evaluate one shipped batch of a subcircuit's variants, fused.

    The payload is :func:`repro.core.executor._run_init_batch`'s: the
    subcircuit plus a range of basis columns (exact; answered with the
    ``(columns, 2^width)`` amplitude slab) or init *label* tuples and a
    :class:`~repro.cutting.variants.NoisyEvalSpec` (answered with the
    ``(len(labels), 3^O, 2^width)`` distributions slab) — a few hundred bytes
    instead of ``3^O * 4^rho`` pickled circuits.  The compiled body program
    is memoized per worker process, so later chunks of the same subcircuit
    land warm.
    """
    # Local import: repro.core imports repro.postprocess at package
    # initialization time.
    from ..core.executor import _run_init_batch

    began = time.perf_counter()
    value = _run_init_batch(payload)
    meta = _TaskMeta(pid=os.getpid(), elapsed_seconds=time.perf_counter() - began)
    return value, meta


#: Task kind -> module-level function; the traced wrapper dispatches by
#: kind so payload tuples keep their exact untraced shapes.
_TASK_FNS = {
    "contract": _run_contract,
    "plan": _run_plan,
    "variant-batch": _run_variant_batch,
    "noisy-variant-batch": _run_variant_batch,
}


def _run_traced(payload):
    """Run a task under a worker-local root span; ship the tree home.

    Used only when the *submitting* context is traced: the worker opens
    ``worker.<kind>`` as its own root (tagging the worker pid), runs the
    ordinary task function — whose internal ``trace.span`` calls now
    record — and returns ``(result, span_tree_dict)``.  The parent grafts
    the tree under the span that submitted the task, so cross-process
    work shows up inside the job's trace.
    """
    kind, inner = payload
    with trace.start(f"worker.{kind}") as root:
        result = _TASK_FNS[kind](inner)
    return result, root.to_dict()


def _run_cache_stats(_payload):
    """Report this process's memo counters (:func:`repro.utils.memo_stats`);
    the parent folds the reports into pid-labelled registry gauges."""
    return {"pid": os.getpid(), "memos": memo_stats()}


_TASK_FNS["cache-stats"] = _run_cache_stats


def _shippable_error(error: BaseException) -> BaseException:
    """An exception object guaranteed to pickle back to the parent."""
    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _result_segment_names(result) -> List[str]:
    """Worker-created shm segment names inside a task result.

    Used to reclaim segments of results nobody will consume (abandoned
    streams, stale duplicate attempts).  Tolerant of every task kind:
    only a ``plan`` value leads with a 4-tuple ``("shm", name, shape,
    dtype)`` shipment.
    """
    value = result[0] if isinstance(result, tuple) and result else None
    shipped = value[0] if isinstance(value, tuple) and value else None
    if (isinstance(shipped, tuple) and len(shipped) == 4
            and shipped[0] == "shm"):
        return [shipped[1]]
    return []


def _pool_worker_main(task_queue, conn) -> None:
    """Supervised worker loop: task envelopes in, heartbeats + results out.

    The ``start`` heartbeat goes over a raw ``Pipe`` connection — a
    synchronous write in this thread (no feeder-thread buffering), so it
    survives even an ``os._exit`` immediately after.  Worker death is
    then visible to the parent supervisor as EOF on the same pipe,
    *after* any already-buffered results — instant pid-liveness without
    polling.  Envelopes and results are pre-pickled bytes so pickling
    errors surface synchronously on whichever side created the payload.
    """
    while True:
        try:
            blob = task_queue.get()
        except (EOFError, OSError):  # parent tore the queue down
            return
        if blob is None:
            return
        task_id, attempt, kind, payload, traced = pickle.loads(blob)
        try:
            conn.send(("start", task_id, attempt, os.getpid()))
        except (BrokenPipeError, OSError):
            return
        span_doc = None
        try:
            chaos.on_worker_task(task_id, attempt)
            if traced:
                result, span_doc = _run_traced((kind, payload))
            else:
                result = _TASK_FNS[kind](payload)
            try:
                out = pickle.dumps(
                    ("done", task_id, attempt, True, result, span_doc)
                )
            except Exception as error:  # unpicklable result
                out = pickle.dumps(
                    ("done", task_id, attempt, False,
                     _shippable_error(error), None)
                )
        except BaseException as error:
            out = pickle.dumps(
                ("done", task_id, attempt, False, _shippable_error(error),
                 None)
            )
        try:
            conn.send_bytes(out)
        except (BrokenPipeError, OSError):
            return


def _publish_cache_report(report: Dict) -> None:
    """Fold one process's memo report into pid-labelled gauges."""
    registry = get_registry()
    pid = str(report["pid"])
    size_gauge = registry.gauge(
        "repro_cache_size",
        "Live entries in per-process memos, by memo label.",
        ("cache", "pid"),
    )
    hit_gauge = registry.gauge(
        "repro_cache_hit_rate",
        "Lifetime hit rate of per-process memos, by memo label.",
        ("cache", "pid"),
    )
    for label, stats in report["memos"].items():
        size_gauge.set(stats["size"], cache=label, pid=pid)
        lookups = stats["hits"] + stats["misses"]
        if lookups:
            hit_gauge.set(stats["hits"] / lookups, cache=label, pid=pid)


def publish_cache_gauges(pool: Optional["WorkerPool"] = None) -> None:
    """Refresh the pid-labelled cache gauges.

    Always publishes the calling (parent) process's memo stats; with ``pool`` given, additionally pulls every
    responding pool worker's report (:meth:`WorkerPool.cache_stats`).
    The executor calls this at the end of pooled evaluations so scrapes
    never have to dispatch pool tasks themselves.
    """
    _publish_cache_report(_run_cache_stats(None))
    if pool is not None:
        for report in pool.cache_stats():
            _publish_cache_report(report)


# Parent-process cache gauges refresh lazily on every scrape/snapshot;
# worker gauges refresh when an evaluation pulls them (see above).
get_registry().add_collector(lambda _registry: publish_cache_gauges(None))


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------

@dataclass
class ParallelStats:
    """Latency/utilization report of one :class:`WorkerPool`."""

    workers: int
    started: bool = False
    tasks_completed: int = 0
    tasks_failed: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    utilization: float = 0.0
    bytes_published: int = 0
    shm_segments: int = 0
    worker_respawns: int = 0
    task_retries: int = 0
    tasks_quarantined: int = 0
    broken: bool = False
    tasks_by_kind: Dict[str, int] = field(default_factory=dict)
    busy_seconds_by_kind: Dict[str, float] = field(default_factory=dict)
    busy_by_worker: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return asdict(self)


@dataclass
class PublishedTensors:
    """A set of term tensors resident in shared memory (plus context)."""

    handle_id: str
    refs: List[Tuple]
    cut_blob: bytes
    nbytes: int
    segment_names: List[str]

    @property
    def num_tensors(self) -> int:
        return len(self.refs)


class _PoolTask:
    """Parent-side record of one dispatched task (all attempts)."""

    __slots__ = (
        "task_id", "kind", "payload", "traced", "attempt", "event", "done",
        "ok", "result", "error", "span", "reaped", "discarded",
        "started_at", "dispatched_at",
    )

    def __init__(self, task_id: int, kind: str, payload, traced: bool):
        self.task_id = task_id
        self.kind = kind
        self.payload = payload
        self.traced = traced
        self.attempt = 1
        self.event = threading.Event()
        self.done = False
        self.ok = False
        self.result = None
        self.error: Optional[BaseException] = None
        self.span = None
        self.reaped = False
        self.discarded = False
        self.started_at: Optional[float] = None
        self.dispatched_at = time.monotonic()


class _WorkerSlot:
    """One supervised worker process and its result pipe."""

    __slots__ = ("proc", "conn", "pid", "current", "current_started",
                 "doomed")

    def __init__(self, proc, conn, pid):
        self.proc = proc
        self.conn = conn
        self.pid = pid
        self.current: Optional[int] = None  # task id it announced last
        self.current_started: Optional[float] = None
        self.doomed = False  # already SIGKILLed as hung


class WorkerPool:
    """A persistent, spawn-safe, *supervised* process pool.

    Parameters
    ----------
    workers:
        Worker process count (default: ``os.cpu_count()``).
    context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``) or a context object.  ``None`` uses the
        platform default.  All task functions are module-level, so
        ``spawn`` (macOS/Windows default) is fully supported.
    task_timeout:
        Per-task heartbeat deadline: a worker that has been *running*
        one task longer than this is killed as hung and the task
        retried.  (This replaces the old blanket reap timeout — callers
        no longer wait 600s for a worker that died instantly.)
    max_task_attempts:
        A task that kills (or hangs) its worker this many times is
        quarantined: it fails with :class:`PoisonedTaskError`, failing
        only its caller, never the pool.
    max_worker_respawns:
        Worker deaths tolerated over the pool's lifetime (default
        ``4 * workers``).  Beyond it the pool is *broken*: every pending
        and future call raises :class:`PoolUnrecoverableError` so the
        scheduler can degrade to inline evaluation.

    Supervision: a daemon thread watches one result pipe per worker.
    Workers send a synchronous ``start`` heartbeat before each task, so
    a death (pipe EOF) immediately identifies the in-flight task, which
    is transparently re-dispatched — tasks are pure/idempotent, so
    retried results are bit-identical.  Deterministic in-task exceptions are
    *not* retried; they surface to the caller on first occurrence.

    The pool starts lazily on first use; :meth:`close` (or the context
    manager form) terminates the workers and unlinks every shared-memory
    segment the pool published.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        context=None,
        task_timeout: float = 600.0,
        max_published: int = 8,
        max_task_attempts: int = 3,
        max_worker_respawns: Optional[int] = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_published < 1:
            raise ValueError("max_published must be positive")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be positive")
        import multiprocessing

        if context is None or isinstance(context, str):
            context = multiprocessing.get_context(context)
        self.workers = int(workers)
        self.task_timeout = float(task_timeout)
        self.max_published = int(max_published)
        self.max_task_attempts = int(max_task_attempts)
        if max_worker_respawns is None:
            max_worker_respawns = 4 * self.workers
        if max_worker_respawns < 0:
            raise ValueError("max_worker_respawns must be >= 0")
        self.max_worker_respawns = int(max_worker_respawns)
        self._ctx = context
        self._lock = threading.Lock()
        self._segments: Dict[str, object] = {}  # name -> SharedMemory
        self._published: "OrderedDict[str, PublishedTensors]" = OrderedDict()
        self._closed = False
        self._started_at: Optional[float] = None
        self._stats = ParallelStats(workers=self.workers)
        self._slots: List[_WorkerSlot] = []
        self._tasks: Dict[int, _PoolTask] = {}
        self._task_queue = None
        self._supervisor: Optional[threading.Thread] = None
        self._task_counter = itertools.count(1)
        self._deaths = 0
        self._broken = False
        self._broken_reason = ""
        self._last_progress = 0.0
        registry = get_registry()
        self._metric_tasks = registry.counter(
            "repro_pool_tasks_total",
            "Worker-pool tasks by kind and outcome.",
            ("kind", "status"),
        )
        self._metric_task_seconds = registry.histogram(
            "repro_pool_task_seconds",
            "Worker-side busy seconds per pool task.",
            ("kind",),
        )
        self._metric_bytes = registry.counter(
            "repro_pool_bytes_published_total",
            "Bytes copied into shared-memory segments by the pool.",
        )
        self._metric_respawns = registry.counter(
            "repro_pool_worker_respawns_total",
            "Dead or hung pool workers replaced by the supervisor.",
        )
        self._metric_retries = registry.counter(
            "repro_pool_task_retries_total",
            "Pool tasks transparently re-executed after a worker death.",
            ("kind",),
        )
        self._metric_quarantined = registry.counter(
            "repro_pool_tasks_quarantined_total",
            "Pool tasks quarantined after exhausting their attempt budget.",
        )
        self._metric_broken = registry.gauge(
            "repro_pool_broken",
            "1 when the pool's respawn budget is exhausted (unrecoverable).",
        )

    # -- lifecycle ------------------------------------------------------
    @property
    def broken(self) -> bool:
        """Whether the pool is unrecoverable (respawn budget exhausted)."""
        return self._broken

    def _spawn_slot(self) -> _WorkerSlot:
        receiver, sender = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(self._task_queue, sender),
            daemon=True,
            name="repro-pool-worker",
        )
        proc.start()
        sender.close()  # EOF on worker death reaches the supervisor
        return _WorkerSlot(proc=proc, conn=receiver, pid=proc.pid)

    def _ensure_started(self) -> None:
        chaos.on_pool_dispatch()
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._broken:
                raise PoolUnrecoverableError(self._broken_reason)
            if self._stats.started:
                return
            if os.name == "posix":
                # A worker forked before the tracker runs starts its own,
                # which at exit reports every segment it saw attached as
                # leaked and then fails to unlink what the parent already
                # did.  One tracker for the tree, started here, sees each
                # segment registered once and unlinked once.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            self._task_queue = self._ctx.Queue()
            self._slots = [self._spawn_slot() for _ in range(self.workers)]
            self._started_at = time.perf_counter()
            self._last_progress = time.monotonic()
            self._stats.started = True
            self._supervisor = threading.Thread(
                target=self._supervise,
                name="repro-pool-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    def close(self) -> None:
        """Terminate the workers and free every published segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots, self._slots = self._slots, []
            tasks = [t for t in self._tasks.values() if not t.done]
            self._tasks.clear()
            queue, self._task_queue = self._task_queue, None
            supervisor, self._supervisor = self._supervisor, None
            segments = list(self._segments.values())
            self._segments.clear()
            self._published.clear()
        for task in tasks:
            task.done = True
            task.ok = False
            task.error = RuntimeError("worker pool is closed")
            task.payload = None
            task.event.set()
        if supervisor is not None and supervisor.is_alive():
            supervisor.join(timeout=5)
        for slot in slots:
            if slot.proc.is_alive():
                slot.proc.terminate()
        for slot in slots:
            slot.proc.join(timeout=10)
            if slot.proc.is_alive():  # pragma: no cover - stuck in kernel
                slot.proc.kill()
                slot.proc.join(timeout=10)
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if queue is not None:
            queue.close()
            queue.cancel_join_thread()
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- accounting -----------------------------------------------------
    def _record(self, kind: str, meta: Optional[_TaskMeta], ok: bool) -> None:
        self._metric_tasks.inc(kind=kind, status="ok" if ok else "error")
        if meta is not None:
            self._metric_task_seconds.observe(meta.elapsed_seconds, kind=kind)
        with self._lock:
            stats = self._stats
            if ok:
                stats.tasks_completed += 1
            else:
                stats.tasks_failed += 1
            stats.tasks_by_kind[kind] = stats.tasks_by_kind.get(kind, 0) + 1
            if meta is not None:
                stats.busy_seconds += meta.elapsed_seconds
                stats.busy_seconds_by_kind[kind] = (
                    stats.busy_seconds_by_kind.get(kind, 0.0)
                    + meta.elapsed_seconds
                )
                key = str(meta.pid)
                stats.busy_by_worker[key] = (
                    stats.busy_by_worker.get(key, 0.0) + meta.elapsed_seconds
                )

    def stats(self) -> ParallelStats:
        """A snapshot of the pool's lifetime statistics."""
        with self._lock:
            stats = ParallelStats(
                workers=self._stats.workers,
                started=self._stats.started,
                tasks_completed=self._stats.tasks_completed,
                tasks_failed=self._stats.tasks_failed,
                busy_seconds=self._stats.busy_seconds,
                bytes_published=self._stats.bytes_published,
                shm_segments=len(self._segments),
                worker_respawns=self._stats.worker_respawns,
                task_retries=self._stats.task_retries,
                tasks_quarantined=self._stats.tasks_quarantined,
                broken=self._broken,
                tasks_by_kind=dict(self._stats.tasks_by_kind),
                busy_seconds_by_kind=dict(self._stats.busy_seconds_by_kind),
                busy_by_worker=dict(self._stats.busy_by_worker),
            )
            if self._started_at is not None:
                stats.wall_seconds = time.perf_counter() - self._started_at
        budget = stats.workers * stats.wall_seconds
        stats.utilization = stats.busy_seconds / budget if budget > 0 else 0.0
        return stats

    def cache_stats(self) -> List[Dict]:
        """Best-effort per-worker cache reports (deduped by pid).

        Submits ``2 * workers`` probe tasks so every worker is likely to
        answer at least once; workers that never pick one up are simply
        absent this round.  Returns an empty list when the pool has not
        started — no cold start just to read empty caches.
        """
        with self._lock:
            if self._closed or self._broken or not self._stats.started:
                return []
        probes: List[_PoolTask] = []
        try:
            for _ in range(2 * self.workers):
                probes.append(self._dispatch("cache-stats", None,
                                             ensure=False))
        except Exception:  # pragma: no cover - pool torn down mid-probe
            pass
        reports: Dict[int, Dict] = {}
        for task in probes:
            try:
                report = self._reap(task)
            except Exception:
                continue
            reports.setdefault(report["pid"], report)
        return [reports[pid] for pid in sorted(reports)]

    # -- task dispatch (supervised, trace-aware) ------------------------
    def _dispatch(self, kind: str, payload, ensure: bool = True) -> _PoolTask:
        """Enqueue one task; returns the parent-side task record.

        The envelope is pickled *here*, synchronously, so an unpicklable
        payload raises in the caller (never in a queue feeder thread).
        The ``traced`` flag travels with the envelope; the worker wraps
        the task in :func:`_run_traced` and :meth:`_reap` grafts the
        returned span tree.
        """
        if ensure:
            self._ensure_started()
        traced = trace.enabled() and kind != "cache-stats"
        task = _PoolTask(next(self._task_counter), kind, payload, traced)
        blob = pickle.dumps(
            (task.task_id, task.attempt, kind, payload, traced)
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._broken:
                raise PoolUnrecoverableError(self._broken_reason)
            queue = self._task_queue
            if queue is None:
                raise RuntimeError("worker pool is closed")
            self._tasks[task.task_id] = task
        queue.put(blob)
        return task

    def _reap(self, task: _PoolTask):
        """Wait for a task; raise its error or return its result.

        No blanket deadline here — the supervisor owns liveness.  Every
        task terminates: crashes/hangs are retried at most
        ``max_task_attempts`` times, each running attempt is bounded by
        ``task_timeout``, so the outcome is a result, a
        ``PoisonedTaskError``, a ``PoolUnrecoverableError``, or "pool
        is closed".
        """
        task.event.wait()
        task.reaped = True
        with self._lock:
            self._tasks.pop(task.task_id, None)
        if not task.ok:
            raise task.error
        if task.traced and task.span is not None:
            trace.attach(task.span)
        return task.result

    def _discard(self, task: _PoolTask) -> None:
        """Abandon a task the caller will never reap.

        Completed tasks are cleaned immediately (worker-shipped shm
        results unlinked); in-flight ones are flagged and the supervisor
        cleans them on completion.
        """
        if task.reaped:
            return
        cleanup: List[str] = []
        with self._lock:
            task.discarded = True
            if not task.done:
                return
            self._tasks.pop(task.task_id, None)
            if task.ok:
                cleanup = _result_segment_names(task.result)
        for name in cleanup:
            self._reclaim_segment(name)

    def _reclaim_segment(self, name: str) -> None:
        """Adopt-and-unlink a worker-created segment nobody consumed."""
        try:
            self._adopt_segment(name)
        except FileNotFoundError:
            return
        self._free_segment(name)

    # -- supervision ----------------------------------------------------
    def _supervise(self) -> None:
        """Watch result pipes: resolve tasks, respawn dead/hung workers."""
        from multiprocessing.connection import wait as connection_wait

        try:
            while True:
                with self._lock:
                    if self._closed:
                        return
                    slots = list(self._slots)
                if not slots:
                    if self._broken:
                        return
                    time.sleep(0.02)
                    continue
                by_conn = {slot.conn: slot for slot in slots}
                try:
                    ready = connection_wait(list(by_conn), timeout=0.05)
                except OSError:  # pragma: no cover - teardown race
                    ready = []
                for conn in ready:
                    slot = by_conn[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._on_worker_death(slot)
                        continue
                    self._on_message(slot, message)
                self._enforce_deadlines()
        except Exception as error:  # pragma: no cover - must not die silent
            self._mark_broken(f"pool supervisor crashed: {error!r}")

    def _on_message(self, slot: _WorkerSlot, message) -> None:
        kind = message[0]
        now = time.monotonic()
        if kind == "start":
            _, task_id, attempt, _pid = message
            with self._lock:
                self._last_progress = now
                slot.current = task_id
                slot.current_started = now
                task = self._tasks.get(task_id)
                if (task is not None and not task.done
                        and attempt == task.attempt):
                    task.started_at = now
            return
        if kind != "done":  # pragma: no cover - unknown message
            return
        _, task_id, _attempt, ok, result, span = message
        cleanup: List[str] = []
        with self._lock:
            self._last_progress = now
            if slot.current == task_id:
                slot.current = None
                slot.current_started = None
            task = self._tasks.get(task_id)
            if task is None or task.done:
                # Stale duplicate (a re-dispatched task raced its
                # original): reclaim any segments it shipped.
                if ok:
                    cleanup = _result_segment_names(result)
            else:
                task.done = True
                task.ok = ok
                if ok:
                    task.result = result
                    task.span = span
                else:
                    task.error = result
                task.payload = None
                task.event.set()
                if task.discarded:
                    self._tasks.pop(task_id, None)
                    if ok:
                        cleanup = _result_segment_names(result)
        for name in cleanup:
            self._reclaim_segment(name)

    def _on_worker_death(self, slot: _WorkerSlot,
                         reason: str = "exited") -> None:
        with self._lock:
            if self._closed or slot not in self._slots:
                return
            self._slots.remove(slot)
            current_id = slot.current
            self._deaths += 1
            deaths = self._deaths
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(timeout=10)
        if current_id is not None:
            self._retry_task(
                current_id,
                f"worker pid {slot.pid} {reason} while running it",
            )
        if deaths > self.max_worker_respawns:
            self._mark_broken(
                f"worker respawn budget exhausted "
                f"({self.max_worker_respawns}): last worker pid "
                f"{slot.pid} {reason}"
            )
            return
        with self._lock:
            if self._closed or self._broken:
                return
            self._slots.append(self._spawn_slot())
            self._stats.worker_respawns += 1
        self._metric_respawns.inc()

    def _retry_task(self, task_id: int, reason: str) -> None:
        """Re-dispatch (or quarantine) a task whose worker died/hung."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None or task.done:
                return
            task.attempt += 1
            task.started_at = None
            kind = task.kind
            if task.attempt > self.max_task_attempts:
                task.done = True
                task.ok = False
                task.error = PoisonedTaskError(
                    f"pool task {task.kind} #{task_id} quarantined after "
                    f"{self.max_task_attempts} attempts: {reason}"
                )
                task.payload = None
                task.event.set()
                self._stats.tasks_quarantined += 1
                if task.discarded:
                    self._tasks.pop(task_id, None)
                quarantined = True
                blob = queue = None
            else:
                quarantined = False
                blob = pickle.dumps(
                    (task.task_id, task.attempt, task.kind, task.payload,
                     task.traced)
                )
                task.dispatched_at = time.monotonic()
                queue = self._task_queue
                self._stats.task_retries += 1
        if quarantined:
            self._metric_quarantined.inc()
            return
        self._metric_retries.inc(kind=kind)
        if queue is not None:
            queue.put(blob)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        doomed: List[_WorkerSlot] = []
        stuck: List[int] = []
        with self._lock:
            for slot in self._slots:
                if (slot.current is not None and not slot.doomed
                        and slot.current_started is not None
                        and now - slot.current_started > self.task_timeout):
                    slot.doomed = True
                    doomed.append(slot)
            # A task that never started although the pool made no
            # progress for a whole deadline means its envelope was lost
            # (worker died between queue.get() and the heartbeat).
            # Progress gating keeps legitimately-queued tasks — waiting
            # behind a busy but healthy pool — from being re-dispatched.
            for task in self._tasks.values():
                if (not task.done and task.started_at is None
                        and now - max(task.dispatched_at,
                                      self._last_progress)
                        > self.task_timeout):
                    stuck.append(task.task_id)
        for slot in doomed:
            # SIGKILL; the death path (pipe EOF) retries its task.
            slot.proc.kill()
        for task_id in stuck:
            # Duplicate execution is waste, not corruption: tasks are
            # idempotent and the first completed attempt wins.
            self._retry_task(task_id, "never started before its deadline")

    def _mark_broken(self, reason: str) -> None:
        with self._lock:
            if self._closed or self._broken:
                return
            self._broken = True
            self._broken_reason = reason
            self._stats.broken = True
            slots, self._slots = self._slots, []
            tasks = [t for t in self._tasks.values() if not t.done]
            for task in tasks:
                if task.discarded:
                    self._tasks.pop(task.task_id, None)
        for slot in slots:
            if slot.proc.is_alive():
                slot.proc.kill()
        for slot in slots:
            slot.proc.join(timeout=10)
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for task in tasks:
            task.done = True
            task.ok = False
            task.error = PoolUnrecoverableError(reason)
            task.payload = None
            task.event.set()
        self._metric_broken.set(1)

    # -- shared-memory transport ---------------------------------------
    def _new_segment(self, size: int):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=max(1, size))
        with self._lock:
            self._segments[segment.name] = segment
            self._stats.bytes_published += size
        self._metric_bytes.inc(size)
        return segment

    def _adopt_segment(self, name: str):
        """Take ownership of a worker-created segment (attach + track).

        The attach registers the name with the resource tracker; the
        eventual ``unlink`` in :meth:`_free_segment`/:meth:`close`
        unregisters it, so no manual bookkeeping is needed here.
        """
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
        with self._lock:
            self._segments[name] = segment
        return segment

    def _free_segment(self, name: str) -> None:
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def _tensor_refs(
        self, tensors: Sequence[TermTensor], cached: bool = False
    ) -> Tuple[List[Tuple], List[str]]:
        """Transport refs for a tensor batch (+ names of fresh segments).

        ``cached=True`` marks the refs as long-lived publications the
        workers may keep zero-copy attachments to; per-call shipments
        leave it False so workers copy-and-detach (see
        :func:`_tensor_from_ref`).
        """
        refs: List[Tuple] = []
        names: List[str] = []
        for tensor in tensors:
            data = np.ascontiguousarray(tensor.data)
            if data.nbytes < _MIN_SHM_BYTES:
                refs.append(("inline", tensor))
                continue
            segment = self._new_segment(data.nbytes)
            view = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
            view[:] = data
            names.append(segment.name)
            refs.append(
                (
                    "shm",
                    segment.name,
                    data.shape,
                    data.dtype.str,
                    tensor.subcircuit_index,
                    list(tensor.cut_order),
                    tensor.num_effective,
                    cached,
                )
            )
        return refs, names

    def publish(self, cut_circuit, tensors: Sequence[TermTensor]) -> PublishedTensors:
        """Publish a cut's full term tensors once, for plan-task reuse.

        The returned handle is what shard/plan tasks reference; the
        tensors themselves never ride in a task pickle again.  Segments
        live until :meth:`unpublish` or :meth:`close`; as a backstop
        for callers that never unpublish (transient per-job
        reconstructors against a long-lived service pool), the pool
        keeps at most ``max_published`` publications and evicts the
        oldest — plans still in flight against an evicted handle fail
        cleanly with ``FileNotFoundError``, so size ``max_published``
        above the expected query concurrency.
        """
        refs, names = self._tensor_refs(tensors, cached=True)
        handle = PublishedTensors(
            handle_id=uuid.uuid4().hex,
            refs=refs,
            cut_blob=pickle.dumps(cut_circuit),
            nbytes=sum(int(t.data.nbytes) for t in tensors),
            segment_names=names,
        )
        evicted = []
        with self._lock:
            self._published[handle.handle_id] = handle
            while len(self._published) > self.max_published:
                _, oldest = self._published.popitem(last=False)
                evicted.append(oldest)
        for old in evicted:
            for name in old.segment_names:
                self._free_segment(name)
        return handle

    def unpublish(self, handle: PublishedTensors) -> None:
        """Free a published tensor set's shared-memory segments."""
        with self._lock:
            self._published.pop(handle.handle_id, None)
        for name in handle.segment_names:
            self._free_segment(name)

    # -- the ordered map every pooled call goes through ----------------
    def _map(
        self, tasks: Iterable[Tuple[str, object]], window: Optional[int] = None
    ) -> Iterator:
        """Run ``(kind, payload)`` tasks; yield their values in order.

        Every task function returns ``(value, _TaskMeta)``; the meta is
        recorded here and the value yielded in submission order.  At most
        ``window`` tasks run ahead of the consumer (``None``: all of them
        are dispatched at once).  A failed task raises in the consumer,
        and on any exit the unreaped remainder is discarded, so the
        supervisor reclaims the segments those tasks ship back.
        """
        self._ensure_started()
        tasks = iter(tasks)
        pending: "deque[_PoolTask]" = deque()
        try:
            while True:
                for kind, payload in itertools.islice(
                    tasks, None if window is None else window - len(pending)
                ):
                    pending.append(self._dispatch(kind, payload))
                if not pending:
                    return
                task = pending.popleft()
                try:
                    value, meta = self._reap(task)
                except Exception:
                    self._record(task.kind, None, ok=False)
                    raise
                self._record(task.kind, meta, ok=True)
                yield value
        finally:
            while pending:
                self._discard(pending.popleft())

    # -- query-path entry points ---------------------------------------
    def contract_batch(
        self,
        batch: Sequence[Tuple[Sequence[TermTensor], Sequence[int], int]],
        strategy: str = "auto",
        early_termination: bool = True,
    ) -> List[ContractionResult]:
        """Contract many independent term sets on the warm workers.

        The pooled path of
        :meth:`~repro.postprocess.engine.ContractionEngine.contract_batch`
        — same argument triple, same result order as inline.
        """
        fresh: List[str] = []

        def tasks():
            for tensors, order, num_cuts in batch:
                refs, names = self._tensor_refs(tensors)
                fresh.extend(names)
                yield "contract", (refs, list(order), num_cuts, strategy,
                                   early_termination)

        try:
            return list(self._map(tasks()))
        finally:
            for name in fresh:
                self._free_segment(name)

    def run_plans(
        self,
        handle: PublishedTensors,
        plans: Sequence[QueryPlan],
        strategy: str = "auto",
        early_termination: bool = True,
        top_k: Optional[int] = None,
    ) -> Iterator[Tuple[int, object, int, int, int]]:
        """Execute query plans against published tensors, concurrently.

        Yields ``(index, result, cache_hits, cache_misses, nbytes)`` in
        *submission order* (so shard streams stay ordered).  ``result``
        is the probability vector, or — with ``top_k`` — the shard's
        top-k ``(probability, offset)`` candidates.

        Submission is windowed at ``2 * workers`` tasks ahead of the
        consumer, so a slowly-consumed (or abandoned) shard stream
        never buffers more than a window of result vectors; on early
        generator close the in-flight remainder is drained and its
        worker-created segments freed.
        """
        tasks = (
            ("plan", (handle.handle_id, handle.cut_blob, handle.refs, plan,
                      strategy, early_termination, top_k))
            for plan in plans
        )
        values = self._map(tasks, window=max(2, 2 * self.workers))
        with contextlib.closing(values):
            for index, (shipped, hits, misses, nbytes) in enumerate(values):
                if shipped[0] == "shm":
                    _, name, shape, dtype = shipped
                    segment = self._adopt_segment(name)
                    vector = np.array(np.ndarray(
                        shape, dtype=np.dtype(dtype), buffer=segment.buf
                    ))
                    self._free_segment(name)
                    yield index, vector, hits, misses, nbytes
                else:
                    yield index, shipped[1], hits, misses, nbytes

    def map_variant_batches(
        self, payloads: Sequence[Tuple]
    ) -> List[Tuple[object, int]]:
        """Evaluate whole batches of subcircuit variants, warm.

        Each payload is a work unit of
        :class:`~repro.core.executor.VariantExecutor` and leads with its
        task kind: ``("variant-batch", subcircuit, (start, stop))``, a
        range of basis columns, or ``("noisy-variant-batch", subcircuit,
        init_combos, spec)``.  Returns ``(slab, num_body_passes)``
        per payload, in order: the ``(columns, 2^width)`` amplitude slab,
        or the ``(len(init_combos), 3^O, 2^width)`` distributions slab.
        """
        return list(self._map((payload[0], payload) for payload in payloads))
