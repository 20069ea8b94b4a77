"""JSON API surface of the job service, independent of transport.

:class:`JobServiceAPI` maps request payloads (plain dicts) onto the
scheduler and back — the HTTP server, the CLI client and in-process
tests all speak through this one layer, so the protocol is defined once.

Request shape for job creation (``POST /jobs``)::

    {
      "circuit": {"benchmark": "bv", "qubits": 11, "seed": 0},   # by name
      # or      {"qasm": "OPENQASM 2.0; ..."}                    # inline
      "device_size": 5,
      "query": {"type": "fd", "top": 5},        # or "dd" / "top_k" params
      "method": "auto", "strategy": "auto", ...
    }

``circuit`` and ``query`` may also be given flat (``benchmark=...``,
``query="fd"``); the nested form is sugar.  ``workers``, ``sim_batch``
and ``fusion_width`` fields are accepted and ignored: process
parallelism is the operator's ``--pool-workers``, and init batches and
fused blocks have one fixed size, never a per-job knob.  Errors raise
:class:`ApiError` carrying the HTTP status the transport should emit.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.metrics import get_registry
from .scheduler import JobScheduler, JobSpec
from .tenancy import QuotaExceededError

__all__ = ["ApiError", "JobServiceAPI"]

_OVERLOAD_REJECTIONS = get_registry().counter(
    "repro_overload_rejections_total",
    "Submissions rejected at the front door because the scheduler's "
    "accept queue exceeded max_pending.",
)


class ApiError(Exception):
    """A client-visible error with an HTTP status code.

    ``payload`` carries extra machine-readable fields merged into the
    JSON error body (e.g. the typed quota-rejection document).
    """

    def __init__(
        self, status: int, message: str, payload: Optional[Dict] = None
    ):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.payload = dict(payload or {})

    def as_dict(self) -> Dict:
        return {"error": self.message, "status": self.status, **self.payload}


def _flatten_payload(payload: Dict) -> Dict:
    """Fold the nested ``circuit`` / ``query`` sugar into JobSpec fields."""
    if not isinstance(payload, dict):
        raise ApiError(400, "job payload must be a JSON object")
    flat = dict(payload)
    circuit = flat.pop("circuit", None)
    if circuit is not None:
        if not isinstance(circuit, dict):
            raise ApiError(400, "circuit must be an object")
        flat.update(circuit)
    query = flat.pop("query", None)
    if isinstance(query, dict):
        query = dict(query)
        flat["query"] = query.pop("type", "fd")
        flat.update(query)
    elif query is not None:
        flat["query"] = query
    return flat


class JobServiceAPI:
    """Dict-in / dict-out handlers over one :class:`JobScheduler`.

    ``max_pending`` bounds the scheduler's accept queue: submissions
    arriving while that many jobs are already waiting are rejected with
    a typed 503 (code ``overloaded``), mirroring the 429 quota shape —
    backpressure instead of unbounded queue growth under overload.
    """

    def __init__(
        self, scheduler: JobScheduler, max_pending: Optional[int] = None
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self.scheduler = scheduler
        self.max_pending = max_pending

    # ------------------------------------------------------------------
    def create_job(self, payload: Dict) -> Dict:
        if self.max_pending is not None:
            pending = self.scheduler.queue_depth()
            if pending >= self.max_pending:
                _OVERLOAD_REJECTIONS.inc()
                raise ApiError(
                    503,
                    f"service overloaded: {pending} jobs already pending "
                    f"(max_pending={self.max_pending})",
                    payload={
                        "code": "overloaded",
                        "limit": self.max_pending,
                        "pending": pending,
                    },
                )
        try:
            spec = JobSpec.from_dict(_flatten_payload(payload))
            job_id = self.scheduler.submit(spec)
        except ApiError:
            raise
        except QuotaExceededError as error:
            # Typed admission rejection: 429 + code "quota_exceeded".
            raise ApiError(
                429, str(error), payload=error.as_dict()
            ) from None
        except (TypeError, ValueError) as error:
            raise ApiError(400, str(error)) from None
        record = self.scheduler.get(job_id)
        return {"job_id": job_id, "state": record.state}

    def _record(self, job_id: str):
        try:
            return self.scheduler.get(job_id)
        except KeyError:
            raise ApiError(404, f"unknown job {job_id!r}") from None

    def job_status(self, job_id: str) -> Dict:
        return self._record(job_id).as_dict()

    def job_result(self, job_id: str) -> Dict:
        record = self._record(job_id)
        # Jobs executed by a peer server (or a previous process) carry
        # their result in the store, not in this scheduler's memory.
        self.scheduler.load_persisted(record)
        if record.state == "failed":
            raise ApiError(500, f"job failed: {record.error}")
        if record.state == "cancelled":
            raise ApiError(410, "job was cancelled")
        if record.state != "done":
            raise ApiError(
                409, f"job is {record.state!r}; result not ready"
            )
        document = record.as_dict(include_result=True)
        return document

    def cancel_job(self, job_id: str) -> Dict:
        record = self._record(job_id)
        accepted = self.scheduler.cancel(job_id)
        return {
            "job_id": job_id,
            "cancelled": accepted,
            "state": record.state,
        }

    def job_trace(self, job_id: str) -> Dict:
        """The job's span tree (in-memory first, store fallback)."""
        record = self._record(job_id)
        document = record.trace
        if document is None:
            document = self.scheduler.store.get_trace(job_id)
        if document is None:
            raise ApiError(
                409, f"job is {record.state!r}; trace not ready"
            )
        return {"job_id": job_id, "trace": document}

    def list_jobs(self) -> Dict:
        return {
            "jobs": [
                record.as_dict() for record in self.scheduler.records()
            ]
        }

    def stats(self) -> Dict:
        return self.scheduler.stats()

    def metrics(self) -> str:
        """The process-wide registry in Prometheus text format."""
        return get_registry().render()
