"""Multi-tenant admission control and weighted-fair scheduling.

Every :class:`~repro.core.job.JobSpec` names a *tenant* (the
default tenant is ``"default"``).  The scheduler consults a
:class:`TenantConfig` at two points:

* **admission** — :meth:`TenantConfig.admit` rejects a submission with a
  typed :class:`QuotaExceededError` when the tenant is disabled
  (``weight == 0`` or ``max_queued == 0``) or its backlog already holds
  ``max_queued`` jobs.  The HTTP layer maps the error onto a ``429``
  response with a machine-readable body (``code: "quota_exceeded"``).
* **dispatch** — the :class:`FairQueue` replaces the plain FIFO between
  ``submit()`` and the worker threads.  It implements *stride
  scheduling*: each tenant accumulates virtual time at rate
  ``1 / weight`` per dispatched job, and the queue always dispatches
  the backlogged tenant with the smallest virtual time.  A tenant with
  weight 3 therefore receives ~3x the dispatch slots of a weight-1
  tenant while both are backlogged, and a flooding tenant can never
  starve the others — their virtual time stays behind the flooder's.
  ``max_concurrent`` caps in-flight jobs per tenant: a tenant at its
  cap is simply ineligible until :meth:`FairQueue.task_done` releases
  a slot, and other tenants' jobs flow past it.

The queue is process-local; cross-server fairness emerges because every
server runs the same policy over the same journal-replicated backlog.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional, Tuple

from ..core.job import DEFAULT_TENANT

__all__ = [
    "DEFAULT_TENANT",
    "FairQueue",
    "QuotaExceededError",
    "TenantConfig",
    "TenantPolicy",
]


class QuotaExceededError(RuntimeError):
    """A submission rejected by per-tenant admission control.

    Carries everything the HTTP layer needs for a typed ``429`` body.
    """

    def __init__(
        self,
        tenant: str,
        reason: str,
        limit: Optional[int] = None,
        queued: Optional[int] = None,
    ):
        self.tenant = tenant
        self.reason = reason
        self.limit = limit
        self.queued = queued
        detail = f"tenant {tenant!r} rejected: {reason}"
        if limit is not None:
            detail += f" (limit {limit}"
            if queued is not None:
                detail += f", queued {queued}"
            detail += ")"
        super().__init__(detail)

    def as_dict(self) -> Dict:
        return {
            "code": "quota_exceeded",
            "tenant": self.tenant,
            "reason": self.reason,
            "limit": self.limit,
            "queued": self.queued,
        }


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's scheduling weight and admission quotas.

    ``weight`` is the relative dispatch share (stride scheduling);
    ``0`` disables the tenant entirely.  ``max_queued`` bounds the
    backlog (``0`` likewise rejects every submission); ``max_concurrent``
    bounds in-flight jobs.  ``None`` means unlimited.
    """

    weight: float = 1.0
    max_queued: Optional[int] = None
    max_concurrent: Optional[int] = None

    def validate(self) -> None:
        if self.weight < 0:
            raise ValueError("tenant weight must be >= 0")
        if self.max_queued is not None and self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")

    def to_dict(self) -> Dict:
        return {
            "weight": self.weight,
            "max_queued": self.max_queued,
            "max_concurrent": self.max_concurrent,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TenantPolicy":
        policy = cls(
            weight=float(payload.get("weight", 1.0)),
            max_queued=(
                None
                if payload.get("max_queued") is None
                else int(payload["max_queued"])
            ),
            max_concurrent=(
                None
                if payload.get("max_concurrent") is None
                else int(payload["max_concurrent"])
            ),
        )
        policy.validate()
        return policy


class TenantConfig:
    """Named tenant policies plus the default applied to everyone else."""

    def __init__(
        self,
        policies: Optional[Dict[str, TenantPolicy]] = None,
        default: Optional[TenantPolicy] = None,
    ):
        self.default = default or TenantPolicy()
        self.default.validate()
        self.policies: Dict[str, TenantPolicy] = {}
        for name, policy in (policies or {}).items():
            if isinstance(policy, dict):
                policy = TenantPolicy.from_dict(policy)
            policy.validate()
            self.policies[str(name)] = policy

    def policy(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, self.default)

    def names(self) -> Tuple[str, ...]:
        return tuple(self.policies)

    def admit(self, tenant: str, queued: int) -> None:
        """Raise :class:`QuotaExceededError` if a submission must be
        rejected given the tenant's current backlog depth."""
        policy = self.policy(tenant)
        if policy.weight <= 0:
            raise QuotaExceededError(tenant, "disabled")
        if policy.max_queued is not None and queued >= policy.max_queued:
            raise QuotaExceededError(
                tenant, "max_queued",
                limit=policy.max_queued, queued=queued,
            )

    def to_dict(self) -> Dict:
        return {
            "default": self.default.to_dict(),
            "policies": {
                name: policy.to_dict()
                for name, policy in self.policies.items()
            },
        }

    @classmethod
    def coerce(cls, value) -> "TenantConfig":
        """Accept ``None`` / a config / a ``{name: policy}`` mapping."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(policies=value)
        raise TypeError(f"cannot build TenantConfig from {type(value)!r}")

    @classmethod
    def parse_specs(cls, specs: Optional[Iterable[str]]) -> "TenantConfig":
        """Build a config from CLI ``--tenant`` strings.

        Each spec is ``name:weight[:max_queued[:max_concurrent]]`` with
        empty fields meaning unlimited, e.g. ``acme:3``, ``free:1:16:2``,
        ``blocked:0``.
        """
        policies: Dict[str, TenantPolicy] = {}
        for spec in specs or ():
            parts = str(spec).split(":")
            if not parts[0]:
                raise ValueError(f"tenant spec {spec!r} has no name")
            if len(parts) > 4:
                raise ValueError(
                    f"tenant spec {spec!r}: expected "
                    "name:weight[:max_queued[:max_concurrent]]"
                )

            def _field(index: int) -> Optional[str]:
                if index < len(parts) and parts[index] != "":
                    return parts[index]
                return None

            weight = _field(1)
            max_queued = _field(2)
            max_concurrent = _field(3)
            policies[parts[0]] = TenantPolicy(
                weight=float(weight) if weight is not None else 1.0,
                max_queued=int(max_queued) if max_queued is not None else None,
                max_concurrent=(
                    int(max_concurrent) if max_concurrent is not None else None
                ),
            )
        return cls(policies=policies)


class FairQueue:
    """Weighted-fair, quota-aware multi-tenant job queue.

    Stride scheduling over per-tenant FIFOs: :meth:`pop` dispatches the
    eligible backlogged tenant with the smallest virtual time, then
    advances that tenant's virtual time by ``1 / weight``.  Tenants
    (re)activating after idling join at the current dispatch clock, so
    an idle tenant cannot bank credit and then monopolize the workers.
    """

    def __init__(self, config: Optional[TenantConfig] = None):
        self.config = config or TenantConfig()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[str]] = {}
        self._passes: Dict[str, float] = {}
        self._running: Dict[str, int] = {}
        self._clock = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    def push(self, tenant: str, item: str) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            backlog = self._queues.setdefault(tenant, deque())
            if not backlog:
                # (Re)activation: join at the current virtual time so
                # idle periods don't accumulate dispatch credit.
                self._passes[tenant] = max(
                    self._passes.get(tenant, 0.0), self._clock
                )
            backlog.append(item)
            self._cond.notify()

    def _eligible(self, tenant: str) -> bool:
        limit = self.config.policy(tenant).max_concurrent
        return limit is None or self._running.get(tenant, 0) < limit

    def pop(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[str, str]]:
        """Dispatch the next ``(tenant, item)``; blocks while empty.

        Returns ``None`` once the queue is closed (worker shutdown) or
        the timeout expires.  The caller owes a matching
        :meth:`task_done` for every successful pop.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    return None
                best: Optional[str] = None
                best_pass = 0.0
                for tenant, backlog in self._queues.items():
                    if not backlog or not self._eligible(tenant):
                        continue
                    tenant_pass = self._passes.get(tenant, 0.0)
                    if best is None or tenant_pass < best_pass:
                        best, best_pass = tenant, tenant_pass
                if best is not None:
                    item = self._queues[best].popleft()
                    weight = max(self.config.policy(best).weight, 1e-9)
                    self._clock = best_pass
                    self._passes[best] = best_pass + 1.0 / weight
                    self._running[best] = self._running.get(best, 0) + 1
                    return best, item
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def task_done(self, tenant: str) -> None:
        """Release the tenant's concurrency slot taken by :meth:`pop`."""
        with self._cond:
            self._running[tenant] = max(0, self._running.get(tenant, 0) - 1)
            self._cond.notify_all()

    def close(self) -> None:
        """Wake every blocked :meth:`pop` with ``None`` (shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def depth(self, tenant: str) -> int:
        with self._lock:
            backlog = self._queues.get(tenant)
            return len(backlog) if backlog else 0

    def depths(self) -> Dict[str, int]:
        """Backlog depth per tenant (configured tenants always listed,
        so queue-depth gauges exist even at zero)."""
        with self._lock:
            names = set(self._queues) | set(self.config.names())
            names.add(DEFAULT_TENANT)
            return {
                name: len(self._queues.get(name) or ())
                for name in sorted(names)
            }

    def running(self) -> Dict[str, int]:
        with self._lock:
            return {
                name: count
                for name, count in sorted(self._running.items())
                if count
            }
