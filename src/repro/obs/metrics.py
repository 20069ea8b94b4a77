"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Every layer of the pipeline used to report health through its own ad-hoc
dataclass (``ParallelStats``, ``DDStats``, ``RebindStats``, per-memo counters,
scheduler stage timings, store cache hits) with no correlation between them.
This module gives them one thread-safe sink:

* :class:`Counter` — monotonically increasing totals.
* :class:`Gauge` — last-write-wins instantaneous values (cache sizes …).
* :class:`Histogram` — fixed-bucket latency distributions with Prometheus
  cumulative-bucket semantics.

The registry is **mergeable across processes**: :meth:`MetricsRegistry.snapshot`
returns a plain JSON/pickle-able dict and :meth:`MetricsRegistry.merge` folds a
worker snapshot back in (counters/histograms add, gauges overwrite), so pool
workers can ship their numbers home with task results.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition format used
by ``GET /metrics``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "get_registry",
]

# Latency buckets spanning micro-bench spans (sub-ms fused passes) through
# multi-minute full-device queries.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)

LabelValues = Tuple[str, ...]


def _label_key(labelnames: Sequence[str], labels: Dict[str, str]) -> LabelValues:
    if len(labels) != len(labelnames):
        raise ValueError(
            f"expected labels {list(labelnames)}, got {sorted(labels)}"
        )
    try:
        return tuple(str(labels[name]) for name in labelnames)
    except KeyError as error:  # pragma: no cover - defensive
        raise ValueError(
            f"missing label {error} (expected {list(labelnames)})"
        ) from None


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _render_labels(labelnames: Sequence[str], values: LabelValues,
                   extra: Optional[Tuple[str, str]] = None) -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    ]
    if extra is not None:
        parts.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Common storage: a lock plus a map from label-values to a value."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[LabelValues, float] = {}

    def _key(self, labels: Dict[str, str]) -> LabelValues:
        return _label_key(self.labelnames, labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def snapshot(self) -> dict:
        with self._lock:
            values = [[list(key), value] for key, value in self._values.items()]
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "values": values,
        }


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def merge(self, values) -> None:
        with self._lock:
            for key, value in values:
                key = tuple(key)
                self._values[key] = self._values.get(key, 0.0) + value

    def render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def merge(self, values) -> None:
        with self._lock:
            for key, value in values:
                self._values[tuple(key)] = value

    def render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")


class Histogram:
    """Fixed-bucket histogram with Prometheus cumulative ``le`` semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(float(edge) for edge in buckets)
        self._lock = threading.Lock()
        # key -> [per-bucket counts..., overflow], plus sum and count.
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[index] += 1
            self._sums[key] += value

    def value(self, **labels: str) -> Tuple[int, float]:
        """Return ``(count, sum)`` for one label set."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                return 0, 0.0
            return sum(counts), self._sums[key]

    def bucket_counts(self, **labels: str) -> List[int]:
        """Cumulative per-bucket counts (including the ``+Inf`` bucket)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            counts = list(self._counts.get(key, [0] * (len(self.buckets) + 1)))
        total = 0
        cumulative = []
        for count in counts:
            total += count
            cumulative.append(total)
        return cumulative

    def snapshot(self) -> dict:
        with self._lock:
            values = [
                [list(key), list(counts), self._sums[key]]
                for key, counts in self._counts.items()
            ]
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "buckets": list(self.buckets),
            "values": values,
        }

    def merge(self, buckets, values) -> None:
        if tuple(buckets) != self.buckets:
            raise ValueError(
                f"histogram {self.name}: bucket mismatch during merge"
            )
        with self._lock:
            for key, counts, total in values:
                key = tuple(key)
                existing = self._counts.get(key)
                if existing is None:
                    self._counts[key] = list(counts)
                    self._sums[key] = total
                else:
                    for index, count in enumerate(counts):
                        existing[index] += count
                    self._sums[key] += total

    def render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(
                (key, list(counts), self._sums[key])
                for key, counts in self._counts.items()
            )
        for key, counts, total in items:
            cumulative = 0
            for edge, count in zip(self.buckets, counts):
                cumulative += count
                labels = _render_labels(
                    self.labelnames, key, extra=("le", _format_value(edge))
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            cumulative += counts[-1]
            labels = _render_labels(self.labelnames, key, extra=("le", "+Inf"))
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {cumulative}")


class MetricsRegistry:
    """Thread-safe collection of named metrics with one shared namespace.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object (and raise if
    the kind does not match, so two layers cannot silently collide).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help, labelnames), "counter"
        )

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help, labelnames), "gauge"
        )

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, labelnames, buckets),
            "histogram",
        )

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before every render/snapshot.

        Collectors refresh pull-style gauges (cache sizes, queue depths)
        so scrapes see current values without every cache pushing on
        mutation.  Collector failures are swallowed: a broken gauge must
        not take down the scrape endpoint.
        """
        with self._lock:
            self._collectors.append(collector)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector(self)
            except Exception:  # noqa: BLE001 - scrapes must survive
                pass

    def snapshot(self, run_collectors: bool = True) -> dict:
        if run_collectors:
            self._run_collectors()
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.snapshot() for name, metric in sorted(metrics.items())}

    def merge(self, snapshot: dict) -> None:
        """Fold a worker-process snapshot into this registry.

        Counters and histograms accumulate; gauges take the snapshot's
        value (workers label theirs by pid, so nothing collides).
        """
        for name, doc in snapshot.items():
            kind = doc["kind"]
            if kind == "counter":
                metric = self.counter(name, doc.get("help", ""),
                                      doc.get("labelnames", ()))
                metric.merge(doc["values"])
            elif kind == "gauge":
                metric = self.gauge(name, doc.get("help", ""),
                                    doc.get("labelnames", ()))
                metric.merge(doc["values"])
            elif kind == "histogram":
                metric = self.histogram(name, doc.get("help", ""),
                                        doc.get("labelnames", ()),
                                        doc["buckets"])
                metric.merge(doc["buckets"], doc["values"])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self._run_collectors()
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            metric.render(lines)
        return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every pipeline layer feeds."""
    return _REGISTRY
