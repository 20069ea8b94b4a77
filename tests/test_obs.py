"""Tests for the observability subsystem: tracing spans + metrics registry."""

import json
import threading

import numpy as np
import pytest

from repro import CutQC
from repro.library import bv
from repro.obs import trace
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.postprocess.parallel import WorkerPool
from tests.variant_oracle import evaluate_subcircuit


def _span_names(doc, acc=None):
    acc = [] if acc is None else acc
    acc.append(doc["name"])
    for child in doc.get("children", []):
        _span_names(child, acc)
    return acc


def _bv8_contract_batch():
    """A one-item contraction batch over a cut bv-8 (cheap pool work)."""
    from repro.postprocess.attribution import build_term_tensor

    cut = CutQC(bv(8), max_subcircuit_qubits=5).cut()
    tensors = [build_term_tensor(evaluate_subcircuit(s))
               for s in cut.subcircuits]
    return cut, [(tensors, list(range(len(tensors))), cut.num_cuts)]


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total") is first

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_counter_monotonic(self):
        counter = Counter("c_total", "", ())
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_label_mismatch_raises(self):
        counter = Counter("c_total", "", ("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc()  # missing the label
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc(kind="a", extra="b")

    def test_thread_safety_under_concurrent_increments(self):
        """N threads x M increments must land exactly N*M on the counter
        and fill the histogram with exactly N*M observations."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "", ("worker",))
        histogram = registry.histogram(
            "hammer_seconds", "", (), buckets=(0.5, 1.0)
        )
        threads, increments = 8, 2000

        def hammer(index):
            for _ in range(increments):
                counter.inc(worker=str(index % 2))
                histogram.observe(0.25)

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == threads * increments
        count, total_sum = histogram.value()
        assert count == threads * increments
        assert total_sum == pytest.approx(0.25 * threads * increments)

    def test_histogram_bucket_edges(self):
        """An observation equal to a bucket edge belongs to that bucket
        (Prometheus ``le`` semantics), and overflow goes to +Inf only."""
        histogram = Histogram("h", "", (), buckets=(0.1, 1.0, 10.0))
        for value in (0.1, 0.05, 1.0, 1.0001, 10.0, 99.0):
            histogram.observe(value)
        # cumulative: le=0.1 -> 2, le=1.0 -> 3, le=10.0 -> 5, +Inf -> 6
        assert histogram.bucket_counts() == [2, 3, 5, 6]
        count, total = histogram.value()
        assert count == 6
        assert total == pytest.approx(0.1 + 0.05 + 1.0 + 1.0001 + 10.0 + 99.0)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", "", (), buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", "", (), buckets=(1.0, 1.0))

    def test_render_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things counted", ("kind",)).inc(
            3, kind="x"
        )
        registry.gauge("b").set(1.5)
        registry.histogram("c_seconds", "", (), buckets=(1.0,)).observe(0.5)
        text = registry.render()
        assert "# HELP a_total things counted" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{kind="x"} 3' in text
        assert "b 1.5" in text
        assert 'c_seconds_bucket{le="1"} 1' in text
        assert 'c_seconds_bucket{le="+Inf"} 1' in text
        assert "c_seconds_sum 0.5" in text
        assert "c_seconds_count 1" in text

    def test_snapshot_merge_accumulates(self):
        """A worker snapshot folds in: counters/histograms add, gauges
        overwrite — the cross-process merge contract."""
        worker = MetricsRegistry()
        worker.counter("m_total", "", ("k",)).inc(2, k="a")
        worker.gauge("g", "", ("pid",)).set(7, pid="123")
        worker.histogram("h_seconds", "", (), buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("m_total", "", ("k",)).inc(1, k="a")
        snapshot = worker.snapshot(run_collectors=False)
        # Snapshots must survive JSON (they cross process boundaries).
        parent.merge(json.loads(json.dumps(snapshot)))
        parent.merge(json.loads(json.dumps(snapshot)))
        assert parent.counter("m_total").value(k="a") == 5
        assert parent.gauge("g").value(pid="123") == 7
        count, _ = parent.histogram("h_seconds", buckets=(1.0,)).value()
        assert count == 2

    def test_collector_refreshes_gauges_on_render(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pull_me")
        state = {"value": 0}
        registry.add_collector(
            lambda _reg: gauge.set(state["value"])
        )
        state["value"] = 42
        assert "pull_me 42" in registry.render()

    def test_collector_failure_does_not_break_render(self):
        registry = MetricsRegistry()
        registry.counter("ok_total").inc()

        def broken(_registry):
            raise RuntimeError("boom")

        registry.add_collector(broken)
        assert "ok_total 1" in registry.render()


class TestTrace:
    def test_disabled_span_is_shared_noop(self):
        assert not trace.enabled()
        first = trace.span("anything")
        second = trace.span("else", {"k": 1})
        assert first is second  # the allocation-free singleton
        with first as handle:
            assert handle.set(x=1) is handle
        assert trace.current() is None

    def test_span_tree_structure_and_attrs(self):
        with trace.start("root", {"job": "j1"}) as root:
            with trace.span("child_a", {"n": 3}):
                with trace.span("grandchild"):
                    pass
            with trace.span("child_b") as child:
                child.set(late="yes")
        doc = root.to_dict()
        assert _span_names(doc) == ["root", "child_a", "grandchild", "child_b"]
        assert doc["attrs"]["job"] == "j1"
        assert doc["children"][0]["attrs"] == {"n": 3}
        assert doc["children"][1]["attrs"] == {"late": "yes"}
        assert doc["wall_seconds"] >= 0.0
        assert not trace.enabled()

    def test_error_recorded_and_reraised(self):
        with pytest.raises(ValueError, match="boom"):
            with trace.start("root") as root:
                with trace.span("inner"):
                    raise ValueError("boom")
        doc = root.to_dict()
        assert doc["children"][0]["error"] == "ValueError: boom"
        assert doc["error"] == "ValueError: boom"
        assert not trace.enabled()  # context restored despite the raise

    def test_round_trip_through_dict(self):
        with trace.start("root") as root:
            with trace.span("child", {"k": "v"}):
                pass
        doc = root.to_dict()
        restored = trace.Span.from_dict(json.loads(json.dumps(doc)))
        assert restored.to_dict() == doc

    def test_attach_grafts_serialized_tree(self):
        worker_doc = {"name": "worker.plan", "wall_seconds": 0.1}
        trace.attach(worker_doc)  # disabled: silently dropped
        with trace.start("root") as root:
            with trace.span("submit"):
                trace.attach(worker_doc)
        names = _span_names(root.to_dict())
        assert names == ["root", "submit", "worker.plan"]

    def test_format_tree_percentages(self):
        doc = {
            "name": "root",
            "wall_seconds": 2.0,
            "children": [
                {"name": "half", "wall_seconds": 1.0, "attrs": {"n": 4}},
            ],
        }
        rendered = trace.format_tree(doc)
        assert "root" in rendered
        assert "100.0%" in rendered
        assert "50.0%" in rendered
        assert "half (n=4)" in rendered


class TestWorkerSpanPropagation:
    def test_span_tree_round_trip_through_spawn_workers(self):
        """Pool tasks submitted under a trace must come home as
        ``worker.*`` child spans — across a *spawn* boundary, the
        strictest start method."""
        cut, batch = _bv8_contract_batch()
        with WorkerPool(workers=1, context="spawn") as pool:
            with trace.start("root") as root:
                with trace.span("submit"):
                    results = pool.contract_batch(batch)
        names = _span_names(root.to_dict())
        assert names[:2] == ["root", "submit"]
        assert "worker.contract" in names
        # The worker-side root records its own pid and the task's
        # internal spans (the contraction) underneath.
        worker = root.children[0].children[0]
        assert worker.attrs.get("pid")
        assert "contract" in _span_names(worker.to_dict())
        assert results[0].vector is not None

    def test_untraced_submission_returns_bare_results(self):
        cut, batch = _bv8_contract_batch()
        with WorkerPool(workers=1) as pool:
            assert not trace.enabled()
            results = pool.contract_batch(batch)
        assert results[0].vector is not None


class TestTracingParity:
    def test_traced_query_is_bit_identical(self):
        """Tracing must observe, never perturb: the FD distribution with
        spans enabled is byte-for-byte the untraced one."""
        plain = CutQC(bv(9), max_subcircuit_qubits=5)
        plain.cut()
        plain.evaluate()
        baseline = plain.fd_query().probabilities

        traced = CutQC(bv(9), max_subcircuit_qubits=5)
        with trace.start("parity") as root:
            traced.cut()
            traced.evaluate()
            probabilities = traced.fd_query().probabilities
        assert np.array_equal(probabilities, baseline)
        names = _span_names(root.to_dict())
        assert "cut.search" in names
        assert "query.fd" in names

    def test_pipeline_metrics_flow_to_process_registry(self):
        pipeline = CutQC(bv(8), max_subcircuit_qubits=5)
        pipeline.cut()
        pipeline.evaluate()
        pipeline.fd_query()
        text = get_registry().render()
        assert "repro_query_seconds" in text
        assert "repro_eval_variants_total" in text
