"""The persistent worker pool (:mod:`repro.postprocess.parallel`).

The headline property: every pool-dispatched query path — shard-parallel
streaming FD, merged top-k retention, and pooled DD zoom rounds —
*bit-matches* its serial counterpart (asserted both exactly and at the
1e-12 tolerance the spec names), because the workers run the identical
collapse/contract code over the identical tensors.  The pool must also
survive poisoned tasks without orphaning processes, and the job service
must surface its utilization statistics.
"""

import ast
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CutQC, cut_circuit_from_assignment
from repro.circuits import build_circuit_graph
from repro.core import VariantExecutor
from repro.library import bv, get_benchmark
from repro.postprocess import (
    ContractionEngine,
    PrecomputedTensorProvider,
    Reconstructor,
    WorkerPool,
)
from repro.postprocess import parallel as parallel_module
from repro.postprocess.attribution import build_term_tensor
from repro.postprocess.dd import DynamicDefinitionQuery
from tests.conftest import random_connected_circuit
from tests.variant_oracle import evaluate_subcircuit


@pytest.fixture(scope="module")
def pool():
    """One warm two-worker pool shared by the whole module (cheap tasks)."""
    with WorkerPool(workers=2) as shared:
        yield shared


@pytest.fixture(scope="module")
def single_pool():
    """A one-worker pool: still dispatches every multi-item batch."""
    with WorkerPool(workers=1) as shared:
        yield shared


@pytest.fixture(scope="module")
def bv8_pieces():
    cut = CutQC(bv(8), max_subcircuit_qubits=5).cut()
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    return cut, results


def _no_orphans(before):
    """All processes spawned since ``before`` have been reaped."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        extra = set(multiprocessing.active_children()) - before
        if not extra:
            return True
        time.sleep(0.05)
    return False


class TestWorkerPool:
    def test_workers_validation(self):
        with pytest.raises(ValueError, match="positive"):
            WorkerPool(workers=0)

    def test_lazy_start_and_close_idempotent(self):
        fresh = WorkerPool(workers=1)
        assert fresh.stats().started is False
        fresh.close()
        fresh.close()
        with pytest.raises(RuntimeError, match="closed"):
            fresh.contract_batch([])

    def test_contract_batch_matches_serial(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        order = list(range(len(tensors)))
        batch = [(tensors, order, cut.num_cuts)] * 3
        serial = ContractionEngine(strategy="kron").contract_batch(batch)
        pooled = pool.contract_batch(batch, strategy="kron")
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.vector, b.vector)
            assert a.num_skipped == b.num_skipped

    def test_shared_memory_transport_roundtrip(self, bv8_pieces, monkeypatch):
        """Force every tensor and result vector through shared memory."""
        monkeypatch.setattr(parallel_module, "_MIN_SHM_BYTES", 1)
        monkeypatch.setattr(parallel_module, "_MIN_SHM_RESULT_BYTES", 1)
        cut, results = bv8_pieces
        with WorkerPool(workers=2) as shm_pool:
            serial = Reconstructor(cut, results=results)
            pooled = Reconstructor(
                cut, results=results, engine=ContractionEngine(pool=shm_pool)
            )
            expected = np.concatenate(
                [s.probabilities for s in serial.shards(2)]
            )
            streamed = np.concatenate(
                [s.probabilities for s in pooled.shards(2)]
            )
            assert np.array_equal(streamed, expected)
            assert shm_pool.stats().bytes_published > 0
            # Per-call segments are freed; only the published tensors stay.
            handle = pooled._handle
            assert handle is not None
            assert shm_pool.stats().shm_segments == len(handle.segment_names)
        assert shm_pool.stats().shm_segments == 0

    def test_spawn_context_supported(self, bv8_pieces):
        """All task functions are module-level, so spawn children work."""
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        order = list(range(len(tensors)))
        with WorkerPool(workers=1, context="spawn") as spawned:
            serial = ContractionEngine(strategy="kron").contract(
                tensors, order, cut.num_cuts
            )
            [pooled] = spawned.contract_batch(
                [(tensors, order, cut.num_cuts)], strategy="kron"
            )
            assert np.array_equal(pooled.vector, serial.vector)

    def test_stats_accounting(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        order = list(range(len(tensors)))
        before = pool.stats()
        pool.contract_batch([(tensors, order, cut.num_cuts)] * 2)
        after = pool.stats()
        assert after.tasks_completed == before.tasks_completed + 2
        assert after.tasks_by_kind.get("contract", 0) >= 2
        assert after.busy_seconds >= before.busy_seconds
        assert after.wall_seconds > 0
        assert 0.0 <= after.utilization
        payload = after.as_dict()
        for key in (
            "workers",
            "tasks_completed",
            "busy_seconds",
            "utilization",
            "tasks_by_kind",
        ):
            assert key in payload


class TestPoisonedTasks:
    def test_pool_survives_poisoned_contract(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        bad_order = [99]  # out of range: the worker task raises
        with pytest.raises(Exception):
            pool.contract_batch([(tensors, bad_order, cut.num_cuts)])
        assert pool.stats().tasks_failed >= 1
        # The persistent workers are still alive and serve new work.
        order = list(range(len(tensors)))
        [ok] = pool.contract_batch([(tensors, order, cut.num_cuts)])
        assert ok.vector.size == 1 << 8

    def test_executor_poison_does_not_orphan(self, pool, bv8_pieces):
        cut, _ = bv8_pieces
        _warm(pool, bv8_pieces)
        before = set(multiprocessing.active_children())
        failed = pool.stats().tasks_failed
        executor = VariantExecutor(worker_pool=pool)
        # Every init-batch payload carries a reversed column range, whose
        # negative batch size the worker's allocation refuses.
        executor._payloads = lambda head, spec: [
            ("variant-batch", head, (2, 1))
        ]
        with pytest.raises(ValueError, match="negative"):
            executor.run(cut.subcircuits)
        assert pool.stats().tasks_failed > failed
        # The poison failed its caller only: the same workers serve on.
        served = VariantExecutor(worker_pool=pool)
        served.run(cut.subcircuits)
        assert served.last_report.mode == "batched-pool"
        assert not pool.broken
        assert _no_orphans(before)

    def test_engine_batch_poison_does_not_orphan(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        engine = ContractionEngine(strategy="kron", pool=pool)
        _warm(pool, bv8_pieces)
        before = set(multiprocessing.active_children())
        with pytest.raises(Exception):
            engine.contract_batch([(tensors, [99], cut.num_cuts)] * 2)
        order = list(range(len(tensors)))
        ok = engine.contract_batch([(tensors, order, cut.num_cuts)] * 2)
        assert [r.vector.size for r in ok] == [1 << 8] * 2
        assert not pool.broken
        assert _no_orphans(before)


def _warm(pool, bv8_pieces):
    """Start the pool's workers so they predate the orphan check."""
    cut, results = bv8_pieces
    tensors = [build_term_tensor(r) for r in results]
    pool.contract_batch([(tensors, list(range(len(tensors))), cut.num_cuts)])


def _random_cut(num_qubits, seed):
    """A valid random cut of a random connected circuit (or None)."""
    circuit = random_connected_circuit(num_qubits, 2 * num_qubits, seed)
    graph = build_circuit_graph(circuit)
    rng = np.random.default_rng(seed + 1)
    for _ in range(20):
        assignment = rng.integers(0, 2, size=graph.num_vertices)
        if 0 < assignment.sum() < graph.num_vertices:
            cut = cut_circuit_from_assignment(circuit, list(assignment))
            if cut.num_cuts <= 5:
                return cut
    return None


class TestQueryPathParity:
    """Pool-dispatched query paths bit-match their serial counterparts."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fd_stream_bit_matches_serial(self, pool, seed):
        cut = _random_cut(6, seed)
        if cut is None:
            return
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        serial = Reconstructor(cut, results=results)
        pooled = Reconstructor(
            cut, results=results, engine=ContractionEngine(pool=pool)
        )
        expected = np.concatenate(
            [s.probabilities for s in serial.shards(2)]
        )
        streamed = np.concatenate(
            [s.probabilities for s in pooled.shards(2)]
        )
        assert pooled.last_stats.transport == "pool"
        assert np.array_equal(streamed, expected)
        np.testing.assert_allclose(streamed, expected, atol=1e-12)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dd_query_bit_matches_serial(self, single_pool, seed):
        cut = _random_cut(6, seed)
        if cut is None:
            return
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]

        def query(with_pool):
            provider = PrecomputedTensorProvider(cut, results=results)
            dd = DynamicDefinitionQuery(
                provider,
                max_active_qubits=2,
                zoom_width=2,
                engine=ContractionEngine(
                    pool=single_pool if with_pool else None
                ),
            )
            dd.run(4)
            return dd

        serial = query(False)
        pooled = query(True)
        assert pooled.engine.pool is single_pool
        assert len(serial.recursions) == len(pooled.recursions)
        # Batched zoom rounds run the serial contraction code in a worker,
        # one whole bin per task, so both queries share every rounding:
        # bins that tie in exact arithmetic (symmetric circuits have many)
        # are zoomed in the same order on both sides.
        for a, b in zip(serial.recursions, pooled.recursions):
            assert a.fixed == b.fixed and a.active == b.active
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_top_k_merged_across_workers(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        serial = Reconstructor(cut, results=results)
        pooled = Reconstructor(
            cut, results=results, engine=ContractionEngine(pool=pool)
        )
        expected = serial.top_k(3, 5)
        merged = pooled.top_k(3, 5)
        assert pooled.last_stats.transport == "pool"
        assert pooled.last_stats.num_shards_emitted == 8
        assert merged == expected

    def test_shard_subset_and_order_preserved(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        pooled = Reconstructor(
            cut, results=results, engine=ContractionEngine(pool=pool)
        )
        indices = [3, 0, 2]
        shards = list(pooled.shards(2, shard_indices=indices))
        assert [s.index for s in shards] == indices

    def test_bad_shard_index_rejected(self, pool, bv8_pieces):
        cut, results = bv8_pieces
        pooled = Reconstructor(
            cut, results=results, engine=ContractionEngine(pool=pool)
        )
        with pytest.raises(ValueError, match="out of range"):
            list(pooled.shards(2, shard_indices=[4]))

    def test_cutqc_worker_pool_end_to_end(self, pool):
        serial = CutQC(bv(7), max_subcircuit_qubits=5)
        pooled = CutQC(bv(7), max_subcircuit_qubits=5, worker_pool=pool)
        assert np.allclose(
            pooled.fd_query().probabilities,
            serial.fd_query().probabilities,
            atol=1e-12,
        )
        assert pooled.execution_report.mode == "batched-pool"
        assert pooled.fd_top_k(2, 3) == serial.fd_top_k(2, 3)
        assert pooled.parallel_stats is not None
        assert pooled.parallel_stats.tasks_completed > 0
        assert serial.parallel_stats is None


def _catalog_pipelines(pool, family, qubits, device_size, **kwargs):
    """An inline and a pooled pipeline over one cut and one evaluation."""
    circuit = get_benchmark(family, qubits, **kwargs)
    inline = CutQC(circuit, device_size, strategy="auto")
    pooled = CutQC(circuit, device_size, strategy="auto", worker_pool=pool)
    pooled.load_cut(inline.cut()).load_results(inline.evaluate())
    return inline, pooled


class TestPoolParity:
    """Attaching a pool never moves an answer: it runs whole tasks only."""

    @pytest.mark.parametrize(
        "family,qubits,device_size,kwargs",
        [("supremacy", 12, 9, {"seed": 0}), ("adder", 12, 8, {"seed": 3})],
    )
    def test_fd_query_equals_inline(
        self, pool, family, qubits, device_size, kwargs
    ):
        inline, pooled = _catalog_pipelines(
            pool, family, qubits, device_size, **kwargs
        )
        expected = inline.fd_query()
        result = pooled.fd_query()
        assert np.array_equal(result.probabilities, expected.probabilities)
        assert not hasattr(result.stats, "workers")
        assert not {"kron-range", "reduce"} & set(pool.stats().tasks_by_kind)

    def test_dd_query_equals_inline(self, pool):
        inline, pooled = _catalog_pipelines(pool, "adder", 20, 12, seed=3)
        expected = inline.dd_query(10, max_recursions=48)
        query = pooled.dd_query(10, max_recursions=48)
        assert len(query.recursions) == len(expected.recursions) == 48
        for a, b in zip(expected.recursions, query.recursions):
            assert a.fixed == b.fixed and a.active == b.active
            assert np.array_equal(a.probabilities, b.probabilities)
        assert [
            (b.recursion, b.index, b.probability)
            for b in query.current_partition
        ] == [
            (b.recursion, b.index, b.probability)
            for b in expected.current_partition
        ]
        assert not {"kron-range", "reduce"} & set(pool.stats().tasks_by_kind)


class TestSegmentLifecycle:
    """Shared-memory segments must not outlive their queries."""

    def test_abandoned_shard_stream_frees_segments(self, bv8_pieces, monkeypatch):
        monkeypatch.setattr(parallel_module, "_MIN_SHM_BYTES", 1)
        monkeypatch.setattr(parallel_module, "_MIN_SHM_RESULT_BYTES", 1)
        cut, results = bv8_pieces
        with WorkerPool(workers=2) as shm_pool:
            streamer = Reconstructor(
                cut, results=results, engine=ContractionEngine(pool=shm_pool)
            )
            stream = streamer.shards(3)
            next(stream)  # consume one shard of eight, then walk away
            stream.close()
            handle = streamer._handle
            # Only the published tensors remain; every worker-created
            # result segment of the in-flight remainder was reaped.
            assert shm_pool.stats().shm_segments == len(handle.segment_names)
            streamer.close()
            assert streamer._handle is None
            assert shm_pool.stats().shm_segments == 0

    def test_publish_cap_evicts_oldest(self, bv8_pieces, monkeypatch):
        monkeypatch.setattr(parallel_module, "_MIN_SHM_BYTES", 1)
        cut, results = bv8_pieces
        tensors = [build_term_tensor(r) for r in results]
        with WorkerPool(workers=1, max_published=2) as capped:
            handles = [capped.publish(cut, tensors) for _ in range(3)]
            assert capped.stats().shm_segments == 2 * len(tensors)
            # The oldest publication's segments are gone; the newest live.
            assert handles[0].handle_id not in capped._published
            assert handles[2].handle_id in capped._published

    def test_unpicklable_backend_falls_back_to_serial(self, bv8_pieces, pool):
        cut, _ = bv8_pieces
        executor = VariantExecutor(
            backend=lambda circuit: np.ones(3), worker_pool=pool
        )
        # A custom backend never crosses the process boundary: it runs
        # inline (and raises on the bogus return value) instead of
        # surfacing a pickling error.
        with pytest.raises(ValueError, match="size"):
            executor.run(cut.subcircuits)


class TestOneProcessMechanism:
    """The WorkerPool is the only way work leaves the process."""

    def test_only_the_worker_pool_imports_multiprocessing(self):
        package = Path(repro.__file__).parent
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "multiprocessing" for m in modules):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"postprocess/parallel.py"}

    def test_every_pooled_call_goes_through_the_ordered_map(self):
        tree = ast.parse(Path(parallel_module.__file__).read_text())
        (pool_class,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "WorkerPool"
        ]
        callers = {}
        for method in pool_class.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("_dispatch", "_reap", "_record")
                ):
                    callers.setdefault(node.func.attr, set()).add(method.name)
        assert callers == {
            "_dispatch": {"_map", "cache_stats"},
            "_reap": {"_map", "cache_stats"},
            "_record": {"_map"},
        }

    def test_the_pool_runs_whole_tasks_only(self):
        assert set(parallel_module._TASK_FNS) - {"cache-stats"} == {
            "contract", "plan", "variant-batch", "noisy-variant-batch",
        }


class TestSharedMemoryOwnership:
    """Workers attach published segments; only the parent unlinks them."""

    _RUN = """
from repro import CutQC
from repro.library import bv
from repro.postprocess.parallel import WorkerPool

with WorkerPool(2) as pool:
    for n, size in ((20, 11), (22, 12)):
        pipeline = CutQC(bv(n), size, worker_pool=pool)
        pipeline.fd_top_k(4, 3)
        pipeline.dd_query(6, max_recursions=3, zoom_width=2)
"""

    def test_pooled_run_leaves_a_clean_stderr(self):
        # A worker forked before any resource tracker runs starts its
        # own, which at exit calls every attached segment leaked and
        # then fails to unlink what the parent already unlinked.
        src = str(Path(repro.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", self._RUN], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
