"""The batched variant execution layer (:mod:`repro.core.executor`)."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CutQC, build_circuit_graph, make_device, simulate_probabilities
from repro.core import RunConfig, VariantExecutor
from repro.core import executor as executor_module
from repro.cutting import cut_circuit_from_assignment, num_physical_variants
from repro.devices.pool import DevicePool
from repro.library import bv
from repro.postprocess import WorkerPool
from repro.sim import NoiseModel
from tests.conftest import random_connected_circuit
from tests.shot_merge_oracle import first_recursion_error
from tests.variant_oracle import evaluate_subcircuit, evaluate_variants


def _ideal(name, qubits, seed=0):
    return make_device(name, qubits, "line", noise=NoiseModel(), seed=seed)


@pytest.fixture
def bv_cut():
    return CutQC(bv(6), max_subcircuit_qubits=5).cut()


@pytest.fixture(scope="module")
def worker_pool():
    with WorkerPool(workers=2) as pool:
        yield pool


class TestVariantExecutor:
    def test_matches_per_subcircuit_evaluation(self, bv_cut):
        batched = VariantExecutor().run(bv_cut.subcircuits)
        for result, subcircuit in zip(batched, bv_cut.subcircuits):
            direct = evaluate_subcircuit(subcircuit)
            assert result.distributions.shape == direct.distributions.shape
            assert np.allclose(result.distributions, direct.distributions)

    def test_serial_vs_parallel_bit_identical(self, bv_cut, worker_pool):
        serial_exec = VariantExecutor()
        parallel_exec = VariantExecutor(worker_pool=worker_pool)
        serial = serial_exec.run(bv_cut.subcircuits)
        parallel = parallel_exec.run(bv_cut.subcircuits)
        assert serial_exec.last_report.mode == "batched"
        assert parallel_exec.last_report.mode == "batched-pool"
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_pool_mode_exact_and_reported(self, bv_cut):
        # Batching is the default on the pool path too: each body-key
        # group is pinned to one device and evaluated batched.
        executor = VariantExecutor(RunConfig(
            pool=DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)]),
            device_shots=0,
        ))
        pooled = executor.run(bv_cut.subcircuits)
        report = executor.last_report
        assert report.mode == "batched-devicepool"
        assert report.pool_makespan_seconds > 0
        assert report.pool_makespan_seconds <= report.pool_serial_seconds
        assert executor.last_pool_placement is not None
        assert set(executor.last_pool_placement) == {
            s.index for s in bv_cut.subcircuits
        }
        serial = VariantExecutor().run(bv_cut.subcircuits)
        for a, b in zip(pooled, serial):
            assert np.allclose(a.distributions, b.distributions, atol=1e-9)

    def test_pool_affinity_pins_placement(self, bv_cut):
        pool = DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)])
        executor = VariantExecutor(RunConfig(pool=pool, device_shots=0))
        executor.run(bv_cut.subcircuits)
        placement = executor.last_pool_placement
        # Re-running a subset with the recorded affinity reproduces the
        # full batch's placement for those subcircuits.
        executor.pool_affinity = placement
        executor.run(bv_cut.subcircuits[:1])
        only = bv_cut.subcircuits[0].index
        assert executor.last_pool_placement[only] == placement[only]

    def test_cross_subcircuit_dedup(self, bv_cut):
        # The same subcircuit twice: every physical circuit is shared.
        twin = [bv_cut.subcircuits[0], bv_cut.subcircuits[0]]
        executor = VariantExecutor()
        results = executor.run(twin)
        report = executor.last_report
        assert report.num_variants == 2 * report.num_unique_circuits
        assert report.dedup_ratio == pytest.approx(2.0)
        # ... because the twins share the one amplitude array that ran.
        assert results[0].amplitudes is results[1].amplitudes
        assert report.num_unique_circuits == num_physical_variants(twin[0])
        assert np.array_equal(results[0].distributions, results[1].distributions)

    def test_amplitudes_identical_across_slabs_and_transports(
        self, worker_pool, monkeypatch
    ):
        from repro.library import supremacy

        # (rho, O) = (2, 4), (2, 5), (6, 1): 4-member init batches split
        # the last piece's 2^6 basis columns into 16 payloads.
        cut = CutQC(supremacy(12, seed=0), max_subcircuit_qubits=8).cut()
        inline = VariantExecutor()
        want = inline.run(cut.subcircuits)
        assert inline.last_report.num_body_passes == len(cut.subcircuits)
        monkeypatch.setattr(executor_module, "_INIT_BATCH", 4)
        executors = [
            VariantExecutor(),
            VariantExecutor(worker_pool=worker_pool),
        ]
        runs = [executor.run(cut.subcircuits) for executor in executors]
        modes = [executor.last_report.mode for executor in executors]
        assert modes == ["batched", "batched-pool"]
        for executor, results in zip(executors, runs):
            report = executor.last_report
            assert report.num_body_passes == 1 + 1 + 64 // 4
            assert report.num_variants == inline.last_report.num_variants
            for a, b in zip(want, results):
                assert b.amplitudes.dtype == np.complex128
                assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_exact_pipeline_never_materialises_raw_vectors(
        self, tmp_path, monkeypatch
    ):
        from repro.cutting import variants
        from repro.library import supremacy
        from repro.service.store import ArtifactStore

        def refuse(*args):
            raise AssertionError("a (4^rho, 3^O, 2^w) array was materialised")

        monkeypatch.setattr(variants, "materialise_distributions", refuse)
        pipeline = CutQC(supremacy(8, seed=0), max_subcircuit_qubits=5)
        pipeline.cut()
        results = pipeline.evaluate()
        pipeline.fd_query()
        pipeline.dd_query(max_active_qubits=3, max_recursions=4)
        pipeline.fd_top_k(4, 3)
        store = ArtifactStore(tmp_path)
        store.put_evaluation("key", results)
        restored = store.get_evaluation("key", pipeline.cut())
        CutQC(pipeline.circuit, 5).load_cut(pipeline.cut()).load_results(
            restored
        ).fd_query()
        for result in list(results) + restored:
            assert result.amplitudes is not None and result._distributions is None
        with pytest.raises(AssertionError, match="materialised"):
            results[0].distributions

    def test_report_counts(self, bv_cut):
        executor = VariantExecutor()
        results = executor.run(bv_cut.subcircuits)
        report = executor.last_report
        assert report.num_subcircuits == len(bv_cut.subcircuits)
        assert report.num_variants == sum(
            num_physical_variants(s) for s in bv_cut.subcircuits
        )
        assert report.num_unique_circuits <= report.num_variants
        assert report.elapsed_seconds >= 0.0
        for result in results:
            assert result.num_variants == num_physical_variants(
                result.subcircuit
            )
            assert result.dedup_ratio >= 1.0

    def test_backend_size_mismatch_detected(self, bv_cut):
        def bad_backend(circuit):
            return np.ones(3)

        with pytest.raises(ValueError, match="size"):
            VariantExecutor(backend=bad_backend).run(bv_cut.subcircuits)

    def test_backend_pool_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            VariantExecutor(
                RunConfig(pool=DevicePool([_ideal("a", 3)])),
                backend=simulate_probabilities,
            )

    def test_run_accepts_one_shot_iterable(self, bv_cut):
        executor = VariantExecutor()
        results = executor.run(s for s in bv_cut.subcircuits)
        assert len(results) == len(bv_cut.subcircuits)
        assert executor.last_report.num_subcircuits == len(bv_cut.subcircuits)


class TestPipelineWiring:
    def test_cutqc_parallel_evaluation_exact(self, worker_pool):
        circuit = bv(6)
        pipeline = CutQC(
            circuit, max_subcircuit_qubits=5, worker_pool=worker_pool
        )
        result = pipeline.fd_query()
        assert pipeline.execution_report is not None
        assert pipeline.execution_report.mode == "batched-pool"
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_cutqc_pool_evaluation_exact(self):
        circuit = bv(6)
        pool = DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)])
        pipeline = CutQC(
            circuit, max_subcircuit_qubits=5, pool=pool, device_shots=0
        )
        result = pipeline.fd_query()
        assert pipeline.execution_report.mode == "batched-devicepool"
        assert pipeline.execution_report.pool_makespan_seconds > 0
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_cutqc_pool_honored_in_shot_based_dd(self):
        pool = DevicePool([_ideal("a", 5, seed=1)])
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5, pool=pool, device_shots=0
        )
        query = pipeline.dd_query(
            max_active_qubits=2,
            max_recursions=3,
            shots_per_variant=4096,
            seed=7,
        )
        first = query.recursions[0]
        assert np.isclose(first.probabilities.sum(), 1.0, atol=0.05)
        # Shot noise on the pool: shot DD samples the very results the
        # pipeline's FD contracted, so at 2^16 shots per variant its first
        # recursion sits inside the one-sigma bound of FD's marginal.
        noise = NoiseModel(error_1q=0.001, error_2q=0.005, readout=0.01)
        pool = DevicePool([
            make_device(name, 5, "line", noise=noise, seed=seed)
            for name, seed in (("a", 1), ("b", 2))
        ])
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5, pool=pool, device_shots=1024,
            seed=4,
        )
        error, chi2, bound = first_recursion_error(pipeline, 3, 1 << 16, seed=7)
        assert pipeline.execution_report.mode == "batched-devicepool"
        assert error <= bound and chi2 <= 1e-3, (error, chi2, bound)

    def test_cutqc_pool_backend_conflict_rejected(self):
        pool = DevicePool([_ideal("a", 5)])
        with pytest.raises(ValueError, match="pool"):
            CutQC(
                bv(6),
                max_subcircuit_qubits=5,
                backend=simulate_probabilities,
                pool=pool,
            )

    def test_evaluate_subcircuit_reports_dedup(self):
        cut = CutQC(bv(6), max_subcircuit_qubits=5).cut()
        for subcircuit in cut.subcircuits:
            result = evaluate_subcircuit(subcircuit)
            assert result.num_variants == num_physical_variants(subcircuit)
            assert 1 <= result.num_unique_circuits <= result.num_variants
            assert result.dedup_ratio >= 1.0


def _recording(log, backend):
    """``backend`` that also appends each circuit it runs to ``log``."""

    def run(circuit):
        log.append((circuit.num_qubits, circuit.gates))
        return backend(circuit)

    return run


def _three_cluster_cut(n, seed):
    """A random 3-way split: lines both initialised and measured, and
    sometimes body-key twins once the batch repeats a piece."""
    circuit = random_connected_circuit(n, 2 * n, seed)
    graph = build_circuit_graph(circuit)
    assignment = np.random.default_rng(seed).integers(0, 3, graph.num_vertices)
    return cut_circuit_from_assignment(circuit, list(assignment), graph=graph)


class TestOneEvaluationPath:
    """Every evaluation is a body-key group of init batches; a custom
    backend is the group's evaluator and runs exactly the circuits the
    per-variant loop (:mod:`tests.variant_oracle`) ran, in its order."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_groups_replay_the_per_variant_loop(self, n, seed):
        cut = _three_cluster_cut(n, seed)
        pieces = [
            s for s in cut.subcircuits if num_physical_variants(s) <= 4**4
        ]
        if not pieces:
            return
        batch = pieces + pieces[:1]  # a body-key twin: cross-piece dedup
        oracle = evaluate_variants(batch)
        for got, want in zip(VariantExecutor().run(batch), oracle):
            assert np.abs(got.distributions - want.distributions).max() <= 1e-12

        seen, expected = [], []
        executor = VariantExecutor(
            backend=_recording(seen, simulate_probabilities)
        )
        recorded = executor.run(batch)
        evaluate_variants(batch, _recording(expected, simulate_probabilities))
        assert seen == expected
        assert len(seen) == executor.last_report.num_unique_circuits
        assert executor.last_report.mode == "backend"
        for got, want in zip(recorded, oracle):
            assert got.mode == "backend" and got.num_body_passes == 0
            assert np.array_equal(got.distributions, want.distributions)

        device = make_device(
            "p", max(s.width for s in batch), "line",
            noise=NoiseModel(0.01, 0.02, 0.02), seed=seed,
        )
        noisy = VariantExecutor(
            backend=device.backend(shots=64, trajectories=2, seed=seed)
        ).run(batch)
        reference = evaluate_variants(
            batch, device.backend(shots=64, trajectories=2, seed=seed)
        )
        for got, want in zip(noisy, reference):
            assert np.array_equal(got.distributions, want.distributions)

    def test_backend_runs_inline_beside_a_worker_pool(self, bv_cut, worker_pool):
        seen = []
        executor = VariantExecutor(
            backend=_recording(seen, simulate_probabilities),
            worker_pool=worker_pool,
        )
        results = executor.run(bv_cut.subcircuits)
        assert executor.last_report.mode == "backend"
        assert len(seen) == executor.last_report.num_variants
        for got, want in zip(results, evaluate_variants(bv_cut.subcircuits)):
            assert np.array_equal(got.distributions, want.distributions)

    def test_no_per_variant_surface_in_src(self):
        """The removed knob and second evaluator stay removed: no
        ``sim_batch`` identifier outside ``JobSpec.from_dict``'s legacy
        drop, and no ``map_backend`` / ``evaluate_subcircuit`` at all."""
        forbidden = {"sim_batch", "no_sim_batch", "map_backend",
                     "evaluate_subcircuit"}
        root = pathlib.Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            exempt = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "from_dict":
                    exempt.update(id(child) for child in ast.walk(node))
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.arg):
                    names = [node.arg]
                elif isinstance(node, ast.keyword):
                    names = [node.arg]
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.alias):
                    names = [node.name, node.asname]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if id(node) not in exempt:
                        names = [node.value.lstrip("-").replace("-", "_")]
                for name in names:
                    if name in forbidden:
                        found.append(f"{path.relative_to(root)}:{node.lineno} {name}")
        assert found == []
        assert not hasattr(DevicePool, "backend")
        assert not hasattr(WorkerPool, "map_backend")
