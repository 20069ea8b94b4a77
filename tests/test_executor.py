"""The batched variant execution layer (:mod:`repro.core.executor`)."""

import numpy as np
import pytest

from repro import CutQC, QuantumCircuit, make_device, simulate_probabilities
from repro.core import VariantExecutor, circuit_fingerprint
from repro.cutting import evaluate_subcircuit, num_physical_variants
from repro.devices.pool import DevicePool
from repro.library import bv
from repro.postprocess import WorkerPool
from repro.sim import NoiseModel
from tests.shot_merge_oracle import first_recursion_error


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
        # sim_batch=0: this test pins the per-variant transport modes.
        serial_exec = VariantExecutor(sim_batch=0)
        parallel_exec = VariantExecutor(sim_batch=0, worker_pool=worker_pool)
        serial = serial_exec.run(bv_cut.subcircuits)
        parallel = parallel_exec.run(bv_cut.subcircuits)
        assert serial_exec.last_report.mode == "serial"
        assert parallel_exec.last_report.mode == "worker-pool"
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.distributions, b.distributions)

    def test_pool_mode_exact_and_reported(self, bv_cut):
        # Batching is the default on the pool path too: each body-key
        # group is pinned to one device and evaluated batched.
        executor = VariantExecutor(
            pool=DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)]),
            pool_shots=0,
        )
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

    def test_pool_legacy_per_circuit_mode(self, bv_cut):
        # sim_batch=0 keeps the per-circuit dispatch (--no-sim-batch).
        executor = VariantExecutor(
            pool=DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)]),
            pool_shots=0,
            sim_batch=0,
        )
        pooled = executor.run(bv_cut.subcircuits)
        assert executor.last_report.mode == "pool"
        batched = VariantExecutor(
            pool=DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)]),
            pool_shots=0,
        ).run(bv_cut.subcircuits)
        for a, b in zip(pooled, batched):
            assert np.allclose(a.distributions, b.distributions, atol=1e-9)

    def test_pool_affinity_pins_placement(self, bv_cut):
        pool = DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)])
        executor = VariantExecutor(pool=pool, pool_shots=0)
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
        self, worker_pool
    ):
        from repro.library import supremacy

        # (rho, O) = (2, 4), (2, 5), (6, 1): sim_batch=4 < 2^rho on the last.
        cut = CutQC(supremacy(12, seed=0), max_subcircuit_qubits=8).cut()
        inline = VariantExecutor()
        want = inline.run(cut.subcircuits)
        assert inline.last_report.num_body_passes == len(cut.subcircuits)
        executors = [
            VariantExecutor(sim_batch=4),
            VariantExecutor(sim_batch=4, worker_pool=worker_pool),
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
                backend=simulate_probabilities,
                pool=DevicePool([_ideal("a", 3)]),
            )

    def test_run_accepts_one_shot_iterable(self, bv_cut):
        executor = VariantExecutor()
        results = executor.run(s for s in bv_cut.subcircuits)
        assert len(results) == len(bv_cut.subcircuits)
        assert executor.last_report.num_subcircuits == len(bv_cut.subcircuits)

    def test_fingerprint_distinguishes_circuits(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        c = QuantumCircuit(2).h(1).cx(0, 1)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)


class TestPipelineWiring:
    def test_cutqc_parallel_evaluation_exact(self, worker_pool):
        circuit = bv(6)
        # sim_batch=0: pins the per-variant worker-pool transport.
        pipeline = CutQC(
            circuit, max_subcircuit_qubits=5, worker_pool=worker_pool,
            sim_batch=0,
        )
        result = pipeline.fd_query()
        assert pipeline.execution_report is not None
        assert pipeline.execution_report.mode == "worker-pool"
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_cutqc_pool_evaluation_exact(self):
        circuit = bv(6)
        pool = DevicePool([_ideal("a", 5, seed=1), _ideal("b", 5, seed=2)])
        pipeline = CutQC(
            circuit, max_subcircuit_qubits=5, pool=pool, pool_shots=0
        )
        result = pipeline.fd_query()
        assert pipeline.execution_report.mode == "batched-devicepool"
        assert pipeline.execution_report.pool_makespan_seconds > 0
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_cutqc_pool_honored_in_shot_based_dd(self):
        pool = DevicePool([_ideal("a", 5, seed=1)])
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5, pool=pool, pool_shots=0
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
            bv(6), max_subcircuit_qubits=5, pool=pool, pool_shots=1024, seed=4
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
