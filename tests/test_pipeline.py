"""Tests for the end-to-end CutQC pipeline (paper Fig. 5)."""

import numpy as np
import pytest

from repro import (
    CutQC,
    build_circuit_graph,
    evaluate_with_cutqc,
    make_device,
    simulate_probabilities,
)
from repro.cutting import cut_memo_stats, cutter, searcher
from repro.library import adder, aqft, bv, hwea, supremacy
from repro.metrics import chi_square_loss
from repro.sim import NoiseModel, ShotSampler


class TestAutomaticPipeline:
    @pytest.mark.parametrize(
        "circuit,device_size",
        [
            (bv(6), 5),
            (aqft(6), 5),
            (hwea(6), 5),
            (adder(6, seed=1), 5),
            (supremacy(8, seed=3), 6),
        ],
        ids=["bv", "aqft", "hwea", "adder", "supremacy"],
    )
    def test_fd_query_matches_ground_truth(self, circuit, device_size):
        pipeline = CutQC(circuit, max_subcircuit_qubits=device_size)
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_subcircuits_respect_budget(self):
        pipeline = CutQC(bv(7), max_subcircuit_qubits=4)
        cut = pipeline.cut()
        assert cut.max_subcircuit_width() <= 4

    def test_explicit_cuts_skip_search(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, max_subcircuit_qubits=3, cuts=[(2, 1)])
        cut = pipeline.cut()
        assert pipeline.solution is None
        assert cut.num_cuts == 1

    def test_evaluate_caches_results(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, max_subcircuit_qubits=3)
        first = pipeline.evaluate()
        assert pipeline.evaluate() is first

    def test_one_call_helper(self, fig4_circuit):
        probs = evaluate_with_cutqc(fig4_circuit, 3)
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(probs, truth, atol=1e-8)

    def test_device_and_backend_mutually_exclusive(self, fig4_circuit):
        device = make_device("d", 3, "line")
        with pytest.raises(ValueError):
            CutQC(
                fig4_circuit,
                3,
                device=device,
                backend=lambda c: np.ones(2),
            )


class TestCutStageMemo:
    def test_one_graph_build_per_cut(self, monkeypatch):
        built = []

        def spy(circuit):
            built.append(circuit)
            return build_circuit_graph(circuit)

        monkeypatch.setattr(searcher, "build_circuit_graph", spy)
        monkeypatch.setattr(cutter, "build_circuit_graph", spy)
        circuit = bv(8)
        cold = CutQC(circuit, max_subcircuit_qubits=5)
        cut = cold.cut()
        assert built == [circuit]
        assert cut.graph is cold.solution.graph
        other = bv(8).x(2)
        warm = CutQC(other, max_subcircuit_qubits=5)
        assert warm.cut().graph.circuit is other
        assert built == [circuit, other]
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        assert warm.cut().assignment == cut.assignment

    def test_pipelines_sharing_a_graph_share_a_search(self):
        """Different phases, backends and seeds: one search, own answers."""
        first = hwea(8, seed=1)
        second = hwea(8, seed=2)
        exact = CutQC(first, 5).fd_query().probabilities
        device = make_device("ideal", 5, "line", noise=NoiseModel())
        noisy = CutQC(second, 5, device=device, device_shots=0)
        rebuilt = noisy.fd_query().probabilities
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        assert np.allclose(exact, simulate_probabilities(first), atol=1e-10)
        assert np.allclose(rebuilt, simulate_probabilities(second), atol=1e-8)

    def test_explicit_cuts_and_load_cut_never_consult_the_memo(
        self, fig4_circuit
    ):
        searched = CutQC(fig4_circuit, max_subcircuit_qubits=3)
        searched.cut()
        before = cut_memo_stats()
        explicit = CutQC(fig4_circuit, max_subcircuit_qubits=3, cuts=[(2, 1)])
        explicit.cut()
        loaded = CutQC(fig4_circuit, max_subcircuit_qubits=3)
        loaded.load_cut(searched.cut(), searched.solution)
        loaded.fd_query()
        assert cut_memo_stats() == before == {"hits": 0, "misses": 1, "size": 1}

    def test_search_span_says_hit_or_miss(self):
        from repro.obs import trace

        attrs = []
        for _ in range(2):
            with trace.start("job") as root:
                CutQC(bv(8), max_subcircuit_qubits=5).cut()
            (span,) = [
                child for child in root.to_dict()["children"]
                if child["name"] == "cut.search"
            ]
            attrs.append(span["attrs"])
        assert attrs[0] == {"qubits": 8, "method": "auto", "memo": "miss",
                            "vertices": 7, "searcher": "mip"}
        assert attrs[1] == dict(attrs[0], memo="hit")


class TestBackends:
    def test_shot_backend_approximates_truth(self, fig4_circuit):
        sampler = ShotSampler(shots=100_000, seed=11)
        pipeline = CutQC(fig4_circuit, 3, backend=sampler.run)
        result = pipeline.fd_query()
        truth = simulate_probabilities(fig4_circuit)
        assert chi_square_loss(np.clip(result.probabilities, 0, None), truth) < 0.02

    def test_noiseless_device_backend_exact(self, fig4_circuit):
        device = make_device("ideal", 3, "line", noise=NoiseModel(), seed=0)
        pipeline = CutQC(fig4_circuit, 3, backend=device.backend(shots=0))
        result = pipeline.fd_query()
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-8)

    def test_noisy_device_backend_reasonable(self):
        """CutQC on a small noisy device still lands near the truth."""
        circuit = bv(5)
        device = make_device(
            "noisy",
            4,
            "line",
            noise=NoiseModel(error_1q=0.001, error_2q=0.01, readout=0.01),
            seed=3,
        )
        pipeline = CutQC(circuit, 4, backend=device.backend(shots=8192, trajectories=16))
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        # Noisy, but the solution state still dominates.
        assert int(np.argmax(result.probabilities)) == int(np.argmax(truth))


class TestQueries:
    def test_dd_query_returns_query_object(self, fig4_circuit):
        pipeline = CutQC(fig4_circuit, 3)
        query = pipeline.dd_query(max_active_qubits=2, max_recursions=3)
        assert len(query.recursions) >= 1
        assert np.isclose(
            query.recursions[0].probabilities.sum(), 1.0, atol=1e-8
        )

    def test_fd_and_dd_agree_on_marginal(self, fig4_circuit):
        from repro.utils import marginalize

        pipeline = CutQC(fig4_circuit, 3)
        fd = pipeline.fd_query().probabilities
        dd = pipeline.dd_query(max_active_qubits=2, max_recursions=1)
        first = dd.recursions[0]
        assert np.allclose(
            first.probabilities,
            marginalize(fd, list(first.active), 5),
            atol=1e-8,
        )

    def test_fd_query_workers(self, fig4_circuit):
        from repro.postprocess import WorkerPool

        serial = CutQC(fig4_circuit, 3).fd_query()
        with WorkerPool(workers=2) as pool:
            parallel = CutQC(fig4_circuit, 3, worker_pool=pool).fd_query()
        assert np.allclose(
            serial.probabilities, parallel.probabilities, atol=1e-12
        )


class TestShotLevelDD:
    def test_dd_query_with_shots_per_variant(self):
        from repro.library import bv, bv_solution

        pipeline = CutQC(bv(6), max_subcircuit_qubits=5)
        query = pipeline.dd_query(
            max_active_qubits=2,
            max_recursions=3,
            shots_per_variant=8192,
            seed=4,
        )
        states = query.solution_states(threshold=0.5)
        assert states and states[0][0] == bv_solution(6)

    def test_shot_level_dd_through_noisy_device(self):
        from repro.library import bv, bv_solution

        device = make_device(
            "noisy",
            5,
            "line",
            noise=NoiseModel(error_1q=0.001, error_2q=0.005, readout=0.01),
            seed=9,
        )
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5,
            backend=device.backend(shots=0, trajectories=12),
        )
        query = pipeline.dd_query(
            max_active_qubits=3, max_recursions=2,
            shots_per_variant=4096, seed=2,
        )
        states = query.solution_states(threshold=0.3)
        assert states and states[0][0] == bv_solution(6)

    def test_shot_level_dd_samples_the_device_pipelines_results(self):
        """On the batched device engine, shot DD draws from the results
        FD contracts: at 2^16 shots per variant the first recursion sits
        inside the one-sigma bound of the same pipeline's FD marginal."""
        from repro.library import bv
        from tests.shot_merge_oracle import first_recursion_error

        device = make_device(
            "noisy",
            5,
            "line",
            noise=NoiseModel(error_1q=0.001, error_2q=0.005, readout=0.01),
            seed=9,
        )
        pipeline = CutQC(
            bv(6), max_subcircuit_qubits=5, device=device, device_shots=1024,
            seed=4,
        )
        error, chi2, bound = first_recursion_error(pipeline, 3, 1 << 16, seed=2)
        assert pipeline.execution_report.mode == "batched-noisy"
        assert error <= bound and chi2 <= 1e-3, (error, chi2, bound)
