"""Tests for device pools and the quantum wall-clock model."""

import numpy as np
import pytest

from repro import CutQC, QuantumCircuit, make_device, simulate_probabilities
from repro.devices.pool import DevicePool
from repro.library import bv
from repro.sim import NoiseModel


def _ideal(name, qubits, seed=0):
    return make_device(name, qubits, "line", noise=NoiseModel(), seed=seed)


def _jobs(pool, circuits, shots):
    """``(width, modelled seconds)`` placement jobs for ``circuits``."""
    return [
        (circuit.num_qubits, pool.estimate_job_seconds(circuit, shots))
        for circuit in circuits
    ]


class TestScheduling:
    def test_requires_devices(self):
        with pytest.raises(ValueError):
            DevicePool([])

    def test_round_robin_balance(self):
        pool = DevicePool([_ideal("a", 3), _ideal("b", 3)])
        circuits = [QuantumCircuit(2).h(0).cx(0, 1) for _ in range(6)]
        chosen, _ = pool.place(_jobs(pool, circuits, shots=1024))
        assert [chosen.count(device) for device in (0, 1)] == [3, 3]
        # Equal loads tie: the lowest device index wins.
        assert chosen[:2] == [0, 1]

    def test_makespan_vs_serial(self):
        pool = DevicePool([_ideal("a", 3), _ideal("b", 3)])
        circuits = [QuantumCircuit(2).h(0).cx(0, 1) for _ in range(8)]
        _, loads = pool.place(_jobs(pool, circuits, shots=4096))
        assert max(loads) < sum(loads)
        assert max(loads) >= sum(loads) / 2 - 1e-9

    def test_size_aware_placement(self):
        pool = DevicePool([_ideal("small", 2), _ideal("big", 4)])
        big_circuit = QuantumCircuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3)
        chosen, _ = pool.place(_jobs(pool, [big_circuit], shots=10))
        assert chosen == [1]

    def test_unfitting_circuit_rejected(self):
        pool = DevicePool([_ideal("small", 2)])
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        with pytest.raises(ValueError, match="fits"):
            pool.place(_jobs(pool, [circuit], shots=1))

    def test_pinned_jobs_take_their_device(self):
        pool = DevicePool([_ideal("a", 3), _ideal("b", 3)])
        jobs = [(2, 3.0), (2, 2.0), (2, 1.0)]
        assert pool.place(jobs) == ([0, 1, 1], [3.0, 3.0])
        # A pin wins over load and still counts toward its device.
        assert pool.place(jobs, {0: 1}) == ([1, 0, 0], [3.0, 3.0])

    def test_lpt_beats_unsorted_greedy(self):
        """LPT placement must not regress vs the arbitrary-order greedy
        baseline on a heterogeneous pool, and strictly wins the classic
        short-jobs-first adversarial workload."""
        pool = DevicePool([_ideal("small", 3), _ideal("big", 5)])
        shots = 100_000
        shallow = QuantumCircuit(2).cx(0, 1)
        deep = QuantumCircuit(2)
        for _ in range(3):
            deep.cx(0, 1)
        # Short jobs first: unsorted greedy splits the shorts evenly and
        # then appends the long job on top of one of them; LPT places the
        # long job first and packs the shorts around it.
        circuits = [shallow, shallow, shallow, deep]

        def unsorted_greedy_makespan(batch):
            loads = [0.0] * len(pool.devices)
            for circuit in batch:
                chosen = min(range(len(loads)), key=lambda i: loads[i])
                loads[chosen] += pool.estimate_job_seconds(circuit, shots)
            return max(loads)

        chosen, loads = pool.place(_jobs(pool, circuits, shots))
        baseline = unsorted_greedy_makespan(circuits)
        assert max(loads) < baseline
        # Placements come back in input order even though placement is LPT:
        # the long job went first, alone on device 0.
        assert chosen[3] == 0 and chosen.count(0) == 1
        # Never a regression, for any submission order of the same batch.
        import itertools

        for permutation in itertools.permutations(circuits):
            _, permuted = pool.place(_jobs(pool, permutation, shots))
            assert (
                max(permuted) <= unsorted_greedy_makespan(permutation) + 1e-12
            )

    def test_job_time_model_monotone(self):
        pool = DevicePool([_ideal("a", 3)])
        shallow = QuantumCircuit(2).cx(0, 1)
        deep = QuantumCircuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
        assert pool.estimate_job_seconds(deep, 1000) > pool.estimate_job_seconds(
            shallow, 1000
        )
        assert pool.estimate_job_seconds(shallow, 2000) > pool.estimate_job_seconds(
            shallow, 1000
        )


class TestPoolBackend:
    """``CutQC(pool=...)``: each body-key group is placed on one device."""

    def test_cutqc_through_pool_exact(self, fig4_circuit):
        pool = DevicePool([_ideal("a", 3, seed=1), _ideal("b", 3, seed=2)])
        pipeline = CutQC(fig4_circuit, 3, pool=pool, device_shots=0)
        result = pipeline.fd_query()
        truth = simulate_probabilities(fig4_circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-9)

    def test_backend_records_schedule(self, fig4_circuit):
        pool = DevicePool([_ideal("a", 3), _ideal("b", 3)])
        pipeline = CutQC(fig4_circuit, 3, pool=pool, device_shots=128)
        executor = pipeline.executor
        executor.run(pipeline.cut().subcircuits)
        report = executor.last_report
        assert report.mode == "batched-devicepool"
        assert report.num_variants == 7  # 3 upstream + 4 downstream variants
        # Two groups, two devices: one each, so the makespan is the
        # longer group and the serial time their sum.
        assert set(executor.last_pool_placement.values()) == {0, 1}
        assert 0 < report.pool_makespan_seconds < report.pool_serial_seconds

    def test_heterogeneous_pool(self):
        circuit = bv(6)
        pool = DevicePool([_ideal("tiny", 3, seed=3), _ideal("mid", 5, seed=4)])
        pipeline = CutQC(circuit, 5, pool=pool, device_shots=0)
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        assert np.allclose(result.probabilities, truth, atol=1e-9)

    def test_pool_max_qubits(self):
        pool = DevicePool([_ideal("a", 3), _ideal("b", 5)])
        assert pool.max_qubits == 5
