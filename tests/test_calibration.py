"""Tests for calibration data, noise-adaptive layout, calibrated devices."""

import networkx as nx
import numpy as np
import pytest

from repro import QuantumCircuit, make_device, simulate_probabilities
from repro.devices.calibration import (
    CalibratedDevice,
    Calibration,
    noise_adaptive_layout,
)
from repro.library import bv, bv_solution
from repro.sim import NoiseModel
from repro.utils import bitstring_to_index


def _line_device(n=6, seed=0, noise=None):
    return make_device(
        "cal-test", n, "line",
        noise=noise or NoiseModel(error_1q=0.001, error_2q=0.01, readout=0.02),
        seed=seed,
    )


class TestCalibration:
    def test_synthetic_covers_device(self):
        device = _line_device()
        calibration = Calibration.synthetic(device, seed=1)
        assert set(calibration.error_1q) == set(range(device.num_qubits))
        assert set(calibration.error_2q) == set(device.coupling_map)
        assert set(calibration.readout) == set(range(device.num_qubits))

    def test_synthetic_rates_spread_around_base(self):
        device = _line_device()
        calibration = Calibration.synthetic(device, spread=0.5, seed=2)
        rates = list(calibration.error_2q.values())
        assert min(rates) != max(rates)
        assert 0.001 < np.median(rates) < 0.1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            Calibration(error_1q={0: 2.0}, error_2q={}, readout={})

    def test_edge_error_symmetric(self):
        calibration = Calibration(
            error_1q={0: 0.0, 1: 0.0},
            error_2q={(0, 1): 0.05},
            readout={0: 0.0, 1: 0.0},
        )
        assert calibration.edge_error(1, 0) == 0.05

    def test_describe(self):
        device = _line_device()
        text = Calibration.synthetic(device, seed=3).describe()
        assert "worst readout" in text


class TestNoiseAdaptiveLayout:
    def test_layout_connected_and_sized(self):
        device = make_device("grid", 12, "grid", rows=3, cols=4)
        calibration = Calibration.synthetic(device, seed=4)
        layout = noise_adaptive_layout(device, calibration, 5)
        assert len(layout) == 5 and len(set(layout)) == 5
        graph = nx.Graph(device.coupling_map)
        assert nx.is_connected(graph.subgraph(layout))

    def test_avoids_bad_region(self):
        # Make qubits 0-2 terrible and 3-5 pristine on a 6-line.
        device = _line_device(6)
        calibration = Calibration(
            error_1q={q: (0.05 if q < 3 else 0.0001) for q in range(6)},
            error_2q={
                e: (0.2 if min(e) < 3 else 0.001) for e in device.coupling_map
            },
            readout={q: (0.1 if q < 3 else 0.001) for q in range(6)},
        )
        layout = noise_adaptive_layout(device, calibration, 3)
        assert set(layout) == {3, 4, 5}

    def test_oversized_request_rejected(self):
        device = _line_device(4)
        calibration = Calibration.synthetic(device, seed=5)
        with pytest.raises(ValueError):
            noise_adaptive_layout(device, calibration, 9)


class TestCalibratedDevice:
    def test_from_device(self):
        base = _line_device()
        device = CalibratedDevice.from_device(base, seed=6)
        assert device.num_qubits == base.num_qubits
        assert device.calibration is not None

    def test_noiseless_calibration_exact(self):
        base = _line_device(noise=NoiseModel())
        device = CalibratedDevice.from_device(base, seed=7)
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        out = device.run(circuit, shots=0)
        assert np.allclose(out, simulate_probabilities(circuit), atol=1e-9)

    def test_noisy_run_valid_distribution(self):
        device = CalibratedDevice.from_device(_line_device(), seed=8)
        circuit = bv(4)
        out = device.run(circuit, shots=0, trajectories=16)
        assert np.isclose(out.sum(), 1.0, atol=1e-9)
        assert np.all(out >= -1e-12)

    def test_solution_still_dominates_at_mild_noise(self):
        device = CalibratedDevice.from_device(_line_device(), seed=9)
        circuit = bv(4)
        out = device.run(circuit, shots=4096, trajectories=16)
        assert int(np.argmax(out)) == bitstring_to_index(bv_solution(4))

    def test_calibrated_beats_uniformly_bad_layout(self):
        """Noise-adaptive layout on a lopsided calibration beats the
        topological layout that ignores it."""
        base = _line_device(6)
        lopsided = Calibration(
            error_1q={q: (0.02 if q < 3 else 0.0001) for q in range(6)},
            error_2q={
                e: (0.15 if min(e) < 3 else 0.002) for e in base.coupling_map
            },
            readout={q: (0.08 if q < 3 else 0.002) for q in range(6)},
        )
        device = CalibratedDevice.from_device(base, calibration=lopsided, seed=10)
        circuit = bv(3)
        adaptive = device.run(circuit, shots=0, trajectories=64)
        # Force the bad region via a manual transpile + uniform simulator
        # path: compare solution-state mass.
        solution = bitstring_to_index(bv_solution(3))
        from repro.devices.transpiler import transpile, compact_circuit

        bad = transpile(circuit, base, initial_layout=[0, 1, 2])
        compacted, kept = compact_circuit(bad.circuit, keep=bad.final_layout)
        wire_map = {i: p for i, p in enumerate(kept)}
        bad_dist = device._calibrated_distribution(compacted, wire_map, 64, 11)
        from repro.utils import marginalize

        keep = [kept.index(bad.final_layout[q]) for q in range(3)]
        bad_dist = marginalize(bad_dist, keep, compacted.num_qubits)
        assert adaptive[solution] > bad_dist[solution]
