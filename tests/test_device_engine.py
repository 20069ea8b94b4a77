"""``VirtualDevice.run`` is the batched noisy engine on one uncut circuit.

* the serial simulators live only in ``tests/`` (an AST guard over
  ``src/repro``);
* the direct run is a one-variant piece of
  :func:`~repro.cutting.variants.batched_noisy_variant_probabilities`,
  bit for bit, and estimates the exact channel no worse than the serial
  trajectory loop it replaced (``tests/noisy_oracle.py``);
* its seed contract: deterministic at root 0 without a seed, and
  :func:`~repro.sim.noise.check_seed`'s refusal of a bad one;
* a :class:`~repro.devices.calibration.CalibratedDevice` is refused by
  the batched engine instead of silently running uncalibrated.
"""

import ast
import pathlib

import numpy as np
import pytest

import repro
import repro.sim
from repro import CutQC, QuantumCircuit, johannesburg, make_device
from repro.core import RunConfig
from repro.core.executor import VariantExecutor
from repro.cutting.cutter import Subcircuit
from repro.cutting.variants import (
    NoisyEvalSpec,
    batched_noisy_variant_probabilities,
)
from repro.devices import CalibratedDevice, Calibration, DevicePool, bogota
from repro.library import get_benchmark
from repro.sim import NoiseModel
from tests.noisy_oracle import serial_device_run

SRC = pathlib.Path(repro.__file__).resolve().parent
SERIAL_NAMES = {"NoisySimulator", "DensityMatrix", "DensityMatrixSimulator"}


def _tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


class TestSerialSimulatorsAreOracles:
    def test_src_defines_and_imports_none_of_them(self):
        found = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
                else:
                    continue
                found += [
                    f"{path.relative_to(SRC)}:{node.lineno} {name}"
                    for name in names
                    if name in SERIAL_NAMES
                ]
        assert found == []

    def test_not_exported(self):
        assert not SERIAL_NAMES & set(repro.__all__)
        assert not SERIAL_NAMES & set(repro.sim.__all__)
        assert "apply_readout_error" not in repro.sim.__all__

    def test_device_module_has_no_serial_path(self):
        tree = ast.parse((SRC / "devices" / "device.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").lstrip(".")
                imported.add(module)
                imported.update(f"{module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(name.endswith("sim.statevector") for name in imported)
        assert not any(name.endswith("utils.marginalize") for name in imported)


class TestDirectRun:
    @pytest.mark.parametrize("shots", [0, 2048])
    def test_is_a_one_variant_piece_of_the_batched_engine(self, shots):
        device = johannesburg(seed=7)
        circuit = get_benchmark("hwea", 6)
        spec = NoisyEvalSpec(
            device=device, trajectories=12, shots=shots, seed=5
        )
        distributions, _ = batched_noisy_variant_probabilities(
            Subcircuit(index=0, circuit=circuit), spec
        )
        got = device.run(circuit, shots=shots, trajectories=12, seed=5)
        assert np.array_equal(got, distributions[0, 0])

    @pytest.mark.parametrize("name", ["bv", "hwea"])
    def test_no_worse_than_the_serial_loop_against_the_exact_channel(self, name):
        device = johannesburg(seed=7)
        circuit = get_benchmark(name, 6)
        (exact,), _ = batched_noisy_variant_probabilities(
            Subcircuit(index=0, circuit=circuit),
            NoisyEvalSpec(device=device, method="density", shots=0),
        )
        exact = exact[0]
        engine = [
            _tv(device.run(circuit, shots=0, trajectories=24, seed=seed), exact)
            for seed in range(4)
        ]
        serial = [
            _tv(
                serial_device_run(
                    device, circuit, shots=0, trajectories=24, seed=seed
                ),
                exact,
            )
            for seed in range(4)
        ]
        assert np.mean(engine) <= 1.1 * np.mean(serial), (engine, serial)


class TestSeedContract:
    CIRCUIT = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)

    def _device(self, seed):
        noise = NoiseModel(error_1q=0.01, error_2q=0.05, readout=0.02)
        return make_device("line-4", 4, "line", noise=noise, seed=seed)

    def test_no_seed_anywhere_is_root_zero(self):
        device = self._device(None)
        first = device.run(self.CIRCUIT, shots=512, trajectories=8)
        again = device.run(self.CIRCUIT, shots=512, trajectories=8)
        rooted = device.run(self.CIRCUIT, shots=512, trajectories=8, seed=0)
        assert np.array_equal(first, again)
        assert np.array_equal(first, rooted)

    def test_device_seed_is_the_default(self):
        device = self._device(11)
        assert np.array_equal(
            device.run(self.CIRCUIT, shots=512, trajectories=8),
            device.run(self.CIRCUIT, shots=512, trajectories=8, seed=11),
        )

    @pytest.mark.parametrize("seed", [-1, 2**63, 1.5, True])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            self._device(None).run(self.CIRCUIT, seed=seed)


class TestCalibratedDeviceRefused:
    def _calibrated(self):
        base = bogota(seed=7)
        qubits = range(base.num_qubits)
        calibration = Calibration(
            error_1q={q: 0.2 for q in qubits},
            error_2q={edge: 0.3 for edge in base.coupling_map},
            readout={q: 0.3 for q in qubits},
        )
        return CalibratedDevice.from_device(base, calibration=calibration)

    def test_spec(self):
        with pytest.raises(ValueError, match="bogota"):
            NoisyEvalSpec(device=self._calibrated())

    def test_pipeline_device(self):
        # Refused where the run is configured, before any work.
        with pytest.raises(ValueError, match="CalibratedDevice"):
            CutQC(get_benchmark("bv", 6), 5, device=self._calibrated())

    def test_executor_and_pool(self):
        device = self._calibrated()
        with pytest.raises(ValueError, match="CalibratedDevice"):
            VariantExecutor(RunConfig(device=device))
        with pytest.raises(ValueError, match="CalibratedDevice"):
            VariantExecutor(RunConfig(pool=DevicePool([device])))

    def test_its_own_per_circuit_run_still_works(self):
        out = self._calibrated().run(
            QuantumCircuit(2).x(0).cx(0, 1), shots=0, trajectories=4, seed=0
        )
        assert np.isclose(out.sum(), 1.0)
