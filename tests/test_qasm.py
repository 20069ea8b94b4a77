"""Tests for OpenQASM 2.0 import/export."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QuantumCircuit, simulate_probabilities
from repro.circuits.qasm import QasmError, from_qasm, to_qasm
from repro.sim import simulate_statevector
from tests.conftest import random_connected_circuit


class TestExport:
    def test_header_and_register(self):
        text = to_qasm(QuantumCircuit(3).h(0))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[3];" in text
        assert "h q[0];" in text

    def test_two_qubit_gates(self):
        text = to_qasm(QuantumCircuit(2).cx(0, 1).cz(1, 0).swap(0, 1))
        assert "cx q[0],q[1];" in text
        assert "cz q[1],q[0];" in text
        assert "swap q[0],q[1];" in text

    def test_parametric_gates_render_pi(self):
        text = to_qasm(QuantumCircuit(1).rz(math.pi / 2, 0).rx(-math.pi, 0))
        assert "rz(pi/2) q[0];" in text
        assert "rx(-pi) q[0];" in text

    def test_arbitrary_angle_renders_float(self):
        text = to_qasm(QuantumCircuit(1).rz(0.1234, 0))
        assert "rz(0.1234) q[0];" in text

    def test_name_remapping(self):
        text = to_qasm(QuantumCircuit(2).i(0).p(0.5, 0).cp(0.5, 0, 1))
        assert "id q[0];" in text
        assert "u1(0.5) q[0];" in text
        assert "cu1(0.5) q[0],q[1];" in text

    def test_sy_lowered_on_export(self):
        text = to_qasm(QuantumCircuit(1).sy(0))
        assert "sy" not in text
        assert "sx q[0];" in text


class TestImport:
    def test_simple_program(self):
        circuit = from_qasm(
            """
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0],q[1];
            measure q -> c;
            """
        )
        assert circuit.num_qubits == 2
        assert [g.name for g in circuit] == ["h", "cx"]

    def test_angle_expressions(self):
        circuit = from_qasm(
            "OPENQASM 2.0; qreg q[1]; rz(pi/4) q[0]; rx(-2*pi/3) q[0]; ry(0.5) q[0];"
        )
        assert circuit[0].params[0] == pytest.approx(math.pi / 4)
        assert circuit[1].params[0] == pytest.approx(-2 * math.pi / 3)
        assert circuit[2].params[0] == pytest.approx(0.5)

    def test_comments_ignored(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\n// a comment\nqreg q[1];\nh q[0]; // trailing\n"
        )
        assert len(circuit) == 1

    def test_barriers_and_measure_skipped(self):
        circuit = from_qasm(
            "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; barrier q; "
            "measure q[0] -> c[0];"
        )
        assert [g.name for g in circuit] == ["h"]

    def test_u3_maps_to_u(self):
        circuit = from_qasm(
            "OPENQASM 2.0; qreg q[1]; u3(0.1,0.2,0.3) q[0];"
        )
        assert circuit[0].name == "u"
        assert circuit[0].params == pytest.approx((0.1, 0.2, 0.3))

    def test_unsupported_gate_rejected(self):
        with pytest.raises(QasmError, match="unsupported gate"):
            from_qasm("OPENQASM 2.0; qreg q[2]; ccx q[0],q[1],q[1];")

    def test_missing_register_rejected(self):
        with pytest.raises(QasmError, match="no quantum register"):
            from_qasm("OPENQASM 2.0;")

    def test_gate_before_register_rejected(self):
        with pytest.raises(QasmError):
            from_qasm("OPENQASM 2.0; h q[0]; qreg q[1];")

    def test_two_registers_rejected(self):
        with pytest.raises(QasmError, match="one quantum register"):
            from_qasm("OPENQASM 2.0; qreg q[1]; qreg q[2];")

    def test_wrong_version_rejected(self):
        with pytest.raises(QasmError, match="version"):
            from_qasm("OPENQASM 3.0; qreg q[1];")

    def test_param_count_checked(self):
        with pytest.raises(QasmError, match="parameter"):
            from_qasm("OPENQASM 2.0; qreg q[1]; rz q[0];")

    def test_malicious_angle_rejected(self):
        with pytest.raises(QasmError):
            from_qasm("OPENQASM 2.0; qreg q[1]; rz(__import__) q[0];")

    @pytest.mark.parametrize(
        "angle", ["9**9**9", "pi**2", "e.real", "1j", "True", "1/0", "1e400"]
    )
    def test_angle_outside_plain_arithmetic_rejected_fast(self, angle):
        # ``**`` once reached ``eval``: 9**9**9 never returned.
        began = time.perf_counter()
        with pytest.raises(QasmError, match="angle"):
            from_qasm(f"OPENQASM 2.0; qreg q[1]; rx({angle}) q[0];")
        assert time.perf_counter() - began < 0.1

    def test_error_names_the_statement_line_and_column(self):
        with pytest.raises(QasmError, match=r"^line 3, column 1: unsupported gate"):
            from_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];")
        with pytest.raises(QasmError, match=r"^line 3, column 11: .*'foo'"):
            from_qasm(
                "OPENQASM 2.0; // one; two\nqreg q[2];\n  h q[0]; foo q[1];\n"
            )


class TestRoundTrip:
    def test_handwritten_round_trip(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).t(1).cz(1, 2).rz(0.37, 2).swap(0, 2)
        recovered = from_qasm(to_qasm(circuit))
        assert recovered == circuit

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_round_trip_preserves_state(self, n, seed):
        circuit = random_connected_circuit(n, 2 * n, seed)
        recovered = from_qasm(to_qasm(circuit))
        a = simulate_statevector(circuit).amplitudes()
        b = simulate_statevector(recovered).amplitudes()
        # sy is lowered on export, so compare up to global phase.
        assert np.isclose(abs(np.vdot(a, b)), 1.0, atol=1e-9)

    def test_benchmark_circuits_export(self):
        from repro.library import BENCHMARKS, get_benchmark, valid_sizes

        for name in BENCHMARKS:
            size = valid_sizes(name, 4, 9)[0]
            kwargs = {"seed": 0} if name in ("supremacy", "adder") else {}
            circuit = get_benchmark(name, size, **kwargs)
            recovered = from_qasm(to_qasm(circuit))
            assert np.allclose(
                simulate_probabilities(circuit),
                simulate_probabilities(recovered),
                atol=1e-9,
            )
