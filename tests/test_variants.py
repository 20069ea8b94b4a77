"""Tests for subcircuit variant generation and evaluation."""

import numpy as np
import pytest

from repro import QuantumCircuit, cut_circuit
from repro.core import VariantExecutor
from repro.cutting import (
    generate_variants,
    num_physical_variants,
    variant_circuit,
)
from repro.cutting.variants import SubcircuitVariant
from repro.sim import simulate_probabilities


@pytest.fixture
def fig4_cut(fig4_circuit):
    return cut_circuit(fig4_circuit, [(2, 1)])


class TestVariantEnumeration:
    def test_counts_match_3O_4rho(self, fig4_cut):
        up, down = fig4_cut.subcircuits
        assert num_physical_variants(up) == 3  # one measurement line
        assert num_physical_variants(down) == 4  # one init line
        assert len(generate_variants(up)) == 3
        assert len(generate_variants(down)) == 4

    def test_variant_shapes(self, fig4_cut):
        up, down = fig4_cut.subcircuits
        for variant in generate_variants(up):
            assert len(variant.bases) == 1 and len(variant.inits) == 0
        for variant in generate_variants(down):
            assert len(variant.inits) == 1 and len(variant.bases) == 0

    def test_multi_cut_counts(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 2).cx(0, 1)
        cut = cut_circuit(circuit, [(0, 1), (0, 2)])
        counts = sorted(num_physical_variants(s) for s in cut.subcircuits)
        # One subcircuit has 1 meas + 1 init (3*4=12); the other has the
        # complementary pair (4*3=12).
        assert counts == [12, 12]

    def test_deterministic_order(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        assert generate_variants(up) == generate_variants(up)


class TestVariantCircuits:
    def test_measurement_basis_rotations(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        base_len = len(up.circuit)
        z = variant_circuit(up, SubcircuitVariant((), ("Z",)))
        x = variant_circuit(up, SubcircuitVariant((), ("X",)))
        y = variant_circuit(up, SubcircuitVariant((), ("Y",)))
        assert len(z) == base_len
        assert len(x) == base_len + 1 and x[-1].name == "h"
        assert len(y) == base_len + 2
        assert [g.name for g in y.gates[-2:]] == ["sdg", "h"]

    def test_initialization_preps(self, fig4_cut):
        down = fig4_cut.subcircuits[1]
        base_len = len(down.circuit)
        zero = variant_circuit(down, SubcircuitVariant(("zero",), ()))
        one = variant_circuit(down, SubcircuitVariant(("one",), ()))
        plus = variant_circuit(down, SubcircuitVariant(("plus",), ()))
        plus_i = variant_circuit(down, SubcircuitVariant(("plus_i",), ()))
        assert len(zero) == base_len
        assert one[0].name == "x"
        assert plus[0].name == "h"
        assert [g.name for g in plus_i.gates[:2]] == ["h", "s"]

    def test_prep_targets_init_line(self, fig4_cut):
        down = fig4_cut.subcircuits[1]
        line = down.init_lines[0].line
        one = variant_circuit(down, SubcircuitVariant(("one",), ()))
        assert one[0].qubits == (line,)

    def test_wrong_variant_shape_rejected(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        with pytest.raises(ValueError):
            variant_circuit(up, SubcircuitVariant(("zero",), ("Z",)))
        with pytest.raises(ValueError):
            variant_circuit(up, SubcircuitVariant((), ()))


class TestEvaluation:
    def test_default_backend_is_statevector(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = VariantExecutor().run([up])[0]
        for variant in generate_variants(up):
            expected = simulate_probabilities(variant_circuit(up, variant))
            assert np.allclose(
                result.vector(variant.inits, variant.bases), expected
            )

    def test_result_vectors_are_distributions(self, fig4_cut):
        for sub in fig4_cut.subcircuits:
            result = VariantExecutor().run([sub])[0]
            assert result.distributions.shape == (
                4 ** len(sub.init_lines), 3 ** len(sub.meas_lines), 1 << sub.width
            )
            assert np.allclose(result.distributions.sum(axis=-1), 1.0)
            assert np.all(result.distributions >= -1e-12)

    def test_custom_backend_used(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        calls = []

        def backend(circuit):
            calls.append(circuit)
            return np.full(1 << circuit.num_qubits, 1.0 / (1 << circuit.num_qubits))

        result = VariantExecutor(backend=backend).run([up])[0]
        assert len(calls) == num_physical_variants(up)
        assert np.allclose(result.distributions, 1.0 / (1 << up.width))

    def test_backend_size_mismatch_detected(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        with pytest.raises(ValueError):
            VariantExecutor(backend=lambda c: np.ones(2)).run([up])
