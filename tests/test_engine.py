"""The shared contraction engine: strategy parity and scalability.

Covers the tentpole guarantees of :mod:`repro.postprocess.engine`:

* every strategy (``kron``, ``tensor_network``, ``auto``), the
  ``WorkerPool`` path, and the DD path with all qubits active compute the *same* distribution
  on real library circuits (BV, QAOA, supremacy);
* the tensor-network path has no symbol pool — it contracts networks
  whose ``num_cuts + num_subcircuits`` exceeds the 52 letters of the old
  ``string.ascii_letters`` subscript scheme (which raised
  ``StopIteration`` there);
* the ``auto`` cost model refuses intractable ``4^K`` enumerations.
"""

import numpy as np
import pytest

from repro import CutQC, QuantumCircuit, simulate_probabilities
from repro.cutting import cut_circuit_from_assignment
from repro.library import bv, qaoa_maxcut, supremacy
from repro.postprocess import (
    ContractionEngine,
    DynamicDefinitionQuery,
    PrecomputedTensorProvider,
    WorkerPool,
    Reconstructor,
    contract_terms,
    resolve_strategy,
)
from repro.postprocess.attribution import TermTensor
from repro.postprocess.engine import _accumulate_range, _kron_cost
from repro.utils import BoundedMemo
from tests.contraction_oracle import tn_cost
from tests.variant_oracle import evaluate_subcircuit


def _library_cases():
    return [
        ("bv", bv(8), 5),
        ("qaoa", qaoa_maxcut(8, seed=3), 5),
        ("supremacy", supremacy(9, seed=1, depth=8), 6),
    ]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


class TestStrategyParity:
    """Satellite: FD kron == tensor_network == auto == WorkerPool kron
    == DD-with-all-qubits-active, on 3+ library circuits."""

    @pytest.mark.parametrize(
        "name,circuit,device",
        _library_cases(),
        ids=[case[0] for case in _library_cases()],
    )
    def test_all_paths_agree(self, name, circuit, device, pool):
        pipeline = CutQC(circuit, max_subcircuit_qubits=device)
        truth = simulate_probabilities(circuit)
        kron = pipeline.fd_query(strategy="kron")
        assert np.allclose(kron.probabilities, truth, atol=1e-8)

        network = pipeline.fd_query(strategy="tensor_network")
        auto = pipeline.fd_query(strategy="auto")
        pooled = CutQC(circuit, max_subcircuit_qubits=device, worker_pool=pool)
        pooled.load_cut(pipeline.cut()).load_results(pipeline.evaluate())
        parallel = pooled.fd_query(strategy="kron")
        for result in (network, auto, parallel):
            assert np.allclose(
                result.probabilities, kron.probabilities, atol=1e-10
            )
        assert network.stats.strategy == "tensor_network"
        assert auto.stats.strategy in ("kron", "tensor_network")

        # DD with every qubit active in one recursion is the FD query.
        provider = PrecomputedTensorProvider(
            pipeline.cut(), results=pipeline.evaluate()
        )
        n = circuit.num_qubits
        query = DynamicDefinitionQuery(provider, max_active_qubits=n)
        recursion = query.step()
        assert recursion.active == tuple(range(n))
        assert np.allclose(
            recursion.probabilities, kron.probabilities, atol=1e-8
        )


# ----------------------------------------------------------------------
# Synthetic chains (engine-level, no circuit evaluation)
# ----------------------------------------------------------------------

def _chain_tensors(num_tensors, rng):
    """A linear tensor network: cut ``i`` joins tensors ``i`` and ``i+1``.

    End tensors carry one effective qubit; middles carry none, so the
    contracted output stays tiny no matter how long the chain is.
    """
    tensors = []
    for index in range(num_tensors):
        cut_order = []
        if index > 0:
            cut_order.append(index - 1)
        if index < num_tensors - 1:
            cut_order.append(index)
        num_effective = 1 if index in (0, num_tensors - 1) else 0
        data = rng.uniform(
            0.1, 1.0, size=(4 ** len(cut_order), 1 << num_effective)
        )
        tensors.append(
            TermTensor(
                subcircuit_index=index,
                cut_order=cut_order,
                num_effective=num_effective,
                data=data,
                nonzero=np.any(data != 0.0, axis=1),
            )
        )
    return tensors


def _chain_reference(tensors):
    """Closed-form contraction of the chain as a matrix product."""
    carry = tensors[0].data.T  # (out_first, cut_0)
    for tensor in tensors[1:-1]:
        carry = carry @ tensor.data.reshape(4, 4)  # (cut_prev, cut_next)
    return (carry @ tensors[-1].data).reshape(-1)  # (out_first, out_last)


class TestSymbolExhaustionRegression:
    def test_network_contraction_beyond_52_labels(self):
        rng = np.random.default_rng(7)
        num_tensors = 28  # 28 subcircuits + 27 cuts = 55 labels > 52
        tensors = _chain_tensors(num_tensors, rng)
        order = list(range(num_tensors))
        num_cuts = num_tensors - 1
        result = contract_terms(
            tensors, order, num_cuts, strategy="tensor_network"
        )
        assert result.strategy == "tensor_network"
        assert np.allclose(result.vector, _chain_reference(tensors), rtol=1e-9)

    def test_auto_refuses_intractable_enumeration(self):
        rng = np.random.default_rng(11)
        tensors = _chain_tensors(30, rng)
        order = list(range(30))
        # 4^29 kron terms: only the network path can run this at all.
        assert (
            resolve_strategy("auto", tensors, order, 29) == "tensor_network"
        )
        result = contract_terms(tensors, order, 29, strategy="auto")
        assert np.allclose(result.vector, _chain_reference(tensors), rtol=1e-9)

    def test_real_cut_circuit_beyond_52_labels(self):
        """End-to-end: a 2-qubit circuit cut into 20 per-gate subcircuits
        (38 cuts + 20 subcircuits = 58 labels) reconstructs exactly."""
        num_gates = 20
        circuit = QuantumCircuit(2)
        circuit.ry(0.4, 0).ry(1.1, 1)
        for index in range(num_gates):
            circuit.cx(0, 1)
            circuit.rz(0.05 * (index + 1), 1)
        cut = cut_circuit_from_assignment(circuit, list(range(num_gates)))
        assert cut.num_cuts + cut.num_subcircuits > 52
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        reconstruction = Reconstructor(cut, results=results).reconstruct(
            strategy="tensor_network"
        )
        truth = simulate_probabilities(circuit)
        assert np.allclose(reconstruction.probabilities, truth, atol=1e-8)

    def test_small_chain_kron_network_cross_check(self):
        rng = np.random.default_rng(3)
        tensors = _chain_tensors(5, rng)
        order = list(range(5))
        kron = contract_terms(tensors, order, 4, strategy="kron")
        network = contract_terms(tensors, order, 4, strategy="tensor_network")
        reference = _chain_reference(tensors)
        assert np.allclose(kron.vector, reference, rtol=1e-9)
        assert np.allclose(network.vector, kron.vector, rtol=1e-12)


class TestEngineInternals:
    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(0)
        tensors = _chain_tensors(3, rng)
        with pytest.raises(ValueError, match="strategy"):
            contract_terms(tensors, [0, 1, 2], 2, strategy="magic")
        with pytest.raises(ValueError, match="strategy"):
            ContractionEngine(strategy="magic")

    def test_single_tensor_no_cuts(self):
        data = np.array([[0.25, 0.75]])
        tensor = TermTensor(
            subcircuit_index=0,
            cut_order=[],
            num_effective=1,
            data=data,
            nonzero=np.array([True]),
        )
        for strategy in ("kron", "tensor_network", "auto"):
            result = contract_terms([tensor], [0], 0, strategy=strategy)
            assert np.allclose(result.vector, data[0])

    def test_blocked_accumulation_matches_unblocked(self):
        rng = np.random.default_rng(5)
        tensors = _chain_tensors(4, rng)
        order = [0, 1, 2, 3]
        full, _ = _accumulate_range(tensors, order, 3, False)
        tiny_blocks, _ = _accumulate_range(
            tensors, order, 3, False, block_elements=1
        )
        assert np.allclose(tiny_blocks, full, rtol=1e-12)

    def test_early_termination_counts_zero_rows(self):
        rng = np.random.default_rng(9)
        tensors = _chain_tensors(3, rng)
        # Kill half of the middle tensor's rows.
        tensors[1].data[::2] = 0.0
        tensors[1].nonzero[:] = np.any(tensors[1].data != 0.0, axis=1)
        pruned = contract_terms(
            tensors, [0, 1, 2], 2, strategy="kron", early_termination=True
        )
        dense = contract_terms(
            tensors, [0, 1, 2], 2, strategy="kron", early_termination=False
        )
        assert pruned.num_skipped > 0
        assert np.allclose(pruned.vector, dense.vector, rtol=1e-12)

    def test_engine_defaults_flow_through(self):
        rng = np.random.default_rng(1)
        tensors = _chain_tensors(3, rng)
        engine = ContractionEngine(strategy="tensor_network")
        result = engine.contract(tensors, [0, 1, 2], 2)
        assert result.strategy == "tensor_network"
        override = engine.contract(tensors, [0, 1, 2], 2, strategy="kron")
        assert override.strategy == "kron"
        assert np.allclose(result.vector, override.vector, rtol=1e-12)


class TestEngineMemos:
    """A DD query's rounds repeat a few structures: each network structure
    is compiled (and so priced) once per process, the engine maps each cut
    order's rows once, and ``auto``'s picks are the oracle price's."""

    def _query(self, engine):
        pipeline = CutQC(bv(12), max_subcircuit_qubits=5)
        provider = PrecomputedTensorProvider(
            pipeline.cut(), results=pipeline.evaluate()
        )
        return DynamicDefinitionQuery(provider, 2, engine=engine)

    def test_structures_priced_once(self, monkeypatch):
        from repro.postprocess import engine as module

        plans = BoundedMemo("contraction_plan", 256)
        monkeypatch.setattr(module, "_PLANS", plans)
        per_call, picks = [], []
        engine = ContractionEngine(strategy="auto")
        real_contract = engine.contract

        def recording(tensors, order, num_cuts, **kwargs):
            before = plans.stats()["misses"]
            result = real_contract(tensors, order, num_cuts, **kwargs)
            per_call.append(plans.stats()["misses"] - before)
            cheaper = tn_cost(tensors, order) < _kron_cost(tensors, order, num_cuts)
            want = "tensor_network" if cheaper else "kron"
            fresh = contract_terms(tensors, order, num_cuts, strategy=want)
            picks.append((result.strategy, want))
            assert np.array_equal(result.vector, fresh.vector)
            return result

        # A one-bin round contracts through ``contract``, as FD does.
        monkeypatch.setattr(engine, "contract", recording)
        query = self._query(engine)
        query.run(10)
        query.run(10)
        assert len(per_call) == 20
        assert 0 < sum(per_call) == plans.stats()["size"] < 10
        assert sum(per_call[10:]) == 0  # repeated structures: never re-priced
        assert all(got == want for got, want in picks)

    def test_memos_belong_to_the_engine(self):
        first = ContractionEngine(strategy="kron")
        second = ContractionEngine(strategy="kron")
        self._query(first).run(3)
        assert first._rows
        assert not second._rows

    def test_memoised_rows_match_a_fresh_map(self):
        rng = np.random.default_rng(4)
        tensors = _chain_tensors(3, rng)
        engine = ContractionEngine(strategy="kron")
        for _ in range(2):
            result = engine.contract(tensors, [0, 1, 2], 2)
            fresh = contract_terms(tensors, [0, 1, 2], 2, strategy="kron")
            assert np.array_equal(result.vector, fresh.vector)
            assert result.num_skipped == fresh.num_skipped
