"""Batched+fused variant simulation: parity with the per-variant path.

The batched engine must be a pure performance change: for any
subcircuit, every ``(inits, bases)`` distribution derived from fused
init-batch body passes has to match the serial per-variant simulation to
1e-10, and the executor's dedup/strategy accounting must stay coherent
under the ``batched`` strategy.
"""

import ast
import pathlib
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import CutQC, QuantumCircuit, cut_circuit_from_assignment
from repro.circuits import build_circuit_graph
from repro.core import executor as executor_module
from repro.core.executor import VariantExecutor
from repro.cutting import num_physical_variants
from repro.cutting.variants import (
    VariantCircuitFactory,
    body_program,
    generate_variants,
    variant_circuit,
)
from repro.devices import get_device
from repro.library import get_benchmark
from repro.obs import trace
from repro.postprocess import ShotBasedTensorProvider, WorkerPool
from repro.sim import batch as batch_module
from repro.sim.noisy_batch import (
    basis_column_amplitudes,
    materialise_distributions,
)
from repro.sim import (
    BatchedStatevector,
    Statevector,
    fuse_gates,
    simulate_probabilities,
)
from repro.sim.batch import (
    FUSION_WIDTH,
    fused_block,
    fusion_stats,
    gate_partition,
)
from repro.sim.statevector import INITIAL_STATES
from tests.conftest import random_connected_circuit
from tests.variant_oracle import evaluate_subcircuit


def random_small_cut(circuit, seed, max_cuts=2):
    """A random bipartition whose implied cut set is small (or None)."""
    graph = build_circuit_graph(circuit)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        assignment = rng.integers(0, 2, size=graph.num_vertices)
        if not (0 < assignment.sum() < graph.num_vertices):
            continue
        num_cuts = sum(
            1
            for edge in graph.edges
            if assignment[edge.source] != assignment[edge.target]
        )
        if num_cuts <= max_cuts:
            return cut_circuit_from_assignment(
                circuit, list(assignment), graph=graph
            )
    return None


# ----------------------------------------------------------------------
# Gate fusion
# ----------------------------------------------------------------------

class TestFusion:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    )
    def test_fused_matches_unfused(self, n, seed, width):
        circuit = random_connected_circuit(n, 2 * n, seed)
        truth = simulate_probabilities(circuit)
        state = BatchedStatevector(n, 1)
        state.apply_fused(fuse_gates(circuit, width))
        assert np.allclose(state.probabilities()[0], truth, atol=1e-10)

    def test_fusion_reduces_op_count(self):
        circuit = get_benchmark("bv", 8)
        ops = fuse_gates(circuit, 2)
        assert len(ops) < len(circuit)
        for op in ops:
            assert 1 <= op.num_qubits <= 2
            assert op.matrix.shape == (1 << op.num_qubits,) * 2

    def test_width_one_folds_single_qubit_runs(self):
        circuit = QuantumCircuit(2).h(0).t(0).s(0).cx(0, 1).h(1)
        ops = fuse_gates(circuit, 1)
        # h/t/s fold into one 1q block; cx stays alone (wider than the
        # cap but always allowed its own block); h(1) folds after.
        widths = [op.num_qubits for op in ops]
        assert widths == [1, 2, 1]

    def test_commuting_gate_merges_past_disjoint_block(self):
        # h(0) arrives after cx(1, 2) but commutes with it, so it fuses
        # into the earlier block containing h(0)'s qubit.
        circuit = QuantumCircuit(3).h(0).cx(1, 2).h(0)
        ops = fuse_gates(circuit, 2)
        assert len(ops) == 2
        assert np.allclose(
            [op.matrix for op in ops if op.qubits == (0,)][0],
            np.eye(2),
            atol=1e-12,
        )

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="fusion width"):
            fuse_gates(QuantumCircuit(1).h(0), 0)
        # Unbounded widths would let one shared qubit grow a block (and
        # its dense unitary) to the whole circuit — hard-capped instead.
        with pytest.raises(ValueError, match="fusion width"):
            fuse_gates(QuantumCircuit(1).h(0), 11)

    def test_block_memo_is_bounded_by_bytes(self, monkeypatch):
        """4-qubit blocks are 4 KiB each: inserting past the budget evicts
        the oldest, and the memo never holds more matrix bytes than it."""
        monkeypatch.setattr(batch_module, "_BLOCK_CACHE", OrderedDict())
        monkeypatch.setattr(batch_module, "_block_cache_held", 0)

        def block(index):
            circuit = QuantumCircuit(4).rx(0.001 * index, 0)
            return circuit.cx(0, 1).cx(1, 2).cx(2, 3).gates

        cap = batch_module._BLOCK_CACHE_BYTES
        fits = cap // (16 * 16 * 16)
        for index in range(fits + 64):
            assert fused_block(block(index)).num_qubits == 4
            held = fusion_stats()["block_cache_bytes"]
            assert held <= cap
            assert held == sum(
                op.matrix.nbytes for op in batch_module._BLOCK_CACHE.values()
            )
        assert fusion_stats()["block_cache_size"] == fits
        assert block(fits + 63) in batch_module._BLOCK_CACHE
        assert block(0) not in batch_module._BLOCK_CACHE

    def test_partition_memo_survives_concurrent_eviction(self, monkeypatch):
        """Another thread may evict a partition between this thread's
        lookup and its LRU refresh; that is a hit, not a ``KeyError``."""

        class EvictOnGet(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)
                return value

        monkeypatch.setattr(batch_module, "_PARTITION_CACHE", EvictOnGet())
        gates = get_benchmark("bv", 6).gates
        built = gate_partition(gates)
        assert gate_partition(gates) == built

    def test_apply_fused_span_reports_ops_and_amplitudes(self):
        circuit = get_benchmark("bv", 6)
        ops = fuse_gates(circuit)
        with trace.start("root") as root:
            BatchedStatevector(6, 3).apply_fused(ops)
        (span,) = root.children
        assert span.name == "sim.batch.apply_fused"
        assert span.attrs == {"ops": len(ops), "amplitudes": 3 << 6}


class TestConstantWidth:
    """Every body fuses at :data:`FUSION_WIDTH`; no layer above
    ``repro.sim`` picks a width."""

    @pytest.mark.parametrize(
        "name,qubits,device_size,piece_width,columns",
        [("bv", 30, 16, 15, 1), ("adder", 20, 12, 12, 8)],
    )
    def test_catalog_piece_matches_per_gate_statevector(
        self, name, qubits, device_size, piece_width, columns
    ):
        cut = CutQC(
            get_benchmark(name, qubits), max_subcircuit_qubits=device_size
        ).cut()
        piece = next(
            s for s in cut.subcircuits
            if s.width == piece_width and 1 << len(s.init_lines) >= columns
        )
        assert max(op.num_qubits for op in fuse_gates(piece.circuit)) == (
            FUSION_WIDTH
        )
        slab, passes = basis_column_amplitudes(
            body_program(piece), (0, columns)
        )
        assert passes == 1 and slab.shape == (columns, 1 << piece.width)
        rho = len(piece.init_lines)
        for column in range(columns):
            index = 0
            for k, line in enumerate(piece.init_lines):
                bit = (column >> (rho - 1 - k)) & 1
                index |= bit << (piece.width - 1 - line.line)
            data = np.zeros(1 << piece.width, dtype=complex)
            data[index] = 1.0
            want = Statevector(piece.width, data).apply_circuit(piece.circuit)
            assert np.abs(slab[column] - want.amplitudes()).max() <= 1e-10

    def test_no_fusion_width_knob_above_sim(self):
        """No parameter, keyword, dataclass field or attribute is named
        ``fusion_width`` anywhere in the package outside ``sim/batch.py``."""
        root = pathlib.Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root) == pathlib.Path("sim/batch.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.arg):
                    name = node.arg
                elif isinstance(node, ast.keyword):
                    name = node.arg
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    name = node.target.id
                else:
                    continue
                if name == "fusion_width":
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
        assert found == []


# ----------------------------------------------------------------------
# Batched statevector
# ----------------------------------------------------------------------

class TestBatchedStatevector:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_members_match_serial_statevector(self, n, seed):
        circuit = random_connected_circuit(n, 2 * n, seed)
        rng = np.random.default_rng(seed)
        labels = list(INITIAL_STATES)
        members = [
            [INITIAL_STATES[labels[rng.integers(4)]] for _ in range(n)]
            for _ in range(5)
        ]
        batch = BatchedStatevector.from_product_batch(members)
        batch.apply_circuit(circuit, fused=True)
        probabilities = batch.probabilities()
        assert probabilities.shape == (5, 1 << n)
        for row, states in enumerate(members):
            serial = Statevector.from_product(states).apply_circuit(circuit)
            assert np.allclose(
                probabilities[row], serial.probabilities(), atol=1e-10
            )
            assert np.allclose(
                batch.member(row).amplitudes(),
                serial.amplitudes(),
                atol=1e-10,
            )

    def test_applied_leaves_parent_untouched(self):
        batch = BatchedStatevector(2, 3)
        before = batch.amplitudes()
        rotated = batch.applied(np.array([[0, 1], [1, 0]], complex), [0])
        assert np.allclose(batch.amplitudes(), before)
        assert not np.allclose(rotated.amplitudes(), before)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchedStatevector(0, 1)
        with pytest.raises(ValueError):
            BatchedStatevector(2, 0)
        with pytest.raises(ValueError, match="does not act"):
            BatchedStatevector(2, 1).apply_matrix(np.eye(4), [0])
        with pytest.raises(ValueError, match="qubits"):
            BatchedStatevector(2, 1).apply_circuit(QuantumCircuit(3).h(0))

    def test_product_batch_is_one_checked_table(self):
        zero, plus = INITIAL_STATES["zero"], INITIAL_STATES["plus"]
        batch = BatchedStatevector.from_product_batch([[zero, plus], [plus, plus]])
        assert np.allclose(batch.amplitudes()[0], np.kron(zero, plus))
        assert batch.probabilities().dtype == np.float64
        for bad in ([], [[]], [[zero], [zero, plus]], [[np.ones(3)]], [zero]):
            with pytest.raises(ValueError):
                BatchedStatevector.from_product_batch(bad)


# ----------------------------------------------------------------------
# Batched variant evaluation parity (the tentpole's contract)
# ----------------------------------------------------------------------

class TestBatchedVariantParity:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_batched_matches_serial_all_combos(self, n, seed):
        circuit = random_connected_circuit(n, 2 * n, seed)
        cut = random_small_cut(circuit, seed + 1)
        if cut is None:
            return
        for subcircuit in cut.subcircuits:
            serial = evaluate_subcircuit(subcircuit)
            program = body_program(subcircuit)
            amplitudes, passes = basis_column_amplitudes(program)
            assert passes == 1
            batched = materialise_distributions(program, amplitudes)
            assert batched.shape == serial.distributions.shape
            assert np.abs(batched - serial.distributions).max() <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3),
    )
    def test_materialised_vectors_match_per_variant_simulation(
        self, n, seed, init_batch
    ):
        """The per-variant simulator is the oracle of the materialiser:
        three clusters, so lines that are both initialised and measured;
        init batches of 1-3 members, so slabs concatenate."""
        circuit = random_connected_circuit(n, 2 * n, seed)
        graph = build_circuit_graph(circuit)
        assignment = np.random.default_rng(seed).integers(0, 3, graph.num_vertices)
        cut = cut_circuit_from_assignment(circuit, list(assignment), graph=graph)
        for subcircuit in cut.subcircuits:
            if num_physical_variants(subcircuit) > 4**5:
                continue
            with mock.patch.object(executor_module, "_INIT_BATCH", init_batch):
                (result,) = VariantExecutor().run([subcircuit])
            assert result._distributions is None  # lazy until read
            variants = generate_variants(subcircuit)
            assert result.distributions[..., 0].size == len(variants)
            for variant in variants:
                want = simulate_probabilities(variant_circuit(subcircuit, variant))
                got = result.vector(variant.inits, variant.bases)
                assert np.abs(got - want).max() <= 1e-10

    def test_materialised_rows_are_views_of_one_stacked_array(self, fig4_circuit):
        from repro import cut_circuit

        down = cut_circuit(fig4_circuit, [(2, 1)]).subcircuits[1]
        (result,) = VariantExecutor().run([down])
        assert result.amplitudes.shape == (2, 1 << down.width)
        assert result.amplitudes.dtype == np.complex128
        distributions = result.distributions
        assert result.distributions is distributions  # materialised once
        assert distributions.shape == (4, 1, 1 << down.width)
        assert distributions.dtype == np.float64
        rows = [result.vector((label,), ()) for label in ("zero", "plus_i")]
        assert all(np.shares_memory(row, distributions) for row in rows)

    def test_chunked_batches_cover_the_init_space(self, fig4_circuit):
        from repro import cut_circuit

        cut = cut_circuit(fig4_circuit, [(2, 1)])
        downstream = cut.subcircuits[1]  # one init line: 2 basis columns
        program = body_program(downstream)
        full, one_pass = basis_column_amplitudes(program)
        slabs = [
            basis_column_amplitudes(program, (column, column + 1))
            for column in range(2)
        ]
        assert one_pass == 1 and [passes for _, passes in slabs] == [1, 1]
        chunked = np.concatenate([slab for slab, _ in slabs])
        assert full.shape == chunked.shape == (2, 1 << downstream.width)
        assert np.allclose(
            materialise_distributions(program, full),
            materialise_distributions(program, chunked),
            atol=1e-12,
        )

    def test_evaluate_subcircuit_fast_path_fields(self, fig4_circuit):
        from repro import cut_circuit

        cut = cut_circuit(fig4_circuit, [(2, 1)])
        for result in VariantExecutor().run(cut.subcircuits):
            assert result.mode == "batched"
            assert result.num_body_passes == 1
            assert result.num_variants == num_physical_variants(
                result.subcircuit
            )
            assert result.dedup_ratio >= 1.0

    def test_structural_key_matches_fingerprint_dedup(self, fig4_circuit):
        from repro import cut_circuit

        cut = cut_circuit(fig4_circuit, [(2, 1)])
        for subcircuit in cut.subcircuits:
            factory = VariantCircuitFactory(subcircuit)
            keys = set()
            fingerprints = set()
            for variant in generate_variants(subcircuit):
                keys.add(factory.structural_key(variant))
                circuit = factory.circuit(variant)
                fingerprints.add((circuit.num_qubits, circuit.gates))
            assert len(keys) == len(fingerprints)


# ----------------------------------------------------------------------
# Executor strategy + report coherence
# ----------------------------------------------------------------------

class TestBatchedExecutor:
    @pytest.fixture
    def bv_cut(self):
        return CutQC(get_benchmark("bv", 11), max_subcircuit_qubits=6).cut()

    def test_parity_and_report(self, bv_cut):
        serial = [evaluate_subcircuit(s) for s in bv_cut.subcircuits]
        executor = VariantExecutor()
        batched = executor.run(bv_cut.subcircuits)
        report = executor.last_report
        assert report.mode == "batched"
        assert report.num_variants == sum(
            num_physical_variants(s) for s in bv_cut.subcircuits
        )
        assert report.num_unique_circuits <= report.num_variants
        assert report.num_body_passes >= len(bv_cut.subcircuits)
        for a, b in zip(serial, batched):
            assert a.distributions.shape == b.distributions.shape
            assert np.abs(a.distributions - b.distributions).max() <= 1e-10

    def test_twin_subcircuits_share_batched_results(self, bv_cut):
        twin = [bv_cut.subcircuits[0], bv_cut.subcircuits[0]]
        executor = VariantExecutor()
        results = executor.run(twin)
        report = executor.last_report
        assert report.num_variants == 2 * report.num_unique_circuits
        assert report.dedup_ratio == pytest.approx(2.0)
        # Body-key twins share one amplitude array: the group ran once and
        # counts once in ``num_unique_circuits``.
        assert results[0].amplitudes is results[1].amplitudes
        assert report.num_unique_circuits == num_physical_variants(twin[0])
        assert np.array_equal(results[0].distributions, results[1].distributions)

    def test_init_batches_ship_over_worker_pool(self, bv_cut, monkeypatch):
        serial = VariantExecutor().run(bv_cut.subcircuits)
        monkeypatch.setattr(executor_module, "_INIT_BATCH", 1)
        with WorkerPool(workers=2) as pool:
            executor = VariantExecutor(worker_pool=pool)
            pooled = executor.run(bv_cut.subcircuits)
            stats = pool.stats()
        assert executor.last_report.mode == "batched-pool"
        assert stats.tasks_by_kind.get("variant-batch", 0) >= 2
        for a, b in zip(serial, pooled):
            assert np.abs(a.distributions - b.distributions).max() <= 1e-10

    def test_payload_kinds_are_told_apart_inline_and_pooled(self, bv_cut):
        """An exact column range and a custom backend's group both ship a
        subcircuit and one more item; each still reaches its own
        evaluator, and pooled runs stay bit-identical to inline ones."""
        inline = VariantExecutor().run(bv_cut.subcircuits)
        backend = VariantExecutor(backend=simulate_probabilities)
        by_backend = backend.run(bv_cut.subcircuits)
        with WorkerPool(workers=2) as pool:
            pooled_executor = VariantExecutor(worker_pool=pool)
            pooled = pooled_executor.run(bv_cut.subcircuits)
            pooled_backend = VariantExecutor(
                backend=simulate_probabilities, worker_pool=pool
            )
            by_pooled_backend = pooled_backend.run(bv_cut.subcircuits)
            kinds = pool.stats().tasks_by_kind
        assert pooled_executor.last_report.mode == "batched-pool"
        assert pooled_backend.last_report.mode == "backend"
        assert kinds.get("variant-batch", 0) == len(bv_cut.subcircuits)
        for exact, shipped, rows, pooled_rows in zip(
            inline, pooled, by_backend, by_pooled_backend
        ):
            assert exact.amplitudes is not None
            assert np.array_equal(exact.amplitudes, shipped.amplitudes)
            assert rows.amplitudes is None and rows.num_body_passes == 0
            assert np.array_equal(rows.distributions, pooled_rows.distributions)
            assert np.abs(
                rows.distributions - exact.distributions
            ).max() <= 1e-10

    def test_sim_batch_conflicts_rejected(self):
        # Init batches have one fixed size: the knob itself is refused.
        with pytest.raises(TypeError, match="sim_batch"):
            VariantExecutor(sim_batch=8)
        with pytest.raises(TypeError, match="sim_batch"):
            CutQC(get_benchmark("bv", 6), max_subcircuit_qubits=4, sim_batch=0)
        # Bodies fuse at one fixed width: that knob is gone too.
        with pytest.raises(TypeError, match="fusion_width"):
            VariantExecutor(fusion_width=4)
        with pytest.raises(TypeError, match="fusion_width"):
            CutQC(get_benchmark("bv", 6), max_subcircuit_qubits=4,
                  fusion_width=2)

    def test_pipeline_fd_query_parity(self):
        circuit = get_benchmark("bv", 10)
        pipeline = CutQC(circuit, max_subcircuit_qubits=6)
        result = pipeline.fd_query()
        truth = simulate_probabilities(circuit)
        assert np.abs(result.probabilities - truth).max() <= 1e-10
        assert pipeline.execution_report.mode == "batched"

    def test_pipeline_rejects_conflicting_backends(self):
        circuit = get_benchmark("bv", 6)
        with pytest.raises(ValueError, match="not both"):
            CutQC(
                circuit,
                max_subcircuit_qubits=4,
                backend=simulate_probabilities,
                device=get_device("bogota"),
            )


# ----------------------------------------------------------------------
# Shot provider: sampling from basis-rotated retained states
# ----------------------------------------------------------------------

class TestShotProviderBatched:
    def test_distribution_cache_filled_from_batched_states(self):
        """The provider samples the pipeline's batched results: their
        distributions, materialised from the amplitudes, match the
        per-variant simulation."""
        circuit = get_benchmark("bv", 8)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        cut = pipeline.cut()
        results = pipeline.evaluate()
        provider = ShotBasedTensorProvider(cut, results, shots=512, seed=3)
        roles = {wire: ("active", None) for wire in range(8)}
        provider.collapsed(roles)
        for result in results:
            assert result.amplitudes is not None
            assert provider.results[result.subcircuit.index] is result
            exact = evaluate_subcircuit(result.subcircuit)
            assert np.abs(
                result.distributions - exact.distributions
            ).max() <= 1e-10

    def test_dd_query_with_sim_batch_resolves_solution(self):
        circuit = get_benchmark("bv", 9)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        query = pipeline.dd_query(
            max_active_qubits=3,
            max_recursions=4,
            shots_per_variant=4096,
            seed=11,
        )
        assert len(query.recursions) >= 1
