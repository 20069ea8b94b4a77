"""Tests for cut-term attribution (Eqs. 2-3 of the paper)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CutQC,
    QuantumCircuit,
    VariationalSession,
    cut_circuit,
    cut_circuit_from_assignment,
    make_device,
)
from repro.circuits import build_circuit_graph
from repro.core import executor as executor_module
from repro.core.executor import VariantExecutor
from repro.library import get_benchmark
from repro.library.qaoa import qaoa_maxcut, ring_graph
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.cutting.variants import SubcircuitResult
from repro.postprocess import (
    DOWNSTREAM_TERMS,
    UPSTREAM_TERMS,
    Reconstructor,
    build_term_tensor,
)
from repro.postprocess.attribution import MEASURE_FORMS, MEASURE_TERMS
from repro.postprocess.synthetic import RandomTensorProvider
from repro.service.store import ArtifactStore
from repro.sim import NoiseModel, simulate_probabilities
from repro.sim.noisy_batch import BASIS_MATRICES
from repro.sim.sampler import sample_counts
from tests.attribution_oracle import (
    DOWNSTREAM_INVERSE,
    attributed_vector,
    from_eq2_basis,
    reference_term_tensor,
    synthetic_reference,
    to_eq2_basis,
)
from tests.conftest import random_connected_circuit
from tests.variant_oracle import evaluate_subcircuit


@pytest.fixture
def fig4_cut(fig4_circuit):
    return cut_circuit(fig4_circuit, [(2, 1)])


class TestTransformMatrices:
    def test_upstream_rows_match_eq2(self):
        # t1 = I + Z, t2 = I - Z, t3 = X, t4 = Y over basis order I,X,Y,Z.
        assert np.array_equal(
            UPSTREAM_TERMS,
            [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]],
        )

    def test_downstream_rows_match_eq2(self):
        assert np.array_equal(
            DOWNSTREAM_TERMS,
            [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2]],
        )

    def test_measure_forms_are_the_four_hand_written_forms(self):
        # row s of a measured qubit = <psi|M_s|psi> = sum_ac M_s[c, a]
        # psi[a] conj(psi[c]) for M = D^T (2|0><0|, 2|1><1|, X, Y)
        # = 2|0><0| - X - Y, 2|1><1| - X - Y, 2X, 2Y.
        x, y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
        zero, one = np.diag([2, 0]), np.diag([0, 2])
        hand = np.array([zero - x - y, one - x - y, 2 * x, 2 * y])
        forms = MEASURE_FORMS.reshape(4, 2, 2)
        assert np.abs(forms - hand.transpose(0, 2, 1)).max() <= 1e-15
        # The Y sign is the Y circuit's: H Sdg sends the +i eigenstate to
        # outcome 0, so p_Y(0) - p_Y(1) = +<Y>.
        assert np.allclose(BASIS_MATRICES["Y"] @ [1, 1j], [np.sqrt(2), 0])
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        outer = np.outer(plus_i, plus_i.conj()).reshape(4)
        assert np.allclose(MEASURE_FORMS @ outer, [0, 0, 0, 2])

    def test_measure_terms_fold_downstream_transposed_into_eq2(self):
        # Eq. (2)'s upstream map per (physical basis, outcome), exactly:
        # u = (p_I + p_Z, p_I - p_Z, p_X, p_Y) with I read off the Z circuit.
        eq2 = np.zeros((4, 3, 2))
        eq2[0, 0] = [2, 0]   # Z circuit: p_I + p_Z = 2 p(0)
        eq2[1, 0] = [0, 2]   # p_I - p_Z = 2 p(1)
        eq2[2, 1] = [1, -1]  # X circuit
        eq2[3, 2] = [1, -1]  # Y circuit
        folded = np.einsum("ts,tbc->sbc", DOWNSTREAM_TERMS, eq2)
        assert np.array_equal(MEASURE_TERMS, folded)
        assert np.array_equal(DOWNSTREAM_TERMS @ DOWNSTREAM_INVERSE, np.eye(4))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8))
    def test_folded_pairing_equals_eq2(self, values):
        # sum_s (D^T u)_s q_s == sum_t u_t (D q)_t for any u and q.
        u, q = np.reshape(values, (2, 4))
        folded = (DOWNSTREAM_TERMS.T @ u) @ q
        eq2 = u @ (DOWNSTREAM_TERMS @ q)
        scale = np.abs(u).sum() * np.abs(q).sum()
        assert abs(folded - eq2) <= 1e-13 * scale

    def test_single_qubit_wire_identity(self):
        # The 4-term expansion must resolve the identity channel: for any
        # single-qubit state rho prepared upstream and read downstream,
        # 1/2 sum_t p_up(t) * q_down(t) must equal the original
        # distribution.  Check with a one-gate circuit cut in half.
        circuit = QuantumCircuit(2)
        circuit.ry(0.9, 0)
        circuit.cx(0, 1)
        circuit.cx(0, 1)  # second gate so there is an edge to cut
        circuit.ry(0.4, 1)
        cut = cut_circuit(circuit, [(0, 1), (1, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]

        reconstruction = Reconstructor(cut, results=results).reconstruct()
        assert np.allclose(
            reconstruction.probabilities, simulate_probabilities(circuit), atol=1e-10
        )


class TestAttributedVector:
    def test_i_basis_is_marginal(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        raw = result.vector((), ("Z",))
        attributed = attributed_vector(up, raw, ("I",))
        # I-basis attribution sums both outcomes: a plain marginal.
        from repro.utils import marginalize

        keep = [line.line for line in up.output_lines]
        assert np.allclose(attributed, marginalize(raw, keep, up.width))

    def test_z_basis_signs(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        raw = result.vector((), ("Z",))
        attributed = attributed_vector(up, raw, ("Z",))
        # By Eq. 3: p(x) with meas-qubit 0 enters +, 1 enters -.
        tensor = raw.reshape((2,) * up.width)
        meas_axis = up.meas_lines[0].line
        signed = np.take(tensor, 0, axis=meas_axis) - np.take(
            tensor, 1, axis=meas_axis
        )
        assert np.allclose(attributed, signed.reshape(-1))

    def test_basis_count_checked(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        with pytest.raises(ValueError):
            attributed_vector(up, np.zeros(8), ())

    def test_attributed_vector_can_be_negative(self, fig4_cut):
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        attributed = attributed_vector(up, result.vector((), ("X",)), ("X",))
        # Signed pseudo-probabilities are not distributions in general.
        assert attributed.min() < 0 or not np.isclose(attributed.sum(), 1.0)


class TestTermTensor:
    def test_shape_and_order(self, fig4_cut):
        for sub in fig4_cut.subcircuits:
            tensor = build_term_tensor(evaluate_subcircuit(sub))
            assert tensor.data.shape == (4, 1 << sub.num_effective)
            assert tensor.cut_order == [0]

    def test_row_for_terms(self, fig4_cut):
        tensor = build_term_tensor(
            evaluate_subcircuit(fig4_cut.subcircuits[0])
        )
        assert tensor.row_for({0: 2}) == 2
        assert np.array_equal(tensor.vector({0: 1}), tensor.data[1])

    def test_upstream_terms_hand_computed(self, fig4_cut):
        """Check t1..t4 against direct formulas on raw variant outputs."""
        up = fig4_cut.subcircuits[0]
        result = evaluate_subcircuit(up)
        tensor = build_term_tensor(result)

        def attributed(basis):
            physical = "Z" if basis == "I" else basis
            return attributed_vector(up, result.vector((), (physical,)), (basis,))

        # Row s is (D^T u)_s with Eq. (2)'s u = (p_I + p_Z, p_I - p_Z, p_X, p_Y).
        p_i, p_x, p_y, p_z = (attributed(b) for b in "IXYZ")
        assert np.allclose(tensor.data[0], p_i + p_z - p_x - p_y)
        assert np.allclose(tensor.data[1], p_i - p_z - p_x - p_y)
        assert np.allclose(tensor.data[2], 2 * p_x)
        assert np.allclose(tensor.data[3], 2 * p_y)

    def test_downstream_terms_hand_computed(self, fig4_cut):
        down = fig4_cut.subcircuits[1]
        result = evaluate_subcircuit(down)
        tensor = build_term_tensor(result)
        q = {label: result.vector((label,), ()) for label in
             ("zero", "one", "plus", "plus_i")}
        # Row s is the raw q_s: Eq. (2)'s D moved to the upstream side.
        assert np.allclose(tensor.data[0], q["zero"])
        assert np.allclose(tensor.data[1], q["one"])
        assert np.allclose(tensor.data[2], q["plus"])
        assert np.allclose(tensor.data[3], q["plus_i"])

    def test_multi_cut_axis_order_sorted_by_cut_id(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1).cx(0, 2).cx(0, 1)
        cut = cut_circuit(circuit, [(0, 1), (0, 2)])
        for sub in cut.subcircuits:
            tensor = build_term_tensor(evaluate_subcircuit(sub))
            assert tensor.cut_order == sorted(tensor.cut_order)
            assert tensor.data.shape[0] == 4 ** len(tensor.cut_order)

    def test_nonzero_flags(self, fig4_cut):
        tensor = build_term_tensor(
            evaluate_subcircuit(fig4_cut.subcircuits[0])
        )
        for row in range(4):
            assert tensor.nonzero[row] == bool(np.any(tensor.data[row] != 0))


class TestPaperExampleSection32:
    """Replicate the p_{1,i} / p_{2,i} bookkeeping of §3.2 numerically."""

    def test_reconstructed_state_matches_manual_sum(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        up, down = cut.subcircuits
        up_result = evaluate_subcircuit(up)
        down_result = evaluate_subcircuit(down)
        up_tensor = build_term_tensor(up_result)
        down_tensor = build_term_tensor(down_result)

        # Manual reconstruction of p(|01010>).
        target = "01010"
        # Upstream effective outputs are wires 0,1; downstream wires 2,3,4.
        up_index = int(target[:2], 2)
        down_index = int(target[2:], 2)
        manual = 0.5 * sum(
            up_tensor.data[t][up_index] * down_tensor.data[t][down_index]
            for t in range(4)
        )
        truth = simulate_probabilities(fig4_circuit)
        from repro.utils import bitstring_to_index

        assert np.isclose(manual, truth[bitstring_to_index(target)], atol=1e-10)


def _assert_matches_oracle(result):
    """The vectorised build equals the per-variant loop it replaced."""
    built, want = build_term_tensor(result), reference_term_tensor(result)
    _assert_pairs_like_eq2(built, want, result.subcircuit)


def _assert_pairs_like_eq2(built, want, subcircuit):
    """``built``, mapped to Eq. (2)'s rows, equals the oracle ``want``."""
    assert built.subcircuit_index == want.subcircuit_index
    assert built.cut_order == want.cut_order
    assert built.num_effective == want.num_effective
    assert built.data.shape == want.data.shape
    assert np.abs(to_eq2_basis(built, subcircuit).data - want.data).max() <= 1e-12
    assert np.array_equal(built.nonzero, np.any(built.data != 0.0, axis=1))
    # The build and the oracle round differently, so the flags may differ
    # from the oracle's (mapped to the build's rows) only on rows that are
    # zero to 1e-12.
    paired = from_eq2_basis(want, subcircuit)
    differs = built.nonzero != paired.nonzero
    assert np.abs(built.data[differs]).max(initial=0.0) <= 1e-12
    assert np.abs(paired.data[differs]).max(initial=0.0) <= 1e-12


def _random_cut(n, seed, parts=2):
    """Time slices of the gate list with a few gates moved across: enough
    cuts to mix the roles, few enough for the oracle's 4^(rho+O) loop.
    A cluster assignment straight into ``cut_circuit_from_assignment`` —
    shapes no searcher would pick (see ``test_generated_cuts_cover...``)."""
    circuit = random_connected_circuit(n, 2 * n, seed)
    vertices = np.arange(build_circuit_graph(circuit).num_vertices)
    rng = np.random.default_rng(seed + 1)
    for _ in range(20):
        edges = np.sort(rng.choice(vertices[1:], parts - 1, replace=False))
        assignment = np.searchsorted(edges, vertices, side="right")
        moved = rng.random(vertices.size) < 0.2
        assignment[moved] = rng.integers(0, parts, int(moved.sum()))
        if len(set(assignment.tolist())) < parts:
            continue
        cut = cut_circuit_from_assignment(circuit, list(assignment))
        if cut.num_cuts <= 6:
            return cut
    return None


def _batched(subcircuits, init_batch, backend=None):
    """One executor run with ``init_batch``-member payloads."""
    with mock.patch.object(executor_module, "_INIT_BATCH", init_batch):
        return VariantExecutor(backend=backend).run(subcircuits)


class TestVectorisedBuildParity:
    """`build_term_tensor` against the relocated per-variant oracle."""

    #: name -> (gates on 3-4 qubits, cuts, (rho, O, f) of some subcircuit)
    SHAPES = {
        "rho=0": ([(0, 1), (1, 2)], [(1, 1)], (0, 1, 1)),
        "O=0": ([(0, 1), (1, 2)], [(1, 1)], (1, 0, 2)),
        "mixed rho+O": ([(0, 1), (1, 2), (2, 3)], [(1, 1), (2, 1)], (1, 1, 1)),
        "no effective outputs": ([(0, 1), (0, 1)], [(0, 1), (1, 1)], (0, 2, 0)),
        # wire 0 leaves {g0, g2} through cut 0, wire 1 re-enters it through
        # cut 1: its axes arrive as [init cut 1, meas cut 0].
        "non-monotone cut ids": (
            [(0, 2), (0, 1), (1, 2)], [(0, 1), (1, 1)], (1, 1, 2),
        ),
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_named_shapes(self, name):
        gates, cuts, shape = self.SHAPES[name]
        circuit = QuantumCircuit(1 + max(max(pair) for pair in gates))
        for qubit in range(circuit.num_qubits):
            circuit.ry(0.4 + 0.3 * qubit, qubit)
        for a, b in gates:
            circuit.cx(a, b).rz(0.2 + a, a).rx(0.5 + b, b)
        cut = cut_circuit(circuit, cuts)
        shapes = [
            (len(s.init_lines), len(s.meas_lines), s.num_effective)
            for s in cut.subcircuits
        ]
        assert shape in shapes
        if name == "non-monotone cut ids":
            sub = cut.subcircuits[shapes.index(shape)]
            assert sub.init_lines[0].init_cut > sub.meas_lines[0].meas_cut
        for sub in cut.subcircuits:
            _assert_matches_oracle(evaluate_subcircuit(sub))
            _assert_matches_oracle(_batched([sub], init_batch=3)[0])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=4),
    )
    def test_random_circuits_random_cuts(self, n, seed, parts):
        cut = _random_cut(n, seed, parts)
        if cut is None:
            return
        truth = simulate_probabilities(cut.circuit)
        # A per-circuit backend: tensors build from the distributions
        # array; 3-member init batches: several column slabs per
        # subcircuit, tensors build from the amplitudes and the oracle
        # reads the materialised vectors.
        for backend in (simulate_probabilities, None):
            results = _batched(cut.subcircuits, init_batch=3, backend=backend)
            for result in results:
                assert (result.amplitudes is None) == (backend is not None)
                _assert_matches_oracle(result)
            for strategy in ("kron", "tensor_network", "auto"):
                full = Reconstructor(cut, results=results).reconstruct(
                    strategy=strategy
                )
                assert np.abs(full.probabilities - truth).max() <= 1e-10

    def test_generated_cuts_cover_the_shapes_no_searcher_picks(self):
        """The property above is only as strong as its generator."""
        seen = set()
        for seed in range(40):
            cut = _random_cut(3 + seed % 4, seed, 2 + seed % 3)
            if cut is None:
                continue
            seen.add(f"{min(cut.num_subcircuits, 3)} subcircuits")
            for sub in cut.subcircuits:
                inits, meas = sub.init_lines, sub.meas_lines
                seen.add("rho=0" if not inits else "O=0" if not meas else "mixed")
                if not sub.num_effective:
                    seen.add("no effective outputs")
                if any(line.meas_cut is not None for line in inits):
                    seen.add("line both init and meas")
                ids = [l.init_cut for l in inits] + [l.meas_cut for l in meas]
                if ids != sorted(ids):
                    seen.add("non-monotone cut ids")
        assert seen >= {
            "2 subcircuits", "3 subcircuits", "rho=0", "O=0", "mixed",
            "no effective outputs", "line both init and meas",
            "non-monotone cut ids",
        }

    def test_noisy_density_results(self):
        self._assert_noisy_results_match("density", shots=0)

    @pytest.mark.parametrize("method, shots", [("trajectory", 0), ("density", 512)])
    def test_noisy_trajectory_and_device_shot_results(self, method, shots):
        self._assert_noisy_results_match(method, shots)

    @staticmethod
    def _assert_noisy_results_match(method, shots):
        circuit = random_connected_circuit(5, 9, seed=11)
        pipeline = CutQC(
            circuit,
            max_subcircuit_qubits=4,
            device=make_device(
                "line-4", 4, "line", noise=NoiseModel(1e-3, 1e-2, 0.015)
            ),
            noisy_method=method,
            device_shots=shots,
        )
        results = pipeline.evaluate()
        assert pipeline.execution_report.mode.startswith("batched-noisy")
        for result in results:
            assert result.amplitudes is None
            _assert_matches_oracle(result)

    def test_shot_sampled_results(self):
        # Sampled frequencies, as shot-level DD collapses them.
        cut = _random_cut(5, seed=3)
        rng = np.random.default_rng(5)
        for result in _batched(cut.subcircuits, init_batch=4):
            shape = result.distributions.shape
            rows = result.distributions.reshape(-1, shape[-1])
            counts = np.stack([sample_counts(row, 1000, rng) for row in rows])
            sampled = SubcircuitResult(
                result.subcircuit, distributions=(counts / 1000).reshape(shape)
            )
            _assert_matches_oracle(sampled)

    @pytest.mark.parametrize("distribution", ["random", "uniform"])
    def test_synthetic_tensors(self, distribution):
        cut = _random_cut(5, seed=3)
        roles = {w: ("active",) if w % 2 else ("merged",) for w in range(5)}
        roles[4] = ("fixed", 1)
        provider = RandomTensorProvider(cut, seed=7, distribution=distribution)
        rng = np.random.default_rng(7)
        for (built, wires), sub in zip(provider.collapsed(roles), cut.subcircuits):
            num_fixed = sum(roles[l.wire][0] == "fixed" for l in sub.output_lines)
            want = synthetic_reference(sub, len(wires), num_fixed, rng, distribution)
            _assert_pairs_like_eq2(built, want, sub)

    def test_store_round_trip(self, tmp_path):
        cut = _random_cut(5, seed=3)  # (rho, O) = (1, 5) and (5, 1)
        results = _batched(cut.subcircuits, init_batch=4)
        store = ArtifactStore(tmp_path)
        store.put_evaluation("key", results)
        for original, loaded in zip(results, store.get_evaluation("key", cut)):
            assert loaded.term_tensor is None  # the memo is not persisted
            _assert_matches_oracle(loaded)
            assert np.array_equal(
                build_term_tensor(loaded).data, build_term_tensor(original).data
            )


def _builds(cached: bool) -> float:
    counter = get_registry().counter("repro_attribute_builds_total")
    return counter.value(cached="true" if cached else "false")


class TestBuildOnce:
    """The tensor is memoised on the result: repeats perform zero builds."""

    def test_memo_is_per_result_object(self, fig4_cut):
        result = evaluate_subcircuit(fig4_cut.subcircuits[0])
        assert build_term_tensor(result) is build_term_tensor(result)
        again = evaluate_subcircuit(fig4_cut.subcircuits[0])
        assert build_term_tensor(again) is not build_term_tensor(result)

    def test_second_fd_query_and_dd_query_build_nothing(self):
        pipeline = CutQC(random_connected_circuit(6, 12, seed=3), 4)
        num = pipeline.cut().num_subcircuits
        built, served = _builds(False), _builds(True)
        first = pipeline.fd_query()
        assert _builds(False) - built == num
        assert _builds(True) - served == 0
        # Later queries read the pipeline's one reconstructor: they never
        # ask for a term tensor again, not even from the memo.
        second = pipeline.fd_query()
        pipeline.dd_query(max_active_qubits=2, max_recursions=2)
        assert _builds(False) - built == num
        assert _builds(True) - served == 0
        assert np.array_equal(first.probabilities, second.probabilities)

    @pytest.mark.parametrize("backend", [None, simulate_probabilities])
    def test_build_reports_source_and_bytes(self, fig4_cut, backend):
        histogram = get_registry().histogram("repro_attribute_seconds")
        result = _batched(fig4_cut.subcircuits[:1], 3, backend=backend)[0]
        source = "vectors" if backend else "amplitudes"
        read = result.distributions if backend else result.amplitudes
        before = histogram.value(source=source)[0]
        with trace.start("root") as root:
            tensor = build_term_tensor(result)
        (span,) = root.to_dict()["children"]
        assert span["name"] == "attribute"
        assert span["attrs"]["source"] == source
        assert span["attrs"]["bytes"] == read.nbytes
        assert span["attrs"]["bytes_out"] == tensor.data.nbytes
        assert histogram.value(source=source)[0] == before + 1

    def test_rebind_rebuilds_exactly_the_dirty_subcircuits(self):
        circuit = qaoa_maxcut(6, ring_graph(6), layers=1, parameters=[0.3, 0.7])
        session = VariationalSession(circuit, max_subcircuit_qubits=5)
        built = _builds(False)
        stats = session.rebind(circuit.parameters())
        assert _builds(False) - built == len(stats.dirty_subcircuits)
        assert len(stats.dirty_subcircuits) == session.cut.num_subcircuits
        flat = list(circuit.parameters())
        flat[-1] += 0.17  # touches a single subcircuit
        clean = {
            index: build_term_tensor(result)
            for index, result in enumerate(session.results)
        }
        built = _builds(False)
        stats = session.rebind(flat)
        assert 1 <= len(stats.dirty_subcircuits) < session.cut.num_subcircuits
        assert _builds(False) - built == len(stats.dirty_subcircuits)
        for index, result in enumerate(session.results):
            rebuilt = build_term_tensor(result) is not clean[index]
            assert rebuilt == (index in stats.dirty_subcircuits)


class TestBuildMemory:
    def test_peak_allocation_is_the_output_plus_one_block(self):
        """Supremacy-12 on 8 qubits has a (rho, O, f) = (6, 1, 6) piece: its
        8 MiB tensor is written once, in place, with no full-size
        temporary beside it (a transform pass would need one)."""
        pipeline = CutQC(get_benchmark("supremacy", 12, seed=0), 8)
        piece = next(
            result for result in pipeline.evaluate()
            if len(result.subcircuit.init_lines) == 6
        )
        assert piece.term_tensor is None
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tensor = build_term_tensor(piece)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tensor.data.nbytes == 8 << 20
        assert peak <= 1.75 * tensor.data.nbytes
