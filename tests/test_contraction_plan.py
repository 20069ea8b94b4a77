"""The compiled ``tensor_network`` contraction plan.

A :class:`~repro.postprocess.engine.ContractionPlan` must contract every
network to the greedy ``tensordot`` oracle's answer (within 1e-12 of its
largest entry) at exactly the oracle's price, hold no more than the slice
budget plus output-sized arrays while it runs, and be shared by threads
safely.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import CutQC
from repro.library import supremacy
from repro.postprocess import QueryPlan, contract_terms
from repro.postprocess.attribution import TermTensor
from repro.postprocess.engine import _SLICE_BYTES, contraction_plan
from tests.contraction_oracle import contract_network, tn_cost

#: supremacy-12/D=8's pieces in Kronecker order: (cut order, output width).
SUPREMACY_12_8 = [
    ((0, 2, 3, 4, 6, 7), 3),
    ((0, 1, 3, 5, 7, 8, 9), 3),
    ((1, 2, 4, 5, 6, 8, 9), 6),
]


def _tensors(structure, rng):
    return [
        TermTensor(
            index, list(cuts), width,
            rng.standard_normal((4 ** len(cuts), 1 << width)),
        )
        for index, (cuts, width) in enumerate(structure)
    ]


def _random_structure(rng, pieces, cuts, loner, max_width=6, max_cuts=6):
    """``cuts`` cuts, each joining two distinct pieces (never piece 0 when
    ``loner``: its step is an outer product), every cut order shuffled;
    output widths 0..``max_width``, at most 12 in all."""
    orders = [[] for _ in range(pieces)]
    joinable = list(range(1 if loner else 0, pieces))
    for cut in range(cuts):
        open_pieces = [p for p in joinable if len(orders[p]) < max_cuts]
        if len(open_pieces) < 2:
            break
        a, b = rng.choice(open_pieces, 2, replace=False)
        orders[a].append(cut)
        orders[b].append(cut)
    used = sorted({cut for order in orders for cut in order})
    renumber = {cut: index for index, cut in enumerate(used)}
    structure, total = [], 0
    for order in orders:
        order = [renumber[cut] for cut in order]
        rng.shuffle(order)
        width = min(int(rng.integers(0, max_width + 1)), 12 - total)
        total += width
        structure.append((tuple(order), width))
    return structure


def _random_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for index in range(200):
        pieces = int(rng.integers(1, 6))
        cuts = 0 if pieces == 1 else int(rng.integers(1, 3 * pieces))
        loner = pieces > 2 and index % 5 == 0
        cases.append(_random_structure(rng, pieces, cuts, loner))
    return cases


def _assert_matches_oracle(structure, seed):
    rng = np.random.default_rng(seed)
    tensors = _tensors(structure, rng)
    order = list(rng.permutation(len(structure)))
    plan = contraction_plan(tensors, order)
    assert plan.cost == tn_cost(tensors, order)
    want = contract_network(tensors, order)
    got = plan.execute([tensors[i].data for i in order])
    assert got.shape == want.shape
    scale = max(np.abs(want).max(), np.finfo(float).tiny)
    assert np.abs(got - want).max() <= 1e-12 * scale
    return plan


class TestAgainstOracle:
    def test_random_networks(self):
        cases = _random_cases()
        sliced = sum(
            bool(_assert_matches_oracle(structure, seed).sliced)
            for seed, structure in enumerate(cases)
        )
        assert 0 < sliced < len(cases)  # both sides of the slice budget

    @pytest.mark.parametrize("seed", range(3))
    def test_networks_over_the_budget_are_sliced(self, seed):
        rng = np.random.default_rng(100 + seed)
        structure = [
            (tuple(rng.permutation(cuts)), width)
            for cuts, width in SUPREMACY_12_8
        ]
        plan = _assert_matches_oracle(structure, seed)
        assert plan.sliced

    def test_supremacy_structure_slices(self):
        plan = _assert_matches_oracle(SUPREMACY_12_8, 7)
        assert plan.sliced

    def test_four_piece_ring_over_the_budget(self):
        structure = [
            ((0, 1, 2, 3), 5), ((3, 4, 5, 6), 4),
            ((6, 7, 8, 9), 6), ((9, 0, 1, 2, 7, 8, 4, 5), 2),
        ]
        assert _assert_matches_oracle(structure, 11).sliced

    def test_output_over_the_budget_sums_the_slices(self):
        """Each piece is 2 MiB, so the plan slices, and every slice adds
        a whole 2 MiB output."""
        structure = [((0, 1, 2, 3, 4), 9), ((4, 3, 2, 1, 0), 9)]
        rng = np.random.default_rng(8)
        plan = contraction_plan(_tensors(structure, rng), [0, 1])
        assert plan.sliced
        _assert_matches_oracle(structure, 8)

    def test_interleaved_outputs(self):
        """The first step joins pieces 0 and 2, so the last step's axes
        interleave the Kronecker order and go out through a permutation."""
        structure = [((0,), 2), ((1,), 3), ((0, 1), 1)]
        rng = np.random.default_rng(5)
        tensors = _tensors(structure, rng)
        order = [0, 1, 2]
        plan = contraction_plan(tensors, order)
        assert plan.permutation != tuple(sorted(plan.permutation))
        _assert_matches_oracle(structure, 5)

    def test_more_than_52_labels(self):
        """A 30-piece chain: 29 cut and 30 output labels."""
        structure = [
            (tuple(cut for cut in (index - 1, index) if 0 <= cut < 29),
             int(index % 6 == 0))
            for index in range(30)
        ]
        _assert_matches_oracle(structure, 3)

    def test_outer_products_only(self):
        _assert_matches_oracle([((), 2), ((), 0), ((), 3)], 1)

    def test_single_piece(self):
        _assert_matches_oracle([((), 4)], 2)

    def test_cut_not_joining_two_pieces_is_refused(self):
        rng = np.random.default_rng(0)
        tensors = _tensors([((0, 1), 1), ((0,), 1)], rng)
        with pytest.raises(ValueError, match="cut 1 joins 1 piece"):
            contraction_plan(tensors, [0, 1])

    def test_engine_runs_the_plan(self):
        rng = np.random.default_rng(9)
        tensors = _tensors(SUPREMACY_12_8, rng)
        result = contract_terms(tensors, [0, 1, 2], 10, strategy="tensor_network")
        want = contract_network(tensors, [0, 1, 2])
        assert np.abs(result.vector - want).max() <= 1e-12 * np.abs(want).max()


class TestCompiledOnce:
    def test_one_plan_per_structure(self):
        rng = np.random.default_rng(3)
        first = _tensors(SUPREMACY_12_8, rng)
        second = _tensors(SUPREMACY_12_8, rng)
        plan = contraction_plan(first, [0, 1, 2])
        assert contraction_plan(second, [0, 1, 2]) is plan
        assert contraction_plan(first, [2, 1, 0]) is not plan


@pytest.fixture(scope="module")
def supremacy_pieces():
    """supremacy-12/D=8's evaluated FD pieces, in Kronecker order."""
    pipeline = CutQC(supremacy(12, seed=0), max_subcircuit_qubits=8)
    provider = pipeline.reconstructor().provider
    prepared = QueryPlan.binned(
        provider.num_qubits, provider.num_cuts, {}, range(provider.num_qubits)
    ).prepared(provider)
    tensors, order, _ = prepared.payload
    return tensors, order


class TestWorkingSet:
    def test_second_execution_stays_within_budget_plus_output(
        self, supremacy_pieces
    ):
        tensors, order = supremacy_pieces
        plan = contraction_plan(tensors, order)
        assert [
            (tuple(tensors[i].cut_order), tensors[i].num_effective) for i in order
        ] == SUPREMACY_12_8
        arrays = [tensors[i].data for i in order]
        first = plan.execute(arrays)
        tracemalloc.start()
        try:
            second = plan.execute(arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20  # the unsliced tensordot path peaked at 16.0 MiB
        # The budget, the output and one slice's output-sized result.
        assert peak <= _SLICE_BYTES + 2 * first.nbytes + (64 << 10)
        assert np.array_equal(first, second)
        want = contract_network(tensors, order)
        assert np.abs(second - want).max() <= 1e-12 * np.abs(want).max()


class TestThreads:
    def test_four_threads_share_one_plan(self):
        """Four threads contract one structure, each its own tensors, at a
        1 us switch interval: every answer is the serial one."""
        inputs = [
            _tensors(SUPREMACY_12_8, np.random.default_rng(seed))
            for seed in range(4)
        ]
        order = [0, 1, 2]
        plan = contraction_plan(inputs[0], order)
        serial = [plan.execute([t.data for t in tensors]) for tensors in inputs]
        answers = [[] for _ in inputs]

        def run(index):
            tensors = inputs[index]
            for _ in range(3):
                own = contraction_plan(tensors, order)
                answers[index].append(own.execute([t.data for t in tensors]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(inputs))
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for want, got in zip(serial, answers):
            assert len(got) == 3
            assert all(np.array_equal(answer, want) for answer in got)
