"""The noisy evaluator's per-call dispatch against its reference bodies.

``BatchedStatevector.apply_matrix`` and ``apply_readout_error_rows`` read
their transposes from one permutation table, fused blocks embed each
gate by an index scatter, and an injected trajectory block is memoised
on its program under an integer key.  None of that may move a bit:
every result here is ``array_equal`` to ``tests/dispatch_oracle.py``.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import CutQC, get_benchmark, make_device
from repro.circuits import Gate
from repro.circuits.gates import gate_matrix
from repro.cutting.variants import NoisyEvalSpec, body_program
from repro.sim import NoiseModel
from repro.sim.batch import BatchedStatevector, _expand_to_block, apply_on_axes
from repro.sim.noisy_batch import (
    apply_readout_error_rows,
    injected_suffix,
    superoperator,
)
from tests import dispatch_oracle as oracle

ROOT = Path(__file__).resolve().parents[1]
#: The ``fd_noisy`` benchmark's device noise: 1q, 2q depolarising, readout.
CATALOG_NOISE = (1e-3, 1e-2, 0.015)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def _random_matrix(rng, dim: int) -> np.ndarray:
    """A dense complex matrix with some +-0.0 entries in either part."""
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix[rng.random((dim, dim)) < 0.2] = complex(-0.0, -0.0)
    matrix[rng.random((dim, dim)) < 0.2] = 0.0
    return matrix


class TestBlockEmbedding:
    def test_every_position_tuple_matches_the_tensordot(self):
        rng = np.random.default_rng(11)
        named = {
            1: [gate_matrix(n) for n in ("h", "x", "y", "z", "s", "sdg", "t")],
            2: [gate_matrix("cx"), gate_matrix("swap"),
                superoperator(gate_matrix("y"), 0.01)],
            4: [superoperator(gate_matrix("cx"), 0.02)],
        }
        checked = 0
        for width in range(1, 5):
            for k in range(1, width + 1):
                for positions in itertools.permutations(range(width), k):
                    for matrix in [_random_matrix(rng, 1 << k), *named.get(k, [])]:
                        got = _expand_to_block(matrix, positions, width)
                        want = oracle.expand_to_block(matrix, positions, width)
                        # Equal values; the sign of an exact zero follows
                        # the BLAS kernel's sums, which only a square
                        # downstream ever reads.
                        assert np.array_equal(got, want)
                        checked += 1
        assert checked > 84


class TestApplyMatrix:
    @staticmethod
    def _tuples(rng, axes: int):
        """Every ordered tuple of 1-4 axes up to 4 axes, 24 random beyond."""
        if axes <= 4:
            return [
                t for k in range(1, axes + 1)
                for t in itertools.permutations(range(axes), k)
            ]
        return [
            tuple(rng.permutation(axes)[: rng.integers(1, 5)].tolist())
            for _ in range(24)
        ]

    def _check(self, num_axes: int, batch: int, rng) -> None:
        data = rng.normal(size=(batch, 1 << num_axes)) + 1j * rng.normal(
            size=(batch, 1 << num_axes)
        )
        state = BatchedStatevector(num_axes, batch, data)
        for qubits in self._tuples(rng, num_axes):
            matrix = _random_matrix(rng, 1 << len(qubits))
            before = state._tensor
            want = oracle.apply_matrix(before, matrix, qubits)
            got = state.applied(matrix, list(qubits))._tensor
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))
            assert state._tensor is before
        # In place, chained: each step reads the previous step's view.
        tensor = state._tensor
        for qubits in self._tuples(rng, num_axes)[:12]:
            matrix = _random_matrix(rng, 1 << len(qubits))
            tensor = oracle.apply_matrix(tensor, matrix, qubits)
            state.apply_matrix(matrix, qubits)
            assert np.array_equal(_bits(state._tensor), _bits(tensor))

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_pure_batches(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        self._check(num_qubits, int(rng.integers(1, 5)), rng)

    @pytest.mark.parametrize("num_qubits", range(1, 5))
    def test_density_batches_over_2n_axes(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        self._check(2 * num_qubits, 3, rng)

    def test_wrong_shape_is_refused(self):
        state = BatchedStatevector(3, 2)
        with pytest.raises(ValueError, match="does not act on 2 qubit"):
            state.apply_matrix(np.eye(2), (0, 1))

    @pytest.mark.parametrize(
        "qubits,named",
        [((-1,), "-1"), ((2,), "2"), ((0, 0), "0"), ((1, -2), "-2")],
    )
    def test_bad_qubits_are_refused(self, qubits, named):
        """A negative qubit would act on the batch axis and mix members."""
        state = BatchedStatevector(2, 2)
        before = state.amplitudes()
        matrix = np.eye(1 << len(qubits))[::-1].copy()
        with pytest.raises(ValueError, match=f"qubit {named} "):
            state.apply_matrix(matrix, qubits)
        with pytest.raises(ValueError, match=f"qubit {named} "):
            apply_on_axes(state._tensor, matrix, qubits)
        assert np.array_equal(state.amplitudes(), before)


class TestReadout:
    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_rows_match_the_moveaxis_oracle(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        rows = rng.random((int(rng.integers(1, 6)), 1 << num_qubits))
        for flip in (0.0, 0.015, 0.3):
            got = apply_readout_error_rows(rows, flip)
            want = oracle.apply_readout_error_rows(rows, flip)
            assert np.array_equal(_bits(got), _bits(want))


def _catalog_programs(family: str):
    """The trajectory programs of the ``fd_noisy`` job ``family``-10/D=6."""
    noise = NoiseModel(*CATALOG_NOISE)
    device = make_device("e2e-line", 6, "line", noise=noise, seed=3)
    kwargs = {"seed": 3} if family == "adder" else {}
    cut = CutQC(get_benchmark(family, 10, **kwargs), 6).cut()
    spec = NoisyEvalSpec(device=device, trajectories=24, shots=0, seed=3)
    return [body_program(subcircuit, spec) for subcircuit in cut.subcircuits]


def _patterns(program, rng):
    """Every 1-site pattern with every choice; every pair of neighbouring
    sites; 60 seeded 2- and 3-site patterns anywhere."""
    choices = program.site_choices.tolist()
    sites = len(choices)
    for site, count in enumerate(choices):
        for choice in range(count):
            yield ((site, choice),)
    for site in range(sites - 1):
        yield (site, site % choices[site]), (site + 1, 2 % choices[site + 1])
    for _ in range(60):
        chosen = sorted(rng.choice(sites, size=int(rng.integers(2, 4)),
                                   replace=False).tolist())
        yield tuple((s, int(rng.integers(choices[s]))) for s in chosen)


class TestInjectedSuffix:
    @pytest.mark.parametrize("family", ["bv", "adder"])
    def test_patterns_match_the_gate_splicing_oracle(self, family):
        rng = np.random.default_rng(7)
        for program in _catalog_programs(family):
            for pattern in _patterns(program, rng):
                first, ops = injected_suffix(program, pattern)
                want_first, want_ops = oracle.injected_suffix(
                    program, oracle.name_pattern(program, pattern)
                )
                assert first == want_first
                assert len(ops) == len(want_ops)
                for op, want in zip(ops, want_ops):
                    assert op.qubits == want.qubits
                    assert np.array_equal(op.matrix, want.matrix)
                # A repeat is a memo hit: the same op objects.
                again = injected_suffix(program, pattern)[1]
                assert all(a is b for a, b in zip(again, ops))
        assert injected_suffix(program, ()) == (len(program.ops), [])


class TestInjectedMemo:
    @staticmethod
    def _patterns(count):
        """``count`` one-site patterns, each a distinct memo key."""
        return [((site, choice),) for site in range(count // 3 + 1)
                for choice in range(3)][:count]

    def test_memo_stays_within_its_bound(self, monkeypatch):
        program = _catalog_programs("bv")[0]
        monkeypatch.setattr(program.injected, "limit", 5)
        program.injected.clear()
        keys = []
        for pattern in self._patterns(40):
            injected_suffix(program, pattern)
            (site, choice), = pattern
            block, offset = program.site_slots[site]
            keys.append((block, ((offset, choice),)))
            assert program.injected.stats()["size"] <= 5
        assert program.injected.keys() == keys[-5:]

    def test_threads_share_one_bounded_memo(self, monkeypatch):
        program = _catalog_programs("bv")[0]
        monkeypatch.setattr(program.injected, "limit", 8)
        program.injected.clear()
        patterns = self._patterns(24)
        want = [
            oracle.injected_suffix(program, oracle.name_pattern(program, p))
            for p in patterns
        ]
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for index in rng.integers(len(patterns), size=300):
                    first, ops = injected_suffix(program, patterns[index])
                    assert first == want[index][0]
                    assert np.array_equal(ops[0].matrix, want[index][1][0].matrix)
                    assert program.injected.stats()["size"] <= 8
            except AssertionError as error:  # pragma: no cover - reported
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert program.injected.stats()["size"] <= 8


def _noisy_pipeline(family, qubits, size, seed, method="trajectory"):
    device = make_device(
        "e2e-line", size, "line", noise=NoiseModel(*CATALOG_NOISE), seed=seed
    )
    return CutQC(
        get_benchmark(family, qubits), size, device=device, trajectories=24,
        device_shots=0, noisy_method=method, seed=seed, strategy="auto",
    )


class TestWarmDispatch:
    def test_warm_evaluate_makes_no_avoidable_dispatch(self, monkeypatch):
        _noisy_pipeline("bv", 14, 8, 3).evaluate()
        pipeline = _noisy_pipeline("bv", 14, 8, 3)
        pipeline.cut()
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("repro.sim"):
                    calls.append((name, caller))
                return function(*args, **kwargs)
            return wrapper

        for name in ("argsort", "moveaxis", "setdiff1d"):
            monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
        built = []
        original_init = Gate.__init__

        def gate_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(Gate, "__init__", gate_init)
        pipeline.evaluate()
        assert pipeline.execution_report.num_body_passes > 1
        assert calls == []
        assert built == []

    def test_warm_evaluate_hashes_no_gate(self, monkeypatch):
        """Body keys are hashed once, when a subcircuit is built: a warm
        evaluate groups bodies and finds their programs without hashing
        one gate."""
        _noisy_pipeline("bv", 14, 8, 3).evaluate()
        pipeline = _noisy_pipeline("bv", 14, 8, 3)
        pipeline.cut()
        hashed = []
        original = Gate.__hash__

        def counted(gate):
            hashed.append(gate)
            return original(gate)

        monkeypatch.setattr(Gate, "__hash__", counted)
        pipeline.evaluate()
        assert pipeline.execution_report.num_body_passes > 1
        assert len(hashed) == 0

    def test_trajectories_import_no_masked_arrays(self):
        # Seed 1 fires a prep fragment on bv-10/D=6, the path that took a
        # set difference of row indices (np.setdiff1d imports numpy.ma).
        script = (
            "import sys\n"
            "from tests.test_dispatch import _noisy_pipeline\n"
            "_noisy_pipeline('bv', 10, 6, 1).evaluate()\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{ROOT}",
                 "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        )
        assert done.returncode == 0, done.stderr
