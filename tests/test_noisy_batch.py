"""Parity and determinism suite for batched noisy evaluation (PR 6).

Covers the tentpole's contract from three sides:

* the batched density path is the *same exact channel* as the serial
  ``DensityMatrixSimulator`` (``tests/density_oracle.py``), per variant, and
  its fused superoperators match the step-by-step path they replaced
  (``tests/density_oracle.py``) to 1e-12;
* the batched trajectory path matches an independent serial replay of
  the same keyed draws (scalar reference in ``tests/keyed_draw_oracle.py``)
  to 1e-10, and is bit-identical under any chunking or worker count (the
  deterministic-seeding satellite);
* batching-by-default changes no query result, and the versioned
  evaluation fingerprints force old artifacts to recompute (the
  store-migration satellite).
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchedStatevector,
    CutQC,
    QuantumCircuit,
    cut_circuit,
    make_device,
)
from repro.circuits import Gate
from repro.circuits.gates import gate_matrix
from repro.core import executor as executor_module
from repro.core import RunConfig
from repro.core.executor import VariantExecutor
from repro.cutting.variants import (
    INIT_LABELS,
    MEAS_BASES,
    NoisyEvalSpec,
    batched_noisy_variant_probabilities,
    generate_variants,
    variant_circuit,
    body_program,
)
from repro.devices.transpiler import _native_1q, compact_circuit, transpile
from repro.library import get_benchmark
from repro.obs import trace
from repro.postprocess import WorkerPool
from repro.sim import (
    NoiseModel,
    clean_log_weight,
    compile_program,
    fuse_gates,
    injected_suffix,
    spawn_rng,
)
from repro.sim.batch import FUSION_WIDTH
from repro.sim.noisy_batch import (
    BASIS_GATES,
    PAULI_NAMES_1Q,
    PREP_GATES,
    basis_column_amplitudes,
    evolve_density,
    materialise_distributions,
    product_density,
)
from repro.sim.sampler import sample_distribution
from repro.sim.statevector import INITIAL_STATES, Statevector, simulate_probabilities
from tests.conftest import random_connected_circuit
from tests.density_oracle import (
    BatchedDensityMatrix,
    DensityMatrixSimulator,
    Site,
    body_gates,
    density_steps,
    oracle_distributions,
    run_density_body,
)
from tests.keyed_draw_oracle import (
    BASIS,
    PREP,
    fired_choice,
    fired_sites,
    sample_injection_pattern,
)
from tests.noisy_oracle import apply_readout_error
from tests.test_batch import random_small_cut
from tests.variant_oracle import evaluate_subcircuit


NOISE = NoiseModel(error_1q=0.002, error_2q=0.01, readout=0.01)


def bv(n):
    return get_benchmark("bv", n)


def _fig4_cut():
    circuit = QuantumCircuit(5)
    for qubit in range(5):
        circuit.h(qubit)
    circuit.cz(0, 1).cz(1, 2)
    circuit.t(2)
    circuit.cz(2, 3).cz(3, 4)
    return cut_circuit(circuit, [(2, 1)])


@pytest.fixture
def fig4_cut():
    return _fig4_cut()


# ----------------------------------------------------------------------
# Density path: exact-channel parity with the serial simulator
# ----------------------------------------------------------------------

class TestDensityParity:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=0.0, max_value=0.1),
    )
    def test_matches_serial_density_simulator(self, n, seed, e1, readout):
        circuit = random_connected_circuit(n, 2 * n, seed)
        cut = random_small_cut(circuit, seed + 1)
        if cut is None:
            return
        noise = NoiseModel(error_1q=e1, error_2q=2 * e1, readout=readout)
        spec = NoisyEvalSpec(noise=noise, method="density", shots=None)
        serial = DensityMatrixSimulator(noise=noise)
        for subcircuit in cut.subcircuits:
            batched, passes = batched_noisy_variant_probabilities(
                subcircuit, spec
            )
            assert passes == 1  # prep folding: one pass serves all inits
            variants = generate_variants(subcircuit)
            assert batched[..., 0].size == len(variants)
            for variant in variants:
                reference = serial.run(variant_circuit(subcircuit, variant))
                got = batched[_variant_codes(variant)]
                assert np.abs(got - reference).max() <= 1e-10

    def test_prep_folding_saves_passes(self, fig4_cut):
        # rho = 1 downstream piece: all 4 init preps fold into the first
        # body block — the whole variant set costs one density pass.
        downstream = fig4_cut.subcircuits[1]
        spec = NoisyEvalSpec(noise=NOISE, method="density", shots=None)
        _, passes = batched_noisy_variant_probabilities(downstream, spec)
        assert passes == 1


#: Rate pairs of the oracle property: the benchmark's, zero-rate 1q
#: gates, zero-rate 2q gates, no gate noise, and heavier noise.
_DENSITY_RATES = [(0.002, 0.01), (0.0, 0.02), (0.01, 0.0), (0.0, 0.0),
                  (0.003, 0.03)]


def _random_densities(rng, batch, wires):
    """``batch`` members of ``wires`` random 2x2 mixed states each."""
    members = []
    for _ in range(batch):
        member = []
        for _ in range(wires):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            member.append(rho / np.trace(rho))
        members.append(member)
    return members


class TestDensityOracle:
    """The fused-superoperator engine against the step-by-step path it
    replaced (``tests/density_oracle.py``), to 1e-12."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(_DENSITY_RATES),
        st.booleans(),
    )
    def test_matches_step_oracle(self, n, seed, rates, on_device):
        circuit = random_connected_circuit(n, 2 * n, seed)
        cut = random_small_cut(circuit, seed + 1)  # rho <= 2, O <= 2
        if cut is None:
            return
        noise = NoiseModel(error_1q=rates[0], error_2q=rates[1], readout=0.01)
        if on_device:
            device = make_device("oracle", n, "line", noise=noise, seed=seed)
            spec = NoisyEvalSpec(device=device, method="density", shots=None)
        else:
            spec = NoisyEvalSpec(noise=noise, method="density", shots=None)
        rng = np.random.default_rng(seed)
        for subcircuit in cut.subcircuits:
            got, _ = batched_noisy_variant_probabilities(subcircuit, spec)
            reference = oracle_distributions(subcircuit, spec)
            assert np.abs(got - reference).max() <= 1e-12
            # The body alone, on random product mixed states.
            program = body_program(subcircuit, spec)
            members = _random_densities(rng, 3, program.num_wires)
            state = evolve_density(program, product_density(members))
            expected = run_density_body(
                density_steps(body_gates(subcircuit, spec), noise),
                BatchedDensityMatrix.from_product_batch(members),
            )
            assert np.abs(
                state.amplitudes() - expected.matrices().reshape(3, -1)
            ).max() <= 1e-12

    def test_refuses_fifteen_wires_before_allocating(self):
        device = make_device("wide", 16, "line", noise=NOISE, seed=3)
        spec = NoisyEvalSpec(device=device, method="density", shots=None)
        cut = CutQC(bv(16), 15).cut()
        wide = max(cut.subcircuits, key=lambda piece: piece.width)
        # Compile (and memoize) the program first: the refusal is
        # measured, not the transpile.
        assert body_program(wide, spec).num_wires == 15
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError,
                match=r"^15 qubits needs 4\^15 complex entries per batch "
                r"member; use the batched trajectory path instead$",
            ):
                batched_noisy_variant_probabilities(wide, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_apply_per_fused_superoperator(self, monkeypatch):
        # bv-10/D=6 is the fd_noisy catalog's density job.
        noise = NoiseModel(error_1q=1e-3, error_2q=1e-2, readout=0.015)
        device = make_device("e2e-line", 6, "line", noise=noise, seed=3)
        spec = NoisyEvalSpec(device=device, method="density", shots=None)
        ops = steps = 0
        for subcircuit in CutQC(bv(10), 6).cut().subcircuits:
            program = body_program(subcircuit, spec)
            schedule = program.density_ops
            assert all(len(op.qubits) <= FUSION_WIDTH for op in schedule)
            members = _random_densities(
                np.random.default_rng(0), 2, program.num_wires
            )
            state = product_density(members)
            counter = _CountedApply(monkeypatch)
            with trace.start("root") as root:
                evolve_density(program, state)
            assert len(counter.batch_sizes) == len(schedule)
            (span,) = root.children
            assert span.name == "sim.noisy.density_body"
            assert span.attrs["ops"] == len(schedule)
            assert span.attrs["amplitudes"] == 2 << (2 * program.num_wires)
            ops += len(schedule)
            steps += len(
                density_steps(body_gates(subcircuit, spec), noise)
            )
        assert 3 * ops < steps


# ----------------------------------------------------------------------
# Trajectory path: serial replay of the same keyed RNG streams
# ----------------------------------------------------------------------

def _variant_codes(variant):
    labels_code = 0
    for label in variant.inits:
        labels_code = labels_code * len(INIT_LABELS) + INIT_LABELS.index(label)
    bases_code = 0
    for name in variant.bases:
        bases_code = bases_code * len(MEAS_BASES) + MEAS_BASES.index(name)
    return labels_code, bases_code


def _serial_trajectory_replay(subcircuit, spec, variant):
    """Independent per-variant re-derivation of the batched estimator.

    Rebuilds one variant's distribution with plain serial
    :class:`Statevector` passes, drawing gate by gate from the scalar
    reference of the keyed uniforms the batched engine uses — any drift
    in key assignment or estimator mixing shows up as a mismatch far
    beyond accumulation error.  Shot noise is left out:
    ``multinomial`` branches on values such as ``p == 0.5``, so two
    distributions 1e-16 apart can sample differently
    (:func:`_assert_replay_parity` checks the shot stream on its own).
    """
    noise = spec.effective_noise
    init_positions = [line.line for line in subcircuit.init_lines]
    meas_positions = [line.line for line in subcircuit.meas_lines]
    if spec.device is None:
        body = subcircuit.circuit.gates
        width = subcircuit.width
        keep = None

        def lower(name, position, layout):
            return [Gate(name, (position,))]

        initial = final = None
    else:
        # The device path routes the body alone and lowers each 1q
        # fragment in place on the wire its line starts / ends on.
        transpiled = transpile(subcircuit.circuit, spec.device)
        initial, final = transpiled.initial_layout, transpiled.final_layout
        compact, kept = compact_circuit(
            transpiled.circuit, keep=sorted(set(initial) | set(final))
        )
        body = compact.gates
        width = compact.num_qubits
        keep = [kept.index(final[q]) for q in range(subcircuit.width)]

        def lower(name, position, layout):
            return _native_1q(Gate(name, (kept.index(layout[position]),)))

    plan = compile_program(body, width, (), (), noise)
    clean_ops = fuse_gates(body)
    index = subcircuit.index
    seed = spec.seed
    pauli = [gate_matrix(name) for name in PAULI_NAMES_1Q]

    labels_code, _ = _variant_codes(variant)

    prep_gates = [
        [g for name in PREP_GATES[label] for g in lower(name, position, initial)]
        for label, position in zip(variant.inits, init_positions)
    ]
    basis_gates = [
        [g for gate in BASIS_GATES[name] for g in lower(gate, position, final)]
        for name, position in zip(variant.bases, meas_positions)
    ]
    prep_wires = [
        position if initial is None else kept.index(initial[position])
        for position in init_positions
    ]

    def clean_pass():
        vectors = [INITIAL_STATES["zero"]] * width
        for gates, position in zip(prep_gates, prep_wires):
            vector = INITIAL_STATES["zero"]
            for gate in gates:
                vector = gate.matrix() @ vector
            vectors[position] = vector
        state = Statevector.from_product(vectors)
        for op in clean_ops:
            state.apply_matrix(op.matrix, op.qubits)
        for gates in basis_gates:
            for gate in gates:
                state.apply_gate(gate)
        return state.probabilities()

    clean = clean_pass()
    if noise.error_1q == 0.0 and noise.error_2q == 0.0:
        mixed = clean
    else:
        sums = np.zeros_like(clean)
        count = 0
        for trajectory in range(spec.trajectories):
            pattern, injected = sample_injection_pattern(
                plan, seed, index, trajectory
            )
            vectors = [INITIAL_STATES["zero"]] * width
            gate_position = 0  # counts the gates of the row's fragments
            for gates, position in zip(prep_gates, prep_wires):
                vector = INITIAL_STATES["zero"]
                for gate in gates:
                    vector = gate.matrix() @ vector
                    choice = fired_choice(
                        noise.error_1q, 3, seed, PREP, index, trajectory,
                        labels_code, gate_position,
                    )
                    if choice is not None:
                        vector = pauli[choice] @ vector
                        injected = True
                    gate_position += 1
                vectors[position] = vector
            state = Statevector.from_product(vectors)
            site = 0
            for step in density_steps(body, noise):
                state.apply_matrix(step.matrix, step.qubits)
                if isinstance(step, Site):
                    choice = pattern[site]
                    site += 1
                    if choice is not None:
                        for name, qubit in zip(choice, step.qubits):
                            if name != "i":
                                state.apply_matrix(gate_matrix(name), [qubit])
            code = 0
            for line_index, (name, gates) in enumerate(
                zip(variant.bases, basis_gates)
            ):
                code = code * len(MEAS_BASES) + MEAS_BASES.index(name)
                for gate_position, gate in enumerate(gates):
                    state.apply_gate(gate)
                    choice = fired_choice(
                        noise.error_1q, 3, seed, BASIS, index, trajectory,
                        line_index, code, gate_position,
                    )
                    if choice is not None:
                        state.apply_matrix(pauli[choice], gate.qubits)
                        injected = True
            if injected:
                sums += state.probabilities()
                count += 1
        log_weight = plan.log_clean
        for gates in prep_gates:
            log_weight += clean_log_weight(gates, noise)
        for gates in basis_gates:
            log_weight += clean_log_weight(gates, noise)
        weight = float(np.exp(log_weight))
        if count:
            mixed = weight * clean + (1.0 - weight) * (sums / count)
        else:
            mixed = clean
    result = apply_readout_error(mixed, noise.readout)
    if keep is not None:
        tensor = result.reshape((2,) * width)
        tensor = tensor.sum(axis=tuple(q for q in range(width) if q not in keep))
        order = sorted(keep)
        result = np.transpose(
            tensor, [order.index(q) for q in keep]
        ).reshape(-1)
    return result


#: Where the forked execution branches: the benchmark's rates (most
#: trajectories skip the body), sites only on 2q gates (the stepping
#: plan has fused runs between sites, the fork plan does not care),
#: sites only on 1q gates (about half the trajectories leave the body
#: clean and are read off the walk's final state, in the basis subtrees
#: whose fragment fired), rates high enough that injections share a
#: block, sit in adjacent blocks and in block 0 and that prep fragments
#: fire, and the device path (routed body, native fragments, ``keep``
#: marginalisation).
REGIMES = {
    "benchmark": dict(noise=NOISE),
    "2q-only": dict(
        noise=NoiseModel(error_1q=0.0, error_2q=0.08, readout=0.01)
    ),
    "1q-only": dict(noise=NoiseModel(error_1q=0.1, error_2q=0.0)),
    "heavy": dict(noise=NoiseModel(error_1q=0.2, error_2q=0.3)),
    "device": dict(
        device=make_device(
            "replay", 5, "line",
            noise=NoiseModel(error_1q=0.03, error_2q=0.1, readout=0.01),
            seed=11,
        )
    ),
}


@pytest.fixture
def chain_cut():
    """Three pieces; the middle one has rho = 1, O = 1 and six qubits, so
    it fuses to five blocks at the fixed fusion width."""
    circuit = QuantumCircuit(8)
    for qubit in range(8):
        circuit.h(qubit)
    circuit.cz(0, 1)
    circuit.cz(1, 2).t(2).h(1).cz(2, 3).cz(3, 4).h(3).cz(4, 5).cz(5, 6)
    circuit.t(5).cz(1, 2).cz(2, 3).h(4).cz(3, 4).cz(4, 5).cz(5, 6)
    circuit.cz(6, 7)
    return cut_circuit(circuit, [(1, 1), (6, 2)])


def _assert_replay_parity(subcircuit, spec):
    """Estimates match the replay to 1e-10; with ``spec.shots`` (bare
    noise models only: the device path samples before it marginalises)
    the sampled rows are the keyed shot stream's draw from them."""
    exact = dataclasses.replace(spec, shots=None)
    batched, passes = batched_noisy_variant_probabilities(subcircuit, exact)
    if spec.shots:
        sampled, _ = batched_noisy_variant_probabilities(subcircuit, spec)
    for variant in generate_variants(subcircuit):
        key = _variant_codes(variant)
        reference = _serial_trajectory_replay(subcircuit, exact, variant)
        assert np.abs(batched[key] - reference).max() <= 1e-10
        if spec.shots:
            rng = spawn_rng(spec.seed, 3, subcircuit.index, *key)
            assert np.array_equal(
                sampled[key],
                sample_distribution(batched[key], spec.shots, rng),
            )
    return passes


class _CountedApply:
    """Counts ``BatchedStatevector.apply_matrix`` calls and batch sizes."""

    def __init__(self, monkeypatch):
        self.batch_sizes = []
        original = BatchedStatevector.apply_matrix

        def counted(state, matrix, qubits):
            self.batch_sizes.append(state.batch_size)
            return original(state, matrix, qubits)

        monkeypatch.setattr(BatchedStatevector, "apply_matrix", counted)


class TestTrajectoryParity:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=3, max_value=4),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
        st.sampled_from(sorted(REGIMES)),
    )
    def test_matches_serial_replay(self, n, seed, with_shots, regime):
        circuit = random_connected_circuit(n, 2 * n, seed)
        cut = random_small_cut(circuit, seed + 1)
        if cut is None:
            return
        spec = NoisyEvalSpec(
            method="trajectory",
            trajectories=6,
            shots=256 if with_shots and regime != "device" else None,
            seed=seed % 97,
            **REGIMES[regime],
        )
        for subcircuit in cut.subcircuits:
            _assert_replay_parity(subcircuit, spec)

    def test_heavy_noise_takes_every_fork_branch(self, chain_cut):
        middle = chain_cut.subcircuits[1]
        assert len(middle.init_lines) == 1 and len(middle.meas_lines) == 1
        spec = NoisyEvalSpec(
            trajectories=12, shots=None, seed=1, **REGIMES["heavy"]
        )
        passes = _assert_replay_parity(middle, spec)

        plan = body_program(middle, spec)
        assert len(plan.ops) >= 3  # room for a fork past block 0
        first_blocks, shared, adjacent = [], False, False
        for trajectory in range(spec.trajectories):
            pattern, _ = sample_injection_pattern(
                plan, spec.seed, middle.index, trajectory
            )
            hit = [
                block
                for (block, _), choice in zip(plan.site_slots, pattern)
                if choice is not None
            ]
            first_block, suffix = injected_suffix(
                plan, fired_sites(plan, pattern)
            )
            assert len(suffix) == len(plan.ops) - first_block
            first_blocks.append(first_block)
            shared = shared or len(hit) > len(set(hit))
            adjacent = adjacent or any(b + 1 in hit for b in hit)
        assert 0 in first_blocks and max(first_blocks) > 0
        assert shared and adjacent
        # Rows whose prep fragment drew a Pauli (never 'zero': it has no
        # gate) run the trajectory's whole body as a batch of their own.
        fired = 0
        for trajectory in range(spec.trajectories):
            rows = 0
            for code, label in enumerate(INIT_LABELS):
                rows += any(
                    fired_choice(
                        spec.noise.error_1q, 3, spec.seed, PREP, middle.index,
                        trajectory, code, position,
                    ) is not None
                    for position in range(len(PREP_GATES[label]))
                )
            assert rows < len(INIT_LABELS)
            fired += rows > 0
        assert 0 < fired < spec.trajectories
        forked = sum(first < len(plan.ops) for first in first_blocks)
        assert passes == 1 + forked + fired

    def test_nothing_fired_is_the_clean_walk(self, chain_cut, monkeypatch):
        silent = NoiseModel(error_1q=1e-15, error_2q=1e-15)
        for subcircuit in chain_cut.subcircuits:
            exact, _ = batched_noisy_variant_probabilities(
                subcircuit,
                NoisyEvalSpec(noise=NoiseModel(), shots=None, seed=5),
            )
            spec = NoisyEvalSpec(noise=silent, shots=None, seed=5)
            counter = _CountedApply(monkeypatch)
            estimate, passes = batched_noisy_variant_probabilities(
                subcircuit, spec
            )
            assert passes == 1  # the walk; zero suffix passes
            plan = body_program(subcircuit, spec)
            # the walk plus one clean fan-out (X and Y per measured line)
            assert len(counter.batch_sizes) == len(plan.ops) + 2 * len(
                subcircuit.meas_lines
            )
            assert np.array_equal(estimate, exact)

    def test_batch_span_says_why_it_was_cheap(self, chain_cut):
        middle = chain_cut.subcircuits[1]
        spec = NoisyEvalSpec(
            trajectories=12, shots=None, seed=1, **REGIMES["heavy"]
        )
        with trace.start("root") as root:
            _, passes = batched_noisy_variant_probabilities(middle, spec)
        (batch,) = root.children
        assert batch.name == "evaluate.noisy_variant_batch"
        suffixes = [
            child for child in batch.children
            if child.name == "sim.noisy.trajectory_body"
        ]
        blocks = len(body_program(middle, spec).ops)
        assert batch.attrs["trajectories"] == spec.trajectories
        assert batch.attrs["forked"] == len(suffixes) == passes - 1
        assert 0 <= batch.attrs["skipped"] < spec.trajectories
        assert batch.attrs["blocks_applied"] == blocks + sum(
            child.attrs["blocks"] for child in suffixes
        )
        for child in suffixes:
            assert child.attrs["first_block"] + child.attrs["blocks"] == blocks

    @pytest.mark.parametrize("trajectories", [6, 48])
    def test_calls_and_live_state_stay_bounded(self, monkeypatch, trajectories):
        # bv-16 on a 9-qubit line is the benchmark's largest noisy job.
        cut = CutQC(bv(16), 9).cut()
        for error_2q, factor in ((0.01, 5), (0.5, 1)):
            device = make_device(
                "line9", 9, "line",
                noise=NoiseModel(
                    error_1q=0.001, error_2q=error_2q, readout=0.015
                ),
                seed=3,
            )
            spec = NoisyEvalSpec(
                device=device, trajectories=trajectories, shots=None, seed=3
            )
            for subcircuit in cut.subcircuits:
                counter = _CountedApply(monkeypatch)
                batched_noisy_variant_probabilities(subcircuit, spec)
                steps = density_steps(
                    body_gates(subcircuit, spec), spec.effective_noise
                )
                stepping = len(steps) * (trajectories + 1)
                assert len(counter.batch_sizes) * factor <= stepping
                # No call ever sees more than the init batch: live
                # state is the walk, one fork and one trajectory's
                # prep-fired rows, however many trajectories run.
                assert max(counter.batch_sizes) <= len(INIT_LABELS) ** len(
                    subcircuit.init_lines
                )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_noiseless_trajectory_is_exact(self, n, seed):
        """At zero noise both noisy executors are the exact path — one
        basis walk, one epilogue — on the bare-noise and device paths."""
        circuit = random_connected_circuit(n, 2 * n, seed)
        device = make_device("zero", 5, "line", noise=NoiseModel(), seed=seed)
        for cut in filter(None, [_fig4_cut(), random_small_cut(circuit, seed)]):
            for subcircuit in cut.subcircuits:
                program = body_program(subcircuit)
                exact = materialise_distributions(
                    program, basis_column_amplitudes(program)[0]
                )
                serial = evaluate_subcircuit(subcircuit).distributions
                assert np.abs(exact - serial).max() <= 1e-10
                for method, where in itertools.product(
                    ("trajectory", "density"),
                    (dict(noise=NoiseModel(0.0, 0.0, 0.0)), dict(device=device)),
                ):
                    spec = NoisyEvalSpec(method=method, shots=0, **where)
                    batched, passes = batched_noisy_variant_probabilities(
                        subcircuit, spec
                    )
                    assert passes == 1  # no gate noise: the clean pass
                    assert np.abs(batched - exact).max() <= 1e-10

    def test_trajectory_converges_to_density(self, fig4_cut):
        downstream = fig4_cut.subcircuits[1]
        estimate, _ = batched_noisy_variant_probabilities(
            downstream,
            NoisyEvalSpec(
                noise=NOISE,
                method="trajectory",
                trajectories=4000,
                shots=None,
                seed=3,
            ),
        )
        exact, _ = batched_noisy_variant_probabilities(
            downstream,
            NoisyEvalSpec(noise=NOISE, method="density", shots=None),
        )
        assert np.abs(estimate - exact).max() <= 5e-3

    def test_chunking_is_bit_identical(self, fig4_cut):
        downstream = fig4_cut.subcircuits[1]
        spec = NoisyEvalSpec(
            noise=NOISE, method="trajectory", trajectories=8, shots=512, seed=7
        )
        whole, _ = batched_noisy_variant_probabilities(downstream, spec)
        chunked = np.concatenate([
            batched_noisy_variant_probabilities(
                downstream, spec, init_combos=[(label,)]
            )[0]
            for label in INIT_LABELS
        ])
        assert np.array_equal(whole, chunked)


# ----------------------------------------------------------------------
# Deterministic seeding under parallelism
# ----------------------------------------------------------------------

class TestWorkerCountInvariance:
    def _device(self):
        return make_device("inv", 5, "line", noise=NOISE, seed=11)

    def test_worker_pool_transport_bit_identical(self, fig4_cut, monkeypatch):
        monkeypatch.setattr(executor_module, "_INIT_BATCH", 1)
        serial_exec = VariantExecutor(RunConfig(device=self._device(), seed=5))
        serial = serial_exec.run(fig4_cut.subcircuits)
        assert serial_exec.last_report.mode == "batched-noisy"
        with WorkerPool(workers=2) as pool:
            pooled_exec = VariantExecutor(
                RunConfig(device=self._device(), seed=5), worker_pool=pool
            )
            pooled = pooled_exec.run(fig4_cut.subcircuits)
            assert pooled_exec.last_report.mode == "batched-noisy-pool"
            stats = pool.stats()
            assert stats.tasks_by_kind.get("noisy-variant-batch", 0) >= 2
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.distributions, b.distributions)


# ----------------------------------------------------------------------
# Batching by default: query parity with per-circuit evaluation
# ----------------------------------------------------------------------

class TestBatchingDefault:
    def test_default_flip_changes_no_fd_result(self):
        circuit = bv(6)
        default = CutQC(circuit, max_subcircuit_qubits=5)
        legacy = CutQC(
            circuit, max_subcircuit_qubits=5, backend=simulate_probabilities
        )
        fd_default = default.fd_query()
        fd_legacy = legacy.fd_query()
        assert default.execution_report.mode == "batched"
        assert legacy.execution_report.mode == "backend"
        assert (
            np.abs(fd_default.probabilities - fd_legacy.probabilities).max()
            <= 1e-10
        )
        top_default = default.fd_top_k(2, 3)
        top_legacy = legacy.fd_top_k(2, 3)
        # BV's distribution is one dominant state plus ~0 ties whose
        # ordering is float-noise; pin the winner and the values.
        assert top_default[0][0] == top_legacy[0][0]
        for (_, p), (_, q) in zip(top_default, top_legacy):
            assert abs(p - q) <= 1e-10

    def test_default_flip_changes_no_dd_result(self):
        circuit = bv(6)
        default = CutQC(circuit, max_subcircuit_qubits=5).dd_query(
            max_active_qubits=2
        )
        legacy = CutQC(
            circuit, max_subcircuit_qubits=5, backend=simulate_probabilities
        ).dd_query(max_active_qubits=2)
        assert [state for state, _ in default.solution_states()] == [
            state for state, _ in legacy.solution_states()
        ]

    def test_device_defaults_to_batched_noisy(self):
        device = make_device("flip", 5, "line", noise=NOISE, seed=3)
        pipeline = CutQC(bv(6), max_subcircuit_qubits=5, device=device)
        pipeline.fd_query()
        assert pipeline.execution_report.mode == "batched-noisy"

    def test_explicit_conflicts_still_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            CutQC(
                bv(6),
                max_subcircuit_qubits=5,
                backend=lambda c: None,
                device=make_device("x", 5, "line", noise=NOISE),
            )

    def test_noisy_spec_validation(self, fig4_cut):
        with pytest.raises(ValueError, match="method"):
            NoisyEvalSpec(noise=NOISE, method="unitary")
        with pytest.raises(ValueError, match="exactly one"):
            NoisyEvalSpec()
        with pytest.raises(ValueError, match="trajectories"):
            NoisyEvalSpec(noise=NOISE, trajectories=0)
        for seed in (-1, 1 << 63, 2.0, False):
            with pytest.raises(ValueError, match="seed"):
                NoisyEvalSpec(noise=NOISE, seed=seed)
        NoisyEvalSpec(noise=NOISE, seed=(1 << 63) - 1)

    def test_bad_seed_is_refused_before_numpy_sees_it(self):
        device = make_device("seedless", 5, "line", noise=NOISE, seed=3)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*63\)"):
            CutQC(bv(6), max_subcircuit_qubits=5, device=device, seed=-1)


# ----------------------------------------------------------------------
# Store migration: versioned fingerprints force recomputation
# ----------------------------------------------------------------------

def _tag(spec):
    """The store backend tag a job's evaluate stage keys on."""
    return spec.run_config().evaluation_identity()["backend"]


class TestStoreMigration:
    def test_backend_tags_are_versioned(self):
        from repro.service.scheduler import JobSpec

        base = dict(device_size=5, benchmark="bv", qubits=6)
        assert _tag(JobSpec(**base)) == "statevector:batched:v3"
        # A journaled legacy spec keyed per-variant artifacts; it now
        # addresses the batched ones, which a parent store already holds.
        legacy = JobSpec.from_dict({**base, "sim_batch": 0})
        assert _tag(legacy) == "statevector:batched:v3"
        # Every tag whose artifacts hold a distributions array moved to v2
        # with that layout.
        # The trajectory path moved to v3 with the keyed injection draws,
        # the density path to v3 with the fused-superoperator engine
        # (its answers moved by round-off).
        assert (
            _tag(JobSpec(**base, device="bogota"))
            == "device:bogota:trajectory:batched:v3"
        )
        assert (
            _tag(JobSpec(**base, device="bogota", noisy_method="density"))
            == "device:bogota:density:batched:v3"
        )

    def test_fingerprint_config_and_version_fragment_keys(self):
        from repro.service.store import evaluation_fingerprint

        old = evaluation_fingerprint("cut", backend="statevector")
        new = evaluation_fingerprint("cut", backend="statevector:batched:v2")
        assert old != new
        # config=None must leave historical digests untouched.
        assert evaluation_fingerprint("cut", config=None) == (
            evaluation_fingerprint("cut")
        )
        assert evaluation_fingerprint(
            "cut", config={"trajectories": 24}
        ) != evaluation_fingerprint("cut")
        assert evaluation_fingerprint(
            "cut", config={"trajectories": 24}
        ) != evaluation_fingerprint("cut", config={"trajectories": 48})

    def test_old_artifacts_recompute_after_bump(self, tmp_path):
        from repro.service.store import ArtifactStore, evaluation_fingerprint

        pipeline = CutQC(bv(6), max_subcircuit_qubits=5)
        results = pipeline.evaluate()
        store = ArtifactStore(tmp_path)
        cut_key = pipeline.cut_fingerprint()
        # An artifact cached under a pre-bump batched tag still answers
        # its own key but never collides with the versioned key: jobs
        # recompute instead of reusing stale batched semantics.
        old_key = evaluation_fingerprint(cut_key, backend="statevector:batched")
        store.put_evaluation(old_key, results)
        assert store.get_evaluation(old_key, pipeline.cut()) is not None
        new_key = evaluation_fingerprint(
            cut_key, backend="statevector:batched:v2"
        )
        assert new_key != old_key
        assert store.get_evaluation(new_key, pipeline.cut()) is None

    def test_v2_trajectory_artifact_is_not_served_to_a_v3_job(
        self, tmp_path
    ):
        from repro.service.scheduler import JobScheduler, JobSpec
        from repro.service.store import ArtifactStore

        spec = JobSpec(
            device_size=5, benchmark="bv", qubits=6, device="bogota",
            shots=1024, trajectories=8,
        )
        pipeline = CutQC(spec.build_circuit(), config=spec.run_config())
        store = ArtifactStore(tmp_path)

        def key(backend):
            # The scheduler's evaluation key, under a given backend tag.
            return pipeline.evaluation_fingerprint(
                backend=backend, shots=spec.shots, seed=spec.seed,
                config={"trajectories": spec.trajectories},
            )

        # A parent store holds an old-stream artifact under the v2 tag.
        old_key = key("device:bogota:trajectory:batched:v2")
        store.put_evaluation(old_key, pipeline.evaluate())
        scheduler = JobScheduler(store, workers=1, autostart=True)
        try:
            record = scheduler.wait(scheduler.submit(spec), timeout=180.0)
        finally:
            scheduler.shutdown()
        assert record.state == "done", record.error
        assert record.fingerprints["evaluate"] == key(_tag(spec))
        assert record.fingerprints["evaluate"] != old_key
        assert record.cache_hits["evaluate"] is False

    def test_scheduler_records_batched_noisy_mode(self, tmp_path):
        from repro.service.scheduler import JobScheduler, JobSpec
        from repro.service.store import ArtifactStore

        scheduler = JobScheduler(
            ArtifactStore(tmp_path), workers=1, autostart=True
        )
        try:
            base = dict(
                device_size=5,
                benchmark="bv",
                qubits=6,
                device="bogota",
                shots=2048,
            )
            first = scheduler.wait(
                scheduler.submit(JobSpec(**base, trajectories=8)),
                timeout=180.0,
            )
            assert first.state == "done"
            assert first.execution["mode"] == "batched-noisy"
            assert first.execution["num_body_passes"] >= 2
            # Trajectory count is part of the artifact identity on the
            # batched noisy path: a different count recomputes.
            second = scheduler.wait(
                scheduler.submit(JobSpec(**base, trajectories=16)),
                timeout=180.0,
            )
            assert second.state == "done"
            assert (
                first.fingerprints["evaluate"]
                != second.fingerprints["evaluate"]
            )
            assert second.cache_hits["evaluate"] is False
        finally:
            scheduler.shutdown()
