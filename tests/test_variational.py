"""The variational warm path (PR 7): bind, rebound cuts, block reuse.

Covers the tentpole's contract from four sides:

* ``QuantumCircuit.bind`` reports exactly the gates whose parameters
  moved, and shares unchanged ``Gate`` objects by identity (so the
  identity-keyed fusion caches keep hitting);
* cut fingerprints are parameter-invariant while evaluation fingerprints
  digest the bound values — a rebind hits the cut checkpoint but never
  aliases another binding's tensors;
* ``CutCircuit.rebound`` patches only dirty subcircuits and shares clean
  ones by reference, and the per-block fusion memo rebuilds only blocks
  containing a moved gate;
* a :meth:`~repro.core.CutQC.rebind` bit-matches a from-scratch
  pipeline to 1e-10 — including partial updates that touch a single
  subcircuit — under serial, pooled and batched-noisy execution, while
  its stats prove the reuse, and every later query of the rebound
  pipeline (FD, top-k, stream, DD) equals a fresh pipeline's.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CutQC,
    QuantumCircuit,
    make_device,
    simulate_probabilities,
)
from repro.circuits.gates import PARAM_COUNTS
from repro.core import spsa_gains
from repro.core.variational import summary
from repro.cutting import cut_memo_stats
from repro.devices.pool import DevicePool
from repro.library.qaoa import qaoa_maxcut, ring_graph
from repro.service.store import (
    ArtifactStore,
    cut_fingerprint,
    evaluation_fingerprint,
    structural_digest,
)
from repro.sim import NoiseModel
from repro.sim.batch import gate_partition
from repro.utils import memo_stats


def _qaoa(n=6, layers=1, theta=(0.3, 0.7)):
    return qaoa_maxcut(n, ring_graph(n), layers=layers, parameters=list(theta))


def _moved_blocks(before, after):
    """``(blocks, touched)``: fused blocks of the pieces whose gates moved
    between two cuts of one structure, and how many hold a moved gate."""
    blocks = touched = 0
    for old, new in zip(before.subcircuits, after.subcircuits):
        moved = {
            index
            for index, (a, b) in enumerate(
                zip(old.circuit.gates, new.circuit.gates)
            )
            if a != b
        }
        if moved:
            partition = gate_partition(new.circuit.gates)
            blocks += len(partition)
            touched += sum(1 for group in partition if moved & set(group))
    return blocks, touched


def _ideal_device(name, qubits, seed=0):
    return make_device(name, qubits, "line", noise=NoiseModel(), seed=seed)


# ----------------------------------------------------------------------
# Circuits layer: parameters / structure / bind
# ----------------------------------------------------------------------

class TestBind:
    def test_parameters_flat_gate_order(self):
        circuit = QuantumCircuit(2).h(0).rx(0.5, 0).rzz(0.25, 0, 1).u(
            0.1, 0.2, 0.3, 1
        )
        assert circuit.parameters() == (0.5, 0.25, 0.1, 0.2, 0.3)
        assert circuit.num_parameters == 5

    def test_structure_ignores_parameters(self):
        a = QuantumCircuit(2).rx(0.5, 0).cx(0, 1)
        b = QuantumCircuit(2).rx(1.5, 0).cx(0, 1)
        assert a.structure() == b.structure()

    def test_bind_reports_changed_gate_indices(self):
        circuit = QuantumCircuit(2).h(0).rx(0.5, 0).rz(0.25, 1)
        bound, changed = circuit.bind([0.5, 0.75])
        assert changed == (2,)  # gate index, not parameter index
        assert bound.parameters() == (0.5, 0.75)

    def test_bind_shares_unchanged_gate_objects(self):
        circuit = QuantumCircuit(2).rx(0.5, 0).rz(0.25, 1)
        bound, changed = circuit.bind([0.5, 0.9])
        assert changed == (1,)
        assert bound.gates[0] is circuit.gates[0]
        assert bound.gates[1] is not circuit.gates[1]

    def test_bind_wrong_length_raises(self):
        circuit = QuantumCircuit(2).rx(0.5, 0)
        with pytest.raises(ValueError, match="1"):
            circuit.bind([0.5, 0.6])

    def test_bind_noop_changes_nothing(self):
        circuit = _qaoa()
        bound, changed = circuit.bind(circuit.parameters())
        assert changed == ()
        assert all(a is b for a, b in zip(bound.gates, circuit.gates))

    def test_param_counts_cover_parametric_gates(self):
        for name, count in PARAM_COUNTS.items():
            assert count >= 1, name


# ----------------------------------------------------------------------
# Fingerprint semantics (satellite: param-invariant cut keys)
# ----------------------------------------------------------------------

class TestFingerprints:
    OPTIONS = {"max_subcircuit_qubits": 5}

    def test_cut_fingerprint_parameter_invariant(self):
        a = _qaoa(theta=(0.3, 0.7))
        b = _qaoa(theta=(1.1, 0.2))
        assert structural_digest(a) == structural_digest(b)
        assert cut_fingerprint(a, self.OPTIONS) == cut_fingerprint(
            b, self.OPTIONS
        )

    def test_cut_fingerprint_sees_structure(self):
        a = _qaoa(n=6)
        b = _qaoa(n=8)
        assert cut_fingerprint(a, self.OPTIONS) != cut_fingerprint(
            b, self.OPTIONS
        )

    def test_evaluation_fingerprint_digests_parameters(self):
        a = _qaoa(theta=(0.3, 0.7))
        b = _qaoa(theta=(1.1, 0.2))
        key = cut_fingerprint(a, self.OPTIONS)
        fp_a = evaluation_fingerprint(
            key, backend="statevector", params=a.parameters()
        )
        fp_b = evaluation_fingerprint(
            key, backend="statevector", params=b.parameters()
        )
        assert fp_a != fp_b
        assert fp_a == evaluation_fingerprint(
            key, backend="statevector", params=a.parameters()
        )

    def test_store_cut_hit_across_rebind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        original = _qaoa(theta=(0.3, 0.7))
        pipeline = CutQC(original, max_subcircuit_qubits=5)
        cut = pipeline.cut()
        key = pipeline.cut_fingerprint()
        store.put_cut(key, original, cut, pipeline.solution)

        rebound, _ = original.bind(
            [p + 0.1 for p in original.parameters()]
        )
        assert CutQC(rebound, max_subcircuit_qubits=5).cut_fingerprint() == key
        restored = store.get_cut(key, rebound)
        assert restored is not None
        restored_cut, _ = restored
        assert restored_cut.num_subcircuits == cut.num_subcircuits


# ----------------------------------------------------------------------
# Cutting layer: rebound cuts
# ----------------------------------------------------------------------

class TestRebound:
    def test_clean_subcircuits_shared_by_reference(self):
        circuit = _qaoa()
        cut = CutQC(circuit, max_subcircuit_qubits=5).cut()
        flat = list(circuit.parameters())
        flat[-1] += 0.4  # one rx, lives in exactly one subcircuit
        bound, changed = circuit.bind(flat)
        rebound, dirty = cut.rebound(bound, changed)
        assert len(dirty) == 1
        for index, subcircuit in enumerate(rebound.subcircuits):
            if index in dirty:
                assert subcircuit is not cut.subcircuits[index]
            else:
                assert subcircuit is cut.subcircuits[index]

    def test_rebind_builds_new_subcircuits(self):
        """A subcircuit is frozen, so its line views and body key cannot
        go stale: a rebind builds a new one, with its own body key, and
        leaves the old one as it was."""
        import dataclasses

        circuit = _qaoa()
        cut = CutQC(circuit, max_subcircuit_qubits=5).cut()
        before = [(s.circuit.gates, s.body_key) for s in cut.subcircuits]
        bound, changed = circuit.bind([p + 0.2 for p in circuit.parameters()])
        rebound, dirty = cut.rebound(bound, changed)
        assert dirty
        for index in dirty:
            old, new = cut.subcircuits[index], rebound.subcircuits[index]
            assert new is not old
            assert (old.circuit.gates, old.body_key) == before[index]
            assert new.body_key != old.body_key
            for name in ("lines", "init_lines", "meas_lines", "output_lines",
                         "cut_ids"):
                assert getattr(new, name) == getattr(old, name)
                assert isinstance(getattr(new, name), tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cut.subcircuits[0].lines = ()

    def test_rebound_preserves_lines_and_qubits(self):
        circuit = _qaoa()
        cut = CutQC(circuit, max_subcircuit_qubits=5).cut()
        bound, changed = circuit.bind(
            [p + 0.2 for p in circuit.parameters()]
        )
        rebound, dirty = cut.rebound(bound, changed)
        for old, new in zip(cut.subcircuits, rebound.subcircuits):
            assert new.lines == old.lines
            assert new.circuit.structure() == old.circuit.structure()

    def test_rebound_evaluates_to_bound_distribution(self):
        circuit = _qaoa()
        cut = CutQC(circuit, max_subcircuit_qubits=5).cut()
        bound, changed = circuit.bind(
            [p + 0.3 for p in circuit.parameters()]
        )
        rebound, _ = cut.rebound(bound, changed)
        result = CutQC(bound, max_subcircuit_qubits=5).load_cut(
            rebound
        ).fd_query()
        truth = simulate_probabilities(bound)
        assert np.allclose(result.probabilities, truth, atol=1e-10)


# ----------------------------------------------------------------------
# Sim layer: per-block fusion memo
# ----------------------------------------------------------------------

class TestBlockReuse:
    def test_single_gate_change_rebuilds_one_block(self):
        # Eight qubits on five-qubit pieces: the dirty piece fuses to two
        # blocks, and only one of them holds the moved gate.
        circuit = _qaoa(n=8)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        pipeline.fd_query()

        flat = list(circuit.parameters())
        flat[-1] += 0.7
        bound, _ = circuit.bind(flat)
        rebound = CutQC(bound, max_subcircuit_qubits=5)
        blocks, touched = _moved_blocks(pipeline.cut(), rebound.cut())
        assert blocks >= 2 and 1 <= touched < blocks
        before = memo_stats()
        rebound.fd_query()
        after = memo_stats()
        blocks, blocks_before = after["fusion_block"], before["fusion_block"]
        built = blocks["misses"] - blocks_before["misses"]
        total = blocks["hits"] + built - blocks_before["hits"]
        assert total > 1
        # Only blocks containing the moved gate were re-fused; everything
        # else came out of the per-block memo.
        assert 1 <= built < total
        assert (after["fusion_partition"]["misses"]
                == before["fusion_partition"]["misses"])


# ----------------------------------------------------------------------
# Core: CutQC.rebind parity + reuse stats
# ----------------------------------------------------------------------

class TestRebind:
    def test_reuse_stats_prove_warm_path(self):
        circuit = _qaoa(n=8)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        first = pipeline.rebind(circuit.parameters())
        assert not first.cut_cache_hit  # no loaded cut: first is searched
        assert first.reused_subcircuits == 0
        cold_cut = pipeline.cut()

        flat = list(circuit.parameters())
        flat[-1] += 0.5
        second = pipeline.rebind(flat)
        # The dirty piece fuses to >= 2 blocks, one without the moved gate.
        blocks, touched = _moved_blocks(cold_cut, pipeline.cut())
        assert blocks >= 2 and 1 <= touched < blocks
        assert second.cut_cache_hit
        assert second.dirty_subcircuits != ()
        assert second.reused_subcircuits >= 1
        assert second.tensors_reused >= 1
        assert second.fusion_blocks_built < second.fusion_blocks_total
        folded = summary([first, second], circuit.num_parameters)
        assert folded["iterations"] == 2
        assert folded["cut_cache_hits"] == 1

    def test_pipelines_of_one_structure_share_one_cut_search(self):
        """No store: the second pipeline's cold cut is a ``find_cuts`` memo
        hit — not a rebind cut-cache hit — and still cuts its own angles."""
        first = CutQC(_qaoa(), max_subcircuit_qubits=5)
        first.rebind(first.circuit.parameters())
        target = _qaoa(theta=(1.2, 0.1))
        second = CutQC(target, max_subcircuit_qubits=5)
        stats = second.rebind(target.parameters())
        assert cut_memo_stats() == {"hits": 1, "misses": 1, "size": 1}
        assert not stats.cut_cache_hit
        assert summary([stats], target.num_parameters)["cut_store_hit"] is False
        assert second.cut().assignment == first.cut().assignment
        assert second.cut().circuit.parameters() == target.parameters()
        assert np.allclose(
            second.fd_query().probabilities,
            simulate_probabilities(target),
            atol=1e-10,
        )

    def test_a_restored_cut_makes_the_first_rebind_a_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        circuit = _qaoa()
        warm = CutQC(circuit, max_subcircuit_qubits=5)
        key = warm.cut_fingerprint()
        assert store.get_cut(key, circuit) is None
        warm.rebind(circuit.parameters())
        store.put_cut(key, circuit, warm.cut(), warm.solution)

        # A second pipeline for the same structure restores the cut: the
        # very first rebind is already a cut cache hit.
        target = _qaoa(theta=(1.2, 0.1))
        other = CutQC(target, max_subcircuit_qubits=5)
        other.load_cut(*store.get_cut(other.cut_fingerprint(), target))
        stats = other.rebind(target.parameters())
        assert summary([stats], target.num_parameters)["cut_store_hit"] is True
        assert stats.cut_cache_hit

    @settings(max_examples=8, deadline=None)
    @given(
        theta0=st.tuples(
            st.floats(0.05, 3.0), st.floats(0.05, 3.0)
        ),
        theta1=st.tuples(
            st.floats(0.05, 3.0), st.floats(0.05, 3.0)
        ),
    )
    def test_rebind_matches_from_scratch(self, theta0, theta1):
        circuit = _qaoa(theta=theta0)
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        pipeline.rebind(circuit.parameters())
        target = _qaoa(theta=theta1)
        pipeline.rebind(target.parameters())
        warm = pipeline.fd_query().probabilities
        scratch = CutQC(target, max_subcircuit_qubits=5).fd_query()
        assert np.allclose(warm, scratch.probabilities, atol=1e-10)

    @settings(max_examples=8, deadline=None)
    @given(
        gate=st.integers(0, 14),
        delta=st.floats(0.05, 2.0),
    )
    def test_partial_update_matches_from_scratch(self, gate, delta):
        # Perturb a single gate parameter: often only one subcircuit is
        # dirty, and the reconstruction must still be exact.
        circuit = _qaoa()
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        pipeline.rebind(circuit.parameters())
        flat = list(circuit.parameters())
        flat[gate % len(flat)] += delta
        stats = pipeline.rebind(flat)
        assert (
            1 <= len(stats.dirty_subcircuits) <= pipeline.cut().num_subcircuits
        )
        bound, _ = circuit.bind(flat)
        scratch = CutQC(bound, max_subcircuit_qubits=5).fd_query()
        assert np.allclose(
            pipeline.fd_query().probabilities,
            scratch.probabilities,
            atol=1e-10,
        )

    def test_pooled_rebind_matches_from_scratch(self):
        circuit = _qaoa()
        pool = DevicePool(
            [_ideal_device("a", 5, seed=1), _ideal_device("b", 5, seed=2)]
        )
        pipeline = CutQC(
            circuit, max_subcircuit_qubits=5, pool=pool, device_shots=0
        )
        first = pipeline.rebind(circuit.parameters())
        assert first.execution_mode == "batched-devicepool"

        flat = list(circuit.parameters())
        flat[-1] += 0.17  # single-subcircuit partial update
        stats = pipeline.rebind(flat)
        assert len(stats.dirty_subcircuits) == 1
        bound, _ = circuit.bind(flat)
        scratch = CutQC(
            bound,
            max_subcircuit_qubits=5,
            pool=DevicePool(
                [_ideal_device("a", 5, seed=1), _ideal_device("b", 5, seed=2)]
            ),
            device_shots=0,
        ).fd_query()
        assert np.allclose(
            pipeline.fd_query().probabilities,
            scratch.probabilities,
            atol=1e-10,
        )

    def test_noisy_rebind_matches_from_scratch(self):
        # Batched-noisy: the RNG streams are keyed on subcircuit index,
        # so a dirty-only re-evaluation replays the exact same noise as
        # a fresh full evaluation at the new parameters.
        circuit = _qaoa()
        device = make_device("vartest", 5, "line", seed=5)
        pipeline = CutQC(
            circuit,
            max_subcircuit_qubits=5,
            device=device,
            device_shots=0,
            trajectories=6,
            seed=11,
        )
        pipeline.rebind(circuit.parameters())
        flat = list(circuit.parameters())
        flat[-1] += 0.31
        stats = pipeline.rebind(flat)
        assert len(stats.dirty_subcircuits) == 1
        bound, _ = circuit.bind(flat)
        scratch = CutQC(
            bound,
            max_subcircuit_qubits=5,
            device=make_device("vartest", 5, "line", seed=5),
            device_shots=0,
            trajectories=6,
            seed=11,
        ).fd_query()
        assert np.allclose(
            pipeline.fd_query().probabilities,
            scratch.probabilities,
            atol=1e-10,
        )

    def test_query_before_rebind_reads_the_constructed_binding(self):
        """A pipeline is queryable before any rebind, and a rebind after
        that query is incremental."""
        circuit = _qaoa()
        pipeline = CutQC(circuit, max_subcircuit_qubits=5)
        assert np.allclose(
            pipeline.fd_query().probabilities,
            simulate_probabilities(circuit),
            atol=1e-10,
        )
        flat = list(circuit.parameters())
        flat[-1] += 0.4
        stats = pipeline.rebind(flat)
        assert stats.cut_cache_hit is False  # searched by fd_query, not loaded
        assert len(stats.dirty_subcircuits) == 1


#: The two run configurations the post-rebind query parity runs under.
_PARITY_CONFIGS = {
    "exact": {},
    "noisy": dict(device_shots=0, trajectories=6, seed=11),
}


class TestQueriesAfterRebind:
    """Every query of a rebound pipeline equals a fresh pipeline's on the
    bound circuit: FD to 1e-12, top-k states and DD recursions exactly."""

    @pytest.mark.parametrize("config", sorted(_PARITY_CONFIGS))
    def test_fd_top_k_stream_and_dd_equal_a_fresh_pipeline(self, config):
        def pipeline_for(circuit):
            options = dict(_PARITY_CONFIGS[config])
            if config == "noisy":
                options["device"] = make_device("vartest", 5, "line", seed=5)
            return CutQC(circuit, max_subcircuit_qubits=5, **options)

        circuit = _qaoa(n=8)
        warm = pipeline_for(circuit)
        warm.rebind(circuit.parameters())
        warm.fd_query()  # build the first binding's reconstructor
        flat = list(circuit.parameters())
        flat[-1] += 0.37  # one dirty piece, one clean
        stats = warm.rebind(flat)
        assert stats.reused_subcircuits >= 1
        bound, _ = circuit.bind(flat)
        fresh = pipeline_for(bound)

        assert np.allclose(
            warm.fd_query().probabilities,
            fresh.fd_query().probabilities,
            rtol=0,
            atol=1e-12,
        )
        assert warm.fd_top_k(3, 5) == fresh.fd_top_k(3, 5)
        shards = list(zip(warm.fd_stream(3), fresh.fd_stream(3)))
        assert len(shards) == 8
        for shard, reference in shards:
            assert (shard.index, shard.fixed) == (
                reference.index, reference.fixed
            )
            assert np.allclose(
                shard.probabilities, reference.probabilities,
                rtol=0, atol=1e-12,
            )
        dd_warm, dd_fresh = (
            [
                (r.index, r.fixed, r.active, r.probabilities.tolist())
                for r in pipeline.dd_query(
                    max_active_qubits=3, max_recursions=6
                ).recursions
            ]
            for pipeline in (warm, fresh)
        )
        assert len(dd_warm) == 6
        assert dd_warm == dd_fresh


# ----------------------------------------------------------------------
# Service: variational jobs
# ----------------------------------------------------------------------

class TestVariationalJobs:
    def test_spsa_gains_decay(self):
        a0, c0 = spsa_gains(0)
        a9, c9 = spsa_gains(9)
        assert 0 < a9 < a0
        assert 0 < c9 < c0

    def test_scheduler_runs_variational_job(self, tmp_path):
        from repro.service.scheduler import JobScheduler, JobSpec

        scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1)
        try:
            spec = JobSpec(
                device_size=5,
                benchmark="qaoa",
                qubits=6,
                query="variational",
                iterations=3,
                layers=1,
                degree=3,
                seed=9,
            )
            record = scheduler.wait(scheduler.submit(spec), timeout=120)
            assert record.state == "done", record.error
            assert len(record.iterations) == 3
            entry = record.iterations[0]
            # Both SPSA probes per iteration rode the warm path.
            assert entry["reuse"]["cut_cache_hits"] == 2
            # SPSA moves every angle, so each probe re-fuses every piece
            # and reuses exactly the blocks that hold no parametric gate.
            cut = CutQC(spec.build_circuit(), config=spec.run_config()).cut()
            fixed = sum(
                1
                for piece in cut.subcircuits
                for group in gate_partition(piece.circuit.gates)
                if not any(piece.circuit.gates[i].params for i in group)
            )
            assert entry["reuse"]["fusion_blocks_reused"] == 2 * fixed
            result = record.result
            assert result["mode"] == "variational"
            assert result["best_cost"] >= result["initial_cost"] - 1e-9
            assert result["session"]["cut_cache_hits"] == 2 * 3
            document = record.as_dict(include_result=True)
            assert len(document["iterations"]) == 3

            # Second job over the same store: cut restored, not searched.
            repeat = scheduler.wait(
                scheduler.submit(
                    JobSpec(
                        device_size=5,
                        benchmark="qaoa",
                        qubits=6,
                        query="variational",
                        iterations=1,
                        layers=1,
                        degree=3,
                        seed=9,
                    )
                ),
                timeout=120,
            )
            assert repeat.state == "done", repeat.error
            assert repeat.cache_hits["cut"] is True
        finally:
            scheduler.shutdown()

    def test_variational_spec_requires_qaoa(self):
        from repro.service.scheduler import JobSpec

        spec = JobSpec(
            device_size=5, benchmark="bv", qubits=6, query="variational"
        )
        with pytest.raises(ValueError, match="qaoa"):
            spec.validate()

    def test_variational_optimizer_improves_ring_cost(self, tmp_path):
        from repro.service.scheduler import JobScheduler, JobSpec

        scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1)
        try:
            spec = JobSpec(
                device_size=5,
                benchmark="qaoa",
                qubits=6,
                query="variational",
                iterations=8,
                layers=1,
                degree=0,  # ring graph
                seed=2,
            )
            record = scheduler.wait(scheduler.submit(spec), timeout=120)
            assert record.state == "done", record.error
            assert record.result["best_cost"] > record.result["initial_cost"]
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Service: golden variational job document
# ----------------------------------------------------------------------

#: The e2e catalog's variational job (``serve_mixed``): QAOA MaxCut on an
#: 8-node ring, D=5, three SPSA iterations, submitted twice to one store.
_GOLDEN_SPEC = dict(
    benchmark="qaoa", qubits=8, seed=0, device_size=5, strategy="auto",
    query="variational", iterations=3, degree=0,
)

#: Runs in a fresh interpreter: the fusion counters read process-wide
#: memos, so only a cold process reports the same numbers every time.
_GOLDEN_SCRIPT = """
import json, sys, tempfile
from repro.service.scheduler import JobScheduler, JobSpec
from repro.service.store import ArtifactStore

with tempfile.TemporaryDirectory() as root:
    scheduler = JobScheduler(ArtifactStore(root), workers=1)
    try:
        spec = JobSpec(**json.loads(sys.argv[1]))
        documents = [
            scheduler.wait(scheduler.submit(spec), timeout=300).as_dict(
                include_result=True
            )
            for _ in range(2)
        ]
    finally:
        scheduler.shutdown()
print(json.dumps(documents))
"""

#: Per SPSA step: ``(cost_plus, cost_minus, best_cost, theta)``.
_GOLDEN_STEPS = [
    (3.717894145961027, 5.376828262714966, 5.376828262714966,
     [2.234789402167605, 1.1547101973685894]),
    (5.374020572595574, 3.868229585075739, 5.376828262714966,
     [1.9935710458298739, 0.9134918410308581]),
    (5.585824202501679, 3.9610386345611506, 5.585824202501679,
     [1.7351665041998399, 1.1718963826608921]),
]


def _golden_document(cut_hit: bool) -> dict:
    """The pinned non-timing values of one job; the second submission
    restores its cut and finds every fused body already compiled."""
    built = 0 if cut_hit else 8
    return {
        "state": "done",
        "cache_hits": {"cut": cut_hit},
        "execution": {"mode": "batched"},
        "fingerprints": {
            "cut": "ca2213ff48bc92c22f93eafac84f942f86a8d2a1af61439385b27d36b4475923"
        },
        "iterations": [
            {
                "iteration": k,
                "cost_plus": plus,
                "cost_minus": minus,
                "best_cost": best,
                "theta": theta,
                "reuse": {
                    "cut_cache_hits": 2,
                    "subcircuit_evaluations": 4,
                    "tensors_reused": 0,
                    "fusion_blocks_built": built,
                    "fusion_blocks_reused": 0,
                },
            }
            for k, (plus, minus, best, theta) in enumerate(_GOLDEN_STEPS)
        ],
        "result": {
            "mode": "variational",
            "num_qubits": 8,
            "num_cuts": 2,
            "num_subcircuits": 2,
            "num_edges": 8,
            "layers": 1,
            "iterations": 3,
            "initial_cost": 4.838164623621262,
            "best_cost": 5.585824202501679,
            "best_theta": [1.8593248424263593, 1.0477380444343727],
            "final_theta": [1.7351665041998399, 1.1718963826608921],
            "session": {
                "iterations": 7,
                "num_subcircuits": 2,
                "num_parameters": 16,
                "cut_store_hit": cut_hit,
                "cut_cache_hits": 7 if cut_hit else 6,
                "subcircuit_evaluations": 14,
                "subcircuits_reused": 0,
                "tensors_reused": 0,
                "fusion_blocks_total": 0 if cut_hit else 28,
                "fusion_blocks_built": 0 if cut_hit else 28,
            },
        },
    }


_TIMINGS = {"seconds", "bind_seconds", "cut_seconds", "evaluate_seconds",
            "tensor_seconds"}


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in _TIMINGS}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


class TestVariationalJobGolden:
    def test_job_document_matches_the_pinned_values(self):
        """Every non-timing value of the job document, cold and then with
        the cut restored from the store, exactly as first recorded."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _GOLDEN_SCRIPT, json.dumps(_GOLDEN_SPEC)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        documents = json.loads(proc.stdout)
        for document, cut_hit in zip(documents, (False, True)):
            pinned = _golden_document(cut_hit)
            assert {k: _untimed(document[k]) for k in pinned} == pinned
            assert set(document["timings"]) == {"cut", "evaluate", "query",
                                                "total"}
            assert document["attempts"]["evaluate"] == 1
