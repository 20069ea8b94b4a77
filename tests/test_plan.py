"""Tests for the query-plan layer and the incremental collapse cache.

The headline property: the cached/incremental DD path (generalized
collapse + fixed-axis derivation) *bit-matches* the naive per-recursion
collapse on random cut circuits — not just within tolerance, exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    cut_circuit,
    cut_circuit_from_assignment,
    simulate_probabilities,
)
from repro.circuits import build_circuit_graph
from repro.postprocess import (
    DynamicDefinitionQuery,
    PrecomputedTensorProvider,
    QueryPlan,
    Reconstructor,
    binned_tensor,
    generalized_signature,
    restricted_signature,
)
from repro.postprocess.attribution import TermTensor
from repro.postprocess.engine import ContractionEngine
from repro.obs import trace
from repro.postprocess import plan as plan_module
from repro.postprocess.plan import _derive_fixed
from repro.utils import marginalize
from tests import collapse_oracle
from tests.conftest import random_connected_circuit
from tests.variant_oracle import evaluate_subcircuit


def _cut_and_provider(circuit, cuts, **kwargs):
    cut = cut_circuit(circuit, cuts)
    results = [evaluate_subcircuit(s) for s in cut.subcircuits]
    return cut, PrecomputedTensorProvider(cut, results=results, **kwargs)


class TestSignatures:
    def test_restricted_to_output_wires(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        roles = {w: ("merged",) for w in range(5)}
        roles[0] = ("active",)
        for sub in cut.subcircuits:
            signature = restricted_signature(sub, roles)
            wires = [wire for wire, _ in signature]
            assert wires == [line.wire for line in sub.output_lines]

    def test_generalized_promotes_fixed(self):
        signature = (
            (0, ("fixed", 1)),
            (1, ("active",)),
            (2, ("merged",)),
        )
        assert generalized_signature(signature) == (
            (0, ("active",)),
            (1, ("active",)),
            (2, ("merged",)),
        )

    def test_signature_independent_of_other_wires(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        sub = cut.subcircuits[0]
        own = {line.wire for line in sub.output_lines}
        roles_a = {w: ("active",) if w in own else ("merged",) for w in range(5)}
        roles_b = {w: ("active",) if w in own else ("fixed", 1) for w in range(5)}
        assert restricted_signature(sub, roles_a) == restricted_signature(
            sub, roles_b
        )


class TestCollapseCache:
    def test_repeat_collapse_hits(self, fig4_circuit):
        cut, provider = _cut_and_provider(fig4_circuit, [(2, 1)])
        roles = {w: ("merged",) for w in range(5)}
        roles[0] = ("active",)
        provider.collapsed(roles)
        assert provider.cache_stats["misses"] == cut.num_subcircuits
        assert provider.cache_stats["hits"] == 0
        provider.collapsed(roles)
        assert provider.cache_stats["hits"] == cut.num_subcircuits

    def test_fixed_variants_share_generalized_entry(self, fig4_circuit):
        cut, provider = _cut_and_provider(fig4_circuit, [(2, 1)])
        for bit in (0, 1):
            roles = {w: ("merged",) for w in range(5)}
            roles[0] = ("fixed", bit)
            roles[1] = ("active",)
            provider.collapsed(roles)
        # The two fixed-bit variants differ only in a derived index, so
        # the second pass is all hits.
        assert provider.cache_stats["misses"] == cut.num_subcircuits
        assert provider.cache_stats["hits"] == cut.num_subcircuits

    def test_derived_bitmatches_naive(self, fig4_circuit):
        _, cached = _cut_and_provider(fig4_circuit, [(2, 1)])
        _, naive = _cut_and_provider(fig4_circuit, [(2, 1)], cache=False)
        roles = {
            0: ("fixed", 1),
            1: ("active",),
            2: ("merged",),
            3: ("fixed", 0),
            4: ("active",),
        }
        # Warm the generalized entries first, then derive.
        cached.collapsed({w: ("active",) if r[0] == "fixed" else r
                          for w, r in roles.items()})
        for (got, got_wires), (want, want_wires) in zip(
            cached.collapsed(roles), naive.collapsed(roles)
        ):
            assert got_wires == want_wires
            assert got.num_effective == want.num_effective
            assert np.array_equal(got.data, want.data)
            assert np.array_equal(got.nonzero, want.nonzero)

    @pytest.mark.parametrize(
        "fixed",
        [
            {},  # none fixed: the generalized tensor itself
            {0: 1, 3: 0},  # non-adjacent axes
            {1: 0, 2: 1, 4: 1},
            {0: 1, 1: 0, 2: 0, 3: 1, 4: 1},  # every axis fixed
        ],
    )
    def test_derive_fixed_equals_direct_collapse(self, rng, fixed):
        """One basic index over all fixed axes == ``binned_tensor`` with
        the fixed roles on the full tensor, for any subset of axes."""
        wires = [7, 2, 9, 4, 5]  # axis order is the subcircuit's, not sorted
        subcircuit = SimpleNamespace(
            output_lines=[SimpleNamespace(wire=wire) for wire in wires]
        )
        data = rng.normal(size=(16, 2 ** len(wires)))
        data[3] = 0.0  # an all-zero row must stay flagged
        full = TermTensor(0, [0, 1], len(wires), data, np.any(data != 0.0, axis=1))
        roles = {
            wire: ("fixed", fixed[axis]) if axis in fixed else ("active",)
            for axis, wire in enumerate(wires)
        }
        signature = restricted_signature(subcircuit, roles)
        got, got_wires = _derive_fixed(full, wires, signature)
        want, want_wires = binned_tensor(full, subcircuit, roles)
        assert got_wires == want_wires
        assert got.num_effective == want.num_effective
        assert got.data.shape == want.data.shape
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.nonzero, want.nonzero)
        assert got.data.flags.c_contiguous

    def test_cache_limit_evicts(self, fig4_circuit, monkeypatch):
        # Room for one role map: the fig-4 cut has two subcircuits.
        monkeypatch.setattr(plan_module, "_COLLAPSE_LIMIT", 2)
        cut, provider = _cut_and_provider(fig4_circuit, [(2, 1)])
        assert cut.num_subcircuits == 2
        roles_a = {w: ("merged",) for w in range(5)}
        roles_a[0] = ("active",)
        roles_b = {w: ("active",) for w in range(5)}
        provider.collapsed(roles_a)
        provider.collapsed(roles_b)  # evicts roles_a's entries
        provider.collapsed(roles_a)
        assert provider.cache_stats["misses"] == 3 * cut.num_subcircuits

    def test_clear_cache_resets(self, fig4_circuit):
        cut, provider = _cut_and_provider(fig4_circuit, [(2, 1)])
        roles = {w: ("active",) for w in range(5)}
        provider.collapsed(roles)
        provider.clear_cache()
        assert provider.cache_stats["hits"] == 0
        assert provider.cache_stats["misses"] == 0
        provider.collapsed(roles)
        assert provider.cache_stats["misses"] == cut.num_subcircuits

    def test_cache_disabled_never_counts(self, fig4_circuit):
        _, provider = _cut_and_provider(fig4_circuit, [(2, 1)], cache=False)
        roles = {w: ("active",) for w in range(5)}
        provider.collapsed(roles)
        provider.collapsed(roles)
        assert provider.cache_stats["hits"] == 0
        assert provider.cache_stats["misses"] == 0


#: A role kind per output line; ``fixedB`` is ``("fixed", B)``.
_KINDS = ("active", "merged", "fixed0", "fixed1")


def _collapse_case(kinds, rows, seed):
    """A term tensor over ``len(kinds)`` output lines in a shuffled wire
    order, its subcircuit stand-in and role map.  Entries span 24 orders
    of magnitude and carry exact zeros, all-zero rows and signed zeros,
    so the order of the adds shows in the rounding."""
    rng = np.random.default_rng(seed)
    lines = len(kinds)
    wires = [int(w) for w in rng.permutation(40)[:lines]]
    subcircuit = SimpleNamespace(
        output_lines=[SimpleNamespace(wire=wire) for wire in wires]
    )
    shape = (rows, 1 << lines)
    data = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    data[rng.random(shape) < 0.2] = 0.0
    data[rng.random(shape) < 0.05] = -0.0
    data[rng.random(rows) < 0.25] = 0.0
    tensor = TermTensor(3, [4, 1], lines, data)
    roles = {
        wire: (kind,) if kind in ("active", "merged") else ("fixed", int(kind[-1]))
        for wire, kind in zip(wires, kinds)
    }
    return tensor, subcircuit, roles


def _assert_same_collapse(got, want):
    (got_tensor, got_wires), (want_tensor, want_wires) = got, want
    assert got_wires == want_wires
    assert got_tensor.num_effective == want_tensor.num_effective
    assert got_tensor.cut_order == want_tensor.cut_order
    assert got_tensor.data.shape == want_tensor.data.shape
    assert np.array_equal(got_tensor.data, want_tensor.data)
    assert np.array_equal(got_tensor.nonzero, want_tensor.nonzero)
    assert got_tensor.data.flags.c_contiguous


class TestCollapseMatchesOracle:
    """The halves-add collapse is ``array_equal`` to the axis-by-axis
    ``sum`` / ``np.take`` collapse it replaced (tests/collapse_oracle.py),
    directly and through a generalized collapse plus ``_derive_fixed``."""

    def _check(self, kinds, rows, seed):
        tensor, subcircuit, roles = _collapse_case(kinds, rows, seed)
        want = collapse_oracle.binned_tensor(tensor, subcircuit, roles)
        _assert_same_collapse(binned_tensor(tensor, subcircuit, roles), want)
        generalized = {
            wire: ("active",) if role[0] == "fixed" else role
            for wire, role in roles.items()
        }
        signature = restricted_signature(subcircuit, roles)
        full, wires = binned_tensor(tensor, subcircuit, generalized)
        _assert_same_collapse(_derive_fixed(full, wires, signature), want)
        old_full, old_wires = collapse_oracle.binned_tensor(
            tensor, subcircuit, generalized
        )
        _assert_same_collapse(
            collapse_oracle.derive_fixed(old_full, old_wires, signature), want
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(_KINDS), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_role_maps(self, kinds, rows, seed):
        # At most 2^18 entries (2 MiB) per tensor: wide ones get few rows.
        self._check(kinds, min(rows, max(1, (1 << 18) >> len(kinds))), seed)

    @pytest.mark.parametrize(
        "kinds",
        [
            ["merged"] + ["active"] * 7,  # merged first
            ["active"] * 7 + ["merged"],  # merged last (the inner axis)
            ["merged"] * 9,  # all merged
            ["active"] * 6,  # none merged: the input itself
            ["fixed1", "active", "fixed0", "active"],  # fixed, none merged
            ["fixed0", "merged", "active", "fixed1", "merged", "merged"],
            ["merged", "fixed1", "merged", "fixed0", "merged", "active"],
            ["active", "merged"] * 6,
        ],
    )
    @pytest.mark.parametrize("rows", [1, 64, 256])
    def test_named_structures(self, kinds, rows):
        self._check(kinds, rows, seed=len(kinds) * 1000 + rows)

    def test_collapse_span(self):
        tensor, subcircuit, roles = _collapse_case(
            ["merged", "fixed1", "active", "merged"], 16, seed=5
        )
        with trace.start("probe") as root:
            collapsed, _ = binned_tensor(tensor, subcircuit, roles)
        (span,) = root.to_dict()["children"]
        assert span["name"] == "collapse"
        assert span["attrs"] == {
            "merged": 2, "fixed": 1,
            "bytes_in": tensor.data.nbytes, "bytes_out": collapsed.data.nbytes,
        }


class TestQueryPlan:
    def test_full_plan_matches_reconstruct(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        plan = QueryPlan.binned(5, cut.num_cuts, {}, range(5))
        execution = plan.execute(provider, ContractionEngine(strategy="kron"))
        want = Reconstructor(cut, results=results).reconstruct().probabilities
        assert np.allclose(execution.probabilities, want, atol=1e-12)

    def test_binned_plan_matches_marginal(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        plan = QueryPlan.binned(5, cut.num_cuts, fixed={}, active=[1, 3])
        execution = plan.execute(provider, ContractionEngine(strategy="kron"))
        truth = marginalize(simulate_probabilities(fig4_circuit), [1, 3], 5)
        assert np.allclose(execution.probabilities, truth, atol=1e-9)

    def test_active_order_respected(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        engine = ContractionEngine(strategy="kron")
        forward = QueryPlan.binned(5, cut.num_cuts, {}, [0, 1]).execute(
            provider, engine
        )
        reverse = QueryPlan.binned(5, cut.num_cuts, {}, [1, 0]).execute(
            provider, engine
        )
        assert np.allclose(
            forward.probabilities.reshape(2, 2),
            reverse.probabilities.reshape(2, 2).T,
            atol=1e-12,
        )


class TestCachedDDBitMatchesNaive:
    """The ISSUE's property: cached/incremental DD == naive DD, bitwise."""

    def _compare(self, circuit, assignment, max_active, zoom_width=1):
        cut = cut_circuit_from_assignment(circuit, assignment)
        if cut.num_cuts > 6:
            return  # keep runtime bounded
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        engine = ContractionEngine(strategy="kron")
        cached = DynamicDefinitionQuery(
            PrecomputedTensorProvider(cut, results=results, cache=True),
            max_active_qubits=max_active,
            engine=engine,
            zoom_width=zoom_width,
        )
        naive = DynamicDefinitionQuery(
            PrecomputedTensorProvider(cut, results=results, cache=False),
            max_active_qubits=max_active,
            engine=engine,
            zoom_width=zoom_width,
        )
        cached.run(6)
        naive.run(6)
        assert len(cached.recursions) == len(naive.recursions)
        for got, want in zip(cached.recursions, naive.recursions):
            assert got.fixed == want.fixed
            assert got.active == want.active
            assert np.array_equal(got.probabilities, want.probabilities)
        # The cached path must never collapse more than the naive one
        # (misses + hits together cover the same requests).
        stats = cached.provider.cache_stats
        assert stats["hits"] + stats["misses"] == len(cached.recursions) * len(
            cut.subcircuits
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=2),
    )
    def test_random_circuits_random_cuts(self, n, seed, max_active):
        circuit = random_connected_circuit(n, 2 * n, seed)
        graph = build_circuit_graph(circuit)
        rng = np.random.default_rng(seed + 1)
        for _ in range(20):
            assignment = rng.integers(0, 2, size=graph.num_vertices)
            if 0 < assignment.sum() < graph.num_vertices:
                break
        self._compare(circuit, list(assignment), max_active)

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_batched_zoom_bitmatches_too(self, n, seed):
        circuit = random_connected_circuit(n, 2 * n, seed)
        graph = build_circuit_graph(circuit)
        rng = np.random.default_rng(seed + 1)
        for _ in range(20):
            assignment = rng.integers(0, 2, size=graph.num_vertices)
            if 0 < assignment.sum() < graph.num_vertices:
                break
        self._compare(circuit, list(assignment), 1, zoom_width=2)


class TestHeapFrontierParity:
    """The heap frontier must choose exactly what the old linear scan did."""

    def _linear_scan_choice(self, query):
        best = None
        total = query.provider.num_qubits
        for candidate in query.bins:
            if candidate.zoomed:
                continue
            if len(candidate.assignment) >= total:
                continue
            if best is None or candidate.probability > best.probability:
                best = candidate
        return best

    def test_choice_matches_linear_scan(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        query = DynamicDefinitionQuery(provider, max_active_qubits=2)
        query.step()
        for _ in range(2):
            want = self._linear_scan_choice(query)
            got = query._peek_bin()
            assert got == want  # a Bin is a value, not an identity
            query.step()


class TestZoomWidthValidation:
    def test_zoom_width_positive(self, fig4_circuit):
        cut = cut_circuit(fig4_circuit, [(2, 1)])
        results = [evaluate_subcircuit(s) for s in cut.subcircuits]
        provider = PrecomputedTensorProvider(cut, results=results)
        with pytest.raises(ValueError):
            DynamicDefinitionQuery(provider, 2, zoom_width=0)
