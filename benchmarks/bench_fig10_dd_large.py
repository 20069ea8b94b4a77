"""Figure 10: DD postprocessing runtime far beyond the simulation limit.

Two parts:

* the paper's sweep — circuits of 30-64 qubits cut onto 20/30-qubit
  device budgets with synthetic subcircuit outputs, one DD recursion at a
  2^12-bin definition (2^35 in the paper; the definition is a parameter);

* the engine benchmark — a *real* (exactly evaluated) 41-qubit BV
  circuit, subcircuits <= 17 qubits, queried with the DD engine
  (incremental collapse cache + k-way-merge frontier + batched zoom),
  locating the solution state without ever materializing the 2^41
  vector.  Results — absolute query and per-recursion seconds, cache hit
  rate, and the streaming-FD shard of the solution region — are written
  to ``results/BENCH_dd.json``.
"""

import json
import os
import time

from repro.core import VariantExecutor
from repro.cutting import CutSearchError, find_cuts
from repro.library import bv, bv_solution, get_benchmark

from conftest import RESULTS_DIR, interleaved_active_order, report
from repro.postprocess import (
    DynamicDefinitionQuery,
    PrecomputedTensorProvider,
    RandomTensorProvider,
    Reconstructor,
)
from repro.postprocess.engine import ContractionEngine

_DEFINITION_QUBITS = 12
_CASES = (
    ("bv", 32, {}),
    ("bv", 48, {}),
    ("bv", 64, {}),
    ("hwea", 40, {}),
    ("hwea", 64, {}),
    ("adder", 40, {"seed": 0}),
    ("supremacy", 30, {"seed": 0, "depth": 8}),
    ("supremacy", 42, {"seed": 0, "depth": 8}),
    ("aqft", 36, {}),
)
_DEVICES = (20, 30)

# Engine-benchmark knobs (env-cappable for CI smoke runs).
_DD_QUBITS = int(os.environ.get("REPRO_BENCH_DD_QUBITS", "41"))
_DD_DEVICE = int(os.environ.get("REPRO_BENCH_DD_DEVICE", "17"))
_DD_RECURSIONS = int(os.environ.get("REPRO_BENCH_DD_RECURSIONS", "33"))
_DD_ZOOM_WIDTH = int(os.environ.get("REPRO_BENCH_DD_ZOOM_WIDTH", "8"))


def _one(name, size, kwargs, device):
    circuit = get_benchmark(name, size, **kwargs)
    if device >= size:
        return None
    try:
        solution = find_cuts(circuit, device, method="heuristic", max_cuts=8)
    except CutSearchError:
        return (name, size, device, "--", "--", "uncuttable")
    cut = solution.apply(circuit)
    provider = RandomTensorProvider(cut, seed=3)
    query = DynamicDefinitionQuery(
        provider,
        max_active_qubits=_DEFINITION_QUBITS,
        active_order=interleaved_active_order(cut),
    )
    began = time.perf_counter()
    try:
        query.step()
    except MemoryError:
        return (name, size, device, cut.num_cuts, "--", "tensor too large")
    elapsed = time.perf_counter() - began
    return (name, size, device, cut.num_cuts, f"{elapsed:.3f}", "ok")


def _sweep():
    rows = []
    for device in _DEVICES:
        for name, size, kwargs in _CASES:
            row = _one(name, size, kwargs, device)
            if row is not None:
                rows.append(row)
    return rows


def test_fig10_dd_beyond_simulation_limit(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(
        "fig10",
        f"Fig. 10 — one DD recursion (definition 2^{_DEFINITION_QUBITS} "
        "bins), synthetic subcircuit outputs",
        ["benchmark", "qubits", "device", "cuts", "DD recursion s", "status"],
        rows,
    )
    ok = [row for row in rows if row[5] == "ok"]
    assert ok, "some configurations must run"
    # Largest circuits sampled far beyond classical simulation reach.
    assert max(row[1] for row in ok) >= 48
    # Larger devices never need *more* cuts for the same circuit.
    for name, size, kwargs in _CASES:
        cuts = {
            row[2]: row[3]
            for row in ok
            if row[0] == name and row[1] == size and row[3] != "--"
        }
        if len(cuts) == 2:
            assert cuts[30] <= cuts[20], (name, size, cuts)


# ----------------------------------------------------------------------
# Engine benchmark: DD on real tensors, absolute seconds
# ----------------------------------------------------------------------

def test_fig10_dd_zoom_cache_speedup():
    """>= 40-qubit sparse circuit, subcircuits <= 25 qubits: the solution
    state is located without a 2^n vector; the query's absolute seconds
    are recorded."""
    circuit = bv(_DD_QUBITS)
    solution = find_cuts(circuit, _DD_DEVICE, method="heuristic", max_cuts=8)
    cut = solution.apply(circuit)
    assert cut.max_subcircuit_width() <= 25
    results = VariantExecutor().run(cut.subcircuits)

    refactored = DynamicDefinitionQuery(
        PrecomputedTensorProvider(cut, results=results, cache=True),
        max_active_qubits=_DEFINITION_QUBITS,
        engine=ContractionEngine(strategy="kron"),
        zoom_width=_DD_ZOOM_WIDTH,
    )
    began = time.perf_counter()
    refactored.run(_DD_RECURSIONS)
    refactored_seconds = time.perf_counter() - began

    stats = refactored.stats()
    states = refactored.solution_states(threshold=0.25)
    expected = bv_solution(_DD_QUBITS)
    assert states and states[0][0] == expected
    assert abs(states[0][1] - 1.0) < 1e-6
    assert stats.cache_hit_rate > 0.5

    # Streaming-FD shard of the solution region: 2^(n-12) shards exist
    # but only the located one is computed — peak memory is one shard.
    shard_qubits = _DD_QUBITS - _DEFINITION_QUBITS
    solution_shard = int(expected[:shard_qubits], 2)
    streamer = Reconstructor(
        cut, results=results, engine=ContractionEngine(strategy="kron")
    )
    shards = list(streamer.shards(shard_qubits, shard_indices=[solution_shard]))
    stream_stats = streamer.last_stats
    offset = int(expected[shard_qubits:], 2)
    shard_probability = float(shards[0].probabilities[offset])
    assert abs(shard_probability - 1.0) < 1e-6
    assert stream_stats.peak_shard_bytes == (1 << _DEFINITION_QUBITS) * 8

    document = {
        "generated_by": "bench_fig10_dd_large.py",
        "dd": {
            "benchmark": "bv",
            "qubits": _DD_QUBITS,
            "device": _DD_DEVICE,
            "num_cuts": cut.num_cuts,
            "definition_qubits": _DEFINITION_QUBITS,
            "recursions": len(refactored.recursions),
            "zoom_width": _DD_ZOOM_WIDTH,
            "refactored_seconds": refactored_seconds,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_hit_rate": stats.cache_hit_rate,
            "collapse_seconds": stats.collapse_seconds,
            "contract_seconds": stats.contract_seconds,
            "recursion_seconds": [
                r.elapsed_seconds for r in refactored.recursions
            ],
            "solution_state": states[0][0],
            "solution_probability": states[0][1],
        },
        "streaming": {
            "shard_qubits": shard_qubits,
            "num_shards_total": stream_stats.num_shards_total,
            "num_shards_emitted": stream_stats.num_shards_emitted,
            "peak_shard_bytes": stream_stats.peak_shard_bytes,
            "elapsed_seconds": stream_stats.elapsed_seconds,
            "cache_hit_rate": stream_stats.cache_hit_rate,
            "solution_probability_in_shard": shard_probability,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_dd.json").write_text(
        json.dumps(document, indent=2) + "\n"
    )
    report(
        "fig10_dd_engine",
        f"DD engine — bv-{_DD_QUBITS} on {_DD_DEVICE}-qubit budget, "
        f"{len(refactored.recursions)} recursions at 2^{_DEFINITION_QUBITS} bins",
        ["path", "seconds", "cache hit rate", "solution"],
        [
            (f"k-way merge, cache, zoom {_DD_ZOOM_WIDTH}",
             f"{refactored_seconds:.3f}", f"{stats.cache_hit_rate:.2f}",
             states[0][0][:8] + "..."),
        ],
    )
