"""Ablations: the FD postprocessing optimizations of §4.2.

The paper credits three techniques for the reconstructor's performance:
greedy subcircuit order (up to 50% fewer multiplications), early
termination (zero Kronecker components are "surprisingly" common), and
embarrassing parallelism (benched in fig12).  This ablation measures each
on a supremacy workload, plus the tensor-network contraction the paper
leaves on the table (pairwise einsum over the same tensors — identical
output, no 4^K enumeration).
"""

import time

import numpy as np

from repro import CutQC
from repro.library import bv, supremacy

from conftest import report


def _prepare(circuit, device):
    # Greedy order and early termination are knobs of the kron sweep.
    pipeline = CutQC(circuit, max_subcircuit_qubits=device, strategy="kron")
    return pipeline.reconstructor()


def _timed(reconstructor, **kwargs):
    """Best of five: these are 1-20 ms calls, and a single timing carries
    the first call's term-tensor build or one scheduler quantum."""
    seconds = []
    for _ in range(5):
        began = time.perf_counter()
        result = reconstructor.reconstruct(**kwargs)
        seconds.append(time.perf_counter() - began)
    return result, min(seconds)


def test_ablation_fd_optimizations(benchmark):
    resolved = {}

    def sweep():
        rows = []
        for name, circuit, device in (
            ("supremacy-15", supremacy(15, seed=0, depth=8), 8),
            ("bv-14", bv(14), 8),
        ):
            reconstructor = _prepare(circuit, device)
            resolved[name] = reconstructor.reconstruct(
                strategy="auto"
            ).stats.strategy
            baseline, baseline_s = _timed(
                reconstructor, greedy_order=True, early_termination=True
            )
            variants = {
                "all optimizations": (baseline, baseline_s),
                "no greedy order": _timed(
                    reconstructor, greedy_order=False, early_termination=True
                ),
                "no early termination": _timed(
                    reconstructor, greedy_order=True, early_termination=False
                ),
                "neither": _timed(
                    reconstructor, greedy_order=False, early_termination=False
                ),
                "tensor network": _timed(
                    reconstructor, strategy="tensor_network"
                ),
            }
            for label, (result, seconds) in variants.items():
                assert np.allclose(
                    result.probabilities,
                    baseline.probabilities,
                    atol=1e-9,
                ), f"{name}/{label} changed the output"
                rows.append(
                    (
                        name,
                        label,
                        f"{seconds:.3f}",
                        result.stats.num_skipped,
                        result.stats.num_terms,
                    )
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_postprocess",
        "Ablation — FD postprocessing optimizations (§4.2)",
        ["workload", "configuration", "runtime s", "terms skipped",
         "terms total"],
        rows,
    )
    timing = {(row[0], row[1]): float(row[2]) for row in rows}
    # Early termination must not meaningfully hurt, and the tensor-network
    # strategy (no 4^K enumeration) must beat plain enumeration on the
    # dense, many-cut case.  The second is asserted on work, not on two
    # ~10 ms timings (threaded BLAS on a shared runner moves those by a
    # scheduler quantum): "auto" resolves by comparing the two
    # strategies' flop counts.
    assert (
        timing[("supremacy-15", "all optimizations")]
        <= timing[("supremacy-15", "no early termination")] * 1.5 + 0.05
    )
    assert resolved["supremacy-15"] == "tensor_network"


def test_ablation_cut_search_backends(benchmark):
    """Exact B&B vs heuristics: objective quality and search time."""
    from repro import build_circuit_graph
    from repro.cutting import branch_and_bound_search, heuristic_search
    from repro.cutting.model import CutSearchError

    cases = (
        ("bv-12/8", bv(12), 8),
        ("supremacy-12/8", supremacy(12, seed=1, depth=8), 8),
        ("supremacy-15/10", supremacy(15, seed=0, depth=8), 10),
    )

    def sweep():
        rows = []
        for label, circuit, device in cases:
            graph = build_circuit_graph(circuit)
            began = time.perf_counter()
            try:
                _, exact = branch_and_bound_search(graph, device)
                exact_obj, exact_s = exact.objective, time.perf_counter() - began
            except CutSearchError:
                exact_obj, exact_s = float("nan"), time.perf_counter() - began
            began = time.perf_counter()
            _, approx = heuristic_search(graph, device)
            approx_s = time.perf_counter() - began
            ratio = (
                approx.objective / exact_obj if exact_obj == exact_obj else float("nan")
            )
            rows.append(
                (
                    label,
                    graph.num_vertices,
                    f"{exact_obj:.2e}",
                    f"{exact_s:.2f}",
                    f"{approx.objective:.2e}",
                    f"{approx_s:.2f}",
                    f"{ratio:.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_cut_search",
        "Ablation — exact B&B (Gurobi stand-in) vs heuristic cut search",
        ["workload", "gate vertices", "exact obj", "exact s",
         "heuristic obj", "heuristic s", "quality gap"],
        rows,
    )
    gaps = [float(row[6].rstrip("x")) for row in rows if row[6] != "nanx"]
    assert gaps and min(gaps) >= 1.0  # heuristics never beat the optimum
    # ... and stay within two extra cuts of it on these workloads.
    assert max(gaps) <= 16.0**2
