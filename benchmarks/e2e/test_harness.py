"""Checks on the benchmark harness itself (collected by the tier-1 run).

Nothing here reads a clock: ``--quick`` runs one verified cycle per
workload and reports no timing value.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402 - needs HERE on the path
import run  # noqa: E402
from cutqc_e2e import catalog, oracle, spans, worker  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_manifest_is_the_tracked_benchmark_json():
    manifest = catalog.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in manifest["end_to_end"]
    assert all(0 < entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert all(len(entry["why"]) <= 200 for entry in manifest["workloads"])


def test_quick_passes_every_oracle_on_all_four_workloads(tmp_path):
    # Four small processes at once: the sequential form is ``run.py --quick``.
    running = {
        name: subprocess.Popen(
            RUN + ["--quick", "--workload", name, "--out", str(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in catalog.workload_names()
    }
    expected = {"fd_contract": 8, "fd_noisy": 10, "dd_wide": 8, "serve_mixed": 80}
    for name, process in running.items():
        out, err = process.communicate(timeout=170)
        assert process.returncode == 0, err
        line = last_json_line(out)
        assert line == {"correct": True, "attempted": expected[name],
                        "failed": 0, "metrics": {}}, (name, out, err)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fd_noisy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _tiny_segment(truth: dict, device_size: int = 4) -> worker.Segment:
    job = {"id": "bv-6", "family": "bv", "qubits": 6, "device_size": device_size,
           "kwargs": {}, "query": "fd", "noisy": None}
    spec = {"workload": "fd_contract", "seed": 0, "segment": 0}
    segment = worker.Segment(spec, {"bv-6": truth})
    segment.jobs = [job]
    return segment


def test_a_wrong_answer_is_a_failed_job_not_an_exception():
    job = {"id": "bv-6", "family": "bv", "qubits": 6, "kwargs": {},
           "query": "fd", "noisy": None}
    truth = oracle.build_one(job)
    good = _tiny_segment(truth)
    good.cycle(0)
    assert (good.attempted, good.failures) == (1, [])

    perturbed = dict(truth, dense=truth["dense"][::-1])
    wrong = _tiny_segment(perturbed)
    wrong.cycle(0)
    assert wrong.attempted == 1 and len(wrong.failures) == 1
    assert "off the dense oracle" in wrong.failures[0]

    raising = _tiny_segment(truth, device_size=1)  # no cut fits one qubit
    raising.cycle(0)
    assert raising.attempted == 1 and "raised" in raising.failures[0]


def test_span_self_time_arithmetic():
    def span(name, start, end, parent, **extra):
        return dict(name=name, start=start, end=end, parent=parent, job="j", **extra)

    tree = [
        span("job", 0.0, 10.0, None),
        span("a.x", 1.0, 4.0, 0),
        span("a.y", 3.0, 6.0, 0),              # overlaps a.x: union is 5 s
        span("b.hot", 0.0, 2.0, 0, aggregated=True, calls=50, amount=100.0),
        span("a.leaf", 1.0, 2.0, 1),
        span("a.late", 9.0, 12.0, 0),          # clipped to its parent: 1 s
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 3.0, 2.0, 1.0, 3.0]
    folded = spans.fold(tree)
    assert folded["b.hot"]["calls"] == 50 and folded["b.hot"]["amount"] == 100.0
    assert folded["job"]["inner"] == 2.0 and folded["a.x"]["inner"] == 2.0
    assert folded["a.y"]["inner"] == 0.0      # a leaf: all of it is attributed


def test_tracer_records_only_inside_instrument():
    tracer = spans.Tracer()
    with tracer.span("job", job="idle"):
        tracer.add("sim.apply", 1.0)
    assert tracer.drain() == []
    tracer.enabled = True
    with tracer.span("job", job="busy"):
        with tracer.span("core.evaluate"):
            tracer.add("sim.apply", 0.5, amount=16.0)
            tracer.add("sim.apply", 0.25, amount=16.0)
    recorded = tracer.drain()
    assert [s["name"] for s in recorded] == ["job", "core.evaluate", "sim.apply"]
    hot = recorded[2]
    assert (hot["parent"], hot["job"], hot["calls"], hot["amount"]) == (1, "busy", 2, 32.0)
    assert abs(hot["end"] - hot["start"] - 0.75) < 1e-9


def test_cycle_order_and_catalog_are_pure_functions_of_the_seed():
    assert catalog.cycle_order(7, 1, 3, 40) == catalog.cycle_order(7, 1, 3, 40)
    assert sorted(catalog.cycle_order(7, 1, 3, 40)) == list(range(40))
    assert catalog.cycle_order(7, 1, 3, 40) != catalog.cycle_order(8, 1, 3, 40)
    assert catalog.cycle_order(7, 1, 3, 40) != catalog.cycle_order(7, 1, 4, 40)
    for name in ("fd_contract", "fd_noisy", "dd_wide"):
        assert catalog.jobs(name, 5) == catalog.jobs(name, 5)
        # Same families, sizes and devices for every seed: same work.
        shape = [(j["family"], j["qubits"], j["device_size"]) for j in catalog.jobs(name, 5)]
        assert shape == [(j["family"], j["qubits"], j["device_size"]) for j in catalog.jobs(name, 6)]
    assert catalog.serve_cycle(5) == catalog.serve_cycle(5)
    assert len(catalog.serve_cycle(5)) == 40
    masks = catalog.cold_masks(5, 0)
    assert masks == catalog.cold_masks(5, 0) and len(set(masks)) == len(masks)
    assert masks != catalog.cold_masks(5, 1)


def test_midmean_ignores_the_outer_quarters():
    assert run.midmean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == 3.5
    assert run.midmean([5.0]) == 5.0
    assert run.midmean([1.0, 9.0, 2.0]) == 4.0  # fewer than four: plain mean


def test_compare_verdicts():
    lower = {"better": "lower", "bound": 0.15}
    higher = {"better": "higher", "bound": 0.15}
    steady = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(steady, steady, lower, False) == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady], lower, False) == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady], higher, False) == "better"
    assert compare.verdict(steady, [v * 0.8 for v in steady], higher, True) == "worse"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
    assert compare.verdict(noisy, noisy[::-1], lower, False) == "unresolved"
    # Every pair won and beyond A's own spread, though inside the bound.
    assert compare.verdict(steady, [v * 0.9 for v in steady], lower, True) == "better"
    assert compare.verdict(steady, [v * 0.9 for v in steady], lower, False) == "same"
