"""Per-layer probes the traced pass runs beside the workload itself.

None of these feeds an end-to-end metric.  ``calibrate`` readings are
context for reading a slow run — never a divisor: on the machine this
was sized on they correlate only 0.2-0.7 with job time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict

import numpy as np


def calibrate() -> Dict[str, float]:
    """A fixed matmul, a 32 MB copy and a Python loop; best of three."""
    rng = np.random.default_rng(0)
    left, right = rng.random((256, 256)), rng.random((256, 256))
    source = np.ones(4 * 1024 * 1024)
    target = np.empty_like(source)

    def best(action) -> float:
        times = []
        for _ in range(3):
            began = time.perf_counter()
            action()
            times.append(time.perf_counter() - began)
        return min(times)

    def loop() -> int:
        total = 0
        for value in range(200_000):
            total += value & 3
        return total

    return {
        "calib.matmul_s": best(lambda: left @ right),
        "calib.copy_gbps": source.nbytes / best(lambda: np.copyto(target, source)) / 1e9,
        "calib.pyloop_s": best(loop),
    }


def import_times(env: Dict[str, str], repeats: int = 3) -> Dict[str, float]:
    """Interpreter start and cumulative import seconds, fresh processes."""
    starts, imports = [], {"numpy": [], "networkx": [], "repro": []}
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - began)
        report = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=env, check=True, capture_output=True, text=True,
        ).stderr
        for line in report.splitlines():
            # "import time:   self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in imports:
                imports[parts[2].strip()].append(int(parts[1]) / 1e6)
    result = {"interp.start_s": statistics.median(starts)}
    for name, values in imports.items():
        result[f"import.{name}_s"] = statistics.median(values) if values else 0.0
    return result


def store_and_journal(scratch: str, repeats: int = 20) -> Dict[str, float]:
    """Direct calls into the store and the journal with a real artifact."""
    from repro import CutQC, get_benchmark
    from repro.service import ArtifactStore, JobJournal

    pipeline = CutQC(get_benchmark("bv", 12), 7, strategy="auto")
    results = pipeline.evaluate()
    store = ArtifactStore(os.path.join(scratch, "probe-store"))
    journal = JobJournal(os.path.join(scratch, "probe-journal"))
    put, get, append = [], [], []
    for index in range(repeats):
        key = f"{index:064x}"
        began = time.perf_counter()
        store.put_evaluation(key, results)
        put.append(time.perf_counter() - began)
        began = time.perf_counter()
        restored = store.get_evaluation(key, pipeline.cut())
        get.append(time.perf_counter() - began)
        if restored is None:
            raise RuntimeError("store lost the artifact it was just given")
        began = time.perf_counter()
        journal.append("submitted", f"job-{index}", spec={"benchmark": "bv"})
        append.append(time.perf_counter() - began)
    size = sum(os.path.getsize(path) for path in store.evaluation_path(key))
    return {
        "store.put_eval_s": statistics.median(put),
        "store.get_eval_s": statistics.median(get),
        "store.eval_bytes": float(size),
        "journal.append_s": statistics.median(append),
    }
