"""The ``serve_mixed`` segment: a real ``repro serve`` subprocess, driven
over HTTP by closed-loop client threads pulling from one seeded schedule.

A job is ``POST /jobs`` -> ``GET /jobs/<id>`` every 5 ms until terminal ->
``GET /jobs/<id>/result``.  The program under test is the server process:
its CPU comes from ``/proc/<pid>/stat`` and its peak RSS from ``VmHWM``;
the client's own CPU is excluded.  Every returned document is kept and
checked after the window closes.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuits import to_qasm
from repro.library import bv, bv_solution, get_benchmark

from . import catalog, oracle, worker
from .spans import Tracer, fold

_TERMINAL = ("done", "failed", "cancelled")
_JOB_TIMEOUT_SECONDS = 60.0
# Requests go to 127.0.0.1 only; never through a proxy from the environment.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))
_IDLE = Tracer()


def call(method: str, url: str, payload: Optional[Dict] = None) -> Tuple[Dict, int]:
    """One JSON round trip; returns (document, body bytes)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with _OPENER.open(request, timeout=30.0) as response:
            body = response.read()
    except urllib.error.HTTPError as error:
        body = error.read()
    return json.loads(body), len(body)


class Server:
    """``python -u -m repro serve --port 0 --store <fresh dir>``."""

    def __init__(self, store_dir: str):
        self.store_dir = store_dir
        began = time.perf_counter()
        self._log = open(store_dir + ".log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--store", store_dir, "--workers", str(catalog.SERVE_WORKERS),
             "--json"],
            stdout=subprocess.PIPE, stderr=self._log,
        )
        lines: List[str] = []
        while not lines or lines[-1].rstrip() != "}":
            line = self.process.stdout.readline().decode()
            if not line:
                raise RuntimeError("serve exited before printing its banner")
            lines.append(line)
        self.url = json.loads("".join(lines))["url"]
        self.start_s = time.perf_counter() - began

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def journal_bytes(self) -> int:
        path = os.path.join(self.store_dir, "jobs", "journal.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def close(self) -> None:
        try:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        finally:
            self.process.stdout.close()
            self._log.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)


def cold_entry(mask: int) -> Tuple[Dict, str]:
    """A never-seen circuit as inline QASM, and its one ideal output."""
    qubits = catalog.COLD_QUBITS
    circuit = bv(qubits)
    answer = list(bv_solution(qubits))
    for wire in range(qubits - 1):
        if (mask >> wire) & 1:
            circuit.x(wire)
            answer[wire] = "0" if answer[wire] == "1" else "1"
    payload = {
        "circuit": {"qasm": to_qasm(circuit)},
        "device_size": catalog.COLD_DEVICE_SIZE,
        "strategy": "auto",
        "query": {"type": "fd", "top": 5},
    }
    return payload, "".join(answer)


def dense_oracles(seed: int) -> Dict[str, np.ndarray]:
    """Dense distributions of the warm FD shapes, keyed ``family-qubits``.

    Built the way ``JobSpec.build_circuit`` builds them: only adder and
    supremacy take the spec's seed.
    """
    shapes = (("bv", 12, {}), ("hwea", 12, {}), ("adder", 10, {"seed": seed}))
    return {
        f"{family}-{qubits}": oracle.dense(get_benchmark(family, qubits, **kwargs))[0]
        for family, qubits, kwargs in shapes
    }


class Load:
    """The shared schedule and everything the clients record."""

    def __init__(self, spec: Dict, server: Server):
        self.spec = spec
        self.server = server
        self.url = server.url
        self.template = catalog.serve_cycle(spec["seed"])
        self.masks = iter(catalog.cold_masks(spec["seed"], spec["segment"]))
        self.tracer = Tracer()
        self.tracer.enabled = bool(spec["trace"])
        self.records: List[Dict] = []
        #: (clock, server CPU seconds) when each cycle's first job was handed out.
        self.marks: List[Tuple[float, float]] = []
        self._lock = threading.Lock()

    def _mark(self) -> None:
        self.marks.append((time.perf_counter(), self.server.cpu_seconds()))

    def _entries(self, first_cycle: int, deadline: Optional[float]) -> Iterator[Dict]:
        """Whole cycles, each in its seeded order, until the deadline."""
        number = first_cycle
        while True:
            order = catalog.cycle_order(
                self.spec["seed"], self.spec["segment"], number, len(self.template)
            )
            self._mark()
            for index in order:
                entry = dict(self.template[index], cycle=number)
                if entry["cls"] == "cold":
                    entry["payload"], entry["answer"] = cold_entry(next(self.masks))
                yield entry
            number += 1
            if deadline is None or time.perf_counter() >= deadline:
                return

    def drive(self, first_cycle: int, window_s: Optional[float]) -> List[List[float]]:
        """Run the schedule through the client threads.  Returns [jobs,
        wall, server CPU] per cycle, a cycle lasting from the moment its
        first job is handed to a client until the next cycle's is (the
        last one until every client is done): the cycles tile the window."""
        self.marks = []
        deadline = None if window_s is None else time.perf_counter() + window_s
        entries = self._entries(first_cycle, deadline)

        def client() -> None:
            while True:
                with self._lock:
                    entry = next(entries, None)
                if entry is None:
                    return
                record = self._run(entry)
                with self._lock:
                    self.records.append(record)

        threads = [
            threading.Thread(target=client, name=f"client-{index}")
            for index in range(catalog.SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._mark()
        return [
            [len(self.template), ended - began, cpu_after - cpu_before]
            for (began, cpu_before), (ended, cpu_after)
            in zip(self.marks, self.marks[1:])
        ]

    def _run(self, entry: Dict) -> Dict:
        traced = self.tracer.enabled and entry["cycle"] >= 0 and entry["cycle"] % 2 == 0
        tracer = self.tracer if traced else _IDLE
        record = dict(entry, traced=traced, polls=0, document=None, problem=None)
        record.pop("payload")
        began = time.perf_counter()
        try:
            with tracer.span("job", job=entry["kind"]):
                with tracer.span("service.submit_rtt"):
                    created, _ = call("POST", f"{self.url}/jobs", entry["payload"])
                job_url = f"{self.url}/jobs/{created['job_id']}"
                deadline = began + _JOB_TIMEOUT_SECONDS
                while True:
                    polled = time.perf_counter()
                    status, _ = call("GET", job_url)
                    tracer.add("service.status_rtt", time.perf_counter() - polled)
                    record["polls"] += 1
                    if status["state"] in _TERMINAL:
                        break
                    if time.perf_counter() > deadline:
                        raise TimeoutError(f"still {status['state']!r}")
                    time.sleep(catalog.POLL_SECONDS)
                with tracer.span("service.result_rtt"):
                    record["document"], record["bytes"] = call(
                        "GET", f"{job_url}/result"
                    )
        except Exception as error:  # noqa: BLE001 - a failed job, not a crash
            record["problem"] = f"raised {type(error).__name__}: {error}"
        record["latency"] = time.perf_counter() - began
        return record


def _variational_trace(document: Dict) -> List:
    return [
        (step["cost_plus"], step["cost_minus"], step["best_cost"], step["theta"])
        for step in document.get("iterations", ())
    ]


def check_record(record: Dict, truths: Dict, warm_trace: Optional[List]) -> Optional[str]:
    """One finished job against its oracle; ``None`` when it holds."""
    if record["problem"]:
        return record["problem"]
    document = record["document"]
    if document.get("state") != "done":
        return f"ended {document.get('state')!r}: {document.get('error')}"
    result, kind = document["result"], record["kind"]
    if record["cls"] == "cold":
        top = result["top_states"][0]
        if top["state"] != record["answer"] or abs(top["probability"] - 1.0) > oracle.EXACT_ATOL:
            return f"cold BV returned {top}, expected {record['answer']}"
    elif kind in ("fd", "fd_full", "top_k"):
        spec = document["spec"]
        problem = oracle.check_states(
            result["top_states"], truths[f"{spec['benchmark']}-{spec['qubits']}"]
        )
        if problem:
            return problem
    elif kind == "dd":
        states = result["solution_states"]
        answer = bv_solution(document["spec"]["qubits"])
        if not states or states[0]["state"] != answer or abs(states[0]["probability"] - 1.0) > oracle.EXACT_ATOL:
            return f"DD returned {states[:1]}, expected {answer}"
    else:
        trace = _variational_trace(document)
        if len(trace) != document["spec"]["iterations"]:
            return f"variational trace has {len(trace)} entries"
        if warm_trace is not None and trace != warm_trace:
            return "variational trace differs from the warm-up job's"
    if record["cycle"] >= 0:  # the warm-up cycle itself fills the store
        hits = document["cache_hits"]
        expected = record["cls"] != "cold"
        if hits.get("cut") is not expected or hits.get("evaluate", expected) is not expected:
            return f"cache_hits {hits} on a {record['cls']} job"
    return None


def layer_sums(records: List[Dict]) -> Dict[str, float]:
    """Sums, over the traced jobs, of what their job documents report."""
    sums: Dict[str, float] = collections.defaultdict(float)
    for record in records:
        document = record["document"]
        timings = document["timings"]
        stages = [timings.get(stage, 0.0) for stage in ("cut", "evaluate", "query")]
        running = document["finished_at"] - document["started_at"]
        sums["service.queue_wait_s"] += document["started_at"] - document["submitted_at"]
        sums["service.stage_cut_s"] += stages[0]
        sums["service.stage_evaluate_s"] += stages[1]
        sums["service.stage_query_s"] += stages[2]
        sums["service.scheduler_gap_s"] += running - sum(stages)
        sums["service.client_overhead_s"] += record["latency"] - (
            document["finished_at"] - document["submitted_at"]
        )
        sums["service.result_bytes"] += record["bytes"]
        sums["service.polls_per_job"] += record["polls"]
        for step in document.get("iterations", ()):
            sums["rebind.seconds"] += step["seconds"]
            sums["rebind.count"] += 1
        if "evaluate" in document["cache_hits"]:
            sums["cache.hits"] += bool(document["cache_hits"]["evaluate"])
            sums["cache.lookups"] += 1
    return dict(sums)


def measure(spec: Dict, spawned: float) -> Dict:
    truths = dense_oracles(spec["seed"])
    os.makedirs(spec["work_dir"], exist_ok=True)
    server = Server(os.path.join(spec["work_dir"], f"store-{spec['segment']}"))
    try:
        load = Load(spec, server)
        load.drive(-1, None)  # warm-up cycle: fills the store
        failures = []
        warm_trace = None
        for record in load.records:
            problem = check_record(record, truths, None)
            if problem:
                failures.append(f"warm-up {record['kind']}: {problem}")
            elif record["kind"] == "variational":
                warm_trace = _variational_trace(record["document"])
        warmed = len(load.records)
        setup_s = time.time() - spawned

        cycles = load.drive(0, spec["window_s"])
        peak_rss_kb = worker.peak_rss_kb(server.process.pid)
        journal_bytes = server.journal_bytes()
    finally:
        server.close()

    measured = load.records[warmed:]
    for record in measured:
        problem = check_record(record, truths, warm_trace)
        if problem:
            failures.append(f"{record['cls']} {record['kind']}: {problem}")
    good = [r for r in measured if not r["problem"] and r["document"].get("state") == "done"]
    traced = [r for r in good if r["traced"]]
    spans = load.tracer.drain()
    by_class = {
        cls: [r["latency"] for r in good if r["cls"] == cls]
        for cls in ("warm", "cold", "variational")
    }
    return {
        "setup_s": setup_s,
        "samples": [r["latency"] for r in good if not r["traced"]],
        "traced_samples": [r["latency"] for r in traced],
        "cycles": cycles,
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(load.records),
        "failed": len(failures),
        "failures": failures[:20],
        "traced_jobs": len(traced),
        "folded": fold(spans),
        "facts": dict(
            layer_sums(traced),
            **{"journal.bytes": journal_bytes, "journal.jobs": len(load.records)},
        ),
        "per_segment": {"service.server_start_s": server.start_s},
        "class_samples": by_class,
        "spans": spans,
    }
