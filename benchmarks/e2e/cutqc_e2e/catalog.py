"""What the benchmark runs and what it reports.

Everything here is data or a pure function of ``--seed``: the manifest
that ``BENCHMARK.json`` must equal, the fixed job catalog of each
workload, and the order jobs run in.  Family, size, device size and the
supremacy grid seed are fixed, so a cycle holds the same work for every
seed; the seed drives cycle order, adder operands, HWEA phases, QAOA's
start point, the noisy sampling seed and the cold-job circuits.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: Fresh worker processes per pass.  Set-up samples are spread across the
#: whole pass and per-process memory-layout luck is averaged over them.
SEGMENTS = 4
#: Measured seconds per pass.  The driver makes 4 + 22 x 4 runs inside
#: 3420 s, so a run (measuring + four set-ups + oracles) must average
#: under 37 s; 24 s of measuring makes a run 29-37 s (32 s on average),
#: which leaves a seventh of the limit for a slower hour of the machine.
RUN_SECONDS = 24
#: Seconds a worker may overrun its window before it is killed and its
#: cycle counted as failed jobs.
WORKER_GRACE_SECONDS = 30.0

#: (single-qubit depolarising, two-qubit depolarising, readout) error.
NOISE = (1e-3, 1e-2, 0.015)
TRAJECTORIES = 24
#: Dense-statevector oracles stop here; wider BV/adder circuits use the
#: library's analytic solution instead (adder-20 alone is 2.4 s dense).
DENSE_ORACLE_QUBITS = 16

WORKLOADS = [
    {
        "name": "fd_contract",
        "why": "FD on many-cut circuits: term-tensor attribution + "
        "contraction are >=75% of a job (ROADMAP item 2's claim surface)",
    },
    {
        "name": "fd_noisy",
        "why": "Fig. 11 device path: batched noisy evaluate is >90% of a "
        "job and postprocess <2%, the mirror of fd_contract (item 3)",
    },
    {
        "name": "dd_wide",
        "why": "DD on 20-30 qubit circuits: binned collapse + many small "
        "contractions, so an FD-only postprocess win that costs DD shows",
    },
    {
        "name": "serve_mixed",
        "why": "real serve subprocess over HTTP, warm reads beside cold "
        "writes: protocol, scheduler, journal and store dominate (item 4)",
    },
]

#: ``bound`` is the relative worsening of the median that counts as a
#: regression.  The three job-time metrics were specified at 0.15; ten
#: same-code runs in a noisy hour of the shared reference machine spread
#: (q3 - q1) / median = 0.19-0.22 on them, and their medians sat 33% apart
#: from a quiet hour's, so they carry the widest bound the manifest allows.
#: (With OpenBLAS pinned to its AVX2 kernels, see run.py, ten runs in an
#: ordinary hour spread 0.02-0.07; the bound is for the noisy hours.)
#: ``peak_rss_mb`` was specified at 0.05 and repeats to 0.1% in-process, but
#: the serve process keeps every finished job's record, so its peak follows
#: the number of jobs the machine let through the window (spread 2.9%).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "job_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cpu_s_per_job", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
]


_PER_LAYER_NAMES = """
interp.start_s import.numpy_s import.networkx_s import.repro_s
library.build_s
cutting.search_s cutting.split_s cutting.num_cuts
core.evaluate_s core.variants core.body_passes core.rebind_s
sim.apply_s sim.apply_calls sim.fuse_s sim.state_bytes sim.uncut_s
devices.transpile_s
postprocess.attribute_s postprocess.attribute_calls
postprocess.fd_query_s postprocess.contract_s postprocess.kron_terms
postprocess.output_bytes
postprocess.dd_query_s postprocess.dd_recursions postprocess.dd_collapse_s
postprocess.collapse_hit_ratio
service.server_start_s
service.submit_rtt_s service.status_rtt_s service.result_rtt_s
service.result_bytes service.polls_per_job
service.queue_wait_s service.stage_cut_s service.stage_evaluate_s
service.stage_query_s service.scheduler_gap_s service.client_overhead_s
service.warm_job_s_p50 service.cold_job_s_p50 service.variational_job_s_p50
service.cache_hit_ratio
store.put_eval_s store.get_eval_s store.eval_bytes
journal.append_s journal.bytes_per_job
job.s_p90 job.unattributed_s job.dominant_share trace.overhead_ratio
calib.matmul_s calib.copy_gbps calib.pyloop_s
""".split()

_HIGHER_IS_BETTER = {
    "postprocess.collapse_hit_ratio",
    "service.cache_hit_ratio",
    "job.dominant_share",
    "calib.copy_gbps",
}


def _unit(name: str) -> str:
    """A per-layer metric's unit, read off its name."""
    if name.endswith("_gbps"):
        return "GB/s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes") or name == "journal.bytes_per_job":
        return "B"
    if name.endswith("_s") or "_s_p" in name or ".s_p" in name:
        return "s"
    return "count"


PER_LAYER = [
    {
        "name": name,
        "unit": _unit(name),
        "better": "higher" if name in _HIGHER_IS_BETTER else "lower",
    }
    for name in _PER_LAYER_NAMES
]


def manifest() -> Dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def workload_names() -> List[str]:
    return [workload["name"] for workload in WORKLOADS]


# ----------------------------------------------------------------------
# In-process catalogs
# ----------------------------------------------------------------------

def _job(family, qubits, device_size, query="fd", noisy=None, **extra) -> Dict:
    return {
        "id": f"{family}-{qubits}/D={device_size}",
        "family": family,
        "qubits": qubits,
        "device_size": device_size,
        "kwargs": {},
        "query": query,
        "noisy": noisy,
        **extra,
    }


def jobs(workload: str, seed: int) -> List[Dict]:
    """The K jobs one cycle of an in-process workload runs once each."""
    if workload == "fd_contract":
        # <=14 qubits on purpose: the 300 MB supremacy-16 job is
        # bandwidth-bound and was the noisiest thing measured.
        return [
            _job("supremacy", 12, 9, kwargs={"seed": 0}),
            _job("supremacy", 12, 8, kwargs={"seed": 0}),
            _job("aqft", 8, 5),
            _job("adder", 12, 8, kwargs={"seed": seed}),
        ]
    if workload == "fd_noisy":
        return [
            _job("bv", 14, 8, noisy="trajectory"),
            _job("adder", 10, 6, noisy="trajectory", kwargs={"seed": seed}),
            _job("hwea", 12, 7, noisy="trajectory", kwargs={"seed": seed}),
            _job("bv", 16, 9, noisy="trajectory"),
            _job("bv", 10, 6, noisy="density"),
        ]
    if workload == "dd_wide":
        # Recursion budgets are raised until the DD query, not evaluate,
        # is at least half of the cycle.
        return [
            _job("bv", 30, 16, "dd", active=12, recursions=32),
            _job("bv", 26, 14, "dd", active=10, recursions=32),
            _job("adder", 20, 12, "dd", active=10, recursions=48,
                 kwargs={"seed": seed}),
            _job("hwea", 20, 11, "dd", active=10, recursions=32,
                 kwargs={"seed": seed}),
        ]
    raise ValueError(f"no in-process catalog for workload {workload!r}")


def cycle_order(seed: int, segment: int, cycle: int, size: int) -> List[int]:
    """The order cycle ``cycle`` of segment ``segment`` runs its jobs in."""
    order = list(range(size))
    random.Random(f"{seed}:{segment}:{cycle}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# serve_mixed schedule
# ----------------------------------------------------------------------

#: Cold jobs are BV-12 followed by X gates on a seeded, never-repeated
#: subset of data qubits: the circuit *structure* differs per job, so both
#: the cut and the evaluation miss the store, and the ideal output stays
#: one analytic state.  (A seeded hidden string cannot be used: a zero bit
#: leaves a wire with no multi-qubit gate and the cutter refuses it.)
COLD_QUBITS = 12
COLD_DEVICE_SIZE = 7
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
POLL_SECONDS = 0.005


def _payload(benchmark, qubits, device_size, seed, **query) -> Dict:
    return {
        "circuit": {"benchmark": benchmark, "qubits": qubits, "seed": seed},
        "device_size": device_size,
        "strategy": "auto",
        "query": query,
    }


def serve_cycle(seed: int) -> List[Dict]:
    """The 40 jobs of one ``serve_mixed`` cycle, before shuffling.

    60% are one kind (warm FD top-5) so ``job_s_p50`` sits inside one
    mode.  Cold entries carry no payload: the worker fills in a fresh
    circuit from :func:`cold_masks` each time one is scheduled.
    """
    shapes = [("bv", 12, 7), ("hwea", 12, 7), ("adder", 10, 6)]
    cycle: List[Dict] = []
    for shape in shapes:
        cycle += [
            {"cls": "warm", "kind": "fd",
             "payload": _payload(*shape, seed, type="fd", top=5)}
            for _ in range(8)
        ]
    cycle += [
        {"cls": "warm", "kind": "fd_full",
         "payload": _payload("adder", 10, 6, seed, type="fd", top=2**10)}
        for _ in range(4)
    ]
    cycle += [
        {"cls": "warm", "kind": "top_k",
         "payload": _payload(*shapes[index % 2], seed, type="top_k", top=5)}
        for index in range(4)
    ]
    cycle += [
        {"cls": "warm", "kind": "dd",
         "payload": _payload("bv", 16, 9, seed, type="dd", active=6,
                             recursions=8, top=5)}
        for _ in range(2)
    ]
    cycle += [
        {"cls": "variational", "kind": "variational",
         "payload": dict(
             _payload("qaoa", 8, 5, seed, type="variational", iterations=3),
             degree=0,
         )}
        for _ in range(2)
    ]
    cycle += [{"cls": "cold", "kind": "fd", "payload": None} for _ in range(4)]
    return cycle


def cold_masks(seed: int, segment: int) -> List[int]:
    """Every non-empty X mask over the cold circuit's data qubits, in the
    seeded order segment ``segment`` consumes them (its store is fresh)."""
    masks = list(range(1, 2 ** (COLD_QUBITS - 1)))
    random.Random(f"{seed}:{segment}:cold").shuffle(masks)
    return masks
