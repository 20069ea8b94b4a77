"""Command-line interface: cut, evaluate and query circuits from a shell.

Examples
--------
Cut a 12-qubit supremacy circuit onto an 8-qubit device and show the plan::

    python -m repro cut --benchmark supremacy --qubits 12 --device-size 8

Run the full pipeline and print the top output states::

    python -m repro run --benchmark bv --qubits 11 --device-size 5 --top 5

Dynamic-definition query::

    python -m repro dd --benchmark bv --qubits 16 --device-size 10 \
        --active 2 --recursions 8

List virtual device presets::

    python -m repro devices

Run the job service and submit work to it::

    python -m repro serve --store /tmp/cutqc-store --port 8000
    python -m repro submit --url http://127.0.0.1:8000 \
        --benchmark bv --qubits 11 --device-size 5 --wait
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .core import CutQC, RunConfig
from .core.job import JobSpec, run_query
from .cutting import CutSearchError
from .cutting.searcher import METHODS
from .cutting.variants import NOISY_METHODS
from .devices import DEVICE_PRESETS, get_device
from .library import BENCHMARKS
from .metrics import chi_square_loss
from .obs import trace
from .postprocess import STRATEGIES
from .sim import simulate_probabilities

__all__ = ["main", "build_parser"]


#: How the CLI spells each RunConfig option it takes; the defaults are
#: RunConfig's.
_CONFIG_FLAGS = {
    "max_subcircuit_qubits": ("--device-size", dict(
        type=int, required=True, metavar="D",
        help="max qubits per subcircuit (device size D)")),
    "max_subcircuits": ("--max-subcircuits", dict(type=int)),
    "max_cuts": ("--max-cuts", dict(type=int)),
    "method": ("--method", dict(choices=METHODS, help="cut-search backend")),
    "strategy": ("--strategy", dict(
        choices=STRATEGIES, help="contraction strategy (default: %(default)s)")),
    "pool": ("--pool", dict(
        metavar="SPEC",
        help="evaluate variants on a device pool; SPEC is a comma-separated "
             "list of preset[:count], e.g. bogota:4,melbourne")),
    "device": ("--device", dict(
        choices=sorted(DEVICE_PRESETS),
        help="evaluate subcircuit variants on this noisy virtual device "
             "(batched noisy engine; default: exact statevector)")),
    "device_shots": ("--shots", dict(
        type=int, metavar="N",
        help="shots per variant on --device or --pool (0 = noise-only "
             "distributions; default: the device's setting)")),
    "trajectories": ("--trajectories", dict(
        type=int, metavar="T",
        help="Monte-Carlo trajectories per variant for --device's batched "
             "noisy estimator (default: %(default)s)")),
    "noisy_method": ("--noisy-method", dict(
        choices=NOISY_METHODS,
        help="batched noisy estimator for --device: Pauli-injection "
             "trajectories or the exact density-matrix channel")),
}
_CUT_OPTIONS = ("max_subcircuit_qubits", "max_subcircuits", "max_cuts", "method")
_NOISY_OPTIONS = ("device", "device_shots", "trajectories", "noisy_method")


def _add_config_options(sub: argparse.ArgumentParser, options) -> None:
    """Declare these RunConfig options on ``sub``, defaulted by RunConfig."""
    defaults = RunConfig()
    for option in options:
        flag, kwargs = _CONFIG_FLAGS[option]
        sub.add_argument(
            flag, dest=option, default=getattr(defaults, option), **kwargs
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CutQC reproduction: cut large circuits onto small QPUs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_circuit_options(
        sub: argparse.ArgumentParser, required: bool = True
    ) -> None:
        sub.add_argument(
            "--benchmark", required=required, choices=sorted(BENCHMARKS),
            help="benchmark circuit family (paper §5.3)",
        )
        sub.add_argument("--qubits", type=int, required=required)
        sub.add_argument("--seed", type=int, default=0,
                         help="generator seed (randomized benchmarks); "
                              "also roots the noise streams")

    def add_execution_options(
        sub: argparse.ArgumentParser, trace: bool = True
    ) -> None:
        sub.add_argument(
            "--pool-workers", type=int, default=0, metavar="N",
            help="run variant execution and every query on one persistent "
                 "N-process worker pool (shared-memory tensor transport; "
                 "0 = no pool, everything inline)",
        )
        sub.add_argument(
            "--max-retries", type=int, default=2, metavar="R",
            help="retry budget for transient faults (worker crashes, "
                 "store IO; default: 2)",
        )
        sub.add_argument(
            "--no-degrade", dest="degrade", action="store_false",
            default=True,
            help="fail instead of falling back to serial in-process "
                 "evaluation when the worker pool is unrecoverable",
        )
        if trace:
            sub.add_argument(
                "--trace", action="store_true",
                help="record spans across the whole pipeline and print "
                     "the span tree (wall time + per-stage percentages)",
            )

    cut = commands.add_parser("cut", help="find cuts and print the plan")
    add_circuit_options(cut)
    _add_config_options(cut, _CUT_OPTIONS)
    cut.add_argument("--json", action="store_true",
                     help="machine-readable JSON output (plan, objective, "
                          "cut positions)")

    run = commands.add_parser("run", help="cut + evaluate + FD query")
    add_circuit_options(run)
    _add_config_options(run, _CUT_OPTIONS + ("strategy", "pool") + _NOISY_OPTIONS)
    add_execution_options(run)
    run.add_argument("--top", type=int, default=5,
                     help="print this many highest-probability states")
    run.add_argument("--verify", action="store_true",
                     help="compare against statevector ground truth")
    run.add_argument("--stream-shards", type=int, default=None, metavar="S",
                     help="stream the FD distribution as 2^S shards of "
                          "2^(n-S) entries each (bounded memory; --top "
                          "states are retained across shards)")
    run.add_argument("--json", action="store_true",
                     help="machine-readable JSON output (states, stats, "
                          "dedup/cache counters)")

    dd = commands.add_parser("dd", help="cut + evaluate + DD query")
    add_circuit_options(dd)
    _add_config_options(dd, _CUT_OPTIONS + ("strategy", "pool", "device_shots"))
    add_execution_options(dd)
    dd.add_argument("--active", type=int, default=2,
                    help="active qubits per recursion (memory cap)")
    dd.add_argument("--recursions", type=int, default=8)
    dd.add_argument("--zoom-width", type=int, default=1, metavar="K",
                    help="expand the top-K frontier bins per round, "
                         "contracted in parallel on the --pool-workers pool")
    dd.add_argument("--json", action="store_true",
                    help="machine-readable JSON output (recursions, "
                         "solution states, cache stats)")

    devices = commands.add_parser("devices", help="list device presets")
    devices.add_argument("--json", action="store_true",
                         help="machine-readable JSON output (preset specs)")

    serve = commands.add_parser(
        "serve", help="run the HTTP job service (artifact-store backed)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--store", default=".cutqc-store", metavar="DIR",
                       help="artifact-store directory (default: .cutqc-store)")
    serve.add_argument("--replicas", type=int, default=1, metavar="N",
                       help="number of stateless API servers sharing the "
                            "store+journal (ports port..port+N-1; any "
                            "replica accepts, exactly one executes)")
    serve.add_argument("--store-bytes", default=None, metavar="BYTES",
                       help="LRU byte budget for the artifact store "
                            "(suffixes K/M/G; default: unbounded)")
    serve.add_argument("--tenant", action="append", default=None,
                       metavar="SPEC", dest="tenants",
                       help="tenant policy "
                            "name:weight[:max_queued[:max_concurrent]] "
                            "(repeatable; e.g. acme:3, free:1:16:2, "
                            "blocked:0)")
    serve.add_argument("--workers", type=int, default=2,
                       help="scheduler worker threads")
    add_execution_options(serve, trace=False)
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="reject submissions with a typed 503 "
                            "(code 'overloaded') while N jobs are already "
                            "queued (default: unbounded)")
    serve.add_argument("--json", action="store_true",
                       help="print the startup banner as JSON")

    def add_client_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--url", default="http://127.0.0.1:8000",
                         help="job-service base URL")
        sub.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")

    submit = commands.add_parser(
        "submit", help="submit a job to a running service"
    )
    add_client_options(submit)
    add_circuit_options(submit, required=False)
    submit.add_argument("--qasm-file", metavar="PATH",
                        help="submit this OpenQASM 2.0 file instead of a "
                             "library benchmark")
    submit.add_argument("--tenant", default=None, metavar="NAME",
                        help="submit as this tenant (fair scheduling + "
                             "quotas; default: 'default')")
    _add_config_options(
        submit, _CUT_OPTIONS + ("strategy",) + _NOISY_OPTIONS
    )
    submit.add_argument("--query",
                        choices=("fd", "dd", "top_k", "variational"),
                        default="fd")
    submit.add_argument("--top", type=int, default=5)
    submit.add_argument("--iterations", type=int, default=20,
                        help="variational: SPSA optimizer iterations "
                             "(requires --benchmark qaoa)")
    submit.add_argument("--layers", type=int, default=1,
                        help="variational: QAOA ansatz depth p")
    submit.add_argument("--degree", type=int, default=3,
                        help="variational: random d-regular MaxCut "
                             "instance (0 = ring graph)")
    submit.add_argument("--active", type=int, default=2,
                        help="dd: active qubits per recursion")
    submit.add_argument("--recursions", type=int, default=8)
    submit.add_argument("--zoom-width", type=int, default=1)
    submit.add_argument("--shard-qubits", type=int, default=None,
                        help="top_k: stream the FD distribution as 2^S shards")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print the result")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait polling timeout in seconds")
    submit.add_argument("--trace", action="store_true",
                        help="with --wait: fetch the job's span tree from "
                             "GET /jobs/<id>/trace and print it")

    status = commands.add_parser(
        "status", help="show one job's state, stage timings and cache hits"
    )
    add_client_options(status)
    status.add_argument("--job", required=True, metavar="JOB_ID")
    status.add_argument("--result", action="store_true",
                        help="fetch the query result instead of the status")

    jobs = commands.add_parser(
        "jobs", help="list the service's jobs and serving statistics"
    )
    add_client_options(jobs)

    return parser


#: JobSpec fields whose CLI dest is the RunConfig option's name.
_SPEC_DESTS = {"device_size": "max_subcircuit_qubits", "shots": "device_shots"}


def _job_spec(args: argparse.Namespace, **fields) -> JobSpec:
    """The job the parsed flags describe: ``fields``, then every
    :class:`JobSpec` field the command has a flag for.  ``run``, ``dd``
    and ``cut`` take no ``--degree``: their QAOA instance is the ring."""
    fields.setdefault("degree", getattr(args, "degree", 0))
    for name in JobSpec.__dataclass_fields__:
        value = getattr(args, _SPEC_DESTS.get(name, name), None)
        if value is not None:
            fields.setdefault(name, value)
    return JobSpec(**fields)


def _build_pipeline(
    spec: JobSpec, config: RunConfig, pool_workers: int
) -> CutQC:
    if pool_workers < 0:
        raise ValueError("--pool-workers must be >= 0")
    worker_pool = None
    if pool_workers:
        from .postprocess.parallel import WorkerPool

        worker_pool = WorkerPool(pool_workers)
    return CutQC(spec.build_circuit(), config=config, worker_pool=worker_pool)


def _close_worker_pool(pipeline: Optional[CutQC]) -> None:
    """The CLI owns the pool it created in :func:`_build_pipeline`."""
    if pipeline is not None and pipeline.worker_pool is not None:
        pipeline.worker_pool.close()


def _print_trace_tree(document: dict, as_json: bool) -> None:
    """Render a span tree; on stderr under --json so stdout stays parseable."""
    stream = sys.stderr if as_json else sys.stdout
    print(trace.format_tree(document), file=stream)


def _run_local_job(args: argparse.Namespace, spec: JobSpec, bounds) -> int:
    """Run ``spec`` in this process, under the CLI retry/degrade policy,
    and print its document (``--trace``: under a root span, whose tree
    follows it).

    A flag outside its ``(flag, value, least, most)`` bounds (``most``
    ``None``: no cap), a bad option, or a ``--device`` preset smaller
    than ``--device-size`` (a CLI-only rule) exits 2 before anything
    runs.

    Transient faults (see :func:`repro.faults.is_transient`) retry the
    job up to ``--max-retries`` times; an unrecoverable worker pool
    rebuilds the pipeline without one and re-runs serially — degraded,
    not failed — unless ``--no-degrade``.  The whole job is idempotent
    (the pipeline recomputes from its inputs), so a retry is waste,
    never corruption.
    """
    from .faults import PoolUnrecoverableError, is_transient

    try:
        for flag, value, least, most in bounds:
            if value is not None and value < least:
                raise ValueError(f"{flag} must be >= {least}")
            if value is not None and most is not None and value > most:
                raise ValueError(f"{flag} must be in [{least}, {most}]")
        config = RunConfig.of(args)
        device = config.virtual_device
        if device is not None and (
            device.num_qubits < config.max_subcircuit_qubits
        ):
            raise ValueError(
                f"preset {args.device} has {device.num_qubits} qubits "
                f"but --device-size is {config.max_subcircuit_qubits}"
            )
        pipeline = _build_pipeline(spec, config, args.pool_workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    max_retries = max(0, args.max_retries)
    degraded = False
    attempt = 0
    try:
        while True:
            attempt += 1
            try:
                if not args.trace:
                    return _local_job(args, pipeline, spec)
                with trace.start(f"cli.{args.command}") as root:
                    _local_job(args, pipeline, spec)
                _print_trace_tree(root.to_dict(), args.json)
                return 0
            except PoolUnrecoverableError as error:
                if degraded or not args.degrade:
                    raise
                degraded = True
                print(
                    f"warning: {error}; degrading to serial in-process "
                    "evaluation",
                    file=sys.stderr,
                )
                _close_worker_pool(pipeline)
                pipeline = _build_pipeline(spec, config, 0)
            except Exception as error:  # noqa: BLE001 - taxonomy below
                # A closed stdout ends the command (see main), not the job.
                retry = is_transient(error) and not isinstance(error, BrokenPipeError)
                if attempt > max_retries or not retry:
                    raise
                print(
                    f"warning: transient fault "
                    f"({type(error).__name__}: {error}); retrying",
                    file=sys.stderr,
                )
    finally:
        _close_worker_pool(pipeline)


def _command_cut(args: argparse.Namespace) -> int:
    from .viz import cut_diagram

    try:
        pipeline = _build_pipeline(_job_spec(args), RunConfig.of(args), 0)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cut = pipeline.cut()
    if args.json:
        document = {
            "command": "cut",
            "benchmark": args.benchmark,
            "qubits": pipeline.circuit.num_qubits,
            "device_size": args.max_subcircuit_qubits,
            "num_cuts": cut.num_cuts,
            "num_subcircuits": cut.num_subcircuits,
            "cut_positions": [[c.wire, c.wire_index] for c in cut.cuts],
            "subcircuits": [
                {
                    "index": sub.index,
                    "width": sub.width,
                    "init_lines": len(sub.init_lines),
                    "meas_lines": len(sub.meas_lines),
                    "output_lines": sub.num_effective,
                    "num_gates": len(sub.circuit),
                }
                for sub in cut.subcircuits
            ],
        }
        if pipeline.solution is not None:
            document["search_method"] = pipeline.solution.method
            document["objective"] = pipeline.solution.objective
        print(json.dumps(document, indent=2))
        return 0
    print(cut.summary())
    if pipeline.solution is not None:
        print(f"search method: {pipeline.solution.method}")
        print(f"objective (Eq. 14 FLOPs): {pipeline.solution.objective:.3e}")
    print("cut positions (wire, index): "
          f"{[(c.wire, c.wire_index) for c in cut.cuts]}")
    print(cut_diagram(cut))
    return 0


def _local_job(args: argparse.Namespace, pipeline: CutQC, spec: JobSpec) -> int:
    """One local job: the service's ``result`` for ``spec``, with the
    run's ``execution`` (and ``parallel``) report and any verification."""
    if not args.json:
        print(pipeline.cut().summary())
    result = run_query(pipeline, spec)  # evaluates, so it comes first
    document = {
        "command": args.command,
        "execution": pipeline.execution_report.as_dict(),
        "result": result,
    }
    if pipeline.parallel_stats is not None:
        document["parallel"] = pipeline.parallel_stats.as_dict()
    if getattr(args, "verify", False):
        document.update(_verify(pipeline, result))
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        _print_local_job(document, spec)
    return 0


def _verify(pipeline: CutQC, result: dict) -> dict:
    """Check a job against the uncut circuit's statevector: the FD
    distribution's chi^2, or the worst entry over every streamed shard."""
    truth = simulate_probabilities(pipeline.circuit)
    if result["mode"] == "fd":
        probabilities = np.clip(pipeline.fd_query().probabilities, 0, None)
        return {"verify_chi2": float(chi_square_loss(probabilities, truth))}
    shard_qubits = result["shard_qubits"]
    truth = truth.reshape(1 << shard_qubits, -1)
    return {"verify_max_abs_error": max(
        float(np.abs(shard.probabilities - truth[shard.index]).max())
        for shard in pipeline.fd_stream(shard_qubits)
    )}


def _print_states(states, indent: str = "  ") -> None:
    for entry in states:
        print(f"{indent}|{entry['state']}>  p = {entry['probability']:.6f}")


def _print_local_job(document: dict, spec: JobSpec) -> None:
    execution, result = document["execution"], document["result"]
    line = (
        f"evaluation: {execution['num_variants']} variants -> "
        f"{execution['num_unique_circuits']} unique circuits "
        f"(dedup {execution['dedup_ratio']:.2f}x, {execution['mode']})"
    )
    if execution["num_body_passes"]:
        line += f", {execution['num_body_passes']} fused body pass(es)"
    if execution["pool_makespan_seconds"] is not None:
        line += (
            f", quantum makespan {execution['pool_makespan_seconds']:.3f}s "
            f"vs {execution['pool_serial_seconds']:.3f}s serial"
        )
    print(line)
    n = result["num_qubits"]
    if result["mode"] == "fd":
        print(
            f"FD query [{result['strategy']}]: {result['num_terms']} "
            f"Kronecker terms ({result['num_skipped']} skipped), "
            f"{result['elapsed_seconds']:.3f}s"
        )
    elif result["mode"] == "top_k":
        stream, shard_qubits = result["stream"], result["shard_qubits"]
        print(
            f"FD stream: 2^{shard_qubits} shards of 2^{n - shard_qubits} "
            f"entries ({stream['peak_shard_bytes']} B peak/shard), "
            f"{stream['elapsed_seconds']:.3f}s, collapse-cache hit rate "
            f"{stream['cache_hit_rate']:.2f}"
        )
    if result["mode"] != "dd":
        print(f"top {spec.top} states:")
        _print_states(result["top_states"])
    else:
        for recursion in result["recursions"]:
            fixed = recursion["fixed"]
            zoomed = "".join(str(fixed.get(str(w), "?")) for w in range(n))
            print(
                f"recursion {recursion['index'] + 1}: zoomed={zoomed} "
                f"active={tuple(recursion['active'])} "
                f"max-bin p={recursion['max_bin_probability']:.4f}"
            )
        stats = result["stats"]
        print(
            f"DD stats: {stats['num_recursions']} recursions in "
            f"{stats['num_rounds']} round(s) (zoom width "
            f"{stats['zoom_width']}), collapse-cache hit rate "
            f"{stats['cache_hit_rate']:.2f} ({stats['cache_hits']} hits / "
            f"{stats['cache_misses']} misses)"
        )
        if result["solution_states"]:
            print(f"solution states (p >= {spec.threshold}):")
            _print_states(result["solution_states"])
        else:
            print("no dominant solution state resolved "
                  "(dense output or too few recursions)")
    if "verify_chi2" in document:
        print(f"chi^2 vs statevector ground truth: {document['verify_chi2']:.6f}")
    if "verify_max_abs_error" in document:
        print(f"max |shard - truth| error: {document['verify_max_abs_error']:.3e}")


def _command_run(args: argparse.Namespace) -> int:
    query = "fd" if args.stream_shards is None else "top_k"
    spec = _job_spec(args, query=query, shard_qubits=args.stream_shards)
    bounds = (("--top", args.top, 1, None),
              ("--stream-shards", args.stream_shards, 0, args.qubits))
    return _run_local_job(args, spec, bounds)


def _command_dd(args: argparse.Namespace) -> int:
    bounds = (("--active", args.active, 1, None),
              ("--recursions", args.recursions, 0, None),
              ("--zoom-width", args.zoom_width, 1, None))
    return _run_local_job(args, _job_spec(args, query="dd"), bounds)


def _command_devices(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        document = {
            "command": "devices",
            "presets": [
                {
                    "preset": name,
                    "name": device.name,
                    "num_qubits": device.num_qubits,
                    "shots": device.shots,
                    "coupling_map": [list(pair) for pair in device.coupling_map],
                }
                for name, device in (
                    (preset, get_device(preset))
                    for preset in sorted(DEVICE_PRESETS)
                )
            ],
        }
        print(json.dumps(document, indent=2))
        return 0
    for name in sorted(DEVICE_PRESETS):
        print(get_device(name).describe())
    return 0


# ----------------------------------------------------------------------
# Job-service verbs
# ----------------------------------------------------------------------

def _parse_bytes(text: str) -> int:
    """``"512M"`` -> bytes; bare integers pass through."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = str(text).strip()
    scale = units.get(text[-1:].lower())
    if scale is not None:
        text = text[:-1]
    return int(float(text) * (scale or 1))


def _command_serve(args: argparse.Namespace) -> int:
    from .service import ArtifactStore, JobServer, TenantConfig

    if args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return 2
    max_bytes = (
        _parse_bytes(args.store_bytes)
        if args.store_bytes is not None
        else None
    )
    tenants = TenantConfig.parse_specs(args.tenants)
    store = ArtifactStore(args.store, max_bytes=max_bytes)
    # N stateless replicas over one shared store: each runs its own
    # scheduler, all tail the same journal, claims arbitrate execution.
    servers = [
        JobServer(
            store=store,
            host=args.host,
            port=args.port + index if args.port else 0,
            workers=args.workers,
            pool_workers=args.pool_workers,
            tenants=tenants,
            max_pending=args.max_pending,
            max_retries=args.max_retries,
            degrade=args.degrade,
        )
        for index in range(args.replicas)
    ]
    primary = servers[0]
    banner = {
        "command": "serve",
        "url": primary.url,
        "urls": [server.url for server in servers],
        "replicas": args.replicas,
        "store": str(store.root),
        "store_bytes": max_bytes,
        "tenants": tenants.to_dict()["policies"],
        "workers": primary.scheduler.num_workers,
        "pool_workers": (
            primary.scheduler.worker_pool.workers
            if primary.scheduler.worker_pool is not None
            else 0
        ),
    }
    if args.json:
        print(json.dumps(banner, indent=2), flush=True)
    else:
        for server in servers:
            print(
                f"job service listening on {server.url} "
                f"(store {store.root}, "
                f"{server.scheduler.num_workers} workers)",
                flush=True,
            )
    try:
        for server in servers[1:]:
            server.start()
        primary.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        for server in servers:
            server.close()
    return 0


def _print_job_document(document: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(document, indent=2))
        return
    state = document.get("state")
    print(f"job {document.get('job_id')}: {state}")
    timings = document.get("timings") or {}
    cache_hits = document.get("cache_hits") or {}
    for stage in ("cut", "evaluate", "query", "total"):
        if stage in timings:
            suffix = ""
            if stage in cache_hits:
                suffix = " (cache hit)" if cache_hits[stage] else " (computed)"
            print(f"  {stage}: {timings[stage]:.3f}s{suffix}")
    if document.get("error"):
        print(f"  error: {document['error']}")
    iterations = document.get("iterations") or []
    if iterations:
        latest = iterations[-1]
        print(
            f"  optimizer: {len(iterations)} iteration(s), "
            f"best <C> = {latest.get('best_cost', float('nan')):.4f}"
        )
    result = document.get("result")
    if result:
        if result.get("mode") == "variational":
            print(
                f"  variational: <C> {result['initial_cost']:.4f} -> "
                f"{result['best_cost']:.4f} over {result['iterations']} "
                f"SPSA iterations ({result['num_subcircuits']} subcircuits, "
                f"{result['num_cuts']} cuts)"
            )
            session = result.get("session") or {}
            if session:
                print(
                    "  reuse: "
                    f"{session.get('cut_cache_hits', 0)} cut hits, "
                    f"{session.get('subcircuit_evaluations', 0)} subcircuit "
                    "evaluations, "
                    f"{session.get('tensors_reused', 0)} tensors reused, "
                    f"{session.get('fusion_blocks_built', 0)}/"
                    f"{session.get('fusion_blocks_total', 0)} blocks rebuilt"
                )
        states = result.get("top_states") or result.get("solution_states") or []
        if states:
            print(f"  top states ({result.get('mode')}):")
            _print_states(states, indent="    ")


def _command_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClientError, request_json

    if bool(args.qasm_file) == bool(args.benchmark):
        print("error: pass either --benchmark/--qubits or --qasm-file",
              file=sys.stderr)
        return 2
    if args.benchmark and args.qubits is None:
        print("error: --benchmark needs --qubits", file=sys.stderr)
        return 2
    qasm = None
    if args.qasm_file:
        with open(args.qasm_file) as stream:
            qasm = stream.read()
    try:
        created = request_json(
            "POST", f"{args.url}/jobs",
            payload=_job_spec(args, qasm=qasm).to_dict(),
        )
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    job_id = created["job_id"]
    if not args.wait:
        if args.trace:
            print("note: --trace needs --wait; ignoring", file=sys.stderr)
        if args.json:
            print(json.dumps(created, indent=2))
        else:
            print(f"job {job_id}: {created['state']}")
        return 0

    import time as _time

    deadline = _time.monotonic() + args.timeout
    try:
        while True:
            document = request_json("GET", f"{args.url}/jobs/{job_id}")
            if document["state"] in ("done", "failed", "cancelled"):
                break
            if _time.monotonic() > deadline:
                print(f"error: job {job_id} still {document['state']!r} "
                      f"after {args.timeout}s", file=sys.stderr)
                return 1
            _time.sleep(0.05)
        if document["state"] != "done":
            _print_job_document(document, args.json)
            return 1
        result = request_json("GET", f"{args.url}/jobs/{job_id}/result")
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_job_document(result, args.json)
    if args.trace:
        try:
            traced = request_json("GET", f"{args.url}/jobs/{job_id}/trace")
        except ServiceClientError as error:
            print(f"error fetching trace: {error}", file=sys.stderr)
            return 1
        _print_trace_tree(traced["trace"], args.json)
    return 0


def _command_status(args: argparse.Namespace) -> int:
    from .service import ServiceClientError, request_json

    path = f"{args.url}/jobs/{args.job}"
    if args.result:
        path += "/result"
    try:
        document = request_json("GET", path)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_job_document(document, args.json)
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from .service import ServiceClientError, request_json

    try:
        listing = request_json("GET", f"{args.url}/jobs")
        stats = request_json("GET", f"{args.url}/stats")
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"jobs": listing["jobs"], "stats": stats}, indent=2))
        return 0
    for job in listing["jobs"]:
        spec = job.get("spec") or {}
        label = spec.get("benchmark") or "qasm"
        print(
            f"{job['job_id']}  {job['state']:<10} {label} "
            f"q={spec.get('qubits')} query={spec.get('query')} "
            f"tenant={job.get('tenant') or spec.get('tenant') or 'default'}"
        )
    by_state = stats["jobs"]["by_state"]
    cache = stats["cache"]
    print(
        f"{stats['jobs']['submitted']} jobs "
        f"({by_state.get('done', 0)} done, "
        f"{by_state.get('failed', 0)} failed); "
        f"cache hits cut={cache['stage_hits'].get('cut', 0)} "
        f"evaluate={cache['stage_hits'].get('evaluate', 0)}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cut": _command_cut,
        "run": _command_run,
        "dd": _command_dd,
        "devices": _command_devices,
        "serve": _command_serve,
        "submit": _command_submit,
        "status": _command_status,
        "jobs": _command_jobs,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro dd ... --json | head``): nothing
        # more can be written, so stop quietly, and stop the exit flush
        # from failing again.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CutSearchError as error:
        verdict = "proved infeasible" if error.proved else "not proved infeasible"
        print(f"cut search failed ({verdict}): {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
