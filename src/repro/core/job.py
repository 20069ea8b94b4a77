"""One CutQC job: a :class:`JobSpec` and :func:`run_query`, its answer.

The service's scheduler and the CLI's ``run`` and ``dd`` both answer
through :func:`run_query`, so one spec gets one ``result`` (timings
aside) whichever runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..circuits import QuantumCircuit
from ..circuits.qasm import from_qasm
from ..library import BENCHMARKS, get_benchmark
from ..utils import check_count, top_states
from .config import RunConfig
from .pipeline import CutQC

__all__ = ["DEFAULT_TENANT", "QUERY_TYPES", "JobSpec", "run_query"]

#: The tenant of a job that names none.
DEFAULT_TENANT = "default"
QUERY_TYPES = ("fd", "dd", "top_k", "variational")


@dataclass
class JobSpec:
    """Everything that defines one job: circuit, cut budget, query.

    The circuit is addressed either by library name (``benchmark`` +
    ``qubits`` [+ ``seed``]) or as inline OpenQASM (``qasm``).
    """

    device_size: int
    benchmark: Optional[str] = None
    qubits: Optional[int] = None
    qasm: Optional[str] = None
    #: The library generator's seed; it also roots the noise streams.
    seed: int = 0
    #: Submitting tenant — the unit of fair scheduling and quotas.
    tenant: str = DEFAULT_TENANT
    max_subcircuits: int = RunConfig.max_subcircuits
    max_cuts: int = RunConfig.max_cuts
    method: str = RunConfig.method
    # query --------------------------------------------------------------
    query: str = "fd"
    top: int = 5
    active: int = 2
    recursions: int = 8
    zoom_width: int = 1
    threshold: float = 0.25
    shard_qubits: Optional[int] = None
    # variational (query == "variational", benchmark == "qaoa") ----------
    iterations: int = 20
    layers: int = 1
    #: MaxCut instance: ``degree``-regular random graph on ``qubits``
    #: nodes (``0`` = the default ring graph).
    degree: int = 3
    # execution (see RunConfig; ``shots`` is its ``device_shots``) --------
    device: Optional[str] = RunConfig.device
    shots: Optional[int] = RunConfig.device_shots
    strategy: str = RunConfig.strategy
    trajectories: int = RunConfig.trajectories
    noisy_method: str = RunConfig.noisy_method

    def validate(self) -> None:
        if (self.benchmark is None) == (self.qasm is None):
            raise ValueError(
                "address the circuit by benchmark name or inline qasm "
                "(exactly one)"
            )
        if self.benchmark is not None:
            if self.benchmark not in BENCHMARKS:
                raise ValueError(
                    f"unknown benchmark {self.benchmark!r}; "
                    f"expected one of {BENCHMARKS}"
                )
            check_count("qubits", self.qubits, 2)
        if (
            not isinstance(self.tenant, str)
            or not 0 < len(self.tenant) <= 64
            or not all(c.isalnum() or c in "._-" for c in self.tenant)
        ):
            raise ValueError(
                "tenant must be 1-64 chars of [A-Za-z0-9._-]"
            )
        if self.query not in QUERY_TYPES:
            raise ValueError(
                f"unknown query type {self.query!r}; "
                f"expected one of {QUERY_TYPES}"
            )
        least = 1 if self.query == "dd" else 0
        check_count("active", self.active, least)
        check_count("recursions", self.recursions, least)
        check_count("zoom_width", self.zoom_width, 1)
        if self.query == "variational":
            if self.benchmark != "qaoa":
                raise ValueError(
                    "variational jobs run the server-side MaxCut optimizer "
                    "and require benchmark='qaoa'"
                )
            check_count("iterations", self.iterations, 1)
            check_count("layers", self.layers, 1)
            check_count("degree", self.degree)  # 0 = the ring graph
            if self.degree:
                if self.degree >= self.qubits:
                    raise ValueError("degree must be smaller than qubits")
                if (self.degree * self.qubits) % 2:
                    raise ValueError("degree * qubits must be even")
        # Inline QASM has no width until parsed: the reconstructor checks
        # its upper bound at query time.
        width = self.qubits if self.benchmark is not None else float("inf")
        shard = self.shard_qubits
        if shard is not None and check_count("shard_qubits", shard) > width:
            raise ValueError(
                f"shard_qubits must be in [0, qubits], got {self.shard_qubits}"
            )
        check_count("top", self.top, 1)
        threshold = self.threshold
        if isinstance(threshold, bool) or not isinstance(
            threshold, (int, float)
        ) or not 0 <= threshold <= 1:
            raise ValueError(
                f"threshold must be a number in [0, 1], got {threshold!r}"
            )
        try:
            self.run_config()
        except ValueError as error:
            # The wire calls the cut budget device_size.
            raise ValueError(
                str(error).replace("max_subcircuit_qubits", "device_size")
            ) from None

    # ------------------------------------------------------------------
    def build_circuit(self) -> QuantumCircuit:
        if self.qasm is not None:
            return from_qasm(self.qasm)
        kwargs = {}
        if self.benchmark in ("supremacy", "adder"):
            kwargs["seed"] = self.seed
        elif self.benchmark == "qaoa":
            kwargs["seed"] = self.seed
            kwargs["layers"] = self.layers
            kwargs["edges"] = self.qaoa_edges()
        return get_benchmark(self.benchmark, self.qubits, **kwargs)

    def qaoa_edges(self) -> List:
        """The MaxCut instance this spec optimizes over."""
        from ..library.qaoa import random_regular_graph, ring_graph

        if self.degree:
            return random_regular_graph(
                self.qubits, degree=self.degree, seed=self.seed
            )
        return ring_graph(self.qubits)

    def run_config(self) -> RunConfig:
        """The :class:`~repro.core.config.RunConfig` of every pipeline
        this job drives (a :class:`~repro.core.CutQC` or a
        ``VariationalSession``): the same-named fields, plus the cut
        budget ``device_size`` and the ``shots`` per variant."""
        return RunConfig.of(
            self, max_subcircuit_qubits=self.device_size, device_shots=self.shots
        )

    def to_dict(self) -> Dict:
        # Every field is a scalar: no need for asdict's deep copy.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobSpec":
        # Older journals (and clients) carry a per-job ``workers``,
        # ``sim_batch`` or ``fusion_width``: drop them at any value so
        # those jobs replay instead of being skipped.
        retired = ("workers", "sim_batch", "fusion_width")
        payload = {k: v for k, v in payload.items() if k not in retired}
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        if "device_size" not in payload:
            raise ValueError("device_size is required")
        return cls(**payload)


def _states(pairs) -> List[Dict]:
    return [
        {"state": bits, "probability": probability}
        for bits, probability in pairs
    ]


def run_query(pipeline: CutQC, spec: JobSpec) -> Dict:
    """Answer ``spec``'s ``fd``, ``dd`` or ``top_k`` query on ``pipeline``.

    The result is JSON-ready and carries no array.  Only
    ``elapsed_seconds``, DD's ``stats`` and top-k's ``stream`` hold
    timings; every other value is a function of the spec.
    """
    num_qubits = pipeline.circuit.num_qubits
    cut = pipeline.cut()
    base = {
        "num_qubits": num_qubits,
        "num_cuts": cut.num_cuts,
        "num_subcircuits": cut.num_subcircuits,
    }
    if spec.query == "fd":
        result = pipeline.fd_query()
        stats = result.stats
        return {
            **base,
            "mode": "fd",
            "strategy": stats.strategy,
            "num_terms": stats.num_terms,
            "num_skipped": stats.num_skipped,
            "elapsed_seconds": stats.elapsed_seconds,
            "top_states": _states(
                top_states(result.probabilities, spec.top, num_qubits)
            ),
        }
    if spec.query == "dd":
        query = pipeline.dd_query(
            max_active_qubits=spec.active,
            max_recursions=spec.recursions,
            zoom_width=spec.zoom_width,
        )
        states = query.solution_states(threshold=spec.threshold)
        return {
            **base,
            "mode": "dd",
            "stats": query.stats().as_dict(),
            "recursions": [
                {
                    "index": recursion.index,
                    "fixed": {str(w): b for w, b in recursion.fixed.items()},
                    "active": list(recursion.active),
                    "max_bin_probability": float(
                        recursion.probabilities.max()
                    ),
                }
                for recursion in query.recursions
            ],
            "solution_states": _states(states[: spec.top]),
        }
    # top_k: streamed, bounded-memory
    shard_qubits = spec.shard_qubits
    if shard_qubits is None:
        shard_qubits = max(1, min(num_qubits - 1, num_qubits // 2))
    states = pipeline.fd_top_k(shard_qubits, spec.top)
    stream_stats = pipeline.stream_stats
    return {
        **base,
        "mode": "top_k",
        "shard_qubits": shard_qubits,
        "stream": stream_stats.as_dict() if stream_stats else None,
        "top_states": _states(states),
    }
