"""In-memory spans recorded from the benchmark's side of each layer.

A span is ``{name, start, end, parent, job}``.  Stage calls the workload
already makes are wrapped in :meth:`Tracer.span`; hot public callables
(``BatchedStatevector.apply_matrix`` is called thousands of times a job)
get a timing wrapper from :func:`instrument` that folds every call under
the open span into one aggregated child ``{..., calls, aggregated}``
instead of one record per call.  Wrappers exist only inside the
``with instrument(...)`` block, so untraced cycles run unwrapped code.

Self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Records spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict] = []
        self._local = threading.local()  # one open-span stack per thread

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "job": job if parent is None else self.spans[parent]["job"],
        }
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, seconds: float, amount: float = 0.0) -> None:
        """Fold one timed call into the open span's aggregated child."""
        stack = self._stack()
        if not self.enabled or not stack:
            return
        parent = self.spans[stack[-1]]
        children = parent.setdefault("_aggregated", {})
        child = children.get(name)
        if child is None:
            child = children[name] = {
                "name": name,
                "start": parent["start"],
                "end": parent["start"],
                "parent": stack[-1],
                "job": parent["job"],
                "calls": 0,
                "amount": 0.0,
                "aggregated": True,
            }
            self.spans.append(child)
        child["end"] += seconds
        child["calls"] += 1
        child["amount"] += amount

    def drain(self) -> List[Dict]:
        """The finished spans, removed from the tracer."""
        spans, self.spans = self.spans, []
        for span in spans:
            span.pop("_aggregated", None)
        return spans


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Sequence[Dict]) -> List[float]:
    """Self time of each span: duration minus covered child time.

    Children that ran one after another or in parallel are covered by the
    union of their intervals, clipped to the parent; an aggregated child
    stands for many short calls and covers the sum of their durations.
    """
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    summed: Dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is None:
            continue
        if span.get("aggregated"):
            summed[parent] = summed.get(parent, 0.0) + span["end"] - span["start"]
        else:
            low, high = spans[parent]["start"], spans[parent]["end"]
            clipped = (max(span["start"], low), min(span["end"], high))
            if clipped[1] > clipped[0]:
                intervals.setdefault(parent, []).append(clipped)
    result = []
    for index, span in enumerate(spans):
        covered = _union_length(intervals.get(index, ())) + summed.get(index, 0.0)
        result.append(max(0.0, span["end"] - span["start"] - covered))
    return result


def fold(spans: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive ``seconds``, ``self`` seconds, ``calls``,
    ``amount``, and ``inner`` — self seconds of spans that have children,
    i.e. time no leaf accounts for."""
    has_child = {span["parent"] for span in spans if span["parent"] is not None}
    folded: Dict[str, Dict[str, float]] = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        entry = folded.setdefault(
            span["name"],
            {"seconds": 0.0, "self": 0.0, "inner": 0.0, "calls": 0, "amount": 0.0},
        )
        entry["seconds"] += span["end"] - span["start"]
        entry["self"] += own
        entry["calls"] += span.get("calls", 1)
        entry["amount"] += span.get("amount", 0.0)
        if index in has_child:
            entry["inner"] += own
    return folded


def _timed(tracer: Tracer, name: str, function, amount=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        began = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - began
            tracer.add(name, elapsed, amount(*args) if amount else 0.0)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Time the public callables below for the duration of the block.

    Functions are patched where their callers look them up: a module that
    did ``from x import f`` holds its own reference.
    """
    from repro import BatchedStatevector, ContractionEngine, CutSolution
    from repro.core import pipeline, variational
    from repro.devices import transpiler
    from repro.postprocess import plan, reconstruct
    from repro.sim import batch, noisy_batch

    def state_bytes(state, *_):
        # Computed, not measured: complex128 amplitudes of the whole batch.
        return float(state.batch_size * (16 << state.num_qubits))

    targets = [
        (pipeline, "find_cuts", "cutting.search", None),
        (CutSolution, "apply", "cutting.split", None),
        (BatchedStatevector, "apply_matrix", "sim.apply", state_bytes),
        (batch, "fuse_gates", "sim.fuse", None),
        (noisy_batch, "fuse_gates", "sim.fuse", None),
        (transpiler, "transpile", "devices.transpile", None),
        (reconstruct, "build_term_tensor", "postprocess.attribute", None),
        (plan, "build_term_tensor", "postprocess.attribute", None),
        (variational, "build_term_tensor", "postprocess.attribute", None),
        (ContractionEngine, "contract", "postprocess.contract", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    for owner, attr, name, amount in targets:
        setattr(owner, attr, _timed(tracer, name, getattr(owner, attr), amount))
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False
        for owner, attr, original in originals:
            setattr(owner, attr, original)
