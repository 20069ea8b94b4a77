"""Content-addressed on-disk artifact store for the job service.

Every expensive pipeline stage checkpoints its output here under a
*fingerprint* — a stable SHA-256 digest of everything that determines the
artifact's content:

* **cut artifacts** are keyed by ``(circuit, cut options)``
  (:func:`cut_fingerprint`): a repeat job with the same circuit and
  search budgets restores the :class:`~repro.cutting.CutSolution` /
  assignment and skips the MIP/heuristic cut search entirely;
* **evaluation artifacts** are keyed by ``(cut fingerprint, backend
  config, shots, seed)`` (:func:`evaluation_fingerprint`): a sibling job
  that shares the cut and backend restores every
  :class:`~repro.cutting.SubcircuitResult` tensor and skips variant
  execution.

Artifacts are a JSON metadata file plus (for evaluations) an ``.npz``
tensor payload.  Both carry SHA-256 checksums; a corrupted or truncated
artifact is *detected on load*, counted, deleted, and reported as a miss
so the scheduler transparently recomputes it rather than serving garbage.

Fingerprints are order-insensitive where identity is order-insensitive:
option dictionaries hash the same regardless of key order, and explicit
cut-point lists hash as a sorted set.  Gate order naturally *does*
matter — it changes the circuit.

Parameter invariance: cut artifacts are keyed by the circuit's
*structure* (:func:`structural_digest` — gate names and qubits, rotation
angles masked), because the cut search never looks at angles.  A
variational rebind therefore hits the cut cache on every iteration.
Evaluation artifacts, whose tensors *do* depend on the angles, digest the
bound parameter values at full double precision so rebinds never collide.
Both tags are versioned (``cut:v2`` / ``evaluation:v2``): artifacts
written under the pre-variational semantics simply become unreachable and
recompute.

Bounded mode: constructed with ``max_bytes`` the store enforces an LRU
byte budget over cut + evaluation artifacts.  Every hit touches the
artifact's mtime (cross-process recency); every write triggers
:meth:`ArtifactStore.enforce_budget`, which evicts least-recently-used
fingerprints until the footprint fits.  Artifacts *pinned* by a live job
(:meth:`pin` drops a marker file carrying the pinning pid) are never
evicted; markers whose pid died are garbage-collected on the next
eviction pass.  Evictions feed ``repro_store_evictions_total``.

Resident tier: ``get_cut`` / ``get_evaluation`` keep the objects they
verified and restored in a small byte-bounded LRU keyed by fingerprint,
and serve them while ``stat`` shows the same files.  Content addressing
makes that coherent — a resident copy can be gone, never stale.

The store also persists terminal job documents (``jobs/results/``) so a
restarted or peer scheduler can serve ``GET /jobs/<id>/result`` for jobs
it never executed; the job journal itself lives under ``jobs/`` too (see
:mod:`repro.service.journal`).  Neither counts toward the LRU budget —
the budget bounds the recomputable cache, not the job ledger.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import chaos
from ..circuits import QuantumCircuit
from ..cutting import CutCircuit, CutSolution, SubcircuitResult
from ..cutting.cutter import cut_circuit_from_assignment
from ..obs.metrics import get_registry

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "circuit_digest",
    "structural_digest",
    "cut_fingerprint",
    "evaluation_fingerprint",
]

#: Bump when the on-disk layout changes; mismatched artifacts are misses.
_FORMAT_VERSION = 1
#: Bound of the resident tier: verified, restored artifacts kept in memory
#: in front of the disk files, least recently used out first.
_RESIDENT_MAX_BYTES = 32 * 1024 * 1024
_RESIDENT_MAX_ENTRIES = 64

# Process-wide mirrors of the per-instance StoreStats counters: every
# store feeds the same registry series, so ``GET /metrics`` reflects
# lifetime totals regardless of how many stores a process created.
_STORE_HITS = get_registry().counter(
    "repro_store_hits_total", "Artifact-store cache hits by kind.", ("kind",)
)
_STORE_MISSES = get_registry().counter(
    "repro_store_misses_total",
    "Artifact-store cache misses by kind.",
    ("kind",),
)
_STORE_RESIDENT_HITS = get_registry().counter(
    "repro_store_resident_hits_total",
    "Store hits served from the resident tier (no parse), by kind.",
    ("kind",),
)
_STORE_RESIDENT_BYTES = get_registry().gauge(
    "repro_store_resident_bytes",
    "Bytes charged to the resident tier of the store that last changed it.",
)
_STORE_CORRUPT = get_registry().counter(
    "repro_store_corrupt_total", "Artifacts that failed verification."
)
_STORE_WRITES = get_registry().counter(
    "repro_store_writes_total", "Artifacts written."
)
_STORE_EVICTIONS = get_registry().counter(
    "repro_store_evictions_total",
    "Artifacts evicted by the LRU byte-budget enforcer, by kind.",
    ("kind",),
)
_STORE_EVICTED_BYTES = get_registry().counter(
    "repro_store_evicted_bytes_total",
    "Bytes reclaimed by LRU eviction.",
)
_STORE_BYTES = get_registry().gauge(
    "repro_store_bytes",
    "Cache footprint (cut + evaluation artifacts) of the most recently "
    "written-to bounded store.",
)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def _canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload) -> str:
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def circuit_digest(circuit: QuantumCircuit) -> str:
    """Stable content hash of a circuit (width + exact gate list).

    Parameters are hashed at full double precision (``float.hex``), so
    two circuits digest equal iff they are gate-for-gate bit-identical.
    """
    return _digest(
        {
            "num_qubits": circuit.num_qubits,
            "gates": [
                [gate.name, list(gate.qubits),
                 [float(p).hex() for p in gate.params]]
                for gate in circuit
            ],
        }
    )


def structural_digest(circuit: QuantumCircuit) -> str:
    """Stable content hash of a circuit's *structure* (angles masked).

    Two circuits digest equal iff they have the same width and the same
    ``(name, qubits)`` gate sequence — i.e. iff one is a parameter rebind
    of the other.  Every cut-level artifact is keyed on this digest so
    variational rebinds reuse the cut.
    """
    return _digest(
        {
            "num_qubits": circuit.num_qubits,
            "gates": [
                [gate.name, list(gate.qubits)] for gate in circuit
            ],
        }
    )


def _params_hex(params: Sequence[float]) -> List[str]:
    return [float(p).hex() for p in params]


def _canonical_options(options: Dict) -> Dict:
    """Normalize a cut-option dict: drop Nones, sort explicit cut sets."""
    canonical = {}
    for key, value in options.items():
        if value is None:
            continue
        if key == "cuts":
            # Explicit cut points are a *set* of (wire, index) pairs —
            # submission order does not change the cut.
            canonical[key] = sorted([int(w), int(i)] for w, i in value)
        else:
            canonical[key] = value
    return canonical


def cut_fingerprint(circuit: QuantumCircuit, options: Dict) -> str:
    """Fingerprint of ``(circuit, cut options)`` — the cut-artifact key.

    ``options`` is the canonical cut-search option dict (device budget,
    subcircuit/cut limits, method, optional explicit cuts).  Key order is
    irrelevant; ``None`` values are treated as absent.

    The digest is **parameter-invariant** (``cut:v2``): it hashes the
    circuit's structure, not its rotation angles, because the cut search
    only sees connectivity.  Rebinding parameters keeps the key stable.
    """
    return _digest(
        {
            "kind": "cut:v2",
            "circuit": structural_digest(circuit),
            "options": _canonical_options(options),
        }
    )


def evaluation_fingerprint(
    cut_key: str,
    backend: str = "statevector",
    shots: Optional[int] = None,
    seed: Optional[int] = None,
    config: Optional[Dict] = None,
    params: Optional[Sequence[float]] = None,
) -> str:
    """Fingerprint of ``(cut, params, backend config, shots, seed)`` — the
    evaluation-artifact key.  ``backend`` is a config *tag*, not a
    callable; the scheduler's tags are versioned (e.g.
    ``"statevector:batched:v3"``, ``"device:bogota:trajectory:batched:v3"``)
    so artifacts produced by older evaluation semantics recompute
    instead of silently colliding.  ``config`` holds extra
    result-shaping knobs (e.g. trajectory counts); it enters the digest
    only when set, keeping historical unversioned keys stable.

    ``params`` are the circuit's **bound parameter values** (the flat
    tuple :meth:`QuantumCircuit.parameters` produces), hashed at full
    double precision.  The cut key above is parameter-invariant, so the
    angles must enter here — otherwise two rebinds of one circuit would
    collide on the same evaluation artifact.  The tag is versioned
    (``evaluation:v2``) so artifacts written under the old
    parameter-blind semantics recompute.
    """
    payload = {
        "kind": "evaluation:v2",
        "cut": cut_key,
        "backend": backend,
        "shots": shots,
        "seed": seed,
        "params": _params_hex(params if params is not None else ()),
    }
    if config is not None:
        payload["config"] = config
    return _digest(payload)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class StoreStats:
    """Hit/miss/corruption counters, reported via ``/stats``."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    hits_by_kind: Dict[str, int] = field(default_factory=dict)
    misses_by_kind: Dict[str, int] = field(default_factory=dict)
    #: The resident tier: hits it served, what it holds now.
    resident_hits: int = 0
    resident_entries: int = 0
    resident_bytes: int = 0

    def _count(self, table: Dict[str, int], kind: str) -> None:
        table[kind] = table.get(kind, 0) + 1

    def as_dict(self) -> Dict:
        return asdict(self)


class ArtifactStore:
    """Content-addressed store of cut solutions and evaluated tensors.

    Layout (under ``root``)::

        cuts/<fingerprint>.json          assignment + priced solution
        evaluations/<fingerprint>.json   variant key map + checksums
        evaluations/<fingerprint>.npz    unique variant tensors
        pins/<kind>-<key>@<pid>          live-job pin markers (budgeted stores)
        jobs/results/<job_id>.json       terminal job documents
        jobs/journal.jsonl, jobs/claims/ the job journal (journal.py)

    Thread-safety: writes go through an atomic rename, and loads verify
    checksums, so concurrent scheduler workers can share one store —
    the worst case for a racing write is recomputing one artifact.

    With ``max_bytes`` set the cut/evaluation footprint is bounded:
    writes evict least-recently-used unpinned fingerprints until the
    budget holds (see the module docstring).
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._cuts = self.root / "cuts"
        self._evaluations = self.root / "evaluations"
        self._traces = self.root / "traces"
        self._pins_dir = self.root / "pins"
        self._jobs = self.root / "jobs" / "results"
        self._cuts.mkdir(parents=True, exist_ok=True)
        self._evaluations.mkdir(parents=True, exist_ok=True)
        self._traces.mkdir(parents=True, exist_ok=True)
        self._pins_dir.mkdir(parents=True, exist_ok=True)
        self._jobs.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        self._stats_lock = threading.Lock()
        self._pin_lock = threading.Lock()
        self._pins: Dict[str, int] = {}
        self._evict_lock = threading.Lock()
        #: Resident tier, LRU first: (kind, key) -> (stamp, value, bytes).
        self._resident: "OrderedDict[Tuple[str, str], Tuple]" = OrderedDict()
        self._resident_lock = threading.Lock()

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        # Chaos hook: may raise an injected OSError or corrupt the
        # payload (checksums are computed upstream over the original
        # content, so corruption surfaces on the next read).
        data = chaos.on_store_write(data)
        handle, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _hit(self, kind: str, value, *paths: Path, resident: bool = False):
        """Count a hit, refresh the files' recency, hand ``value`` back."""
        with self._stats_lock:
            self.stats.hits += 1
            self.stats._count(self.stats.hits_by_kind, kind)
            self.stats.resident_hits += resident
        _STORE_HITS.inc(kind=kind)
        if resident:
            _STORE_RESIDENT_HITS.inc(kind=kind)
        self._touch(*paths)
        return value

    def _record_miss(self, kind: str, corrupt: bool = False) -> None:
        with self._stats_lock:
            self.stats.misses += 1
            self.stats._count(self.stats.misses_by_kind, kind)
            if corrupt:
                self.stats.corrupt += 1
        _STORE_MISSES.inc(kind=kind)
        if corrupt:
            _STORE_CORRUPT.inc()

    def _record_write(self) -> None:
        with self._stats_lock:
            self.stats.writes += 1
        _STORE_WRITES.inc()

    def _put_sealed(self, path: Path, kind: str, key: str, payload: Dict) -> Path:
        """Write an artifact's metadata in its checksummed envelope, then
        hold the byte budget (never evicting what was just written)."""
        document = {
            "version": _FORMAT_VERSION,
            "kind": kind,
            "fingerprint": key,
            "payload": payload,
            "checksum": _digest(payload),
        }
        self._write_atomic(path, (json.dumps(document, indent=2) + "\n").encode())
        self._record_write()
        self.enforce_budget(protect=key)
        return path

    @staticmethod
    def _unsealed(text: str) -> Dict:
        """The payload of an envelope whose version and checksum hold."""
        document = json.loads(text)
        payload = document["payload"]
        if (
            document.get("version") != _FORMAT_VERSION
            or document.get("checksum") != _digest(payload)
        ):
            raise ValueError("artifact failed verification")
        return payload

    @staticmethod
    def _discard(*paths: Path) -> None:
        """Remove corrupt artifact files so the slot self-heals."""
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass

    # -- resident tier ---------------------------------------------------
    @staticmethod
    def _stamp(*paths: Path) -> Optional[Tuple]:
        """``(inode, size)`` per file, ``None`` if one is missing: what the
        files of a resident artifact must still show for it to be served
        (eviction, ``_discard`` or a rewrite by anyone ends residency)."""
        try:
            return tuple((s.st_ino, s.st_size) for s in map(os.stat, paths))
        except OSError:
            return None

    def _resident_value(self, kind: str, key: str, stamp: Tuple):
        with self._resident_lock:
            held = self._resident.get((kind, key))
            if held is None or held[0] != stamp:
                return None
            self._resident.move_to_end((kind, key))
            return held[1]

    def _resident_set(self, kind: str, key: str, entry=None) -> None:
        """Admit ``entry = (stamp, value, bytes)`` — or, without one, end
        the key's residency — and hold the tier to its bound."""
        with self._resident_lock:
            self._resident.pop((kind, key), None)
            if entry is not None:
                self._resident[(kind, key)] = entry
            total = sum(held[2] for held in self._resident.values())
            while self._resident and (
                total > _RESIDENT_MAX_BYTES
                or len(self._resident) > _RESIDENT_MAX_ENTRIES
            ):
                total -= self._resident.popitem(last=False)[1][2]
            self.stats.resident_entries = len(self._resident)
            self.stats.resident_bytes = total
        _STORE_RESIDENT_BYTES.set(float(total))

    @staticmethod
    def _touch(*paths: Path) -> None:
        """Refresh mtimes — the cross-process LRU recency signal."""
        for path in paths:
            try:
                os.utime(path, None)
            except OSError:
                pass

    # -- pinning (LRU eviction protection) ------------------------------
    @staticmethod
    def _pin_token(kind: str, key: str) -> str:
        return f"{kind}-{key}"

    def pin(self, kind: str, key: str) -> None:
        """Protect an artifact from eviction while a live job uses it.

        Pins are reference-counted in-process and, by a store that has a
        byte budget (only such a store ever evicts), mirrored as a marker
        file carrying this pid, so N budgeted servers sharing one store
        dir see each other's pins; markers of dead pids are swept lazily.
        """
        token = self._pin_token(kind, key)
        with self._pin_lock:
            count = self._pins.get(token, 0)
            self._pins[token] = count + 1
            if count == 0 and self.max_bytes is not None:
                try:
                    (self._pins_dir / f"{token}@{os.getpid()}").touch()
                except OSError:
                    pass

    def unpin(self, kind: str, key: str) -> None:
        token = self._pin_token(kind, key)
        with self._pin_lock:
            count = self._pins.get(token, 0) - 1
            if count > 0:
                self._pins[token] = count
                return
            self._pins.pop(token, None)
            if self.max_bytes is not None:
                self._discard(self._pins_dir / f"{token}@{os.getpid()}")

    def pinned_tokens(self) -> set:
        """Tokens pinned by any live process (dead-pid markers swept)."""
        from .journal import pid_alive

        tokens = set()
        try:
            markers = list(self._pins_dir.iterdir())
        except OSError:
            markers = []
        for marker in markers:
            token, _, pid_text = marker.name.rpartition("@")
            if not token:
                continue
            try:
                holder = int(pid_text)
            except ValueError:
                holder = None
            if pid_alive(holder):
                tokens.add(token)
            else:
                self._discard(marker)
        with self._pin_lock:
            tokens.update(self._pins)
        return tokens

    # -- LRU budget enforcement -----------------------------------------
    def _entries(self):
        """Every evictable artifact: (kind, key, paths, bytes, mtime)."""
        entries = []
        for meta in self._cuts.glob("*.json"):
            try:
                stat = meta.stat()
            except OSError:
                continue
            entries.append(
                ("cut", meta.stem, (meta,), stat.st_size, stat.st_mtime)
            )
        for meta in self._evaluations.glob("*.json"):
            paths = [meta]
            size = 0
            newest = 0.0
            tensors = meta.with_suffix(".npz")
            if tensors.exists():
                paths.append(tensors)
            try:
                for path in paths:
                    stat = path.stat()
                    size += stat.st_size
                    newest = max(newest, stat.st_mtime)
            except OSError:
                continue
            entries.append(
                ("evaluation", meta.stem, tuple(paths), size, newest)
            )
        return entries

    def total_bytes(self) -> int:
        """Current cut + evaluation footprint in bytes."""
        return sum(entry[3] for entry in self._entries())

    def enforce_budget(self, protect: Optional[str] = None) -> List[str]:
        """Evict LRU artifacts until the footprint fits ``max_bytes``.

        ``protect`` names a fingerprint that must survive this pass (the
        artifact just written — even when it alone exceeds the budget,
        evicting it would turn every write into a thrash cycle).  Pinned
        artifacts are always skipped.  Returns the evicted fingerprints.
        """
        if self.max_bytes is None:
            return []
        with self._evict_lock:
            entries = self._entries()
            total = sum(entry[3] for entry in entries)
            _STORE_BYTES.set(float(total))
            if total <= self.max_bytes:
                return []
            pinned = self.pinned_tokens()
            evicted: List[str] = []
            for kind, key, paths, size, _ in sorted(
                entries, key=lambda entry: entry[4]
            ):
                if total <= self.max_bytes:
                    break
                if key == protect or self._pin_token(kind, key) in pinned:
                    continue
                self._discard(*paths)
                total -= size
                evicted.append(key)
                with self._stats_lock:
                    self.stats.evictions += 1
                    self.stats.evicted_bytes += size
                _STORE_EVICTIONS.inc(kind=kind)
                _STORE_EVICTED_BYTES.inc(size)
            _STORE_BYTES.set(float(total))
            return evicted

    # -- cut artifacts --------------------------------------------------
    def cut_path(self, key: str) -> Path:
        return self._cuts / f"{key}.json"

    def has_cut(self, key: str) -> bool:
        return self.cut_path(key).exists()

    def put_cut(
        self,
        key: str,
        circuit: QuantumCircuit,
        cut_circuit: CutCircuit,
        solution: Optional[CutSolution] = None,
    ) -> Path:
        """Persist a cut: the assignment (enough to re-derive every
        subcircuit deterministically) plus the priced solution if the
        search produced one.  The artifact records the *structural*
        digest — any parameter rebind of ``circuit`` restores it."""
        payload = {
            "assignment": list(cut_circuit.assignment),
            "num_cuts": cut_circuit.num_cuts,
            "structure": structural_digest(circuit),
            "solution": solution.to_dict() if solution is not None else None,
        }
        return self._put_sealed(self.cut_path(key), "cut", key, payload)

    def get_cut(
        self, key: str, circuit: QuantumCircuit
    ) -> Optional[Tuple[CutCircuit, Optional[CutSolution]]]:
        """Restore a cut for ``circuit``; ``None`` on miss or corruption."""
        chaos.on_store_read("cut")
        path = self.cut_path(key)
        stamp = self._stamp(path)
        if stamp is None:
            self._resident_set("cut", key)
            self._record_miss("cut")
            return None
        asked = (structural_digest(circuit), circuit.parameters())
        held = self._resident_value("cut", key, stamp)
        # The key is parameter-invariant: a rebind of the same structure
        # must not be served another binding's subcircuits.
        if held is not None and held[1] == asked:
            return self._hit("cut", held[0], path, resident=True)
        try:
            text = path.read_text()
            payload = self._unsealed(text)
            if payload.get("structure") != asked[0]:
                raise ValueError("cut artifact is for another circuit")
            assignment = [int(a) for a in payload["assignment"]]
            restored = cut_circuit_from_assignment(circuit, assignment)
            if restored.num_cuts != int(payload["num_cuts"]):
                raise ValueError("restored cut disagrees with metadata")
            solution = (
                CutSolution.from_dict(payload["solution"])
                if payload.get("solution") is not None
                else None
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError):
            self._record_miss("cut", corrupt=True)
            self._discard(path)
            self._resident_set("cut", key)
            return None
        held = ((restored, solution), asked)
        self._resident_set("cut", key, (stamp, held, len(text)))
        return self._hit("cut", held[0], path)

    # -- evaluation artifacts -------------------------------------------
    def evaluation_path(self, key: str) -> Tuple[Path, Path]:
        return (
            self._evaluations / f"{key}.json",
            self._evaluations / f"{key}.npz",
        )

    def put_evaluation(
        self, key: str, results: Sequence[SubcircuitResult]
    ) -> Path:
        """Persist evaluated subcircuit results, as compact as they are.

        An exact result stores its ``(2^rho, 2^width)`` amplitudes as
        ``amp{position}``, never the variant distributions they stand for;
        any other result stores its ``(4^rho, 3^O, 2^width)``
        distributions as ``dist{position}``.
        """
        arrays: Dict[str, np.ndarray] = {}
        meta_subcircuits: List[Dict] = []
        for position, result in enumerate(results):
            meta_subcircuits.append({
                "index": result.subcircuit.index,
                "width": result.subcircuit.width,
                "num_variants": result.num_variants,
                "num_unique_circuits": result.num_unique_circuits,
                "mode": result.mode,
                "num_body_passes": result.num_body_passes,
            })
            if result.amplitudes is not None:
                arrays[f"amp{position}"] = result.amplitudes
            else:
                arrays[f"dist{position}"] = result.distributions

        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        tensor_bytes = buffer.getvalue()
        payload = {
            "subcircuits": meta_subcircuits,
            "tensors_sha256": hashlib.sha256(tensor_bytes).hexdigest(),
        }
        meta_path, tensor_path = self.evaluation_path(key)
        self._write_atomic(tensor_path, tensor_bytes)
        return self._put_sealed(meta_path, "evaluation", key, payload)

    def get_evaluation(
        self, key: str, cut_circuit: CutCircuit
    ) -> Optional[List[SubcircuitResult]]:
        """Restore the evaluated tensors of ``cut_circuit``'s subcircuits,
        bit-identical to what was stored; ``None`` on miss or corruption."""
        chaos.on_store_read("evaluation")
        meta_path, tensor_path = self.evaluation_path(key)
        stamp = self._stamp(meta_path, tensor_path)
        if stamp is None:
            self._resident_set("evaluation", key)
            self._record_miss("evaluation")
            return None
        held = self._resident_value("evaluation", key, stamp)
        # Results belong to the subcircuit *objects* of one restored cut.
        if held is not None and [id(r.subcircuit) for r in held] == [
            id(subcircuit) for subcircuit in cut_circuit.subcircuits
        ]:
            return self._hit(
                "evaluation", list(held), meta_path, tensor_path, resident=True
            )
        try:
            payload = self._unsealed(meta_path.read_text())
            tensor_bytes = tensor_path.read_bytes()
            if (
                hashlib.sha256(tensor_bytes).hexdigest()
                != payload["tensors_sha256"]
            ):
                raise ValueError("evaluation tensors failed checksum")
            meta_subcircuits = payload["subcircuits"]
            if len(meta_subcircuits) != cut_circuit.num_subcircuits:
                raise ValueError("artifact does not match the cut")
            with np.load(io.BytesIO(tensor_bytes)) as archive:
                results: List[SubcircuitResult] = []
                for position, meta in enumerate(meta_subcircuits):
                    subcircuit = cut_circuit.subcircuits[position]
                    if (
                        int(meta["index"]) != subcircuit.index
                        or int(meta["width"]) != subcircuit.width
                    ):
                        raise ValueError("artifact does not match the cut")
                    if f"amp{position}" in archive.files:
                        name, dtype = "amplitudes", complex
                        array = archive[f"amp{position}"]
                        shape = (1 << len(subcircuit.init_lines),
                                 1 << subcircuit.width)
                    else:  # a KeyError when absent: corrupt
                        name, dtype = "distributions", float
                        array = archive[f"dist{position}"]
                        shape = (4 ** len(subcircuit.init_lines),
                                 3 ** len(subcircuit.meas_lines),
                                 1 << subcircuit.width)
                    if (array.shape, array.dtype) != (shape, dtype):
                        raise ValueError(f"{name} shape/dtype mismatch")
                    data = {name: array}
                    results.append(
                        SubcircuitResult(
                            subcircuit=subcircuit,
                            num_variants=int(meta["num_variants"]),
                            num_unique_circuits=int(
                                meta["num_unique_circuits"]
                            ),
                            # Absent in pre-batched artifacts.
                            mode=str(meta.get("mode", "backend")),
                            num_body_passes=int(
                                meta.get("num_body_passes", 0)
                            ),
                            **data,
                        )
                    )
        except (KeyError, TypeError, ValueError, IndexError,
                json.JSONDecodeError, OSError, zipfile.BadZipFile):
            self._record_miss("evaluation", corrupt=True)
            self._discard(meta_path, tensor_path)
            self._resident_set("evaluation", key)
            return None
        # Charged for what it will hold once queried: the payload plus the
        # (4^cuts, 2^effective) term-tensor memo each result grows.
        size = len(tensor_bytes) + sum(
            4 ** (len(sub.init_lines) + len(sub.meas_lines))
            * (8 << sub.num_effective)
            for sub in cut_circuit.subcircuits
        )
        self._resident_set("evaluation", key, (stamp, tuple(results), size))
        return self._hit("evaluation", results, meta_path, tensor_path)

    # -- trace artifacts ------------------------------------------------
    def trace_path(self, job_id: str) -> Path:
        return self._traces / f"{job_id}.json"

    def _put_json(self, path: Path, document: Dict) -> Path:
        """One compact line: these are read by programs, once or never."""
        text = json.dumps(document, separators=(",", ":"))
        self._write_atomic(path, (text + "\n").encode())
        self._record_write()
        return path

    def _get_json(self, path: Path) -> Optional[Dict]:
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (ValueError, OSError):
            self._discard(path)
            return None

    def put_trace(self, job_id: str, document: Dict) -> Path:
        """Persist a job's span tree (keyed by job id, not content)."""
        return self._put_json(self.trace_path(job_id), document)

    def get_trace(self, job_id: str) -> Optional[Dict]:
        """Restore a job's span tree; ``None`` if absent or unreadable."""
        return self._get_json(self.trace_path(job_id))

    # -- job documents (terminal job records, keyed by job id) ----------
    def job_document_path(self, job_id: str) -> Path:
        return self._jobs / f"{job_id}.json"

    def put_job_document(self, job_id: str, document: Dict) -> Path:
        """Persist a terminal job record so any server can serve its
        status/result after a restart (not LRU-budgeted)."""
        return self._put_json(self.job_document_path(job_id), document)

    def get_job_document(self, job_id: str) -> Optional[Dict]:
        return self._get_json(self.job_document_path(job_id))

    # -- reporting ------------------------------------------------------
    def artifact_counts(self) -> Dict[str, int]:
        return {
            "cuts": len(list(self._cuts.glob("*.json"))),
            "evaluations": len(list(self._evaluations.glob("*.json"))),
            "traces": len(list(self._traces.glob("*.json"))),
        }

    def as_dict(self) -> Dict:
        return {
            "root": str(self.root),
            "artifacts": self.artifact_counts(),
            "max_bytes": self.max_bytes,
            "bytes": self.total_bytes(),
            **self.stats.as_dict(),
        }
