"""One bounded memo for every process-wide memo.

* :class:`repro.utils.BoundedMemo`: the entry bound, the byte bound, the
  LRU order, exact counters that outlive the memo in
  :func:`repro.utils.memo_stats`, and a raced key's last insert winning;
* a 6-thread stress test at a 1 us switch interval: bounds hold, every
  lookup is counted once and every value is the one built for its key
  (a concurrent eviction is never an error);
* an AST guard: ``src/repro`` keeps no LRU of its own outside the memo,
  bar the two resource tiers with their own eviction duties;
* :attr:`Subcircuit.body_key`: hashed once, compared by content.
"""

import ast
import gc
import os
import pathlib
import pickle
import signal
import sys
import threading

import numpy as np

import repro
from repro import QuantumCircuit, cut_circuit
from repro.circuits import Gate
from repro.library import bv
from repro.postprocess import PrecomputedTensorProvider
from repro.postprocess.attribution import TermTensor
from repro import utils
from repro.utils import BoundedMemo, memo_stats

SRC = pathlib.Path(repro.__file__).resolve().parent
#: LRU tiers with duties beyond a memo: the store's resident tier has two
#: bounds and checks entries against on-disk stamps; evicting a published
#: pool tensor frees its shared-memory segments.
RESOURCE_TIERS = {"_resident", "_published"}


class TestBoundedMemo:
    def test_entry_bound_evicts_the_oldest(self):
        memo = BoundedMemo("test", 3)
        for key in range(5):
            assert memo.put(key, str(key)) == str(key)
        assert memo.keys() == [2, 3, 4]
        assert memo.get(0) is None and memo.get(4) == "4"
        assert memo.stats() == {"hits": 1, "misses": 1, "size": 3}

    def test_byte_bound_counts_sizes(self):
        memo = BoundedMemo("test", 100, size=len)
        memo.put("a", b"x" * 40)
        memo.put("b", b"x" * 50)
        assert memo.stats()["bytes"] == 90
        memo.put("c", b"x" * 30)  # 120 > 100: "a" goes
        assert memo.keys() == ["b", "c"] and memo.stats()["bytes"] == 80
        memo.put("b", b"x" * 10)  # a re-insert replaces, never double counts
        assert memo.keys() == ["c", "b"] and memo.stats()["bytes"] == 40
        memo.put("d", b"x" * 101)  # larger than the bound: nothing stays
        assert memo.stats() == {"hits": 0, "misses": 0, "size": 0, "bytes": 0}

    def test_a_hit_refreshes_lru_order(self):
        """The order ``test_searcher.py::test_lru_stays_at_its_bound``
        asserts through ``find_cuts``."""
        memo = BoundedMemo("test", 3)
        for key in "abc":
            memo.get_or_build(key, lambda: key.upper())
        assert memo.get_or_build("a", lambda: "rebuilt") == "A"
        memo.get_or_build("d", lambda: "D")  # "b" is now the oldest
        assert memo.keys() == ["c", "a", "d"]
        assert memo.stats() == {"hits": 1, "misses": 4, "size": 3}

    def test_get_or_build_builds_once_per_miss(self):
        memo = BoundedMemo("test", 2)
        built = []

        def build():
            built.append(1)
            return len(built)

        assert [memo.get_or_build("k", build) for _ in range(3)] == [1, 1, 1]
        assert built == [1]

    def test_a_raced_key_keeps_the_last_insert(self):
        memo = BoundedMemo("test", 100, size=len)

        def build():  # another thread inserts the key mid-build
            memo.put("k", "theirs")
            return "mine!"

        assert memo.get_or_build("k", build) == "mine!"
        assert memo.keys() == ["k"] and memo.get("k") == "mine!"
        assert memo.stats() == {"hits": 1, "misses": 1, "size": 1, "bytes": 5}

    def test_clear_zeroes_entries_and_counters(self):
        memo = BoundedMemo("test", 2, size=len)
        memo.put("k", "vv")
        memo.get("k")
        memo.clear()
        assert memo.stats() == {"hits": 0, "misses": 0, "size": 0, "bytes": 0}

    def test_memo_stats_sums_live_memos_per_label(self):
        first = BoundedMemo("test-summed", 4)
        second = BoundedMemo("test-summed", 4)
        first.put(1, 1)
        second.put(2, 2)
        second.get(2)
        assert memo_stats()["test-summed"] == {"hits": 1, "misses": 0, "size": 2}
        del first, second
        # Collected memos keep their lookups in the label's total.
        assert memo_stats()["test-summed"] == {"hits": 1, "misses": 0, "size": 0}

    def test_counters_never_decrease_when_a_provider_is_collected(self):
        cut = cut_circuit(bv(6), [(5, 1)])
        tensors = [
            TermTensor(s.index, [0], s.num_effective,
                       np.ones((4, 1 << s.num_effective)))
            for s in cut.subcircuits
        ]
        provider = PrecomputedTensorProvider(cut, tensors=tensors)
        roles = {wire: ("active",) for wire in range(6)}

        def lookups():
            stats = memo_stats().get("collapse", {})
            return stats.get("hits", 0), stats.get("misses", 0)

        before = lookups()
        provider.collapsed(roles)
        provider.collapsed(roles)
        during = lookups()
        assert during == (before[0] + 2, before[1] + 2)
        del provider
        gc.collect()
        assert lookups() == during


def _hammer(memo, keys, rounds, threads=6):
    """``threads`` threads each look up ``rounds`` random keys through
    :meth:`BoundedMemo.get_or_build` at a 1 us switch interval."""
    errors = []

    def run(seed):
        rng = np.random.default_rng(seed)
        try:
            for key in rng.integers(keys, size=rounds).tolist():
                value = memo.get_or_build(key, lambda: ("built", key, [key] * key))
                assert value[:2] == ("built", key)
                stats = memo.stats()
                assert stats.get("bytes", stats["size"]) <= memo.limit
        except AssertionError as error:  # pragma: no cover - reported
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=run, args=(seed,)) for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []


class TestThreads:
    def test_six_threads_keep_bound_counts_and_values(self):
        memo = BoundedMemo("test", 8)
        _hammer(memo, keys=24, rounds=400)
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == 6 * 400
        assert stats["misses"] >= 24 and stats["size"] <= 8

    def test_a_forked_child_gets_fresh_locks(self):
        """A pool worker forked while another thread holds a memo's lock
        must not wait on it forever."""
        memo = BoundedMemo("test", 4)
        memo.put("k", 1)
        with memo._lock:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                signal.alarm(10)
                os._exit(0 if memo.get("k") == 1 and memo_stats() else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_six_threads_keep_byte_accounting_exact(self):
        memo = BoundedMemo("test", 60, size=lambda value: len(value[2]))
        _hammer(memo, keys=24, rounds=400)
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == 6 * 400
        assert stats["bytes"] == sum(memo.keys()) <= 60

    def test_six_threads_retiring_memos_lose_no_lookup(self):
        """Memos made, used and dropped on six threads at a 1 us switch
        interval, half of them in reference cycles that a frequent cyclic
        collection frees at arbitrary points (inside :func:`memo_stats`
        too), while a seventh thread reads the stats: the label's totals
        never decrease, and every lookup lands in them."""

        def churn():
            for round_ in range(200):
                memo = BoundedMemo("test-churn", 4)
                memo.get_or_build("k", lambda: 1)
                memo.get("k")
                if round_ % 2:
                    memo.put("self", memo)

        def totals():
            stats = memo_stats().get("test-churn", {})
            return stats.get("hits", 0), stats.get("misses", 0)

        seen = []

        def read():
            while any(worker.is_alive() for worker in workers):
                seen.append(totals())

        interval = sys.getswitchinterval()
        threshold = gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(20)
        try:
            workers = [threading.Thread(target=churn) for _ in range(6)]
            reader = threading.Thread(target=read)
            for worker in workers:
                worker.start()
            reader.start()
            for worker in workers:
                worker.join(timeout=120)
            reader.join(timeout=120)
        finally:
            gc.set_threshold(*threshold)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers + [reader])
        gc.collect()
        seen.append(totals())
        assert all(
            later[0] >= earlier[0] and later[1] >= earlier[1]
            for earlier, later in zip(seen, seen[1:])
        )
        assert seen[-1] == (6 * 200, 6 * 200)

    def test_a_memo_collected_under_the_registry_lock_does_not_wait_on_it(self):
        """A collection can run a memo's finalizer while any thread holds
        the registry lock; the finalizer must not take it."""
        memo = BoundedMemo("test-locked-retire", 4)
        memo.get("k")

        def drop():
            nonlocal memo
            memo = None

        with utils._MEMOS_LOCK:
            dropper = threading.Thread(target=drop)
            dropper.start()
            dropper.join(timeout=10)
            assert not dropper.is_alive()
        assert memo_stats()["test-locked-retire"] == {
            "hits": 0, "misses": 1, "size": 0,
        }


# ----------------------------------------------------------------------
# AST guard: no hand-written LRU outside BoundedMemo
# ----------------------------------------------------------------------

def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _private_lrus(tree, exempt):
    """``(line, what)`` of every LRU-shaped construct in ``tree`` outside
    the ``exempt`` nodes: an ``OrderedDict`` built, a ``.move_to_end``
    call, or ``functools.lru_cache`` / ``functools.cache``."""
    allowed = set()
    for node in ast.walk(tree):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(_name(target) in RESOURCE_TIERS for target in targets):
            allowed.update(id(child) for child in ast.walk(node))
        if (isinstance(node, ast.Attribute) and node.attr == "move_to_end"
                and _name(node.value) in RESOURCE_TIERS):
            allowed.add(id(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt or id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and _name(node.func) == "OrderedDict":
            found.append((node.lineno, "OrderedDict()"))
        elif isinstance(node, ast.Attribute) and node.attr == "move_to_end":
            found.append((node.lineno, ".move_to_end"))
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache") \
                and _name(node.value) == "functools":
            found.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(
                (node.lineno, f"functools.{alias.name}")
                for alias in node.names if alias.name in ("lru_cache", "cache")
            )
    return found


def test_no_private_lru_outside_bounded_memo():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(child)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "BoundedMemo"
            and path == SRC / "utils.py"
            for child in ast.walk(node)
        }
        found += [
            f"{path.relative_to(SRC)}:{line}: {what}"
            for line, what in _private_lrus(tree, exempt)
        ]
    assert found == []


def test_guard_sees_each_construct():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "cache = OrderedDict()\n"
        "cache.move_to_end(1)\n"
        "memo = functools.cache\n"
        "self._resident = OrderedDict()\n"
        "self._resident.move_to_end(1)\n"
    )
    assert sorted(_private_lrus(ast.parse(source), set())) == [
        (2, "functools.lru_cache"), (3, "OrderedDict()"),
        (4, ".move_to_end"), (5, "functools.cache"),
    ]


# ----------------------------------------------------------------------
# Subcircuit.body_key
# ----------------------------------------------------------------------

def _fig4_circuit():
    circuit = QuantumCircuit(5)
    for qubit in range(5):
        circuit.h(qubit)
    return circuit.cz(0, 1).cz(1, 2).t(2).cz(2, 3).cz(3, 4)


class TestBodyKey:
    def test_equal_bodies_share_a_key_and_hash_once(self, monkeypatch):
        first = cut_circuit(_fig4_circuit(), [(2, 1)]).subcircuits
        second = cut_circuit(_fig4_circuit(), [(2, 1)]).subcircuits
        hashed = []
        original = Gate.__hash__

        def counted(gate):
            hashed.append(gate)
            return original(gate)

        monkeypatch.setattr(Gate, "__hash__", counted)
        for a, b in zip(first, second):
            assert a.body_key is not b.body_key
            assert a.body_key == b.body_key and hash(a.body_key) == hash(b.body_key)
        assert first[0].body_key != first[1].body_key
        assert hashed == []

    def test_content_decides_not_the_hash(self):
        piece = cut_circuit(_fig4_circuit(), [(2, 1)]).subcircuits[0]
        twin = pickle.loads(pickle.dumps(piece.body_key))
        twin._hash = hash(piece.body_key) + 1
        assert twin != piece.body_key  # unequal hashes short-circuit
        other = pickle.loads(pickle.dumps(
            cut_circuit(_fig4_circuit(), [(2, 1)]).subcircuits[1].body_key
        ))
        other._hash = hash(piece.body_key)
        assert other != piece.body_key  # a shared hash is not equality

    def test_pickle_rehashes_the_content(self):
        piece = cut_circuit(_fig4_circuit(), [(2, 1)]).subcircuits[1]
        loaded = pickle.loads(pickle.dumps(piece))
        assert loaded.body_key == piece.body_key
        assert hash(loaded.body_key) == hash(loaded.body_key.content)
