"""Graph kernels on flat adjacency lists: the runtime's only graph code.

Nodes are ``0..n-1`` and a graph is a sequence whose entry ``v`` holds
``v``'s neighbours in insertion order, the order ``networkx.Graph``
keeps them in: a list of ints, or, for :func:`kernighan_lin_bisection`,
a dict from neighbour to edge weight.  Every function here returns what
its networkx 3.6.1 namesake returns on the same graph built the same way
(``tests/test_flatgraph.py`` holds networkx as the oracle), so swapping
one for the other changes no cut, layout or route.  The bisection in
particular is a line-for-line port: its result depends on node order,
neighbour order, the seeded shuffle and the heap's tie-break counter, and
a port that drops any one of them returns different bisections.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "MIRRORED_NETWORKX",
    "adjacency",
    "weighted_adjacency",
    "connected_components",
    "is_connected",
    "shortest_path",
    "kernighan_lin_bisection",
]

#: The networkx release whose algorithms this module reproduces.
MIRRORED_NETWORKX = "3.6.1"


def adjacency(num_nodes: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """Neighbour lists of the undirected simple graph on ``edges``: a
    repeated edge is one edge, and each list is in first-insertion order."""
    neighbours: List[Dict[int, None]] = [{} for _ in range(num_nodes)]
    for a, b in edges:
        neighbours[a].setdefault(b)
        neighbours[b].setdefault(a)
    return [list(nbrs) for nbrs in neighbours]


def weighted_adjacency(
    num_nodes: int, edges: Iterable[Tuple[int, int]]
) -> List[Dict[int, int]]:
    """Neighbour -> weight maps with each parallel edge adding 1 to its
    pair's weight (first-insertion order, as ``Graph.add_edge`` keeps it)."""
    neighbours: List[Dict[int, int]] = [{} for _ in range(num_nodes)]
    for a, b in edges:
        neighbours[a][b] = neighbours[a].get(b, 0) + 1
        if a != b:
            neighbours[b][a] = neighbours[a][b]
    return neighbours


def _reach(adj: Sequence[Sequence[int]], source: int, seen: List[bool]) -> List[int]:
    """Nodes reachable from ``source`` not yet ``seen`` (marking them)."""
    seen[source] = True
    found = [source]
    for node in found:
        for nbr in adj[node]:
            if not seen[nbr]:
                seen[nbr] = True
                found.append(nbr)
    return found


def connected_components(adj: Sequence[Sequence[int]]) -> List[List[int]]:
    """The components, ordered by their smallest node."""
    seen = [False] * len(adj)
    return [_reach(adj, node, seen) for node in range(len(adj)) if not seen[node]]


def is_connected(adj: Sequence[Sequence[int]]) -> bool:
    """Whether one component holds every node (true for 0 or 1 nodes)."""
    return len(adj) <= 1 or len(_reach(adj, 0, [False] * len(adj))) == len(adj)


def _grow(
    adj: Sequence[Sequence[int]],
    fringe: List[int],
    reached: Dict[int, int],
    other: Dict[int, int],
) -> Tuple[List[int], Optional[int]]:
    """One BFS level out of ``fringe``, recording each new node's parent in
    ``reached``: the next fringe, and the first node ``other`` holds."""
    level = []
    for v in fringe:
        for w in adj[v]:
            if w not in reached:
                reached[w] = v
                level.append(w)
            if w in other:
                return level, w
    return level, None


def shortest_path(adj: Sequence[Sequence[int]], source: int, target: int) -> List[int]:
    """The path ``networkx.shortest_path`` returns on an unweighted graph:
    bidirectional BFS, growing the smaller fringe, stopping at the first
    node both searches reached."""
    pred, succ = {source: -1}, {target: -1}
    forward, reverse = [source], [target]
    meet = source if source == target else None
    while meet is None:
        if not (forward and reverse):
            raise ValueError(f"no path between {source} and {target}")
        if len(forward) <= len(reverse):
            forward, meet = _grow(adj, forward, pred, succ)
        else:
            reverse, meet = _grow(adj, reverse, succ, pred)
    path = []
    node = meet
    while node >= 0:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node >= 0:
        path.append(node)
        node = succ[node]
    return path


class _BinaryHeap:
    """networkx's ``BinaryHeap``: a key -> value map over a lazy heap of
    ``(value, counter, key)``, so equal values pop in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self._count = itertools.count()

    def __len__(self) -> int:
        return len(self.values)

    def pop(self) -> Tuple[int, int]:
        while True:
            value, _, key = heapq.heappop(self._heap)
            if key in self.values and value == self.values[key]:
                break
        del self.values[key]
        return key, value

    def insert(self, key: int, value: int, allow_increase: bool = False) -> None:
        old = self.values.get(key)
        if old is None or value < old or (allow_increase and value > old):
            self.values[key] = value
            heapq.heappush(self._heap, (value, next(self._count), key))


def _kernighan_lin_sweep(
    edge_info: Dict[int, Dict[int, int]], side: Dict[int, int]
) -> Iterator[Tuple[int, int, Tuple[int, int]]]:
    """One pass of single-node moves, alternating sides, cheapest first."""
    heap0, heap1 = cost_heaps = _BinaryHeap(), _BinaryHeap()
    for u, nbrs in edge_info.items():
        cost_u = sum(wt if side[v] else -wt for v, wt in nbrs.items())
        if side[u]:
            heap1.insert(u, cost_u)
        else:
            heap0.insert(u, -cost_u)

    def _update_heap_values(node: int) -> None:
        side_node = side[node]
        for nbr, wt in edge_info[node].items():
            side_nbr = side[nbr]
            if side_nbr == side_node:
                wt = -wt
            heap_nbr = cost_heaps[side_nbr]
            if nbr in heap_nbr.values:
                heap_nbr.insert(nbr, heap_nbr.values[nbr] + 2 * wt, allow_increase=True)

    i = 0
    totcost = 0
    while heap0 and heap1:
        u, cost_u = heap0.pop()
        _update_heap_values(u)
        v, cost_v = heap1.pop()
        _update_heap_values(v)
        totcost += cost_u + cost_v
        i += 1
        yield totcost, i, (u, v)


def kernighan_lin_bisection(
    adj: Sequence[Dict[int, int]], part: Set[int], seed: int
) -> Tuple[Set[int], Set[int]]:
    """``networkx.community.kernighan_lin_bisection(G.subgraph(part),
    weight="weight", seed=seed)`` for ``G`` the weighted graph ``adj``.

    The subgraph view's node order is rebuilt as networkx builds it: a new
    set filled from ``part`` in ``part``'s iteration order, iterated
    directly when it holds under half of ``G``'s nodes, and otherwise
    ``G``'s nodes filtered through it.
    """
    # Filled one node at a time, as networkx fills it: ``set(part)``
    # copies ``part``'s table and may iterate in another order.
    members = {node for node in part}
    if 2 * len(members) < len(adj):
        nodes = list(members)
    else:
        nodes = [node for node in range(len(adj)) if node in members]
    shuffled = list(nodes)
    random.Random(seed).shuffle(shuffled)
    first = set(shuffled[: len(shuffled) // 2])
    side: Dict[int, int] = {node: (node in first) for node in shuffled}
    edge_info = {
        u: {v: wt for v, wt in adj[u].items() if v in members} for u in nodes
    }
    for _ in range(10):  # networkx's default max_iter
        costs = list(_kernighan_lin_sweep(edge_info, side))
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break
        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0
    part1 = {u for u, s in side.items() if s == 0}
    part2 = {u for u, s in side.items() if s == 1}
    return part1, part2
