"""repro.flatgraph against networkx, its oracle.

The flat kernels must return exactly what networkx returns on the same
graph built the same way: the cut searcher's Kernighan–Lin seeds and the
transpiler's routes depend on it bit for bit.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import flatgraph
from repro.circuits import build_circuit_graph
from repro.cutting import DEFAULT_MAX_CUTS, DEFAULT_MAX_SUBCIRCUITS, heuristics
from repro.devices import DEVICE_PRESETS, get_device
from repro.library import get_benchmark

mirrored = pytest.mark.skipif(
    nx.__version__ != flatgraph.MIRRORED_NETWORKX,
    reason=f"the bisection mirrors networkx {flatgraph.MIRRORED_NETWORKX}",
)

#: The benchmark catalog's circuits and device sizes (family, qubits, D,
#: generator keywords): every cut search an end-to-end job makes.
CATALOG = [
    ("supremacy", 12, 9, {"seed": 0}),
    ("supremacy", 12, 8, {"seed": 0}),
    ("aqft", 8, 5, {}),
    ("adder", 12, 8, {"seed": 3}),
    ("bv", 14, 8, {}),
    ("adder", 10, 6, {"seed": 3}),
    ("hwea", 12, 7, {"seed": 3}),
    ("bv", 16, 9, {}),
    ("bv", 10, 6, {}),
    ("bv", 30, 16, {}),
    ("bv", 26, 14, {}),
    ("adder", 20, 12, {"seed": 3}),
    ("hwea", 20, 11, {"seed": 3}),
]


def weighted_nx(num_nodes, edges):
    """The graph ``kl_partition`` used to build: parallel edges add weight."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    for a, b in edges:
        if graph.has_edge(a, b):
            graph[a][b]["weight"] += 1
        else:
            graph.add_edge(a, b, weight=1)
    return graph


def assert_same_adjacency(flat, graph):
    """Same neighbours, weights and neighbour order as ``graph``."""
    assert [list(nbrs.items()) for nbrs in flat] == [
        [(v, data["weight"]) for v, data in graph.adj[u].items()] for u in graph
    ]


def assert_same_bisection(flat, graph, part, seed):
    ours = flatgraph.kernighan_lin_bisection(flat, part, seed)
    theirs = nx.community.kernighan_lin_bisection(
        graph.subgraph(part), weight="weight", seed=seed
    )
    assert ours == theirs
    # The next bisection iterates these sets: their order must agree too.
    assert [list(half) for half in ours] == [list(half) for half in theirs]


@mirrored
@pytest.mark.parametrize("family,qubits,size,kwargs", CATALOG)
def test_bisection_matches_networkx_on_catalog_searches(
    monkeypatch, family, qubits, size, kwargs
):
    circuit_graph = build_circuit_graph(get_benchmark(family, qubits, **kwargs))
    edges = [(edge.source, edge.target) for edge in circuit_graph.edges]
    graph = weighted_nx(circuit_graph.num_vertices, edges)
    port = flatgraph.kernighan_lin_bisection
    calls = []

    def checked(flat, part, seed):
        assert_same_adjacency(flat, graph)
        assert_same_bisection(flat, graph, part, seed)
        calls.append(len(part))
        return port(flat, part, seed)

    monkeypatch.setattr(heuristics, "kernighan_lin_bisection", checked)
    heuristics.kl_partition(
        circuit_graph, size, DEFAULT_MAX_SUBCIRCUITS, DEFAULT_MAX_CUTS
    )
    assert calls


@st.composite
def weighted_graphs(draw):
    """A graph with parallel edges (and the odd self-loop) plus a part of
    at least two nodes, built by discarding from a larger set so its
    iteration order need not be a fresh set's."""
    num_nodes = draw(st.integers(2, 40))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * num_nodes))
    dropped = draw(st.sets(node, max_size=num_nodes - 2))
    part = set(range(num_nodes))
    for member in dropped:
        part.discard(member)
    return num_nodes, edges, part


@mirrored
@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_bisection_matches_networkx_on_random_graphs(case):
    num_nodes, edges, part = case
    flat = flatgraph.weighted_adjacency(num_nodes, edges)
    graph = weighted_nx(num_nodes, edges)
    assert_same_adjacency(flat, graph)
    for seed in range(4):
        assert_same_bisection(flat, graph, part, seed)


def test_bisection_covers_both_node_orders():
    """A part under half the graph is iterated as its own set, a larger one
    through the graph's nodes: both must split the part."""
    flat = flatgraph.weighted_adjacency(10, [(i, i + 1) for i in range(9)])
    for part in ({7, 9, 8}, set(range(1, 10))):
        half_a, half_b = flatgraph.kernighan_lin_bisection(flat, part, 0)
        assert half_a | half_b == part and not half_a & half_b


def simple_graphs(min_nodes=1):
    return st.integers(min_nodes, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
        )
    )


@settings(max_examples=200, deadline=None)
@given(simple_graphs())
def test_connectivity_and_components_match_networkx(case):
    num_nodes, edges = case
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(edges)
    flat = flatgraph.adjacency(num_nodes, edges)
    assert flat == [list(graph.adj[u]) for u in graph]
    assert flatgraph.is_connected(flat) == nx.is_connected(graph)
    components = flatgraph.connected_components(flat)
    assert [sorted(c) for c in components] == sorted(
        (sorted(c) for c in nx.connected_components(graph)), key=min
    )


def assert_paths_match(num_nodes, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(edges)
    flat = flatgraph.adjacency(num_nodes, edges)
    for source in range(num_nodes):
        for target in range(num_nodes):
            assert flatgraph.shortest_path(flat, source, target) == (
                nx.shortest_path(graph, source, target)
            )


@pytest.mark.parametrize("name", sorted(DEVICE_PRESETS))
def test_shortest_paths_match_networkx_on_presets(name):
    device = get_device(name)
    assert_paths_match(device.num_qubits, device.coupling_map)
    assert device.neighbors == tuple(
        tuple(nx.Graph(device.coupling_map).adj[q])
        for q in range(device.num_qubits)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            # node i > 0 hangs off an earlier node: connected by construction
            st.tuples(*(st.integers(0, i - 1) for i in range(1, n))),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=2 * n,
            ),
        )
    )
)
def test_shortest_paths_match_networkx_on_connected_graphs(case):
    num_nodes, parents, extra = case
    tree = [(parent, node) for node, parent in enumerate(parents, start=1)]
    assert_paths_match(num_nodes, tree + [(a, b) for a, b in extra if a != b])


def test_no_path_is_an_error():
    with pytest.raises(ValueError, match="no path"):
        flatgraph.shortest_path(flatgraph.adjacency(3, [(0, 1)]), 0, 2)
