"""QAOA MaxCut circuits — an extension workload beyond the paper's six.

The paper motivates CutQC with near-term variational applications (§5.3
includes HWEA); QAOA is the canonical one, and its structure makes it an
interesting cutting workload: the cost layer applies one RZZ per *graph
edge*, so the circuit's cuttability directly mirrors the cuttability of
the problem graph.  Random d-regular graphs give supremacy-like density;
ring graphs cut like BV.

``qaoa_maxcut`` returns the standard p-layer ansatz

    |psi(gamma, beta)> = prod_l  U_B(beta_l) U_C(gamma_l)  H^{(x)n} |0>

with U_C = prod_{(i,j) in E} RZZ(2*gamma) and U_B = prod_i RX(2*beta).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit

__all__ = ["qaoa_maxcut", "maxcut_cost", "random_regular_graph", "ring_graph"]


def random_regular_graph(
    num_qubits: int, degree: int = 3, seed: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Edges of a random d-regular graph on ``num_qubits`` nodes."""
    if degree >= num_qubits:
        raise ValueError("degree must be smaller than the node count")
    if (degree * num_qubits) % 2:
        raise ValueError("degree * num_qubits must be even")
    import networkx as nx  # here, so that no other job path loads it

    graph = nx.random_regular_graph(degree, num_qubits, seed=seed)
    return [(min(a, b), max(a, b)) for a, b in graph.edges()]


def ring_graph(num_qubits: int) -> List[Tuple[int, int]]:
    """Edges of a ring — the easiest QAOA topology to cut."""
    if num_qubits < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return [(i, (i + 1) % num_qubits) for i in range(num_qubits)]


def qaoa_maxcut(
    num_qubits: int,
    edges: Optional[Sequence[Tuple[int, int]]] = None,
    layers: int = 1,
    parameters: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
) -> QuantumCircuit:
    """p-layer QAOA MaxCut ansatz on the given (or a ring) graph.

    ``parameters`` is ``[gamma_1, beta_1, ..., gamma_p, beta_p]``; when
    omitted, angles are drawn uniformly from (0, pi) with ``seed``.
    """
    if layers < 1:
        raise ValueError("layers must be positive")
    edge_list = list(edges) if edges is not None else ring_graph(num_qubits)
    for a, b in edge_list:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
            raise ValueError(f"invalid edge ({a}, {b})")
    if parameters is None:
        rng = np.random.default_rng(seed if seed is not None else 17)
        parameters = list(rng.uniform(0.1, np.pi - 0.1, size=2 * layers))
    else:
        parameters = [float(p) for p in parameters]
        if len(parameters) != 2 * layers:
            raise ValueError(
                f"expected {2 * layers} parameters, got {len(parameters)}"
            )

    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for layer in range(layers):
        gamma, beta = parameters[2 * layer], parameters[2 * layer + 1]
        for a, b in edge_list:
            circuit.rzz(2.0 * gamma, a, b)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta, qubit)
    return circuit


def maxcut_cost(
    probabilities: np.ndarray, edges: Sequence[Tuple[int, int]], num_qubits: int
) -> float:
    """Expected cut value <C> of a distribution over bitstrings."""
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.size != 1 << num_qubits:
        raise ValueError(
            f"distribution of size {probabilities.size} does not match "
            f"{num_qubits} qubits"
        )
    total = 0.0
    for index, probability in enumerate(probabilities):
        if probability <= 0.0:
            continue
        cut = 0
        for a, b in edges:
            bit_a = (index >> (num_qubits - 1 - a)) & 1
            bit_b = (index >> (num_qubits - 1 - b)) & 1
            cut += bit_a != bit_b
        total += probability * cut
    return total
