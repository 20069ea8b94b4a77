"""Shared test fixtures and circuit generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import QuantumCircuit
from repro.cutting import clear_cut_memo


@pytest.fixture(autouse=True)
def _fresh_cut_memo():
    """``find_cuts`` memoises per process: start every test with an empty
    memo so no outcome (or monkeypatched searcher) depends on suite order."""
    clear_cut_memo()


def random_connected_circuit(
    num_qubits: int,
    num_2q_gates: int,
    seed: int,
    with_1q: bool = True,
) -> QuantumCircuit:
    """A random circuit guaranteed fully connected via an initial CX chain."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.ry(float(rng.uniform(0, np.pi)), qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    names_2q = ["cx", "cz", "cp", "rzz"]
    names_1q = ["h", "t", "s", "x", "rx", "rz"]
    remaining = num_2q_gates - (num_qubits - 1)
    for _ in range(max(0, remaining)):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        name = names_2q[rng.integers(len(names_2q))]
        if name in ("cp", "rzz"):
            circuit.add(name, (int(a), int(b)), float(rng.uniform(0, np.pi)))
        else:
            circuit.add(name, (int(a), int(b)))
        if with_1q and rng.random() < 0.7:
            q = int(rng.integers(num_qubits))
            name1 = names_1q[rng.integers(len(names_1q))]
            if name1 in ("rx", "rz"):
                circuit.add(name1, (q,), float(rng.uniform(0, 2 * np.pi)))
            else:
                circuit.add(name1, (q,))
    return circuit


@pytest.fixture
def fig4_circuit() -> QuantumCircuit:
    """The paper's Fig. 4 example: 5 qubits, a cZ ladder, one cut on q2."""
    circuit = QuantumCircuit(5)
    for qubit in range(5):
        circuit.h(qubit)
    circuit.cz(0, 1).cz(1, 2)
    circuit.t(2)
    circuit.cz(2, 3).cz(3, 4)
    return circuit


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
