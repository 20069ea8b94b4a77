"""Quickstart: cut a 5-qubit circuit, run 3-qubit pieces, rebuild exactly.

This is the paper's Fig. 4 walkthrough: one cut on qubit 2 splits a
5-qubit circuit into two 3-qubit subcircuits whose variants fit a 3-qubit
device; classical postprocessing reproduces the uncut output exactly.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CutQC, QuantumCircuit, simulate_probabilities


def build_circuit() -> QuantumCircuit:
    """The Fig. 4 example circuit: a cZ ladder over 5 qubits."""
    circuit = QuantumCircuit(5)
    for qubit in range(5):
        circuit.h(qubit)
    circuit.cz(0, 1).cz(1, 2)
    circuit.t(2)
    circuit.cz(2, 3).cz(3, 4)
    return circuit


def main() -> None:
    circuit = build_circuit()
    print(f"Input circuit: {circuit.num_qubits} qubits, {len(circuit)} gates")
    print(circuit.draw())
    print()

    # The MIP cut searcher finds the cheapest cut onto a 3-qubit device.
    pipeline = CutQC(circuit, max_subcircuit_qubits=3)
    cut = pipeline.cut()
    print(cut.summary())
    print(f"cut positions: {[(c.wire, c.wire_index) for c in cut.cuts]}")
    print(f"search method: {pipeline.solution.method}, "
          f"objective (Eq. 14): {pipeline.solution.objective:.0f} FLOPs")
    print()

    # Evaluate every physical subcircuit variant and run an FD query.
    result = pipeline.fd_query(strategy="kron")  # the paper's 4^K sweep
    truth = simulate_probabilities(circuit)
    error = float(np.max(np.abs(result.probabilities - truth)))

    print("Full-definition reconstruction:")
    print(f"  Kronecker terms : {result.stats.num_terms}"
          f" ({result.stats.num_skipped} skipped by early termination)")
    print(f"  elapsed         : {result.stats.elapsed_seconds * 1e3:.2f} ms")
    print(f"  max |error| vs statevector ground truth: {error:.2e}")
    assert error < 1e-10, "reconstruction must equal the uncut output"

    print("\nTop-4 output states (reconstructed == ground truth):")
    top = np.argsort(result.probabilities)[::-1][:4]
    for index in top:
        bits = format(index, "05b")
        print(f"  |{bits}>  p = {result.probabilities[index]:.4f}")


if __name__ == "__main__":
    main()
