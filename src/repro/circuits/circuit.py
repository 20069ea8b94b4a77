"""Quantum circuit container and builder API.

A :class:`QuantumCircuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
applications on ``num_qubits`` wires.  It exposes a fluent builder API
(``circuit.h(0).cx(0, 1)``) mirroring common frameworks, plus structural
queries used by the cutter (wire occupation, connectivity, depth).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Gate

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """An ordered sequence of gates over a fixed set of qubit wires."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        self.num_qubits = int(num_qubits)
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit(num_qubits={self.num_qubits}, "
            f"num_gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(
        cls, num_qubits: int, gates: Iterable[Gate]
    ) -> "QuantumCircuit":
        """Adopt an already-validated gate list without re-checking it.

        Internal fast path for hot builders (the variant factory emits
        thousands of circuits whose gates were all validated once); the
        caller guarantees every gate targets qubits below ``num_qubits``.
        """
        circuit = cls.__new__(cls)
        circuit.num_qubits = int(num_qubits)
        circuit._gates = list(gates)
        return circuit

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a gate, validating its qubits are in range."""
        for qubit in gate.qubits:
            if qubit < 0 or qubit >= self.num_qubits:
                raise ValueError(
                    f"gate {gate.name!r} targets qubit {qubit}, but circuit "
                    f"has {self.num_qubits} qubits"
                )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        for gate in gates:
            self.append(gate)
        return self

    def add(self, name: str, qubits: Sequence[int], *params: float) -> "QuantumCircuit":
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    # Fluent single-qubit builders -------------------------------------------------
    def i(self, q: int) -> "QuantumCircuit":
        return self.add("i", (q,))

    def x(self, q: int) -> "QuantumCircuit":
        return self.add("x", (q,))

    def y(self, q: int) -> "QuantumCircuit":
        return self.add("y", (q,))

    def z(self, q: int) -> "QuantumCircuit":
        return self.add("z", (q,))

    def h(self, q: int) -> "QuantumCircuit":
        return self.add("h", (q,))

    def s(self, q: int) -> "QuantumCircuit":
        return self.add("s", (q,))

    def sdg(self, q: int) -> "QuantumCircuit":
        return self.add("sdg", (q,))

    def t(self, q: int) -> "QuantumCircuit":
        return self.add("t", (q,))

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add("tdg", (q,))

    def sx(self, q: int) -> "QuantumCircuit":
        return self.add("sx", (q,))

    def sy(self, q: int) -> "QuantumCircuit":
        return self.add("sy", (q,))

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rx", (q,), theta)

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("ry", (q,), theta)

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add("rz", (q,), theta)

    def p(self, lam: float, q: int) -> "QuantumCircuit":
        return self.add("p", (q,), lam)

    def u(self, theta: float, phi: float, lam: float, q: int) -> "QuantumCircuit":
        return self.add("u", (q,), theta, phi, lam)

    # Fluent two-qubit builders ----------------------------------------------------
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", (control, target))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("cz", (a, b))

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.add("cp", (control, target), lam)

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add("rzz", (a, b), theta)

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", (a, b))

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        """Toffoli, decomposed into the standard 1-/2-qubit gate network."""
        self.h(target)
        self.cx(c2, target)
        self.tdg(target)
        self.cx(c1, target)
        self.t(target)
        self.cx(c2, target)
        self.tdg(target)
        self.cx(c1, target)
        self.t(c2)
        self.t(target)
        self.h(target)
        self.cx(c1, c2)
        self.t(c1)
        self.tdg(c2)
        self.cx(c1, c2)
        return self

    def ccz(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        """Doubly-controlled Z via the Toffoli network conjugated by H."""
        self.h(target)
        self.ccx(c1, c2, target)
        self.h(target)
        return self

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def compose(
        self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None
    ) -> "QuantumCircuit":
        """Append ``other``'s gates, optionally remapping its qubits."""
        if qubits is None:
            mapping = list(range(other.num_qubits))
        else:
            mapping = list(qubits)
        if len(mapping) != other.num_qubits:
            raise ValueError(
                f"mapping of length {len(mapping)} does not cover "
                f"{other.num_qubits} qubits"
            )
        for gate in other:
            self.append(gate.on(*(mapping[q] for q in gate.qubits)))
        return self

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (gates reversed and inverted)."""
        inverted = QuantumCircuit(self.num_qubits)
        for gate in reversed(self._gates):
            inverted.append(gate.dagger())
        return inverted

    def copy(self) -> "QuantumCircuit":
        return QuantumCircuit(self.num_qubits, self._gates)

    def remapped(self, mapping: Sequence[int], num_qubits: int) -> "QuantumCircuit":
        """A copy with qubit ``q`` relabelled to ``mapping[q]``."""
        out = QuantumCircuit(num_qubits)
        for gate in self._gates:
            out.append(gate.on(*(mapping[q] for q in gate.qubits)))
        return out

    # ------------------------------------------------------------------
    # Parameters and rebinding
    # ------------------------------------------------------------------
    def parameters(self) -> Tuple[float, ...]:
        """All free parameters, flattened in gate order.

        Only parametric gates (rx/ry/rz/p/u/cp/rzz) contribute; a circuit
        with ``u`` gates contributes three values per ``u``.  The tuple is
        exactly what :meth:`bind` consumes.
        """
        values: List[float] = []
        for gate in self._gates:
            values.extend(gate.params)
        return tuple(values)

    @property
    def num_parameters(self) -> int:
        return sum(len(gate.params) for gate in self._gates)

    def structure(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """The parameter-free skeleton: ``(name, qubits)`` per gate.

        Two circuits with equal structure differ at most in rotation
        angles — they share cuts, variant plans, and fusion partitions.
        """
        return tuple((gate.name, gate.qubits) for gate in self._gates)

    def bind(
        self, values: Sequence[float]
    ) -> Tuple["QuantumCircuit", Tuple[int, ...]]:
        """Rebind all free parameters; report which gates changed.

        ``values`` must have length :attr:`num_parameters` and is consumed
        in gate order (the same order :meth:`parameters` produces).
        Returns ``(bound_circuit, changed_gate_indices)``.  Gates whose
        parameters are bit-identical are **reused by object identity**, so
        downstream identity/equality-keyed caches (fusion blocks, variant
        bodies) still hit for the untouched parts of the circuit.
        """
        values = [float(v) for v in values]
        if len(values) != self.num_parameters:
            raise ValueError(
                f"bind expects {self.num_parameters} parameter(s), "
                f"got {len(values)}"
            )
        cursor = 0
        new_gates: List[Gate] = []
        changed: List[int] = []
        for index, gate in enumerate(self._gates):
            count = len(gate.params)
            if count == 0:
                new_gates.append(gate)
                continue
            params = tuple(values[cursor:cursor + count])
            cursor += count
            if params == gate.params:
                new_gates.append(gate)
            else:
                new_gates.append(Gate(gate.name, gate.qubits, params))
                changed.append(index)
        bound = QuantumCircuit._unchecked(self.num_qubits, new_gates)
        return bound, tuple(changed)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def gates_on_wire(self, qubit: int) -> List[Tuple[int, Gate]]:
        """(position-in-circuit, gate) pairs touching ``qubit``, in order."""
        return [
            (index, gate)
            for index, gate in enumerate(self._gates)
            if qubit in gate.qubits
        ]

    def multiqubit_gate_count(self) -> int:
        return sum(1 for gate in self._gates if gate.is_multiqubit)

    def active_qubits(self) -> List[int]:
        """Qubits touched by at least one gate."""
        seen = set()
        for gate in self._gates:
            seen.update(gate.qubits)
        return sorted(seen)

    def depth(self) -> int:
        """Circuit depth counting all gates."""
        frontier = [0] * self.num_qubits
        for gate in self._gates:
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def two_qubit_depth(self) -> int:
        """Circuit depth counting only multiqubit gates."""
        frontier = [0] * self.num_qubits
        for gate in self._gates:
            if not gate.is_multiqubit:
                continue
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def is_fully_connected(self) -> bool:
        """Whether multiqubit gates connect all qubits into one component."""
        parent = list(range(self.num_qubits))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for gate in self._gates:
            if gate.is_multiqubit:
                ra, rb = find(gate.qubits[0]), find(gate.qubits[1])
                if ra != rb:
                    parent[ra] = rb
        roots = {find(q) for q in range(self.num_qubits)}
        return len(roots) == 1

    def count_ops(self) -> dict:
        """Gate-name histogram, like Qiskit's ``count_ops``."""
        counts: dict = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    def draw(self) -> str:
        """A minimal text diagram (one row per qubit), for debugging."""
        rows = [[f"q{q}: "] for q in range(self.num_qubits)]
        for gate in self._gates:
            width = max(len(gate.name), 2) + 2
            column = max(len("".join(row)) for row in rows)
            for q in range(self.num_qubits):
                pad = column - len("".join(rows[q]))
                rows[q].append("-" * pad)
            for q in range(self.num_qubits):
                if q in gate.qubits:
                    tag = gate.name if q == gate.qubits[-1] else "o"
                    rows[q].append(f"-{tag:-<{width - 1}}")
                else:
                    rows[q].append("-" * width)
        return "\n".join("".join(row) for row in rows)
