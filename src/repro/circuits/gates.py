"""Gate definitions and unitary matrices.

Every gate used by the toolchain is a :class:`Gate` instance: a name, the
qubits it acts on, and optional real parameters.  Matrices follow the
convention that the *first* qubit of a multi-qubit gate is the most
significant bit of the gate's local index, consistent with
:mod:`repro.utils`.

Only 1- and 2-qubit gates may appear in circuits handed to the cutter (the
paper's MIP model assumes native-gate circuits); the library decomposes
larger primitives (e.g. Toffoli) before emitting circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "Gate",
    "gate_matrix",
    "is_supported_gate",
    "SUPPORTED_GATES",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "PARAM_COUNTS",
    "PAULI_MATRICES",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_1Q: Dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    # sqrt(X) and sqrt(Y), used by the supremacy circuits and as a native gate.
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sy": 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=complex),
}

_FIXED_2Q: Dict[str, np.ndarray] = {
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

_PARAMETRIC_1Q = {"rx", "ry", "rz", "p", "u"}
_PARAMETRIC_2Q = {"cp", "rzz"}

SINGLE_QUBIT_GATES = frozenset(_FIXED_1Q) | _PARAMETRIC_1Q
TWO_QUBIT_GATES = frozenset(_FIXED_2Q) | _PARAMETRIC_2Q
SUPPORTED_GATES = SINGLE_QUBIT_GATES | TWO_QUBIT_GATES

PAULI_MATRICES: Dict[str, np.ndarray] = {
    "I": _FIXED_1Q["i"],
    "X": _FIXED_1Q["x"],
    "Y": _FIXED_1Q["y"],
    "Z": _FIXED_1Q["z"],
}

_PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "u": 3, "cp": 1, "rzz": 1}

#: Public view of the per-gate parameter arities; every other supported
#: gate is parameter-free, so a gate's *structure* is just (name, qubits).
PARAM_COUNTS = dict(_PARAM_COUNTS)


@dataclass(frozen=True)
class Gate:
    """A gate application: name, target qubits and parameters.

    Instances are immutable and hashable so they can be used as graph nodes.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        name = self.name.lower()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if name not in SUPPORTED_GATES:
            raise ValueError(f"unsupported gate {name!r}")
        arity = 1 if name in SINGLE_QUBIT_GATES else 2
        if len(self.qubits) != arity:
            raise ValueError(
                f"gate {name!r} expects {arity} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {name!r} has duplicate qubits {self.qubits}")
        expected_params = _PARAM_COUNTS.get(name, 0)
        if len(self.params) != expected_params:
            raise ValueError(
                f"gate {name!r} expects {expected_params} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_multiqubit(self) -> bool:
        return len(self.qubits) > 1

    def matrix(self) -> np.ndarray:
        """Unitary matrix for this gate (2x2 or 4x4)."""
        return gate_matrix(self.name, self.params)

    def on(self, *qubits: int) -> "Gate":
        """The same gate applied to different qubits."""
        return Gate(self.name, tuple(qubits), self.params)

    def dagger(self) -> "Gate":
        """The inverse gate (as a named gate where possible)."""
        inverses = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        if self.name in inverses:
            return Gate(inverses[self.name], self.qubits)
        if self.name in {"i", "x", "y", "z", "h", "cx", "cz", "swap"}:
            return self
        if self.name in {"rx", "ry", "rz", "p", "cp", "rzz"}:
            return Gate(self.name, self.qubits, (-self.params[0],))
        if self.name == "u":
            theta, phi, lam = self.params
            return Gate("u", self.qubits, (-theta, -lam, -phi))
        if self.name == "sx":
            # sx^dagger = rx(-pi/2) up to global phase; express exactly.
            return Gate("rx", self.qubits, (-math.pi / 2.0,))
        if self.name == "sy":
            return Gate("ry", self.qubits, (-math.pi / 2.0,))
        raise ValueError(f"no inverse rule for gate {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = f", params={self.params}" if self.params else ""
        return f"Gate({self.name!r}, qubits={self.qubits}{params})"


def gate_matrix(name: str, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary for gate ``name`` with ``params``."""
    name = name.lower()
    if name in _FIXED_1Q:
        return _FIXED_1Q[name].copy()
    if name in _FIXED_2Q:
        return _FIXED_2Q[name].copy()
    if name == "rx":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        (theta,) = params
        phase = np.exp(0.5j * theta)
        return np.array([[1 / phase, 0], [0, phase]], dtype=complex)
    if name == "p":
        (lam,) = params
        return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)
    if name == "u":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )
    if name == "cp":
        (lam,) = params
        return np.diag([1, 1, 1, np.exp(1j * lam)]).astype(complex)
    if name == "rzz":
        (theta,) = params
        phase = np.exp(0.5j * theta)
        return np.diag([1 / phase, phase, phase, 1 / phase]).astype(complex)
    raise ValueError(f"unsupported gate {name!r}")


def is_supported_gate(name: str) -> bool:
    """Whether ``name`` is a gate the toolchain understands."""
    return name.lower() in SUPPORTED_GATES
