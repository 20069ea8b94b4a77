"""OpenQASM 2.0 interop (the subset this package's gate set spans).

Lets circuits cross between this toolchain and mainstream stacks
(Qiskit/Cirq export OpenQASM 2): ``to_qasm`` serializes any supported
circuit; ``from_qasm`` parses programs using one quantum register and the
standard-library gates that map onto :mod:`repro.circuits.gates`.

The parser is deliberately small: no gate definitions, no classical
control, no includes beyond the conventional ``qelib1.inc`` line, and
measurements are ignored (this package's execution model measures every
qubit at the end, like the paper's shot model).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Dict, List, Optional, Tuple

from .circuit import QuantumCircuit
from .gates import Gate

__all__ = ["to_qasm", "from_qasm", "QasmError"]


class QasmError(ValueError):
    """Raised for programs outside the supported OpenQASM subset."""


#: package gate name -> OpenQASM gate name
_EXPORT_NAMES = {
    "i": "id",
    "p": "u1",
    "cp": "cu1",
    "sy": None,  # no standard qelib1 name; lowered on export
}

#: OpenQASM gate name -> (package name, parameter count)
_IMPORT_NAMES: Dict[str, Tuple[str, int]] = {
    "id": ("i", 0),
    "x": ("x", 0),
    "y": ("y", 0),
    "z": ("z", 0),
    "h": ("h", 0),
    "s": ("s", 0),
    "sdg": ("sdg", 0),
    "t": ("t", 0),
    "tdg": ("tdg", 0),
    "sx": ("sx", 0),
    "rx": ("rx", 1),
    "ry": ("ry", 1),
    "rz": ("rz", 1),
    "u1": ("p", 1),
    "p": ("p", 1),
    "u3": ("u", 3),
    "u": ("u", 3),
    "cx": ("cx", 0),
    "CX": ("cx", 0),
    "cz": ("cz", 0),
    "cu1": ("cp", 1),
    "cp": ("cp", 1),
    "rzz": ("rzz", 1),
    "swap": ("swap", 0),
}


def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialize ``circuit`` as an OpenQASM 2.0 program."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    for gate in circuit:
        lines.extend(_export_gate(gate))
    return "\n".join(lines) + "\n"


def _export_gate(gate: Gate) -> List[str]:
    if gate.name == "sy":
        # qelib1 has no sqrt(Y); emit the exact native equivalent.
        q = gate.qubits[0]
        return [
            f"rz(-pi/2) q[{q}];",
            f"sx q[{q}];",
            f"rz(pi/2) q[{q}];",
        ]
    name = _EXPORT_NAMES.get(gate.name, gate.name)
    params = ""
    if gate.params:
        params = "(" + ",".join(_format_angle(p) for p in gate.params) + ")"
    qubits = ",".join(f"q[{q}]" for q in gate.qubits)
    return [f"{name}{params} {qubits};"]


def _format_angle(value: float) -> str:
    """Render common multiples of pi symbolically, else as a float."""
    for denominator in (1, 2, 3, 4, 6, 8, 16):
        for numerator_sign in (1, -1):
            target = numerator_sign * math.pi / denominator
            if abs(value - target) < 1e-12:
                sign = "-" if numerator_sign < 0 else ""
                return f"{sign}pi" if denominator == 1 else f"{sign}pi/{denominator}"
    return repr(float(value))


_STATEMENT = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\((?P<params>[^)]*)\))?"
    r"\s+(?P<args>[^;]+)$"
)
_QUBIT = re.compile(r"^q\[(\d+)\]$")

_ANGLE_NAMES = {"pi": math.pi, "e": math.e}
_ANGLE_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


def _angle_value(node: ast.AST) -> float:
    """Fold an angle expression tree over floats, admitting only numeric
    constants, ``pi``, ``e``, unary +/- and binary + - * /."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in _ANGLE_NAMES:
        return _ANGLE_NAMES[node.id]
    operation = _ANGLE_OPS.get(type(getattr(node, "op", None)))
    if isinstance(node, ast.UnaryOp) and operation:
        return operation(_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and operation:
        return operation(_angle_value(node.left), _angle_value(node.right))
    raise QasmError(f"{type(getattr(node, 'op', node)).__name__} is not allowed")


def _parse_angle(text: str) -> float:
    """Evaluate an angle expression (numbers, pi, e, + - * /, parentheses).

    The expression is parsed, never executed: anything else (``**``,
    calls, attributes) and any non-finite value raise :class:`QasmError`.
    """
    try:
        value = _angle_value(ast.parse(text.strip(), mode="eval").body)
    except QasmError as error:
        raise QasmError(f"unsupported angle expression {text!r}: {error}") from None
    except (SyntaxError, ValueError, ArithmeticError, RecursionError,
            MemoryError) as error:
        raise QasmError(f"cannot evaluate angle {text!r}: {error}") from None
    if not math.isfinite(value):
        raise QasmError(f"angle {text!r} is not finite")
    return value


def from_qasm(text: str) -> QuantumCircuit:
    """Parse an OpenQASM 2.0 program (single quantum register subset).

    A statement outside the subset raises :class:`QasmError` prefixed with
    ``line L, column C`` of the statement's first character.
    """
    # Blank comments out in place, so offsets stay those of ``text``.
    code = re.sub(r"//[^\n]*", lambda match: " " * len(match.group()), text)
    circuit: Optional[QuantumCircuit] = None
    for match in re.finditer(r"[^;\s][^;]*", code):  # from its first character
        try:
            circuit = _apply_statement(
                circuit, match.group().rstrip().replace("\n", " ")
            )
        except QasmError as error:
            line = code.count("\n", 0, match.start()) + 1
            column = match.start() - code.rfind("\n", 0, match.start())
            raise QasmError(f"line {line}, column {column}: {error}") from None
    if circuit is None:
        raise QasmError("program declares no quantum register")
    return circuit


def _apply_statement(
    circuit: Optional[QuantumCircuit], statement: str
) -> Optional[QuantumCircuit]:
    """The program after one statement (``None`` until its ``qreg``)."""
    lowered = statement.lower()
    if lowered.startswith("openqasm"):
        if "2.0" not in statement:
            raise QasmError(f"unsupported OpenQASM version: {statement}")
        return circuit
    # No gates here: end-of-circuit measurement is implicit in this model.
    if lowered.startswith(("include", "creg", "barrier", "measure", "reset")):
        return circuit
    if lowered.startswith("qreg"):
        match = re.fullmatch(r"qreg\s+([A-Za-z_]\w*)\[(\d+)\]", statement)
        if not match:
            raise QasmError(f"cannot parse register: {statement}")
        if circuit is not None:
            raise QasmError("only one quantum register is supported")
        if match.group(1) != "q":
            raise QasmError("the quantum register must be named 'q'")
        return QuantumCircuit(int(match.group(2)))
    match = _STATEMENT.match(statement)
    if not match:
        raise QasmError(f"cannot parse statement: {statement!r}")
    qasm_name = match.group("name")
    if qasm_name not in _IMPORT_NAMES:
        raise QasmError(f"unsupported gate {qasm_name!r}")
    name, expected_params = _IMPORT_NAMES[qasm_name]
    params_text = match.group("params")
    params = (
        tuple(_parse_angle(p) for p in params_text.split(","))
        if params_text
        else ()
    )
    if len(params) != expected_params:
        raise QasmError(
            f"gate {qasm_name!r} expects {expected_params} parameter(s), "
            f"got {len(params)}"
        )
    qubits = []
    for arg in match.group("args").split(","):
        qubit_match = _QUBIT.match(arg.strip())
        if not qubit_match:
            raise QasmError(f"cannot parse qubit argument {arg.strip()!r}")
        qubits.append(int(qubit_match.group(1)))
    gate = Gate(name, tuple(qubits), params)
    if circuit is None:
        raise QasmError("gate statement before qreg declaration")
    circuit.append(gate)
    return circuit
