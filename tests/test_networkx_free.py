"""Jobs run without networkx: it is imported only where a caller asks for
a networkx object (random regular QAOA graphs, ``circuits.analysis``)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: Where ``import networkx`` may appear: (module, function or None for any
#: function of the module).  Never at module level.
ALLOWED = {
    ("library/qaoa.py", "random_regular_graph"),
    ("circuits/analysis.py", None),
}

_JOBS = """
import sys
sys.modules["networkx"] = None  # any import of it now raises ImportError

import numpy as np
from repro import CutQC, find_cuts, make_device
from repro.library import bv, bv_solution, supremacy
from repro.sim import NoiseModel

circuit = supremacy(12, seed=0)
assert find_cuts(circuit, 8).method == "heuristic"
pipeline = CutQC(circuit, 8, strategy="auto")
fd = pipeline.fd_query().probabilities
assert abs(fd.sum() - 1.0) < 1e-9

device = make_device("line", 8, "line", noise=NoiseModel(1e-3, 1e-2, 0.015))
noisy = CutQC(bv(14), 8, device=device, trajectories=8, device_shots=0, seed=3)
probabilities = noisy.fd_query().probabilities
assert int(np.argmax(probabilities)) == int(bv_solution(14), 2)

dd = CutQC(bv(26), 14).dd_query(10, max_recursions=4)
assert dd.recursions
print("ok")
"""


def _networkx_imports(tree):
    """``(enclosing function or None, line)`` of every networkx import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "networkx" for m in modules):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_networkx_is_imported_only_inside_the_allowed_functions():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for function, line in _networkx_imports(ast.parse(path.read_text())):
            if function is None or not (
                (module, function) in ALLOWED or (module, None) in ALLOWED
            ):
                offenders.append(f"{module}:{line} (in {function})")
    assert offenders == []


def test_jobs_run_with_networkx_unimportable():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", _JOBS], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
