"""One compiled body program in ``repro.sim`` for every executor.

* the layering, as an AST guard over ``src/repro``: simulator code lives
  in ``sim/``, which imports nothing from the layers above it, and one
  memo holds compiled bodies;
* the program memo is safe under threads: a concurrent eviction between
  lookup and refresh is a hit, not a ``KeyError``;
* the exact, density and trajectory executors of one body read one
  program.
"""

import ast
import pathlib
from collections import OrderedDict

import repro
from repro import cut_circuit, QuantumCircuit
from repro.cutting.variants import NoisyEvalSpec, body_program
from repro.sim import NoiseModel, noisy_batch

SRC = pathlib.Path(repro.__file__).resolve().parent
SIMULATOR_NAMES = {
    "BatchedStatevector",
    "evolve_density",
    "fork_suffix",
    "apply_readout_error_rows",
}
UPPER_LAYERS = ("repro.cutting", "repro.devices", "repro.core", "repro.postprocess")
BODY_MEMOS = {"_PLAN_CACHE", "_GEOMETRY_CACHE", "_PROGRAM_CACHE"}


def _modules(package):
    for path in sorted((SRC / package).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imported_modules(path, tree):
    """Absolute names of the modules ``tree`` imports from."""
    package = ["repro"] + list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            yield ".".join(base + ([node.module] if node.module else []))


def _fig4_cut():
    circuit = QuantumCircuit(5)
    for qubit in range(5):
        circuit.h(qubit)
    circuit.cz(0, 1).cz(1, 2).t(2).cz(2, 3).cz(3, 4)
    return cut_circuit(circuit, [(2, 1)])


class TestLayering:
    def test_cutting_holds_no_simulator_code(self):
        found = []
        for path, tree in _modules("cutting"):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                if name in SIMULATOR_NAMES:
                    found.append(f"{path.relative_to(SRC)}:{name}")
        assert found == []

    def test_sim_imports_no_upper_layer(self):
        found = [
            f"{path.relative_to(SRC)}: {module}"
            for path, tree in _modules("sim")
            for module in _imported_modules(path, tree)
            if module.startswith(UPPER_LAYERS)
        ]
        assert found == []

    def test_import_resolution_sees_relative_imports(self):
        # The guard above is only as good as this resolution.
        tree = ast.parse("from ..cutting.variants import x\nfrom . import batch")
        path = SRC / "sim" / "noisy_batch.py"
        assert list(_imported_modules(path, tree)) == [
            "repro.cutting.variants", "repro.sim",
        ]

    def test_one_memo_holds_compiled_bodies(self):
        defined = {
            target.id
            for package in ("sim", "cutting", "core", "devices")
            for _, tree in _modules(package)
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if isinstance(target, ast.Name) and target.id in BODY_MEMOS
        }
        assert defined == {"_PROGRAM_CACHE"}


class TestProgramMemo:
    def test_survives_concurrent_eviction(self, monkeypatch):
        class EvictOnGet(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                self.pop(key, None)
                return value

        monkeypatch.setattr(noisy_batch, "_PROGRAM_CACHE", EvictOnGet())
        downstream = _fig4_cut().subcircuits[1]
        built = body_program(downstream)
        assert body_program(downstream) is built
        assert noisy_batch.program_stats()["size"] == 0

    def test_is_bounded(self, monkeypatch):
        monkeypatch.setattr(noisy_batch, "_PROGRAM_CACHE", OrderedDict())
        monkeypatch.setattr(noisy_batch, "_PROGRAM_CACHE_LIMIT", 2)
        downstream = _fig4_cut().subcircuits[1]
        for error in (0.0, 0.01, 0.02):
            body_program(downstream, NoisyEvalSpec(noise=NoiseModel(error)))
        assert noisy_batch.program_stats()["size"] == 2

    def test_exact_and_noiseless_executors_share_one_program(self):
        for subcircuit in _fig4_cut().subcircuits:
            exact = body_program(subcircuit)
            for method in ("trajectory", "density"):
                spec = NoisyEvalSpec(noise=NoiseModel(), method=method)
                assert body_program(subcircuit, spec) is exact
