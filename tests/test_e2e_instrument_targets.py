"""The e2e benchmark's timing patches still land on the program.

``benchmarks/e2e/cutqc_e2e/spans.py`` times hot callables by patching
``(owner, attr)`` pairs inside its ``instrument()`` block.  A rename in
``src/repro`` would make that patch raise (or, for a module-level name no
caller reads any more, time nothing) only when the e2e run is traced.
This test reads the file with :mod:`ast` — without importing or editing
it — and resolves every target against the package, so such a rename
fails here first.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

SPANS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "cutqc_e2e" / "spans.py"
)


def _instrument() -> ast.FunctionDef:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (function,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "instrument"
    ]
    return function


def _imported_names(function: ast.FunctionDef) -> dict:
    """``name -> object`` for each ``from module import name`` in the
    function body: a submodule when one exists, else the attribute."""
    names = {}
    for node in ast.walk(function):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    names[alias.asname or alias.name] = importlib.import_module(
                        f"{node.module}.{alias.name}"
                    )
                except ModuleNotFoundError:
                    names[alias.asname or alias.name] = getattr(
                        module, alias.name
                    )
    return names


def _targets():
    function = _instrument()
    (assign,) = [
        node for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "targets" for t in node.targets)
    ]
    return [
        (element.elts[0].id, element.elts[1].value)
        for element in assign.value.elts
    ]


def test_the_instrument_block_has_targets():
    owners = {owner for owner, _ in _targets()}
    assert {"pipeline", "variational", "ContractionEngine"} <= owners


@pytest.mark.parametrize(
    "owner,attr", _targets(), ids=[f"{o}.{a}" for o, a in _targets()]
)
def test_every_patch_target_resolves(owner, attr):
    scope = _imported_names(_instrument())
    assert owner in scope, f"{owner} is not imported by instrument()"
    target = scope[owner]
    assert callable(getattr(target, attr, None)), f"{owner}.{attr} is gone"
    if inspect.ismodule(target):
        # A module-level patch only times calls the module itself makes.
        source = inspect.getsource(target)
        assert f"{attr}(" in source, (
            f"{target.__name__} no longer calls {attr}: patching it "
            "times nothing"
        )
