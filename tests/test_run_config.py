"""One RunConfig: every run option declared, defaulted and checked once.

Covers the config itself (defaults, refusals, resolution of device and
pool names), the consumers that build it (``CutQC``, ``VariantExecutor``,
``JobSpec``, the CLI), an AST guard that no consumer re-declares an
option's default, and the store digests the scheduler derives from a job
— pinned literally, so a warm store keeps hitting across refactors.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import repro
from repro import CutQC, RunConfig, VariantExecutor
from repro.cli import build_parser
from repro.devices import DevicePool, get_device
from repro.library import bv
from repro.service import ArtifactStore
from repro.service.scheduler import JobScheduler, JobSpec

PACKAGE = Path(repro.__file__).parent
FIELDS = {field.name for field in dataclasses.fields(RunConfig)}


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(5)
        assert (config.max_subcircuits, config.max_cuts) == (5, 10)
        assert (config.method, config.strategy) == ("auto", "auto")
        assert (config.trajectories, config.noisy_method) == (24, "trajectory")
        assert config.device is config.pool is config.seed is None
        assert config.devices() == []

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"max_subcircuit_qubits": 1}, "max_subcircuit_qubits"),
            ({"max_subcircuit_qubits": "5"}, "max_subcircuit_qubits"),
            ({"max_subcircuits": 0}, "max_subcircuits"),
            ({"max_cuts": -1}, "max_cuts"),
            ({"method": "bogus"}, "method"),
            ({"strategy": "bogus"}, "strategy"),
            ({"device": "nope"}, "device"),
            ({"device": 5}, "device"),
            ({"pool": "bogota:0"}, "pool"),
            ({"pool": ","}, "pool"),
            ({"device": "bogota", "device_shots": -5}, "shots"),
            ({"device_shots": 1.5}, "shots"),
            ({"trajectories": 0}, "trajectories"),
            ({"trajectories": True}, "trajectories"),
            ({"noisy_method": "bogus"}, "noisy_method"),
            ({"seed": -1}, "seed"),
            ({"device": "bogota", "pool": "vigo"}, "not both"),
        ],
    )
    def test_refuses_a_bad_option_by_name(self, options, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{"max_subcircuit_qubits": 5, **options})

    def test_device_names_resolve_with_the_seed(self):
        config = RunConfig(5, device="bogota", seed=3)
        assert config.virtual_device == get_device("bogota", seed=3)
        pool = RunConfig(5, pool="bogota:2, vigo", seed=4).device_pool
        assert [d.name for d in pool.devices] == [
            "virtual-bogota", "virtual-bogota", "virtual-vigo"
        ]
        assert pool.devices[1] == get_device("bogota", seed=5)

    def test_device_shots_means_the_same_on_a_device_and_a_pool(self):
        device = get_device("vigo", seed=1)
        for config in (
            RunConfig(device=device),
            RunConfig(pool=DevicePool([device])),
        ):
            assert config.noisy_spec(device).shots == device.shots
        assert RunConfig(device=device, device_shots=0).noisy_spec(
            device
        ).shots == 0
        assert RunConfig(
            pool=DevicePool([device]), device_shots=0
        ).noisy_spec(device).shots == 0

    def test_explicit_cuts_are_a_frozen_copy(self):
        cuts = [[1, 2], (0, 1)]
        config = RunConfig(5, cuts=cuts)
        cuts.append((3, 3))
        assert config.cuts == ((1, 2), (0, 1))
        assert config.cut_options()["cuts"] == [(1, 2), (0, 1)]
        assert hash(config) == hash(RunConfig(5, cuts=[(1, 2), (0, 1)]))


class TestConsumers:
    def test_cutqc_keeps_its_signature(self):
        assert CutQC(bv(6), 5).config == RunConfig(5)
        assert CutQC(bv(6), max_subcircuit_qubits=5, seed=2).config == (
            RunConfig(5, seed=2)
        )
        config = RunConfig(4, strategy="kron")
        pipeline = CutQC(bv(6), config=config)
        assert pipeline.config is config and pipeline.strategy == "kron"
        with pytest.raises(TypeError, match="not both"):
            CutQC(bv(6), 5, config=config)
        with pytest.raises(TypeError, match="max_subcircuit_qubits"):
            CutQC(bv(6))
        with pytest.raises(TypeError):  # only D, budgets and method are positional
            CutQC(bv(6), 5, 5, 10, "auto", None)

    def test_executor_takes_at_most_a_config_and_two_handles(self):
        assert VariantExecutor().config == RunConfig()
        with pytest.raises(ValueError, match="not both"):
            VariantExecutor(RunConfig(device="bogota"), backend=lambda c: c)

    def test_job_spec_maps_its_wire_fields(self):
        spec = JobSpec(
            device_size=6, benchmark="bv", qubits=8, seed=7,
            device="vigo", shots=0, trajectories=3,
        )
        assert spec.run_config() == RunConfig(
            6, device="vigo", device_shots=0, trajectories=3, seed=7
        )
        assert JobSpec(device_size=6).run_config() == RunConfig(6, seed=0)

    @pytest.mark.parametrize("value", ["5", 1, 0])
    def test_job_spec_names_the_wire_field(self, value):
        spec = JobSpec(device_size=value, benchmark="bv", qubits=6)
        with pytest.raises(ValueError, match="device_size"):
            spec.validate()

    @pytest.mark.parametrize(
        "threshold", [-0.1, 1.5, math.nan, math.inf, "0.5", True, None]
    )
    def test_job_spec_refuses_a_bad_threshold(self, threshold):
        spec = JobSpec(
            device_size=5, benchmark="bv", qubits=6, threshold=threshold
        )
        with pytest.raises(ValueError, match="threshold"):
            spec.validate()

    @pytest.mark.parametrize("command", ["cut", "run", "dd"])
    def test_cli_defaults_are_the_config_defaults(self, command):
        args = build_parser().parse_args(
            [command, "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5"]
        )
        assert RunConfig.of(args) == RunConfig(5, seed=0)

    def test_cli_and_submit_declare_one_set_of_flags(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        run_flags = {
            action.dest: action.option_strings
            for action in commands["run"]._actions
        }
        submit_flags = {
            action.dest: action.option_strings
            for action in commands["submit"]._actions
        }
        for option in (FIELDS - {"seed"}) & set(submit_flags):
            assert submit_flags[option] == run_flags[option]
            assert commands["submit"].get_default(option) == getattr(
                RunConfig(), option
            )


# ----------------------------------------------------------------------
# Guard: no consumer re-declares an option's default
# ----------------------------------------------------------------------

#: The modules that consume a RunConfig.
_CONSUMERS = (
    "core/pipeline.py", "core/executor.py", "service/scheduler.py", "cli.py"
)
#: Per-circuit device paths take no RunConfig, but read the trajectory
#: default from the same place (``NoisyEvalSpec``).
_TRAJECTORY_READERS = (
    "devices/device.py", "devices/mitigation.py", "devices/calibration.py",
    "experiments/fidelity.py",
)
#: Wire and CLI spellings of RunConfig fields.
_ALIASES = {"device_size", "shots"}
#: Same-named values that are not the run's option: a job's (and the
#: CLI's) ``seed`` is first the library generator's seed, defaulted by
#: the circuit side; ``dd_query``'s ``seed`` seeds one query's shot
#: draws, and ``fd_query``'s ``strategy=None`` means the config's.
_NOT_OPTIONS = {
    ("service/scheduler.py", "JobSpec", "seed"),
    ("cli.py", "add_circuit_options", "seed"),
    ("core/pipeline.py", "dd_query", "seed"),
    ("core/pipeline.py", "fd_query", "strategy"),
}


def _literal_defaults(source: str, where: str):
    """``(owner, name, line)`` of every literal default of an option."""
    guarded = FIELDS | _ALIASES

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[::-1], args.defaults[::-1]))
                pairs += list(zip(args.kwonlyargs, args.kw_defaults))
                for arg, default in pairs:
                    if arg.arg in guarded and isinstance(default, ast.Constant):
                        yield child.name, arg.arg, default.lineno
            if isinstance(node, ast.ClassDef) and isinstance(
                child, ast.AnnAssign
            ):
                target = getattr(child.target, "id", None)
                if target in guarded and isinstance(child.value, ast.Constant):
                    yield owner, target, child.lineno
            if isinstance(child, ast.Call):
                func = child.func
                keywords = {k.arg: k.value for k in child.keywords}
                if getattr(func, "attr", None) == "add_argument":
                    flags = [
                        a.value for a in child.args
                        if isinstance(a, ast.Constant)
                    ]
                    dest = keywords.get("dest")
                    dest = dest.value if isinstance(dest, ast.Constant) else (
                        flags[0].lstrip("-").replace("-", "_") if flags else None
                    )
                    default = keywords.get("default")
                    if dest in guarded and isinstance(default, ast.Constant):
                        yield owner, dest, child.lineno
                if (
                    getattr(func, "id", None) == "getattr"
                    and len(child.args) == 3
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value in guarded
                    and isinstance(child.args[2], ast.Constant)
                ):
                    yield owner, child.args[1].value, child.lineno
            yield from visit(child, name)

    for owner, name, line in visit(ast.parse(source), None):
        if (where, owner, name) not in _NOT_OPTIONS:
            yield owner, name, line


class TestOneDeclaration:
    def test_no_consumer_writes_an_option_default_as_a_literal(self):
        found = [
            f"{where}:{line} {owner}: {name}"
            for where in _CONSUMERS
            for owner, name, line in _literal_defaults(
                (PACKAGE / where).read_text(), where
            )
        ]
        assert found == []

    def test_device_paths_read_the_trajectory_default(self):
        found = [
            f"{where}:{line} {owner}"
            for where in _TRAJECTORY_READERS
            for owner, name, line in _literal_defaults(
                (PACKAGE / where).read_text(), where
            )
            if name == "trajectories"
        ]
        assert found == []

    def test_the_guard_sees_each_kind_of_default(self):
        source = '''
import argparse
def f(trajectories=24, *, device=None): pass
class Spec:
    shots: int = 0
parser = argparse.ArgumentParser()
parser.add_argument("--noisy-method", default="trajectory")
parser.add_argument("--shots", dest="device_shots", default=8192)
value = getattr(parser, "strategy", "auto")
'''
        assert sorted(name for _, name, _ in _literal_defaults(source, "x")) == [
            "device", "device_shots", "noisy_method", "shots", "strategy",
            "trajectories",
        ]

    def test_executor_takes_at_most_three_parameters(self):
        tree = ast.parse((PACKAGE / "core/executor.py").read_text())
        (init,) = [
            node for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "VariantExecutor"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ]
        args = init.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        assert names[0] == "self" and len(names) - 1 <= 3
        assert args.vararg is None and args.kwarg is None

    def test_pool_shots_is_gone(self):
        assert not [
            path.relative_to(PACKAGE).as_posix()
            for path in PACKAGE.rglob("*.py")
            if "pool_shots" in path.read_text()
        ]


# ----------------------------------------------------------------------
# The store digests a job maps to
# ----------------------------------------------------------------------

_BV6 = "e69aa26d642d89245df7fdcd55239a73c09a8d8f35123ec5aff794967240d926"

#: ``(extra JobSpec fields, cut digest, evaluation digest)`` for bv-6 on
#: D=5 at seed 3 with 4 trajectories, as the scheduler computes them.
_GOLDEN = [
    ({}, _BV6,
     "f813d99cdfd53ff9ae877737cd6cb05e6447d22e68d30ad50d079fc743043718"),
    ({"device": "bogota", "noisy_method": "trajectory", "shots": None}, _BV6,
     "d118a5da35470cb3634278fed7cc2422bf39f4d3dab7c3f82ea6ab4c8a3afb07"),
    ({"device": "bogota", "noisy_method": "trajectory", "shots": 0}, _BV6,
     "a8ece58f28c656e5911b9c7813259946b465270cfb3dcb94833e6a8dfc0522b0"),
    ({"device": "bogota", "noisy_method": "trajectory", "shots": 8192}, _BV6,
     "3a2b2f84eff99fd20cbc6bd66d31b03e8c8643dd839f19a04fed9751063b5342"),
    ({"device": "bogota", "noisy_method": "density", "shots": None}, _BV6,
     "37635d8c34b12be10e5c8f7015f835de2ec1bcfb995fa78a2ccf69312317f715"),
    ({"device": "bogota", "noisy_method": "density", "shots": 0}, _BV6,
     "6aa000b4e0a3161d1eae3fba9c4b86fcd55eb0f999bb8cb27e2c7063e38109b2"),
    ({"device": "bogota", "noisy_method": "density", "shots": 8192}, _BV6,
     "91b510fadbf9b9049c1d6732f1ef6595d93fdfc699afe04c4b64a88ac3f46832"),
    ({"method": "heuristic", "max_subcircuits": 3, "max_cuts": 6},
     "569b0c9d1ede6e0421e6d12c7d89e470a8415761a077348a034fe5fc0f5285fb",
     "1ebcd8049282c68de29d204e77c412aaa9e68f037a77117c1c1280482feddcab"),
]


def test_scheduler_fingerprints_are_pinned(tmp_path):
    scheduler = JobScheduler(ArtifactStore(tmp_path), workers=1, autostart=True)
    try:
        for extra, cut_key, evaluation_key in _GOLDEN:
            spec = JobSpec(
                device_size=5, benchmark="bv", qubits=6, seed=3,
                trajectories=4, **extra,
            )
            record = scheduler.wait(scheduler.submit(spec), timeout=300)
            assert record.state == "done", record.error
            assert record.fingerprints == {
                "cut": cut_key, "evaluate": evaluation_key
            }, extra
    finally:
        scheduler.shutdown()
