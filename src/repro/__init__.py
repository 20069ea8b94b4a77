"""CutQC reproduction: evaluate large quantum circuits with small QPUs.

Cut a circuit into subcircuits that fit a small (virtual) quantum device,
run the subcircuit variants, and classically reconstruct — or dynamically
sample — the uncut circuit's output distribution.

Quickstart::

    from repro import CutQC, supremacy

    circuit = supremacy(8, seed=0)
    pipeline = CutQC(circuit, max_subcircuit_qubits=5)
    result = pipeline.fd_query()
    print(result.probabilities)

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced tables/figures.
"""

from .circuits import Gate, QuantumCircuit, build_circuit_graph
from .core import (
    CutQC,
    ExecutionReport,
    RebindStats,
    RunConfig,
    VariantExecutor,
    evaluate_with_cutqc,
)
from .cutting import (
    CutCircuit,
    CutSearchError,
    CutSolution,
    Subcircuit,
    cut_circuit,
    cut_circuit_from_assignment,
    find_cuts,
)
from .devices import VirtualDevice, bogota, get_device, johannesburg, make_device
from .library import (
    adder,
    aqft,
    bv,
    get_benchmark,
    grover,
    hwea,
    supremacy,
    valid_sizes,
)
from .metrics import chi_square_loss, chi_square_reduction, fidelity
from .postprocess import (
    ContractionEngine,
    DynamicDefinitionQuery,
    PrecomputedTensorProvider,
    QueryPlan,
    Reconstructor,
    contract_terms,
)
from .sim import (
    BatchedStatevector,
    NoiseModel,
    ShotSampler,
    Statevector,
    fuse_gates,
    simulate_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "Gate",
    "QuantumCircuit",
    "build_circuit_graph",
    "CutQC",
    "ExecutionReport",
    "RunConfig",
    "VariantExecutor",
    "RebindStats",
    "evaluate_with_cutqc",
    "CutCircuit",
    "CutSearchError",
    "CutSolution",
    "Subcircuit",
    "cut_circuit",
    "cut_circuit_from_assignment",
    "find_cuts",
    "VirtualDevice",
    "bogota",
    "get_device",
    "johannesburg",
    "make_device",
    "adder",
    "aqft",
    "bv",
    "get_benchmark",
    "grover",
    "hwea",
    "supremacy",
    "valid_sizes",
    "chi_square_loss",
    "chi_square_reduction",
    "fidelity",
    "ContractionEngine",
    "contract_terms",
    "DynamicDefinitionQuery",
    "PrecomputedTensorProvider",
    "Reconstructor",
    "NoiseModel",
    "ShotSampler",
    "BatchedStatevector",
    "Statevector",
    "fuse_gates",
    "simulate_probabilities",
    "__version__",
]
