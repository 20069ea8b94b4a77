"""Circuit cutting: cut search, cutting, and subcircuit variant generation."""

from .cutter import (
    CutCircuit,
    Subcircuit,
    SubcircuitLine,
    WireCut,
    cut_circuit,
    cut_circuit_from_assignment,
)
from .model import (
    CutSearchBudgetExceeded,
    CutSearchError,
    PartitionCost,
    evaluate_partition,
    objective_from_f,
)
from .mip import MIPCutSearcher, branch_and_bound_search
from .heuristics import heuristic_search, local_search, scan_partition
from .searcher import (
    DEFAULT_MAX_CUTS,
    DEFAULT_MAX_SUBCIRCUITS,
    CutSolution,
    clear_cut_memo,
    cut_memo_stats,
    find_cuts,
)
from .variants import (
    INIT_LABELS,
    MEAS_BASES,
    SubcircuitResult,
    SubcircuitVariant,
    VariantCircuitFactory,
    generate_variants,
    num_physical_variants,
    variant_circuit,
)

__all__ = [
    "CutCircuit",
    "Subcircuit",
    "SubcircuitLine",
    "WireCut",
    "cut_circuit",
    "cut_circuit_from_assignment",
    "CutSearchError",
    "CutSearchBudgetExceeded",
    "PartitionCost",
    "evaluate_partition",
    "objective_from_f",
    "MIPCutSearcher",
    "branch_and_bound_search",
    "heuristic_search",
    "local_search",
    "scan_partition",
    "DEFAULT_MAX_CUTS",
    "DEFAULT_MAX_SUBCIRCUITS",
    "CutSolution",
    "find_cuts",
    "clear_cut_memo",
    "cut_memo_stats",
    "INIT_LABELS",
    "MEAS_BASES",
    "SubcircuitResult",
    "SubcircuitVariant",
    "VariantCircuitFactory",
    "generate_variants",
    "num_physical_variants",
    "variant_circuit",
]
