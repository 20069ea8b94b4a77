"""Classical postprocessing: attribution, FD reconstruction, DD query."""

from .attribution import (
    ATTRIBUTION_BASES,
    DOWNSTREAM_TERMS,
    UPSTREAM_TERMS,
    TermTensor,
    build_term_tensor,
)
from .engine import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    ContractionEngine,
    ContractionResult,
    contract_terms,
    resolve_strategy,
)
from .plan import (
    CachingTensorProvider,
    PlanExecution,
    PrecomputedTensorProvider,
    PreparedPlan,
    QueryPlan,
    binned_tensor,
    restricted_signature,
    generalized_signature,
)
from .reconstruct import (
    ReconstructionResult,
    ReconstructionStats,
    Reconstructor,
    Shard,
    StreamStats,
)
from .parallel import ParallelStats, WorkerPool
from .dd import Bin, DDRecursion, DDStats, DynamicDefinitionQuery
from .cost import (
    classical_simulation_flops,
    estimate_speedup,
    reconstruction_flops,
)
from .synthetic import RandomTensorProvider
from .shots import ShotBasedTensorProvider, estimate_required_shots

__all__ = [
    "ATTRIBUTION_BASES",
    "DOWNSTREAM_TERMS",
    "UPSTREAM_TERMS",
    "TermTensor",
    "build_term_tensor",
    "DEFAULT_STRATEGY",
    "STRATEGIES",
    "ContractionEngine",
    "ContractionResult",
    "contract_terms",
    "resolve_strategy",
    "ReconstructionResult",
    "ReconstructionStats",
    "Reconstructor",
    "binned_tensor",
    "CachingTensorProvider",
    "PlanExecution",
    "PreparedPlan",
    "QueryPlan",
    "restricted_signature",
    "generalized_signature",
    "ParallelStats",
    "WorkerPool",
    "Shard",
    "StreamStats",
    "Bin",
    "DDRecursion",
    "DDStats",
    "DynamicDefinitionQuery",
    "PrecomputedTensorProvider",
    "classical_simulation_flops",
    "estimate_speedup",
    "reconstruction_flops",
    "RandomTensorProvider",
    "ShotBasedTensorProvider",
    "estimate_required_shots",
]
