"""The paper's primary contribution: the end-to-end CutQC pipeline."""

from .config import RunConfig
from .executor import ExecutionReport, VariantExecutor
from .pipeline import CutQC, evaluate_with_cutqc
from .variational import RebindStats, spsa_gains

__all__ = [
    "CutQC",
    "evaluate_with_cutqc",
    "RunConfig",
    "ExecutionReport",
    "VariantExecutor",
    "RebindStats",
    "spsa_gains",
]
