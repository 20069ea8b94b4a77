"""The paper's primary contribution: the end-to-end CutQC pipeline."""

from .executor import ExecutionReport, VariantExecutor
from .pipeline import CutQC, evaluate_with_cutqc
from .variational import RebindStats, VariationalSession, spsa_gains

__all__ = [
    "CutQC",
    "evaluate_with_cutqc",
    "ExecutionReport",
    "VariantExecutor",
    "RebindStats",
    "VariationalSession",
    "spsa_gains",
]
