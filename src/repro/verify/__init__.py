"""Differential correctness harness (reference oracle + plan invariants)."""

from repro.verify.differential import (
    DifferentialReport,
    compare_results,
    differential_check,
    oracle_detail,
)
from repro.verify.generator import (
    JoinEdge,
    QueryGenerator,
    SchemaProfile,
    SSB_EXTRA_EDGES,
)
from repro.verify.invariants import PlanValidator, Violation
from repro.verify.reference import ReferenceExecutor

__all__ = [
    "DifferentialReport",
    "JoinEdge",
    "PlanValidator",
    "QueryGenerator",
    "ReferenceExecutor",
    "SSB_EXTRA_EDGES",
    "SchemaProfile",
    "Violation",
    "compare_results",
    "differential_check",
    "oracle_detail",
]
