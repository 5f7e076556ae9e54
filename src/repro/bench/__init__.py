"""Benchmarks: TPC-H, SSB, and the response-time / AQL harness."""

from repro.bench.harness import (
    AqlResult,
    QueryMeasurement,
    ResponseTimeHarness,
    ResponseTimeResult,
    run_aql,
)

__all__ = [
    "AqlResult",
    "QueryMeasurement",
    "ResponseTimeHarness",
    "ResponseTimeResult",
    "run_aql",
]
