"""Observability: structured tracing, metrics and estimate-quality tools.

The instrumentation substrate behind ``EXPLAIN ANALYZE`` and
``repro-bench trace``: a hierarchical tracer on the simulated clock
(:mod:`repro.obs.trace`) and a process-wide metrics registry
(:mod:`repro.obs.metrics`).  Everything here is deterministic and
zero-dependency; with ``SystemConfig.tracing`` off the tracer is inert.
"""

from repro.obs.metrics import (
    HistogramSummary,
    MetricsRegistry,
    current_tenant,
    get_registry,
    q_error,
    reset_registry,
    tenant_labels,
    tenant_scope,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    TRACE_SCHEMA,
    Tracer,
    activate,
    get_tracer,
    validate_trace,
)

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "activate",
    "current_tenant",
    "get_registry",
    "get_tracer",
    "q_error",
    "reset_registry",
    "tenant_labels",
    "tenant_scope",
    "validate_trace",
]
