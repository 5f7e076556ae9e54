"""Observability: structured tracing, metrics and estimate-quality tools.

The instrumentation substrate behind ``EXPLAIN ANALYZE`` and
``repro-bench trace``: a hierarchical tracer on the simulated clock
(:mod:`repro.obs.trace`) and a process-wide metrics registry
(:mod:`repro.obs.metrics`).  Everything here is deterministic and
zero-dependency; with ``SystemConfig.tracing`` off the tracer is inert.
"""
