"""The metrics registry: counters, gauges and histograms.

One process-wide registry collects everything the instrumented layers
emit — planner rule fire-counts, per-operator row flows, exchange
bytes/batches, fragment memory high-water marks, fault and retry counts.
All values are driven by the deterministic simulation, so two identical
runs produce identical snapshots.

Metric identity is ``name`` plus optional labels; a snapshot flattens
each series to ``name{k=v,...}`` with labels sorted, which is what the
benchmark harness stores per measured query and what the trace artefact
embeds.

The registry is intentionally global (like Prometheus client default
registries): instrumented code never threads a handle around.  It is the
one process-wide registry left — plan caches, feedback and sketches
belong to their cluster — so tests isolate themselves through
:func:`reset_registry` alone, invoked by an autouse fixture in
``tests/conftest.py``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _flat(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramSummary:
    """Summary statistics for one histogram series.

    Samples are retained (the simulation produces bounded, deterministic
    series) so the summary can answer exact percentile queries — the SLO
    reports in :mod:`repro.serve.slo` are built on ``percentile``.
    """

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    #: Every observed value, in observation order.
    values: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) with linear interpolation.

        ``q=0`` is the minimum, ``q=1`` the maximum, ``q=0.5`` the median;
        between sample ranks the value is interpolated linearly (the
        "linear" method of ``numpy.percentile``).  Raises ``ValueError``
        on an empty histogram or a ``q`` outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q={q} outside [0, 1]")
        if not self.values:
            raise ValueError("percentile of an empty histogram")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        if lower == upper:
            return ordered[lower]
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class MetricsRegistry:
    """Holds every metric series emitted since the last reset."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, HistogramSummary] = {}

    # -- emission ----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge_max(self, name: str, value: float, **labels) -> None:
        """High-water gauge: keep the maximum value ever set."""
        key = _key(name, labels)
        current = self._gauges.get(key)
        if current is None or value > current:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into the histogram series ``name{labels}``."""
        key = _key(name, labels)
        summary = self._histograms.get(key)
        if summary is None:
            summary = self._histograms[key] = HistogramSummary()
        summary.observe(value)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        return self._counters.get(_key(name, labels), 0.0)

    def gauge(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels) -> HistogramSummary:
        return self._histograms.get(_key(name, labels), HistogramSummary())

    def snapshot(self) -> Dict[str, float]:
        """Every series flattened to ``name{k=v,...} -> value``.

        Histograms expand to ``_count``/``_sum``/``_min``/``_max``
        sub-series.  The result is JSON-serialisable and deterministic.
        """
        out: Dict[str, float] = {}
        for key, value in self._counters.items():
            out[_flat(key)] = value
        for key, value in self._gauges.items():
            out[_flat(key)] = value
        for key, summary in self._histograms.items():
            name, labels = key
            for suffix, value in (
                ("_count", float(summary.count)),
                ("_sum", summary.total),
                ("_min", summary.min),
                ("_max", summary.max),
            ):
                out[_flat((name + suffix, labels))] = value
        return dict(sorted(out.items()))

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counter-style difference of the current snapshot vs ``before``.

        Gauges and histogram min/max are point-in-time, so the delta keeps
        their current value whenever the series changed at all; counters
        and sums subtract.  Series that did not move are omitted — the
        benchmark harness stores this as "what one query consumed".
        """
        now = self.snapshot()
        delta: Dict[str, float] = {}
        for name, value in now.items():
            base = before.get(name, 0.0)
            if name.endswith(("_min", "_max")) or value == base:
                if value != base:
                    delta[name] = value
                continue
            delta[name] = value - base
        return delta

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer writes to."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the process-wide registry (test isolation)."""
    _REGISTRY.reset()


# -- tenant attribution -------------------------------------------------------
#
# The serving layer (repro.serve) multiplexes many tenants over one cluster.
# Shared components (plan cache, feedback registry, estimator) emit metrics
# without knowing who they are serving; the server brackets each request in a
# ``tenant_scope`` and the emission sites splice ``tenant_labels()`` into
# their label sets.  Outside any scope the helpers are no-ops, so single-query
# paths keep their historical unlabelled series names.

_TENANT_STACK: List[str] = []


def current_tenant() -> Optional[str]:
    """The tenant whose request is being served, or None outside serving."""
    return _TENANT_STACK[-1] if _TENANT_STACK else None


@contextmanager
def tenant_scope(tenant: Optional[str]):
    """Attribute metrics emitted inside the block to ``tenant``.

    ``None`` is a no-op scope so callers can pass an optional tenant
    straight through.
    """
    if tenant is None:
        yield
        return
    _TENANT_STACK.append(str(tenant))
    try:
        yield
    finally:
        _TENANT_STACK.pop()


def tenant_labels() -> Dict[str, str]:
    """``{"tenant": <current>}`` inside a scope, ``{}`` outside."""
    tenant = current_tenant()
    return {"tenant": tenant} if tenant is not None else {}


# -- distribution summaries ---------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Deterministic and exact for the small samples the chaos, AQL and
    q-error harnesses produce (no interpolation: the returned value is
    always an observed one).
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- estimation quality -------------------------------------------------------


def q_error(estimated: float, actual: float) -> float:
    """The q-error of a cardinality estimate: ``max(e/a, a/e)`` >= 1.

    Both sides are floored at one row first (the standard convention, e.g.
    Leis et al., "How Good Are Query Optimizers, Really?"), so empty
    results and 1-row estimates compare sanely instead of dividing by
    zero.
    """
    e = max(float(estimated), 1.0)
    a = max(float(actual), 1.0)
    return e / a if e >= a else a / e
