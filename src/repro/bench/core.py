"""The decisions every bench harness shares, made once.

The evidence benches (``colbench``, ``midquery``, ``sketchbench``,
``fedbench``, ``adaptive``) are the source paper's Section 6 shape: one
data set, two configurations, the same queries on both.  What is not
specific to a bench lives here:

* one data-set loader: a data set is ``(schemas, rows, indexes)`` and
  :func:`load_dataset` turns it into a loaded cluster;
* one observation of one query on one cluster (:func:`observe`): the
  outcome, the ``MetricsRegistry.delta_since`` delta around it and, when
  asked, the verdict of ``verify.differential.oracle_detail``;
* one paired run (:func:`paired_run`): per system, a control and a
  treatment cluster from one preset, seed and scale factor, differing by
  config changes or by loader arguments;
* one row convention between two engine runs (:func:`same_rows`):
  ``canon_rows`` (floats rounded to six places) in the engine's order,
  or in the one NULLS-LAST order (:func:`sorted_rows`) when unordered;
* the artefact contract: an artefact is the schema tag plus every
  dataclass field of its report (:func:`artefact_dict`), so the keys a
  validator requires are *derived* from ``dataclasses.fields`` of the
  report and record classes (:func:`check_envelope`,
  :func:`checked_records`) and cannot drift from what is emitted.

What stays in each bench is its workload, its records and its semantic
rules (a re-plan fired, the q-error improved, pushdown reconciles).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.common.config import PRESETS
from repro.common.errors import ReproError
from repro.common.ordering import NullsLast
from repro.core.cluster import (
    IgniteCalciteCluster, QueryOutcome, QueryStatus, classify,
)
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry
from repro.verify.differential import canon_rows, oracle_detail


def sorted_rows(rows: Iterable[tuple]) -> List[tuple]:
    """``rows`` in the engine's single NULLS-LAST total order."""
    return sorted(rows, key=lambda r: tuple(NullsLast(v) for v in r))


def same_rows(a: Iterable[tuple], b: Iterable[tuple], ordered: bool) -> bool:
    """Two engine runs agree: under ``canon_rows``, in the engine's order
    when the query orders its output totally, as multisets otherwise."""
    a, b = canon_rows(a), canon_rows(b)
    return a == b if ordered else sorted_rows(a) == sorted_rows(b)


def load_dataset(config, schemas, rows, indexes=()) -> IgniteCalciteCluster:
    """A cluster with every table of ``schemas`` (in order) loaded from
    ``rows[name]``, then every ``(table, index name, columns)`` built."""
    cluster = IgniteCalciteCluster(config)
    for name, schema in schemas.items():
        cluster.create_table(schema, rows[name])
    for table, index_name, columns in indexes:
        cluster.create_index(table, index_name, columns)
    return cluster


@dataclass
class Observation:
    """One query run once on one cluster."""

    outcome: QueryOutcome
    #: ``MetricsRegistry.delta_since`` around the run: what it consumed.
    delta: Dict[str, float]
    #: The plan that ran, when observed with ``planned=True``.
    plan: Optional[PhysNode] = None
    #: ``oracle_detail`` of the rows ("" = the reference executor agrees);
    #: None when the oracle was not asked or no rows came back.
    oracle: Optional[str] = None

    @property
    def rows(self) -> List[tuple]:
        return self.outcome.rows

    @property
    def oracle_match(self) -> bool:
        return self.oracle == ""

    @property
    def failure(self) -> str:
        """Why no rows came back ("" when they did)."""
        error = self.outcome.error
        return "" if error is None else f"{type(error).__name__}: {error}"

    def count(self, name: str) -> int:
        """How far counter ``name`` moved during the run."""
        return int(self.delta.get(name, 0.0))


def observe(cluster, sql: str, planned=False, oracle=False) -> Observation:
    """Run ``sql`` once on ``cluster``: through ``try_sql`` (the statement
    pipeline, adaptive layer included), or — ``planned`` — planned first
    and that plan executed and kept, for a bench that times or digests
    it; ``oracle`` diffs the rows against the reference executor."""
    registry = get_registry()
    before, plan = registry.snapshot(), None
    if not planned:
        outcome = cluster.try_sql(sql)
    else:
        try:
            plan = cluster.plan_sql(sql)
            outcome = QueryOutcome(QueryStatus.OK, cluster.execute_plan(plan))
        except ReproError as exc:
            outcome = QueryOutcome(classify(exc), error=exc)
    run = Observation(outcome, registry.delta_since(before), plan)
    if oracle and outcome.succeeded:
        logical = cluster.parse_to_logical(sql)
        run.oracle = oracle_detail(cluster.store, logical, outcome.rows)
    return run


@dataclass
class Pair:
    """One system's control and treatment clusters over one data set."""

    system: str
    control: IgniteCalciteCluster
    treatment: IgniteCalciteCluster
    #: Registry snapshot taken before either side was loaded.
    since: Dict[str, float]

    def observe(self, sql: str, **how) -> Tuple[Observation, Observation]:
        """:func:`observe` ``sql`` on each side, control first."""
        sides = (self.control, self.treatment)
        return tuple(observe(cluster, sql, **how) for cluster in sides)

    def delta(self) -> Dict[str, float]:
        """What the pair has consumed so far, loading included."""
        return get_registry().delta_since(self.since)


def paired_run(
    load: Callable[..., IgniteCalciteCluster],
    systems: Sequence[str],
    *,
    sites: int,
    scale_factor: float,
    seed: int,
    control: Optional[Mapping] = None,
    treatment: Optional[Mapping] = None,
    layouts: Tuple[Optional[Mapping], Optional[Mapping]] = (None, None),
) -> Iterator[Pair]:
    """Per system, both sides of one comparison, loaded as
    ``load(PRESETS[system](sites).with_(**changes), scale_factor, seed,
    **layout)`` with the ``control`` / ``treatment`` config changes and
    the loader arguments of ``layouts`` (fedbench's adapter placement)."""
    for system in systems:
        base, since = PRESETS[system](sites), get_registry().snapshot()
        control_cluster, treatment_cluster = (
            load(
                base.with_(**(changes or {})), scale_factor, seed,
                **(layout or {}),
            )
            for changes, layout in zip((control, treatment), layouts)
        )
        yield Pair(system, control_cluster, treatment_cluster, since)


def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def artefact_dict(schema: str, report, derived: Sequence[str] = ()) -> Dict:
    """The JSON form of ``report``: the schema tag, every dataclass field
    (records nested via ``asdict``) and the ``derived`` properties."""
    out = {"schema": schema, **asdict(report)}
    for name in derived:
        out[name] = getattr(report, name)
    return out


def check_envelope(
    obj, schema: str, report_cls, derived: Sequence[str] = ()
) -> List[str]:
    """Top-level violations of an :func:`artefact_dict` of ``report_cls``.

    Non-empty means nothing below the top level can be trusted (not a
    dict, a key missing, another schema version): the caller returns it
    as the verdict.
    """
    if not isinstance(obj, dict):
        return [f"artefact must be a dict, got {type(obj).__name__}"]
    keys = ("schema",) + _field_names(report_cls) + tuple(derived)
    problems = [
        f"missing top-level key {key!r}" for key in keys if key not in obj
    ]
    if not problems and obj["schema"] != schema:
        problems.append(f"schema is {obj['schema']!r}, expected {schema!r}")
    return problems


def check_record(row, record_cls, label: str, problems: List[str]) -> bool:
    """True when ``row`` is a dict carrying every field of ``record_cls``;
    otherwise says what is wrong with it in ``problems``."""
    if not isinstance(row, dict):
        problems.append(f"{label} is not a dict")
        return False
    missing = [key for key in _field_names(record_cls) if key not in row]
    problems.extend(f"{label}: missing {key!r}" for key in missing)
    return not missing


def checked_records(
    obj: Dict,
    key: str,
    record_cls,
    name_fields: Sequence[str],
    problems: List[str],
) -> List[Tuple[str, Dict]]:
    """The well-formed rows of ``obj[key]`` as ``(name, row)`` pairs.

    ``obj[key]`` must be a non-empty list of ``record_cls`` dicts;
    anything else is reported in ``problems`` and left out, so the
    bench's semantic rules only ever see complete rows.  ``name`` joins
    the row's ``name_fields`` (``"MQ1/IC+"``) for use in messages.
    """
    rows = obj[key]
    if not isinstance(rows, list) or not rows:
        problems.append(f"{key} must be a non-empty list")
        return []
    out = []
    for row in rows:
        name = (
            "/".join(str(row.get(f, "?")) for f in name_fields)
            if isinstance(row, dict)
            else "?"
        )
        if check_record(row, record_cls, f"{key} {name}", problems):
            out.append((name, row))
    return out
