"""The decisions every bench harness shares, made once.

Each artefact bench (``colbench``, ``midquery``, ``sketchbench``,
``fedbench``) compares executions, samples registry counters around a
cell, summarises a distribution and emits a versioned JSON artefact with
a validator behind it.  The parts of that which are *not* specific to a
bench live here as plain functions:

* the row convention for comparing two engine runs — floats rounded to
  six places (``verify.differential.canon_rows``), one NULLS-LAST sort
  (:func:`sorted_rows`), order-sensitive :func:`ordered_match`; against
  the reference executor a bench asks ``verify.differential.oracle_detail``;
* registry counter deltas around a cell (:func:`read_counters` /
  :func:`counter_deltas`);
* the artefact contract: an artefact is the schema tag plus every
  dataclass field of its report (:func:`artefact_dict`), so the keys a
  validator requires are *derived* from ``dataclasses.fields`` of the
  report and record classes (:func:`check_envelope`,
  :func:`checked_records`) and cannot drift from what is emitted.

What stays in each bench is its workload, its run loop and its semantic
rules (a re-plan fired, the q-error improved, pushdown reconciles).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.ordering import NullsLast
from repro.obs.metrics import get_registry
from repro.verify.differential import canon_rows


def sorted_rows(rows: Iterable[tuple]) -> List[tuple]:
    """``rows`` in the engine's single NULLS-LAST total order."""
    return sorted(rows, key=lambda r: tuple(NullsLast(v) for v in r))


def ordered_match(actual: Iterable[tuple], expected: Iterable[tuple]) -> bool:
    """Order-sensitive row comparison under :func:`canon_rows`."""
    return canon_rows(actual) == canon_rows(expected)


def read_counters(names: Iterable[str]) -> Dict[str, float]:
    """Current registry values of ``names`` (the *before* of a cell)."""
    registry = get_registry()
    return {name: registry.counter(name) for name in names}


def counter_deltas(before: Dict[str, float]) -> Dict[str, int]:
    """How far each counter of a :func:`read_counters` sample has moved."""
    registry = get_registry()
    return {
        name: int(registry.counter(name) - value)
        for name, value in before.items()
    }


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
