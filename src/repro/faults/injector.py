"""Deterministic, seedable fault injection.

A fault *schedule* is a tuple of frozen fault specs, each pinned to a
point in simulated time.  The specs live on ``SystemConfig.faults`` so a
faulty cluster is just another system variant — the same way IC/IC+/IC+M
toggle planner features, a chaos configuration toggles failure modes.

The injector itself holds the only mutable state: which one-shot faults
(exchange drops, fragment OOM kills) have already fired.  Everything is
deterministic — given the same schedule and the same sequence of queries,
two runs observe byte-identical failures.  ``random_schedule`` derives a
schedule from a seed for property-style chaos sweeps.

Time semantics:

* :class:`SiteCrash` and :class:`SiteSlowdown` act in *continuous*
  simulated time: the scheduler processes them as discrete events, so a
  crash at ``t=0.5`` kills tasks in flight at that instant.
* :class:`ExchangeDrop` and :class:`FragmentOom` are one-shot faults that
  fire on the first query attempt *starting* at or after ``at`` — the
  row-level interpreter has no mid-query clock, so these model "the next
  query to touch this resource loses it".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.obs.metrics import get_registry

#: Wildcard for "any exchange" / "any fragment" in one-shot faults.
ANY = -1


@dataclass(frozen=True)
class SiteCrash:
    """Site ``site`` dies permanently at simulated time ``at``."""

    site: int
    at: float = 0.0


@dataclass(frozen=True)
class SiteSlowdown:
    """Site ``site`` retires work ``factor``x slower from time ``at``."""

    site: int
    factor: float
    at: float = 0.0


@dataclass(frozen=True)
class ExchangeDelay:
    """Every shipment over ``exchange_id`` is delayed ``delay_seconds``.

    ``exchange_id=ANY`` delays every exchange (a slow-network scenario).
    """

    exchange_id: int
    delay_seconds: float
    at: float = 0.0


@dataclass(frozen=True)
class ExchangeDrop:
    """One-shot: the next shipment over ``exchange_id`` at/after ``at`` is
    lost in flight, failing the query attempt."""

    exchange_id: int
    at: float = 0.0


@dataclass(frozen=True)
class FragmentOom:
    """One-shot: the next execution of ``fragment_id`` at/after ``at`` is
    OOM-killed, failing the query attempt."""

    fragment_id: int
    at: float = 0.0


FaultSpec = object  # union of the five spec classes above

_SPEC_RE = re.compile(
    r"^(?P<head>-?\d+)(?:x(?P<factor>\d+(?:\.\d+)?))?(?:@t=(?P<at>\d+(?:\.\d+)?))?$"
)


def parse_fault(kind: str, text: str) -> FaultSpec:
    """Parse a CLI fault spec like ``2@t=0.5`` or ``1x4@t=0.2``.

    ``kind`` is one of ``kill-site``, ``slow-site`` (needs the ``xF``
    factor), ``delay-exchange`` (factor is the delay in seconds),
    ``drop-exchange``, ``oom-fragment``.
    """
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise ExecutionError(f"cannot parse fault spec {text!r}")
    head = int(match.group("head"))
    factor = match.group("factor")
    at = float(match.group("at") or 0.0)
    if kind == "kill-site":
        return SiteCrash(site=head, at=at)
    if kind == "slow-site":
        if factor is None:
            raise ExecutionError(
                f"slow-site needs a factor, e.g. 1x4@t=0.2 (got {text!r})"
            )
        return SiteSlowdown(site=head, factor=float(factor), at=at)
    if kind == "delay-exchange":
        if factor is None:
            raise ExecutionError(
                f"delay-exchange needs a delay, e.g. 0x0.5@t=0.2 (got {text!r})"
            )
        return ExchangeDelay(exchange_id=head, delay_seconds=float(factor), at=at)
    if kind == "drop-exchange":
        return ExchangeDrop(exchange_id=head, at=at)
    if kind == "oom-fragment":
        return FragmentOom(fragment_id=head, at=at)
    raise ExecutionError(f"unknown fault kind {kind!r}")


def random_schedule(
    seed: int,
    sites: int,
    horizon_seconds: float,
    crashes: int = 1,
    slowdowns: int = 0,
    keep_alive: int = 1,
) -> Tuple[FaultSpec, ...]:
    """A seed-derived fault schedule (deterministic; for chaos sweeps).

    At most ``sites - keep_alive`` distinct sites are crashed so the
    cluster always retains capacity to answer queries.
    """
    import random

    rng = random.Random(seed)
    schedule: List[FaultSpec] = []
    victims = list(range(sites))
    rng.shuffle(victims)
    for site in victims[: max(0, min(crashes, sites - keep_alive))]:
        schedule.append(
            SiteCrash(site=site, at=rng.uniform(0.0, horizon_seconds))
        )
    for _ in range(slowdowns):
        schedule.append(
            SiteSlowdown(
                site=rng.randrange(sites),
                factor=rng.choice((2.0, 4.0, 8.0)),
                at=rng.uniform(0.0, horizon_seconds),
            )
        )
    return tuple(sorted(schedule, key=lambda s: (s.at, s.site)))


class FaultInjector:
    """Interprets a fault schedule for the engine and the scheduler.

    Mutable state is limited to the set of consumed one-shot faults; all
    queries of one chaos run share a single injector so a consumed drop or
    OOM does not refire on retry (the retry therefore succeeds, which is
    what makes those faults *transient*).  The empty schedule is the
    fault-free run — every site alive, no events, nothing to take, zero
    delay — which is how the engine executes when given no injector.
    """

    def __init__(self, schedule: Sequence[FaultSpec] = ()):
        self.schedule: Tuple[FaultSpec, ...] = tuple(schedule)
        #: Indices (not specs) of consumed one-shots: two identical specs
        #: in a schedule mean two faults, and each must fire once.
        self._consumed: set = set()

    # -- site liveness -------------------------------------------------------

    def dead_sites(self, at: float) -> FrozenSet[int]:
        """Sites already crashed at simulated time ``at``."""
        return frozenset(
            spec.site
            for spec in self.schedule
            if isinstance(spec, SiteCrash) and spec.at <= at
        )

    def alive_sites(self, total: int, at: float) -> List[int]:
        dead = self.dead_sites(at)
        return [s for s in range(total) if s not in dead]

    def scheduler_events(self) -> List[Tuple[float, str, Tuple]]:
        """(time, kind, payload) crash/slowdown events for the simulator."""
        events: List[Tuple[float, str, Tuple]] = []
        for spec in self.schedule:
            if isinstance(spec, SiteCrash):
                events.append((spec.at, "crash", (spec.site,)))
            elif isinstance(spec, SiteSlowdown):
                events.append((spec.at, "slow", (spec.site, spec.factor)))
        return sorted(events)

    # -- exchange faults -----------------------------------------------------

    def exchange_delay_seconds(self, exchange_id: int, at: float) -> float:
        """Total injected delay for shipments over ``exchange_id``."""
        return sum(
            spec.delay_seconds
            for spec in self.schedule
            if isinstance(spec, ExchangeDelay)
            and spec.at <= at
            and spec.exchange_id in (ANY, exchange_id)
        )

    def take_exchange_drop(self, exchange_id: int, at: float) -> bool:
        """True exactly once per matching :class:`ExchangeDrop` spec."""
        for index, spec in enumerate(self.schedule):
            if (
                isinstance(spec, ExchangeDrop)
                and index not in self._consumed
                and spec.at <= at
                and spec.exchange_id in (ANY, exchange_id)
            ):
                self._consumed.add(index)
                get_registry().inc("faults.exchange_drops")
                return True
        return False

    def take_fragment_oom(self, fragment_id: int, at: float) -> bool:
        """True exactly once per matching :class:`FragmentOom` spec."""
        for index, spec in enumerate(self.schedule):
            if (
                isinstance(spec, FragmentOom)
                and index not in self._consumed
                and spec.at <= at
                and spec.fragment_id in (ANY, fragment_id)
            ):
                self._consumed.add(index)
                get_registry().inc("faults.fragment_ooms")
                return True
        return False

    def reset(self) -> None:
        """Forget consumed one-shot faults (start a fresh chaos run)."""
        self._consumed.clear()
