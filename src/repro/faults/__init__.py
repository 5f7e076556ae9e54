"""Fault injection and resilience (beyond-the-paper extension).

The paper's central empirical finding is that the stock Ignite+Calcite
composition is *unstable*: queries fail outright or time out under load
(Sections 3 and 6).  This package models the failure side of that story:

* :mod:`repro.faults.injector` — a deterministic, config-driven
  :class:`FaultInjector` that can crash a site, slow its cores, delay or
  drop an exchange, or OOM-kill a fragment at a chosen point in simulated
  time.
* :mod:`repro.faults.chaos` — the chaos harness: runs a workload under a
  fault schedule with per-query deadlines and exponential-backoff retries,
  reporting availability, retry counts and latency percentiles, and
  cross-checking every recovered query against the reference oracle.
"""

from repro.faults.injector import (
    ExchangeDelay,
    ExchangeDrop,
    FaultInjector,
    FragmentOom,
    SiteCrash,
    SiteSlowdown,
    parse_fault,
    random_schedule,
)
from repro.storage.table import failover_owner

_CHAOS_EXPORTS = ("ChaosRecord", "ChaosReport", "RetryPolicy", "run_chaos")


def __getattr__(name):
    # The chaos harness imports the cluster facade (and through it the
    # engine), while the engine imports this package for the injector;
    # loading repro.faults.chaos lazily breaks the cycle.
    if name in _CHAOS_EXPORTS:
        from repro.faults import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ChaosRecord",
    "ChaosReport",
    "ExchangeDelay",
    "ExchangeDrop",
    "FaultInjector",
    "FragmentOom",
    "RetryPolicy",
    "SiteCrash",
    "SiteSlowdown",
    "failover_owner",
    "parse_fault",
    "random_schedule",
    "run_chaos",
]
