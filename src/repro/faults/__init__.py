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
