"""The four workloads.  Each is a one-client closed loop over a fixed data
set; ``--seed`` only orders ops and draws serve traffic.

Why these four (layer that does the work at the commit that added them):

* ``tpch_row_paper`` — the paper's Fig. 7/8/Table 3 loop on the default
  row backend: row interpreter ~89 %, planner ~8 %.  Shows operator and
  nested-loop/runtime-limit work, hides planner work.
* ``tpch_col_warm`` — same queries, columnar backend, plans cached:
  vectorised kernels + batch/row conversion ~95 %, planner 0 %.  A planner
  gain must show nothing here.
* ``plan_explain`` — EXPLAIN only: join-order enumeration + physical
  planning ~90 %, execution 0 %.  An executor gain must show nothing here.
* ``serve_ssb_mixed`` — the cache-hit request path on small inputs, where
  fixed per-query costs matter.

Sizes are cut from the issue's proposal to fit the driver's time cap (see
README.md "Sizing"); TPC-H stays at SF 0.5 on the row backend because the
paper's IC failure matrix only reproduces there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.serve import build_tenants
from repro.bench.ssb import cached_ssb_data, load_ssb_cluster
from repro.bench.tpch import cached_tpch_data, load_tpch_cluster
from repro.common.config import PRESETS
from repro.serve.server import QueryServer

from perfbench import check
from perfbench.speed import SpeedScale, clock
from perfbench.stats import median

#: ``--smoke`` scale factors (every workload; golden files exist for both).
SMOKE_TPCH_SF = 0.02
SMOKE_SSB_SF = 0.05


class Op(NamedTuple):
    """One benchmark statement bound to the cluster it runs on."""

    op_id: str  # "<system>/<suite>.<query>"
    cluster: object
    sql: str
    expected: str  # QueryStatus value
    #: ``None`` for EXPLAIN ops (checked against the set-up pass's text)
    #: and for ops expected to fail.
    golden: Optional[check.GoldenQuery]


class Sample(NamedTuple):
    op: Op
    #: Scaled to the reference box's speed (see :mod:`perfbench.speed`).
    latency_ns: float
    outcome: object  # repro.core.cluster.QueryOutcome


@dataclass
class Pass:
    """One timed stretch (a pass, a serve episode, a set-up) in segments.

    Every segment ends in a calibration burst and is scaled by it, so all
    ``*_ns`` here except ``raw_wall_ns`` are at the reference box's speed.
    """

    wall_ns: float = 0.0
    raw_wall_ns: int = 0
    samples: List[Sample] = field(default_factory=list)
    #: ``factors[i]`` scaled ``samples[i]`` (the traced run scales spans by it).
    factors: List[float] = field(default_factory=list)
    rejected: int = 0
    serve_makespan: float = 0.0
    scale: SpeedScale = field(default_factory=SpeedScale)

    def close_segment(self) -> float:
        """End the current segment (whatever ran since the last one)."""
        raw, factor = self.scale.close()
        self.raw_wall_ns += raw
        self.wall_ns += raw * factor
        return factor

    def add(self, op: Op, raw_latency_ns: int, outcome) -> None:
        """End the segment that ran ``op``."""
        factor = self.close_segment()
        self.samples.append(Sample(op, raw_latency_ns * factor, outcome))
        self.factors.append(factor)


#: ``call(op) -> (raw latency_ns, outcome)``; the traced phase swaps in
#: ``SpanRecorder.timed_op``.
Call = Callable[[Op], Tuple[int, object]]


def plain_call(op: Op) -> Tuple[int, object]:
    start = clock()
    outcome = op.cluster.try_sql(op.sql)
    return clock() - start, outcome


def run_ops(ops: List[Op], call: Call) -> Pass:
    timed = Pass()
    for op in ops:
        latency, outcome = call(op)
        timed.add(op, latency, outcome)
    return timed


def _require_numpy() -> None:
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise SystemExit(
            "perfbench: this workload runs the columnar backend and needs "
            "numpy; refusing to fall back to the row backend"
        ) from None


class Workload:
    """Shared shape: build clusters, one cold canonical pass, warm passes."""

    name = ""
    #: Set-ups per untraced run (``setup_s`` is their median); one where a
    #: set-up costs 6-7 s and would not fit the time cap more often.
    setup_repeats = 1
    columnar = False
    tpch_sf = 0.5
    ssb_sf = 1.0
    #: Suites whose result rows this workload checks against golden files.
    golden_suites: Tuple[str, ...] = ("tpch",)

    def __init__(self, smoke: bool):
        self.smoke = smoke
        if smoke:
            self.tpch_sf, self.ssb_sf = SMOKE_TPCH_SF, SMOKE_SSB_SF
        self.ops: List[Op] = []
        self._setup = Pass()
        # Loaded here, not in build(): the oracle is outside the set-up timer.
        self._golden = {
            suite: check.load_golden(suite, self._scale_factor(suite))
            for suite in self.golden_suites
        }
        self._plan_rows: Dict[str, list] = {}
        if self.columnar:
            _require_numpy()

    # -- set-up ------------------------------------------------------------

    def build(self) -> Pass:
        """Generate data, load clusters, fill ``self.ops``; how long it took
        (a :class:`Pass` without samples, one scaled segment per load)."""
        # The loaders memoise generated rows per process; a set-up is only
        # timed honestly when it generates them again.
        cached_tpch_data.cache_clear()
        cached_ssb_data.cache_clear()
        self._setup = Pass()
        self._build()
        self._setup.close_segment()
        return self._setup

    def _build(self) -> None:
        raise NotImplementedError

    def _scale_factor(self, suite: str) -> float:
        return self.tpch_sf if suite == "tpch" else self.ssb_sf

    def _load(self, suite: str, config):
        """A loaded cluster of ``suite`` at this workload's scale."""
        loader = load_tpch_cluster if suite == "tpch" else load_ssb_cluster
        cluster = loader(config, self._scale_factor(suite), check.DATA_SEEDS[suite])
        self._setup.close_segment()
        return cluster

    def _add_ops(self, suite: str, cluster, explain: bool = False) -> None:
        system = cluster.config.name
        failures = {}
        if system == "IC" and suite == "tpch":
            failures = (
                check.IC_TPCH_FAILURES_SMOKE if self.smoke else check.IC_TPCH_FAILURES
            )
        for qid, sql in check.suite_queries(suite).items():
            expected = failures.get(qid, "ok")
            if explain:
                # EXPLAIN only plans, so only planning failures surface.
                expected = expected if expected == "planning_failed" else "ok"
                sql = "EXPLAIN " + sql
            golden = None
            if not explain and expected == "ok":
                golden = self._golden[suite][qid]
            self.ops.append(
                Op(f"{system}/{suite}.{qid}", cluster, sql, expected, golden)
            )

    # -- passes ------------------------------------------------------------

    def cold_pass(self, call: Call) -> Pass:
        """Every op once, in canonical order, on the just-loaded clusters."""
        return run_ops(self.ops, call)

    def warm_pass(self, seed: int, index: int, call: Call) -> Pass:
        """Every op once, shuffled by ``(seed, index)``."""
        order = list(self.ops)
        random.Random(f"{seed}/{index}").shuffle(order)
        return run_ops(order, call)

    def tracer_overhead_pct(self) -> float:
        """``config.tracing`` on vs off (measured by ``plan_explain`` only)."""
        return 0.0

    # -- checking (always after the timer stopped) --------------------------

    def check(self, sample: Sample) -> Optional[str]:
        """``None`` when the op did what it should, else what went wrong."""
        op, _, outcome = sample
        status = outcome.status.value
        if status != op.expected:
            return f"{op.op_id}: status {status}, expected {op.expected}"
        if outcome.result is None:
            return None  # failed the way the paper says it fails
        if op.golden is not None:
            problem = check.rows_mismatch(outcome.result.rows, op.golden)
            return f"{op.op_id}: {problem}" if problem else None
        # EXPLAIN: the first (set-up) call fixes the text for all later ones.
        reference = self._plan_rows.setdefault(op.op_id, outcome.result.rows)
        if outcome.result.rows != reference:
            return f"{op.op_id}: EXPLAIN text differs from the set-up pass"
        return None


class TpchRowPaper(Workload):
    name = "tpch_row_paper"

    def _build(self) -> None:
        for system in ("IC", "IC+", "IC+M"):
            config = PRESETS[system](4).with_(execution_backend="row")
            self._add_ops("tpch", self._load("tpch", config))


class TpchColWarm(Workload):
    name = "tpch_col_warm"
    columnar = True
    tpch_sf = 2.0

    def _build(self) -> None:
        # Feedback stays off so the cached plans are static; the cold pass
        # fills the plan cache and converts the touched columns to batches.
        config = PRESETS["IC+M"](4).with_(
            execution_backend="columnar", plan_cache=True
        )
        self._add_ops("tpch", self._load("tpch", config))


class PlanExplain(Workload):
    name = "plan_explain"
    setup_repeats = 2
    golden_suites = ()

    def _build(self) -> None:
        # IC is the single-phase planner path, IC+M the two-phase one;
        # EXPLAIN bypasses the plan cache by construction.
        for system in ("IC", "IC+M"):
            config = PRESETS[system](8).with_(execution_backend="row")
            for suite in ("tpch", "ssb"):
                self._add_ops(suite, self._load(suite, config), explain=True)

    def tracer_overhead_pct(self) -> float:
        """One system's TPC-H EXPLAINs on a ``tracing=True`` cluster vs plain.

        Alternating repeats, medians: ROADMAP item 1(d)'s ledger row.
        """
        plain = [op for op in self.ops if op.op_id.startswith("IC+M/tpch.")]
        config = plain[0].cluster.config.with_(tracing=True)
        cluster = self._load("tpch", config)
        traced = [op._replace(cluster=cluster) for op in plain]
        walls: Dict[bool, List[float]] = {False: [], True: []}
        for _ in range(1 if self.smoke else 5):
            for tracing, ops in ((False, plain), (True, traced)):
                walls[tracing].append(run_ops(ops, plain_call).wall_ns)
        off, on = median(walls[False]), median(walls[True])
        return 100.0 * (on - off) / off


class _TimedCluster:
    """What ``QueryServer`` sees as its cluster: times every ``try_sql``.

    The server owns the request loop, so per-request latency has to be
    taken from inside it; this proxy is the benchmark's own code and is
    in place for traced and untraced runs alike.
    """

    def __init__(self, cluster, by_sql: Dict[str, Op], call: Call):
        self.config = cluster.config
        self.fault_injector = cluster.fault_injector
        self._by_sql = by_sql
        self._call = call
        self.timed = Pass()

    def try_sql(self, sql: str, at: float = 0.0):
        op = self._by_sql[sql]
        latency, outcome = self._call(op)
        # The segment holds this request and the server loop since the last.
        self.timed.add(op, latency, outcome)
        return outcome


class ServeSsbMixed(Workload):
    name = "serve_ssb_mixed"
    setup_repeats = 3
    columnar = True
    golden_suites = ("ssb",)
    #: Simulated seconds of traffic per episode (3 tenants x 3 req/s).
    episode_seconds = 30.0
    smoke_episode_seconds = 10.0

    def _build(self) -> None:
        config = PRESETS["IC+M"](4).with_(
            execution_backend="columnar",
            plan_cache=True,
            cardinality_feedback=True,
            serve_policy="wfq",
            serve_max_concurrent=8,
        )
        self._add_ops("ssb", self._load("ssb", config))
        self._cluster = self.ops[0].cluster
        self._by_sql = {op.sql: op for op in self.ops}
        self._tenants = build_tenants(
            check.suite_queries("ssb"), tenants=3, rate=3.0, arrivals="poisson"
        )

    def cold_pass(self, call: Call) -> Pass:
        """Every template twice: with feedback on, a first execution whose
        q-error is over the threshold evicts its plan and the second one
        re-plans it for good, so warm episodes are all cache hits."""
        return run_ops(self.ops + self.ops, call)

    def warm_pass(self, seed: int, index: int, call: Call) -> Pass:
        """One episode of Poisson traffic; runs never share an episode seed."""
        proxy = _TimedCluster(self._cluster, self._by_sql, call)
        server = QueryServer(proxy, self._tenants, seed=seed * 1000 + index)
        duration = self.smoke_episode_seconds if self.smoke else self.episode_seconds
        result = server.run(duration)
        timed = proxy.timed
        timed.close_segment()  # the drain after the last request
        timed.rejected = len(result.rejected)
        timed.serve_makespan = result.makespan
        return timed


WORKLOADS = {
    cls.name: cls for cls in (TpchRowPaper, TpchColWarm, PlanExplain, ServeSsbMixed)
}
