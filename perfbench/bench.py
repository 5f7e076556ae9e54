"""One run of one workload: set-up, the timed loop, the metrics.

Every duration is scaled to the reference box's speed (:mod:`perfbench.speed`).
``--trace 0`` takes the end-to-end metrics with no wrapper installed.
``--trace 1`` takes the per-layer metrics: it alternates traced and
untraced passes on one warm cluster, so span overhead is measured against
the same process, and reads the exact counts off the first warm pass.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from repro.adaptive import reset_adaptive_state
from repro.obs.metrics import get_registry, reset_registry
from repro.stats import reset_sketch_state

from perfbench import spans, stats
from perfbench.speed import clock
from perfbench.workloads import WORKLOADS, Pass, Workload, plain_call

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Passes a run measures even when ``--seconds`` are already spent: three
#: make the median over passes robust to one bad pass (only tpch_row_paper,
#: at ~6 s a pass, is bound by this), and a traced run alternates
#: traced / plain / traced.
MIN_PASSES = 3

#: Per-layer metrics that are counts of simulated work, not times: they
#: repeat exactly for a fixed seed, and ``compare`` reports any change in
#: one as MOVED.
EXACT_METRICS = (
    "planner.budget_ticks", "planner.join_orders_enumerated",
    "planner.queries_planned", "adaptive.hit_ratio", "exec.work_units",
    "exec.rows_shipped", "exec.rows_scanned_per_result",
    "cluster.sim_makespan_s", "serve.sim_makespan_s", "serve.rejected",
    "perfbench.unresolved_points",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """The noise-hygiene block every report carries."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    load = os.getloadavg()[0]
    # Back-to-back runs of this benchmark alone hold the average near 1.0.
    if load > 1.5:
        print(
            f"perfbench: WARNING 1-min load average is {load:.2f} (> 1.5): "
            "something else is running; timings will be noisy",
            file=sys.stderr,
        )
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": load,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "clock": "time.perf_counter_ns",
        "platform": platform.platform(),
    }


class Tally:
    """Ops attempted and failed; every op is checked after its timer stops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, workload: Workload, timed: Pass) -> None:
        """Check every sample of ``timed``, then let go of its result rows
        so the pool of samples does not grow the heap being measured."""
        for index, sample in enumerate(timed.samples):
            problem = workload.check(sample)
            self.attempted += 1
            if problem is not None:
                self._fail(problem)
            timed.samples[index] = sample._replace(outcome=None)
        for _ in range(timed.rejected):
            self.attempted += 1
            self._fail("request rejected by admission control")

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)
            print(f"perfbench: FAILED {problem}", file=sys.stderr)


def _typical_ms(passes: List[Pass]) -> Dict[str, float]:
    """Each op's typical latency: the lower quartile of its samples.

    Interference from the shared box only ever adds time, so the lower
    quartile sits closer to an op's undisturbed cost than the median does,
    and unlike the minimum it survives one over-scaled sample.  Over 20
    runs of each workload it spread less than the median on 9 of 16
    workload x metric pairs, by most where spreads were widest (README
    "Noise").
    """
    per_op: Dict[str, List[float]] = defaultdict(list)
    for timed in passes:
        for sample in timed.samples:
            per_op[sample.op.op_id].append(sample.latency_ns / 1e6)
    return {op_id: stats.percentile(values, 0.25) for op_id, values in per_op.items()}


def _loop_ms(passes: List[Pass]) -> float:
    """Pass wall outside ``try_sql``, per op: the QueryServer event loop
    when serving, elsewhere just perfbench's own ``for`` loop."""
    return stats.median([
        (t.wall_ns - sum(s.latency_ns for s in t.samples)) / 1e6 / len(t.samples)
        for t in passes
    ])


def _burst_median_us(passes: List[Pass]) -> float:
    return stats.median([ns for t in passes for ns in t.scale.bursts_ns]) / 1e3


def _measure(seconds, min_passes, run_pass) -> List[Pass]:
    """Whole passes until ``seconds`` are spent (and ``min_passes`` done)."""
    passes: List[Pass] = []
    budget_ns = seconds * 1e9
    start = clock()
    while len(passes) < min_passes or clock() - start < budget_ns:
        passes.append(run_pass(len(passes)))
    return passes


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run workload ``name`` once; the driver's result object."""
    spec = load_spec()
    env = environment()
    # A fresh process has none of this state, but a caller that imports
    # perfbench (the self-tests) may.
    reset_registry()
    reset_adaptive_state()
    reset_sketch_state()
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    runner = _run_traced if trace else _run_plain
    values, report = runner(WORKLOADS[name], seed, seconds, smoke, tally)
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec[group]
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report.update(
        schema="perfbench-run/v1", workload=name, seed=seed, seconds=seconds,
        trace=int(trace), smoke=smoke, env=env, result=result,
        failed_share=tally.failed / tally.attempted,
        problems=tally.problems,
    )
    with open(OUT_DIR / f"{name}.trace{int(trace)}.json", "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    return result


# -- --trace 0: end-to-end --------------------------------------------------


def _run_plain(workload_cls, seed, seconds, smoke, tally):
    wrapped = spans.installed_wrappers()
    if wrapped:
        raise RuntimeError(f"end-to-end run with wrappers installed: {wrapped}")
    setups_ns, raw_setups_ns = [], []
    workload: Optional[Workload] = None
    for _ in range(1 if smoke else workload_cls.setup_repeats):
        # Drop the previous rehearsal's clusters before timing the next.
        workload = None
        gc.collect()
        workload = workload_cls(smoke)
        built = workload.build()
        cold = workload.cold_pass(plain_call)
        setups_ns.append(built.wall_ns + cold.wall_ns)
        raw_setups_ns.append(built.raw_wall_ns + cold.raw_wall_ns)
        tally.check(workload, cold)
    # Full collections would otherwise re-walk the loaded tables: on
    # tpch_row_paper freezing them cut the p95 spread from 280-390 ms to
    # 280-292 ms.
    gc.collect()
    gc.freeze()

    def run_pass(index: int) -> Pass:
        timed = workload.warm_pass(seed, index, plain_call)
        tally.check(workload, timed)
        return timed

    passes = _measure(seconds, 1 if smoke else MIN_PASSES, run_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The program is deterministic and single-threaded: any spread *within*
    # one op's samples is the box, not the program.  So every timing metric
    # is a function of the per-op typical latencies, and p50/p95 describe
    # the spread *across* statements (cheap ones vs the few heavy ones).
    typical = _typical_ms(passes)
    pool = [typical[s.op.op_id] for t in passes for s in t.samples]
    values = {
        "queries_per_s": 1e3 / (stats.mean(pool) + _loop_ms(passes)),
        "query_ms_p50": stats.median(pool),
        "query_ms_p95": stats.percentile(pool, 0.95),
        "query_ms_geomean": stats.geomean(list(typical.values())),
        "setup_s": stats.median(setups_ns) / 1e9,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "passes": len(passes),
        "samples": len(pool),
        "samples_beyond_p95": stats.samples_beyond(len(pool), 0.95),
        "setups_s": [ns / 1e9 for ns in setups_ns],
        "pass_wall_s": [t.wall_ns / 1e9 for t in passes],
        "op_typical_ms": typical,
        # Unscaled, for the record: what the clock read on this box.
        "raw": {
            "setups_s": [ns / 1e9 for ns in raw_setups_ns],
            "pass_wall_s": [t.raw_wall_ns / 1e9 for t in passes],
            "calibration_burst_us_median": _burst_median_us(passes),
            # Per pass: [op id, raw latency ns, speed factor] of every sample.
            "samples": [
                [
                    [s.op.op_id, round(s.latency_ns / f), f]
                    for s, f in zip(t.samples, t.factors)
                ]
                for t in passes
            ],
        },
    }
    return values, report


# -- --trace 1: per layer ---------------------------------------------------


def _sum_series(delta: Dict[str, float], name: str, containing: str = "") -> float:
    """Sum of every label set of counter ``name`` in a registry delta."""
    return math.fsum(
        value for key, value in delta.items()
        if (key == name or key.startswith(name + "{")) and containing in key
    )


def _run_traced(workload_cls, seed, seconds, smoke, tally):
    workload = workload_cls(smoke)
    setup_recorder = spans.SpanRecorder()
    with spans.traced(setup_recorder, spans.SETUP_POINTS) as unresolved:
        built = workload.build()
    setup_self, _ = spans.span_totals(setup_recorder.spans)
    setup_factor = built.wall_ns / built.raw_wall_ns
    recorder = spans.SpanRecorder()
    cold = workload.cold_pass(plain_call)
    tally.check(workload, cold)
    gc.collect()
    gc.freeze()

    registry = get_registry()
    # Exact counts come off the first warm pass: its op order is fixed by
    # the seed and the cluster state before it by the canonical cold pass.
    first_delta: Dict[str, float] = {}
    first_sim_seconds: List[float] = []

    def traced_call(op):
        return recorder.timed_op(op.op_id, op.cluster.try_sql, op.sql)

    def run_pass(index: int) -> Pass:
        # Even passes traced, odd ones plain, so both see the same state.
        if index % 2:
            timed = workload.warm_pass(seed, index, plain_call)
        else:
            before = registry.snapshot() if index == 0 else None
            with spans.traced(recorder, spans.QUERY_POINTS) as missing:
                timed = workload.warm_pass(seed, index, traced_call)
            if index == 0:
                first_delta.update(registry.delta_since(before))
                first_sim_seconds.extend(
                    s.outcome.result.simulated_seconds
                    for s in timed.samples if s.outcome.result is not None
                )
                unresolved.extend(missing)
        tally.check(workload, timed)
        return timed

    passes = _measure(seconds, 2 if smoke else MIN_PASSES, run_pass)
    traced, plain = passes[0::2], passes[1::2]
    first = passes[0]

    op_factors = [factor for t in traced for factor in t.factors]
    self_ns, inclusive_ns = spans.span_totals(recorder.spans, op_factors)
    ops = sum(len(t.samples) for t in traced)
    op_ns = inclusive_ns[spans.OP_SPAN]

    def self_ms(span: str) -> float:
        return self_ns[span] / 1e6 / ops

    def inclusive_ms(span: str) -> float:
        return inclusive_ns[span] / 1e6 / ops

    warm_ms = {**_typical_ms(traced), **_typical_ms(plain)}  # plain wins
    cold_excess_ns = cold.wall_ns - 1e6 * math.fsum(
        warm_ms[s.op.op_id] for s in cold.samples
    )
    hits = _sum_series(first_delta, "plan_cache.hits")
    lookups = hits + _sum_series(first_delta, "plan_cache.misses")
    result_rows = first_delta.get("exec.result_rows", 0.0)
    scanned = _sum_series(first_delta, "operator.rows_out", containing="Scan")
    # Pass wall relative to what its ops cost warm, so serve episodes with
    # different request mixes compare.
    plain_cost, traced_cost = (
        stats.median([
            t.wall_ns / 1e6 / math.fsum(warm_ms[s.op.op_id] for s in t.samples)
            for t in group
        ])
        for group in (plain, traced)
    )
    values = {
        "sql.parse_ms": self_ms("sql.parse"),
        "rel.sql2rel_ms": self_ms("rel.sql2rel"),
        "planner.plan_ms": inclusive_ms("planner.plan"),
        "planner.hep_ms": self_ms("planner.hep"),
        "planner.join_order_ms": self_ms("planner.join_order"),
        "planner.physical_ms": self_ms("planner.physical"),
        "planner.budget_ticks": first_delta.get("planner.budget_spent_sum", 0.0),
        "planner.join_orders_enumerated": first_delta.get(
            "planner.join_orders_enumerated", 0.0
        ),
        "planner.queries_planned": first_delta.get("planner.queries_planned", 0.0),
        "adaptive.lookup_ms": self_ms("adaptive.lookup"),
        "adaptive.observe_ms": self_ms("adaptive.observe"),
        "adaptive.hit_ratio": hits / lookups if lookups else 0.0,
        "exec.execute_ms": inclusive_ms("exec.execute"),
        "exec.operators_ms": self_ms("exec.operators"),
        "exec.fragment_ms": self_ms("exec.fragment"),
        "exec.engine_self_ms": self_ms("exec.execute"),
        "exec.work_units": first_delta.get("exec.work_units", 0.0),
        "exec.rows_shipped": first_delta.get("exec.rows_shipped", 0.0),
        "exec.rows_scanned_per_result": scanned / result_rows if result_rows else 0.0,
        "exec.cold_pass_s": cold_excess_ns / 1e9,
        "cluster.simulate_ms": self_ms("cluster.simulate"),
        "cluster.sim_makespan_s": math.fsum(first_sim_seconds),
        "serve.loop_self_ms": _loop_ms(passes),
        "serve.sim_makespan_s": first.serve_makespan,
        "serve.rejected": float(first.rejected),
        "storage.load_s": setup_self["storage.load"] * setup_factor / 1e9,
        "storage.index_s": setup_self["storage.index"] * setup_factor / 1e9,
        "bench.datagen_s": setup_self["bench.datagen"] * setup_factor / 1e9,
        "obs.tracer_overhead_pct": workload.tracer_overhead_pct(),
        "perfbench.span_overhead_pct": 100.0 * (traced_cost / plain_cost - 1.0),
        "perfbench.attributed_pct": 100.0 * (1.0 - self_ns[spans.OP_SPAN] / op_ns),
        "perfbench.unresolved_points": float(len(unresolved)),
    }
    recorder.write(OUT_DIR / f"{workload.name}.spans.jsonl")
    report = {
        "passes": len(passes),
        "traced_ops": ops,
        "raw": {"calibration_burst_us_median": _burst_median_us(passes)},
        "unresolved": unresolved,
        # Share of traced op wall time: self time for leaf layers, and the
        # inclusive planner/executor totals the workloads were chosen by.
        "layer_share_pct": {
            **{
                span: 100.0 * self_ns[span] / op_ns
                for span in sorted(self_ns) if span != spans.OP_SPAN
            },
            "planner.plan (inclusive)": 100.0 * inclusive_ns["planner.plan"] / op_ns,
            "exec.execute (inclusive)": 100.0 * inclusive_ns["exec.execute"] / op_ns,
            "unattributed": 100.0 * self_ns[spans.OP_SPAN] / op_ns,
        },
    }
    return values, report
