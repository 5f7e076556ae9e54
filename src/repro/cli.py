"""Command-line interface for the reproduction (``repro-bench``).

Three families of subcommands, all listed with their flags by
``repro-bench --help`` and ``repro-bench <command> --help``: the paper
artefacts (``failures``, ``figure7``-``figure11``, ``table3``) ask one
:class:`repro.bench.reporting.PaperRun` for the artefact and print its
``to_text()``; the single-cluster tools (``query``, ``trace``,
``verify``, ``chaos``, ``adaptive``) load TPC-H or SSB and drive one
subsystem; and the five artefact benches (``serve``, ``colbench``,
``midquery``, ``sketchbench``, ``fedbench``) share one path — run, print,
validate the versioned JSON artefact, write ``--out``, exit non-zero on a
violation — with ``--smoke`` as the tiny deterministic tier-1 variant.
Exit codes are the ``EXIT_*`` constants below, so CI can tell a wrong
answer from a broken invariant from a harness crash from bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.bench import colbench, fedbench, midquery, sketchbench
from repro.bench.adaptive import default_workload, run_adaptive
from repro.bench.core import observe
from repro.bench.reporting import AQL_WORKLOAD, TPCH_WORKLOAD, PaperRun
from repro.bench.serve import ServeBenchError, build_tenants, run_serve_bench
from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import load_tpch_cluster
from repro.common.config import PRESETS
from repro.common.errors import ReproError
from repro.faults.chaos import run_chaos
from repro.faults.injector import parse_fault
from repro.obs.trace import validate_trace
from repro.serve.admission import AdmissionError
from repro.serve.traffic import TrafficError
from repro.verify import differential  # looked up per call, so a patched check runs
from repro.verify.generator import SSB_EXTRA_EDGES, QueryGenerator

#: ``repro-bench`` exit codes.  Distinct codes let CI classify a failure
#: without parsing stdout; crash > invariant > mismatch when several
#: classes occur in one sweep.
EXIT_OK = 0
EXIT_MISMATCH = 1   # distributed rows diverged from the reference executor
EXIT_INVARIANT = 2  # an optimised plan violated a structural invariant
EXIT_CRASH = 3      # the harness itself raised — a bug in the repro
EXIT_USAGE = 64     # bad arguments (BSD EX_USAGE)


class UsageError(Exception):
    """Bad arguments argparse cannot catch; ``main`` prints the message
    and exits :data:`EXIT_USAGE`."""


def _floats(raw: str) -> Tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


def _ints(raw: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in raw.split(","))


def _query_name(raw: str) -> str:
    """Canonical query id: upper-cased, and a bare or ``Q``-prefixed
    number names a TPC-H query (``3``, ``q3`` and ``Q03`` are ``Q3``)."""
    name = raw.strip().upper()
    digits = name[1:] if name.startswith("Q") else name
    return f"Q{int(digits)}" if digits.isdecimal() else name


def _choices(
    raw: str,
    valid: Iterable[str],
    what: str,
    canon: Callable[[str], str] = str.strip,
) -> List[str]:
    """Split a comma-separated flag value, rejecting unknown members."""
    valid = list(valid)
    values = [canon(value) for value in raw.split(",")]
    unknown = [value for value in values if value not in valid]
    if unknown:
        raise UsageError(
            f"unknown {what}: {', '.join(unknown)} "
            f"(choose from {', '.join(valid)})"
        )
    return values


def _workload(bench: str, ic_safe: bool = False):
    """``tpch|ssb`` -> (cluster loader, {query id: sql}); ``ic_safe``
    drops the TPC-H queries stock IC cannot plan."""
    if bench == "ssb":
        return load_ssb_cluster, {q: SSB_QUERIES[q].sql for q in SSB_QUERIES}
    return load_tpch_cluster, AQL_WORKLOAD if ic_safe else TPCH_WORKLOAD


def _write_json(path: str, obj, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")


# ---------------------------------------------------------------------------
# Paper artefacts: each command prints one repro.bench.reporting record
# ---------------------------------------------------------------------------

#: command (= the PaperRun method) -> (help, default --sf, default --sites).
PAPER_ARTEFACTS = {
    "failures": ("the Section 1 failure matrix", "0.5", "4"),
    "figure7": ("IC+ vs IC per-query speedups", "0.5,1", "4,8"),
    "figure8": ("IC+M vs IC per-query speedups", "0.5,1", "4,8"),
    "figure9": ("multithreading increment", "0.5,1", "4"),
    "table3": ("average query latency under load", "1", "4,8"),
    "figure11": ("SSB, IC vs IC+M", "0.5,1", "4,8"),
}


def cmd_paper(args) -> None:
    """The one command path of the six paper artefacts."""
    produce = getattr(PaperRun(args.sf, args.sites), args.command)
    extra = {"clients": args.clients} if hasattr(args, "clients") else {}
    print(produce(**extra).to_text())


# ---------------------------------------------------------------------------
# The five artefact benches: one run -> print -> validate -> write -> exit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArtefactBench:
    """What tells one artefact subcommand from the other four."""

    #: args (``systems``/``benches``/``queries`` already split and
    #: checked) -> a report with ``to_text``/``to_dict``/``validate``.
    run: Callable
    #: Flag values ``--smoke`` pins: the tiny deterministic CI run.
    smoke: Dict[str, object]
    #: args -> the query ids ``--queries`` may name (None: argparse
    #: already restricts the flag to choices).
    known_queries: Optional[Callable] = None
    #: How stdout names the artefact.
    label: str = ""
    #: Exit code for an artefact that fails its validator.
    invalid_exit: int = EXIT_MISMATCH


def _run_serve(args):
    loader, pool = _workload(args.queries, ic_safe=True)
    tenants = build_tenants(
        pool,
        tenants=args.tenants,
        rate=args.rate,
        arrivals=args.arrivals,
        limit=args.limit,
        clients=args.clients,
        slots=args.tenant_slots,
    )
    return run_serve_bench(
        loader,
        args.systems,
        args.sf[0],
        tenants,
        args.duration,
        seed=args.seed,
        sites=args.sites[0],
        policy=args.policy,
        max_concurrent=args.max_concurrent,
        queue_depth=args.queue_depth,
        shed_wait_seconds=args.shed_wait,
        plan_cache=not args.no_plan_cache,
    )


def _sizes(args) -> Dict[str, object]:
    """``--sf``/``--sites``/``--seed`` as the benches' keyword arguments."""
    return dict(scale_factor=args.sf[0], sites=args.sites[0], seed=args.seed)


ARTEFACT_BENCHES: Dict[str, ArtefactBench] = {
    # Smoke: one system, short horizon, small mix — exercises the full
    # serving pipeline and validates the artefact.
    "serve": ArtefactBench(
        run=_run_serve,
        smoke=dict(systems="IC+", sf=(0.01,), duration=5.0, limit=2),
        label="SLO",
        invalid_exit=EXIT_CRASH,
    ),
    # Smoke: few queries, small scale, one measured repeat — exercises
    # both backends end to end and validates the artefact (including the
    # differential columns).
    "colbench": ArtefactBench(
        run=lambda args: colbench.run_colbench(
            system=args.system,
            repeats=args.repeats,
            query_ids=args.queries and [int(q[1:]) for q in args.queries],
            **_sizes(args),
        ),
        smoke=dict(
            system="IC+", sf=(0.05,), sites=(4,), repeats=1,
            queries=",".join(f"Q{q}" for q in colbench.SMOKE_QUERY_IDS),
        ),
        known_queries=lambda args: TPCH_WORKLOAD,
    ),
    # Smoke: one system, small scale, the two queries known to re-plan —
    # exercises capture -> trigger -> suffix re-entry -> splice end to
    # end and validates the artefact (including the order-sensitive
    # differential columns).
    "midquery": ArtefactBench(
        run=lambda args: midquery.run_midquery_bench(
            systems=args.systems,
            threshold=args.threshold,
            query_ids=args.queries,
            **_sizes(args),
        ),
        smoke=dict(
            systems="IC+", sf=(0.5,), sites=(4,),
            queries=",".join(midquery.SMOKE_QUERY_IDS),
        ),
        known_queries=lambda args: midquery.MIDQUERY_QUERIES,
    ),
    # Smoke: one system, the skewed company and TPC-H cells (the
    # validator demands the TPC-H p95 join q-error improvement), three
    # queries — exercises table-sketch build -> estimator consultation ->
    # seam harvest end to end and validates the artefact including the
    # differential columns.
    "sketchbench": ArtefactBench(
        run=lambda args: sketchbench.run_sketchbench(
            systems=args.systems,
            benches=args.benches,
            query_ids=args.queries,
            **_sizes(args),
        ),
        smoke=dict(
            systems="IC+", benches=",".join(sketchbench.SMOKE_BENCHES),
            sf=(0.05,), sites=(4,),
            queries=",".join(sketchbench.SMOKE_QUERY_IDS),
        ),
        known_queries=lambda args: [
            query
            for bench in args.benches
            for query in sketchbench.SKETCHBENCH_QUERIES[bench]
        ],
    ),
    # Smoke: one system, three queries still crossing all three adapters
    # — exercises DDL routing, pushdown rules, both execution backends
    # and the chaos replay end to end and validates the artefact
    # (including the plan-flip evidence).
    "fedbench": ArtefactBench(
        run=lambda args: fedbench.run_fedbench(
            systems=args.systems, query_ids=args.queries, **_sizes(args)
        ),
        smoke=dict(
            systems="IC+", sf=(0.05,), sites=(4,),
            queries=",".join(fedbench.SMOKE_QUERY_IDS),
        ),
        known_queries=lambda args: fedbench.FEDBENCH_QUERIES,
    ),
}


def cmd_artefact(args) -> None:
    """The one command path of the five artefact benches."""
    name = args.command
    bench = ARTEFACT_BENCHES[name]
    label = bench.label or name
    if args.smoke:
        vars(args).update(bench.smoke)
    try:
        if hasattr(args, "systems"):
            args.systems = _choices(args.systems, sorted(PRESETS), "system(s)")
        if hasattr(args, "benches"):
            args.benches = _choices(
                args.benches, sketchbench.SKETCHBENCH_QUERIES, "bench(es)",
                canon=lambda raw: raw.strip().lower(),
            )
        if bench.known_queries is not None and args.queries is not None:
            args.queries = _choices(
                args.queries, bench.known_queries(args), "query id(s)",
                canon=_query_name,
            )
        report = bench.run(args)
    except (UsageError, ServeBenchError, AdmissionError, TrafficError) as exc:
        raise UsageError(f"bad {name} parameters: {exc}") from None
    print(report.to_text())
    problems = report.validate()
    if args.out:
        _write_json(args.out, report.to_dict())
        print(f"{label} artefact written to {args.out}")
    if problems:
        print(f"invalid {label} artefact: " + "; ".join(problems))
        sys.exit(bench.invalid_exit)
    if args.smoke:
        print(f"{name} smoke: artefact valid")


def cmd_adaptive(args) -> None:
    loader, pool = _workload(args.queries)
    config = PRESETS[args.system](args.sites[0]).with_(
        plan_cache=True,
        cardinality_feedback=True,
        replan_q_error_threshold=args.threshold,
    )
    result = run_adaptive(
        loader,
        default_workload(pool, args.limit),
        config,
        args.sf[0],
        repeats=args.repeats,
    )
    print(result.to_text())
    if not result.rows_stable:
        sys.exit(EXIT_MISMATCH)


def cmd_query(args) -> None:
    loader, _ = _workload(args.bench)
    config = PRESETS[args.system](args.sites[0]).with_(
        execution_backend=args.backend
    )
    if not args.no_plan_cache:
        # Ad-hoc sessions run with the adaptive layer on; --no-plan-cache
        # pins the stock always-replan behaviour.
        config = config.with_(plan_cache=True, cardinality_feedback=True)
    cluster = loader(config, args.sf[0])
    if args.explain:
        print(cluster.explain(args.sql))
        return
    if args.analyze:
        print(cluster.explain_analyze(args.sql))
        return
    outcome = cluster.try_sql(args.sql)
    if not outcome.ok:
        print(f"{outcome.status.value}: {outcome.error}")
        sys.exit(1)
    if outcome.result is not None and outcome.result.fields == ["PLAN"]:
        # EXPLAIN [ANALYZE] statements: print the plan text verbatim.
        for row in outcome.rows:
            print(row[0])
        return
    for row in outcome.rows:
        print(row)
    print(
        f"-- {len(outcome.rows)} rows, "
        f"{outcome.simulated_seconds * 1000:.2f} ms simulated"
    )


def cmd_trace(args) -> None:
    loader, pool = _workload(args.bench)
    name = _query_name(args.query) if args.bench == "tpch" else args.query
    if name not in pool:
        raise UsageError(
            f"unknown {args.bench} query {args.query!r} "
            f"(choose from {', '.join(pool)})"
        )
    sql = pool[name]
    config = PRESETS[args.system](args.sites[0]).with_(tracing=True)
    cluster = loader(config, args.sf[0])
    run = observe(cluster, sql)
    if not run.outcome.ok:
        print(f"{run.outcome.status.value}: {run.outcome.error}")
        sys.exit(EXIT_CRASH)
    artefact = cluster.last_trace.to_dict(
        query=name, system=config.name, metrics=run.delta
    )
    problems = validate_trace(artefact)
    if problems:
        print("invalid trace artefact: " + "; ".join(problems))
        sys.exit(EXIT_CRASH)
    if args.out:
        _write_json(args.out, artefact)
        print(f"trace written to {args.out}")
    else:
        print(json.dumps(artefact, indent=2, sort_keys=True))
    if args.chrome:
        _write_json(
            args.chrome, cluster.last_trace.to_chrome(), sort_keys=False
        )
        print(f"chrome trace written to {args.chrome}")


def cmd_verify(args) -> None:
    loader, _ = _workload(args.queries)
    extra_edges = SSB_EXTRA_EDGES if args.queries == "ssb" else ()
    systems = _choices(args.systems, sorted(PRESETS), "system(s)")
    sf = args.sf[0]
    sites = args.sites[0]

    def load(system):
        return loader(PRESETS[system](sites).with_(verify_execution=True), sf)

    # Every system loads the same data: the first cluster's store also
    # seeds the generator.
    cluster = load(systems[0])
    generator = QueryGenerator(
        cluster.store, seed=args.seed, extra_edges=extra_edges
    )
    queries = generator.queries(args.count)
    print(
        f"differential check: {len(queries)} random {args.queries} queries "
        f"(seed {args.seed}, sf {sf}, {sites} sites) "
        f"x systems {', '.join(systems)}"
    )
    failures: List = []
    crashes: List[str] = []
    for position, system in enumerate(systems):
        if position:
            cluster = load(system)
        ok = skipped = crashed = 0
        for sql in queries:
            try:
                report = differential.differential_check(sql, cluster)
            except Exception as exc:  # the harness must never die silently
                crashed += 1
                crashes.append(f"[{system}] {type(exc).__name__}: {exc}")
                print(f"[{system}] crash: {sql}")
                print(f"    {type(exc).__name__}: {exc}")
                continue
            if report.ok:
                ok += 1
            elif report.skipped:
                skipped += 1
            else:
                failures.append(report)
                print(f"[{system}] {report.status}: {sql}")
                print(f"    {report.detail}")
        print(
            f"{system:<5} ok={ok} skipped={skipped} "
            f"failed={len([f for f in failures if f.system == system])} "
            f"crashed={crashed}"
        )
    if crashes:
        print(f"CRASH: {len(crashes)} harness crash(es)")
        sys.exit(EXIT_CRASH)
    invariants = [f for f in failures if f.status == differential.INVARIANT]
    if invariants:
        print(
            f"FAIL: {len(invariants)} invariant violation(s) "
            f"({len(failures)} total divergences)"
        )
        sys.exit(EXIT_INVARIANT)
    if failures:
        print(f"FAIL: {len(failures)} differential check(s) diverged")
        sys.exit(EXIT_MISMATCH)
    print("PASS: all differential checks agree with the reference executor")


def cmd_chaos(args) -> None:
    faults = []
    for kind, specs in (
        ("kill-site", args.kill_site),
        ("slow-site", args.slow_site),
        ("delay-exchange", args.delay_exchange),
        ("drop-exchange", args.drop_exchange),
        ("oom-fragment", args.oom_fragment),
    ):
        for spec in specs:
            try:
                faults.append(parse_fault(kind, spec))
            except (ReproError, ValueError) as exc:
                raise UsageError(f"bad --{kind} spec: {exc}") from None
    loader, workload = _workload(args.queries)
    config = PRESETS[args.system](args.sites[0]).with_(
        faults=tuple(faults),
        max_retries=args.retries,
        query_deadline_seconds=args.deadline,
        failover_redispatch=not args.no_redispatch,
    )
    cluster = loader(config, args.sf[0])
    report = run_chaos(
        cluster,
        workload,
        seed=args.seed,
        verify_oracle=not args.no_oracle,
    )
    print(report.to_text())
    if not report.oracle_clean:
        sys.exit(EXIT_MISMATCH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the EDBT 2025 Ignite+Calcite experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_sf="0.5", default_sites="4,8"):
        p.add_argument("--sf", type=_floats, default=_floats(default_sf))
        p.add_argument(
            "--sites", type=_ints, default=_ints(default_sites)
        )

    for name, (help, sf, sites) in PAPER_ARTEFACTS.items():
        p = sub.add_parser(name, help=help)
        common(p, default_sf=sf, default_sites=sites)
        if name == "table3":
            p.add_argument("--clients", type=_ints, default=(2, 4, 8))
        p.set_defaults(func=cmd_paper)

    p = sub.add_parser(
        "verify", help="differential checks vs the reference executor"
    )
    p.add_argument("--queries", choices=("tpch", "ssb"), default="tpch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--systems", default="IC,IC+,IC+M")
    common(p, default_sf="0.05", default_sites="4")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "chaos", help="run the workload under an injected fault schedule"
    )
    p.add_argument("--queries", choices=("tpch", "ssb"), default="tpch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--system", choices=sorted(PRESETS), default="IC+")
    p.add_argument(
        "--kill-site", action="append", default=[], metavar="SITE[@t=T]",
        help="crash a site at simulated time T (e.g. 2@t=0.5)",
    )
    p.add_argument(
        "--slow-site", action="append", default=[],
        metavar="SITExFACTOR[@t=T]",
        help="slow a site's cores by FACTOR from time T (e.g. 1x4@t=0.2)",
    )
    p.add_argument(
        "--delay-exchange", action="append", default=[],
        metavar="IDxSECONDS[@t=T]",
        help="delay an exchange by SECONDS (-1 = any exchange)",
    )
    p.add_argument(
        "--drop-exchange", action="append", default=[],
        metavar="ID[@t=T]",
        help="drop an exchange once (-1 = first exchange of the attempt)",
    )
    p.add_argument(
        "--oom-fragment", action="append", default=[],
        metavar="ID[@t=T]",
        help="OOM-kill a fragment once (-1 = any fragment)",
    )
    p.add_argument("--retries", type=int, default=2)
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline in simulated seconds",
    )
    p.add_argument(
        "--no-redispatch", action="store_true",
        help="fail attempts instead of re-dispatching lost work",
    )
    p.add_argument(
        "--no-oracle", action="store_true",
        help="skip diffing recovered results against the reference executor",
    )
    common(p, default_sf="0.05", default_sites="4")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "adaptive", help="plan-cache + feedback savings on repeat runs"
    )
    p.add_argument("--queries", choices=("tpch", "ssb"), default="tpch")
    p.add_argument("--system", choices=sorted(PRESETS), default="IC+")
    p.add_argument(
        "--repeats", type=int, default=3,
        help="executions per query (first is the cold run)",
    )
    p.add_argument(
        "--limit", type=int, default=8,
        help="workload slice size (first N queries by id)",
    )
    p.add_argument(
        "--threshold", type=float, default=8.0,
        help="q-error above which a cached plan is evicted for replan",
    )
    common(p, default_sf="0.05", default_sites="4")
    p.set_defaults(func=cmd_adaptive)

    def artefact_bench(name, help, sf, example=None, systems=True, seed=7):
        """The flags every artefact subcommand shares; bench-specific
        ones are added to the returned sub-parser."""
        p = sub.add_parser(name, help=help)
        if systems:
            p.add_argument("--systems", default="IC,IC+,IC+M")
        if example:
            p.add_argument(
                "--queries", default=None,
                help=f"comma-separated query ids (e.g. {example}); "
                "default: all",
            )
        else:
            p.add_argument(
                "--queries", choices=("tpch", "ssb"), default="tpch"
            )
        p.add_argument("--seed", type=int, default=seed)
        label = ARTEFACT_BENCHES[name].label or name
        p.add_argument(
            "--out", default=None,
            help=f"write the {label} JSON artefact here",
        )
        p.add_argument(
            "--smoke", action="store_true",
            help="tiny deterministic CI run; non-zero exit on an invalid "
            "artefact",
        )
        common(p, default_sf=sf, default_sites="4")
        p.set_defaults(func=cmd_artefact)
        return p

    p = artefact_bench(
        "serve", "multi-tenant serving with admission control + SLOs",
        sf="0.05", seed=0,
    )
    p.add_argument("--tenants", type=int, default=2)
    p.add_argument(
        "--rate", type=float, default=1.0,
        help="per-tenant arrival rate (queries/simulated second)",
    )
    p.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated seconds of traffic (work drains afterwards)",
    )
    p.add_argument(
        "--policy", choices=("fifo", "priority", "wfq"), default="fifo"
    )
    p.add_argument(
        "--arrivals", choices=("poisson", "bursty", "closed"),
        default="poisson",
    )
    p.add_argument(
        "--clients", type=int, default=2,
        help="closed-loop clients per tenant (with --arrivals closed)",
    )
    p.add_argument(
        "--max-concurrent", type=int, default=0,
        help="global concurrent-query cap (0 = unbounded)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=0,
        help="run-queue bound; arrivals beyond it are REJECTED (0 = unbounded)",
    )
    p.add_argument(
        "--tenant-slots", type=int, default=0,
        help="per-tenant concurrency cap (0 = unbounded)",
    )
    p.add_argument(
        "--shed-wait", type=float, default=None,
        help="shed queued queries older than this many simulated seconds",
    )
    p.add_argument(
        "--limit", type=int, default=4,
        help="query-mix slice size (first N pool queries, 0 = all)",
    )
    p.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the adaptive layer (plan cache + feedback)",
    )

    p = artefact_bench(
        "colbench", "row vs columnar backend wall-clock comparison on TPC-H",
        sf="1", example="Q1,Q6", systems=False,
    )
    p.add_argument("--system", choices=sorted(PRESETS), default="IC+")
    p.add_argument(
        "--repeats", type=int, default=3,
        help="measured executions per backend; the best is kept",
    )

    p = artefact_bench(
        "midquery", "static vs mid-query-re-optimized makespans under skew",
        sf="1", example="MQ1,MQ3",
    )
    p.add_argument(
        "--threshold", type=float, default=4.0,
        help="observed q-error above which the plan suffix is re-planned",
    )

    p = artefact_bench(
        "sketchbench",
        "estimator q-errors, histograms-only vs sketch statistics",
        sf="0.05", example="C1,T2",
    )
    p.add_argument(
        "--benches", default="company,tpch,ssb",
        help="comma-separated cells (company = skewed star, tpch = "
        "re-skewed orders, ssb = low-skew control)",
    )

    artefact_bench(
        "fedbench", "cross-source federation cells over the storage adapters",
        sf="0.05", example="FB1,FB4",
    )

    p = sub.add_parser("query", help="run ad-hoc SQL")
    p.add_argument("sql")
    p.add_argument("--system", choices=sorted(PRESETS), default="IC+")
    p.add_argument("--bench", choices=("tpch", "ssb"), default="tpch")
    p.add_argument(
        "--backend", choices=("row", "columnar"), default="row",
        help="execution backend (columnar vectorises the interpreter; "
        "results and simulated time are identical by construction)",
    )
    p.add_argument("--explain", action="store_true")
    p.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: execute and show actual vs estimated rows",
    )
    p.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the adaptive layer (plan cache + feedback)",
    )
    common(p, default_sites="4")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "trace", help="trace one benchmark query and dump the JSON artefact"
    )
    p.add_argument("query", help="query id, e.g. Q3 (tpch) or Q1.1 (ssb)")
    p.add_argument("--system", choices=sorted(PRESETS), default="IC+M")
    p.add_argument("--bench", choices=("tpch", "ssb"), default="tpch")
    p.add_argument(
        "--out", default=None, help="write the trace JSON here (default: stdout)"
    )
    p.add_argument(
        "--chrome", default=None,
        help="also write a Chrome trace-event file (chrome://tracing)",
    )
    common(p, default_sf="0.05", default_sites="4")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(exc)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
