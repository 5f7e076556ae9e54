"""Unit tests for the repro-bench command-line interface."""

import argparse
import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.bench import colbench, fedbench, midquery, sketchbench
from repro.cli import build_parser, main
from repro.serve.slo import TenantSlo, validate_slo_artefact

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"


class TestArgumentParsing:
    def test_failures_defaults(self):
        args = build_parser().parse_args(["failures"])
        assert args.sf == (0.5,)
        assert args.sites == (4,)

    def test_scale_factor_list(self):
        args = build_parser().parse_args(["figure7", "--sf", "0.1,0.2"])
        assert args.sf == (0.1, 0.2)

    def test_sites_list(self):
        args = build_parser().parse_args(["figure8", "--sites", "4,8"])
        assert args.sites == (4, 8)

    def test_table3_clients(self):
        args = build_parser().parse_args(["table3", "--clients", "2,16"])
        assert args.clients == (2, 16)

    def test_query_options(self):
        args = build_parser().parse_args(
            ["query", "select 1 from t", "--system", "IC", "--bench", "ssb"]
        )
        assert args.system == "IC"
        assert args.bench == "ssb"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_adaptive_defaults(self):
        args = build_parser().parse_args(["adaptive"])
        assert args.repeats == 3
        assert args.limit == 8
        assert args.threshold == 8.0
        assert args.sf == (0.05,)

    def test_query_no_plan_cache_flag(self):
        args = build_parser().parse_args(["query", "select 1", "--no-plan-cache"])
        assert args.no_plan_cache is True
        args = build_parser().parse_args(["query", "select 1"])
        assert args.no_plan_cache is False

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "select 1", "--system", "XX"])

    def test_query_backend_flag(self):
        args = build_parser().parse_args(
            ["query", "select 1", "--backend", "columnar"]
        )
        assert args.backend == "columnar"
        args = build_parser().parse_args(["query", "select 1"])
        assert args.backend == "row"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "select 1", "--backend", "x"])

    def test_colbench_defaults(self):
        args = build_parser().parse_args(["colbench"])
        assert args.sf == (1.0,)
        assert args.sites == (4,)
        assert args.repeats == 3
        assert args.system == "IC+"
        assert args.queries is None
        assert args.smoke is False

    def test_midquery_defaults(self):
        args = build_parser().parse_args(["midquery"])
        assert args.systems == "IC,IC+,IC+M"
        assert args.queries is None
        assert args.seed == 7
        assert args.threshold == 4.0
        assert args.sf == (1.0,)
        assert args.sites == (4,)
        assert args.out is None
        assert args.smoke is False

    def test_sketchbench_defaults(self):
        args = build_parser().parse_args(["sketchbench"])
        assert args.systems == "IC,IC+,IC+M"
        assert args.benches == "company,tpch,ssb"
        assert args.queries is None
        assert args.seed == 7
        assert args.sf == (0.05,)
        assert args.sites == (4,)
        assert args.out is None
        assert args.smoke is False

    def test_fedbench_defaults(self):
        args = build_parser().parse_args(["fedbench"])
        assert args.systems == "IC,IC+,IC+M"
        assert args.queries is None
        assert args.seed == 7
        assert args.sf == (0.05,)
        assert args.sites == (4,)
        assert args.out is None
        assert args.smoke is False


class TestExecution:
    def test_query_command_prints_rows(self, capsys):
        main(["query", "select count(*) from region", "--sf", "0.1"])
        out = capsys.readouterr().out
        assert "(5,)" in out
        assert "1 rows" in out

    def test_query_explain(self, capsys):
        main(["query", "select r_name from region", "--sf", "0.1", "--explain"])
        out = capsys.readouterr().out
        assert "PhysTableScan" in out

    def test_failed_query_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "query",
                "create view v as select r_name from region",
                "--sf", "0.1",
            ])
        assert "unsupported" in capsys.readouterr().out

    def test_ssb_query(self, capsys):
        main([
            "query", "select count(*) from supplier", "--bench", "ssb",
            "--sf", "0.1",
        ])
        assert "1 rows" in capsys.readouterr().out

    def test_query_no_plan_cache_matches_default(self, capsys):
        main(["query", "select count(*) from region", "--sf", "0.1"])
        cached = capsys.readouterr().out
        main([
            "query", "select count(*) from region", "--sf", "0.1",
            "--no-plan-cache",
        ])
        assert capsys.readouterr().out == cached

    def test_adaptive_command_reports_savings(self, capsys):
        main([
            "adaptive", "--sf", "0.05", "--limit", "2", "--repeats", "2",
        ])
        out = capsys.readouterr().out
        assert "adaptive bench: IC+ @ 4 sites" in out
        assert "rows stable across repeats: yes" in out
        assert "ticks(1st)" in out


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.queries == "tpch"
        assert args.tenants == 2
        assert args.policy == "fifo"
        assert args.arrivals == "poisson"
        assert args.smoke is False

    def test_query_columnar_backend_matches_row(self, capsys):
        sql = (
            "select l_returnflag, count(*) from lineitem "
            "group by l_returnflag order by l_returnflag"
        )
        main(["query", sql, "--sf", "0.05"])
        row_out = capsys.readouterr().out
        main(["query", sql, "--sf", "0.05", "--backend", "columnar"])
        col_out = capsys.readouterr().out
        # Same rows, and — the cost-model contract — the same simulated
        # milliseconds printed in the footer.
        assert col_out == row_out


# ---------------------------------------------------------------------------
# The five artefact benches share one command path (cli.cmd_artefact)
# ---------------------------------------------------------------------------


def _check_colbench(out, payload):
    """Identical rows and bit-identical makespans across backends."""
    assert "geomean speedup" in out
    assert payload["schema"] == "repro-colbench/v1"
    assert payload["queries"][0]["query"] == "Q6"
    assert payload["queries"][0]["results_match"] is True


def _check_serve(out, payload):
    assert "serve smoke: artefact valid" in out
    assert "p99" in out
    assert payload["schema"] == "repro-serve-bench/v1"
    assert "IC+" in payload["systems"]


def _check_midquery(out, payload):
    """Adaptive rows order-identical to static, oracle match, >= 1
    replan fired."""
    assert "midquery smoke: artefact valid" in out
    assert payload["schema"] == "repro-midquery/v1"
    assert payload["total_replans"] >= 1
    for row in payload["queries"]:
        assert row["results_match"] is True
        assert row["oracle_match"] is True


def _check_sketchbench(out, payload):
    """Sketch rows order-identical to histogram rows, oracle match, >= 1
    plan flip, and the skewed TPC-H p95 join q-error strictly improves."""
    assert "sketchbench smoke: artefact valid" in out
    assert payload["schema"] == "repro-sketchbench/v1"
    assert payload["total_plan_flips"] >= 1
    assert payload["tpch_p95_join_improved"] is True
    assert (
        payload["tpch_join_p95_sketches"]
        < payload["tpch_join_p95_histograms"]
    )
    for row in payload["queries"]:
        assert row["results_match"] is True
        assert row["oracle_match"] is True


def _check_fedbench(out, payload):
    """Every cell order-identical to the reference executor on both
    backends, pushdown absorbed at the source, >= 1 plan-digest flip and
    a row-correct chaos replay."""
    assert "fedbench smoke: artefact valid" in out
    assert payload["schema"] == "repro-fedbench/v1"
    assert payload["adapters"] == {
        "emp": "native", "sales": "columnfile", "dept": "remote",
    }
    assert any(f["flipped"] for f in payload["plan_flips"])
    assert any(
        p["rows_out"] < p["rows_scanned"] for p in payload["pushdown"]
    )
    for cell in payload["cells"]:
        assert cell["rows_match"] is True
    assert payload["chaos"]["rows_match"] is True


class TestArtefactCommands:
    @pytest.mark.parametrize(
        "argv, label, check",
        [
            (
                ["colbench", "--queries", "Q6", "--sf", "0.01",
                 "--repeats", "1"],
                "colbench", _check_colbench,
            ),
            (["serve", "--smoke"], "SLO", _check_serve),
            (["midquery", "--smoke"], "midquery", _check_midquery),
            (["sketchbench", "--smoke"], "sketchbench", _check_sketchbench),
            (["fedbench", "--smoke"], "fedbench", _check_fedbench),
        ],
        ids=["colbench", "serve", "midquery", "sketchbench", "fedbench"],
    )
    def test_artefact_gate(self, argv, label, check, capsys, tmp_path):
        """The tier-1 gates: a tiny run whose artefact must validate —
        `main` exits non-zero (SystemExit) on any violation, so this test
        failing means the gate fired."""
        out_path = tmp_path / "artefact.json"
        main(argv + ["--out", str(out_path)])
        out = capsys.readouterr().out
        assert f"{label} artefact written to {out_path}" in out
        check(out, json.loads(out_path.read_text()))

    @pytest.mark.parametrize(
        "argv",
        [
            ["colbench", "--queries", "foo"],
            ["colbench", "--queries", "QQ3"],
            ["midquery", "--queries", "MQ9"],
            ["midquery", "--systems", "ICX"],
            ["sketchbench", "--queries", "ZZ"],
            ["sketchbench", "--systems", "ICX"],
            ["sketchbench", "--benches", "nope"],
            ["fedbench", "--queries", "FB99"],
            ["fedbench", "--systems", "ICX"],
            ["serve", "--systems", "ICX"],
            ["serve", "--tenants", "0"],
        ],
        ids=" ".join,
    )
    def test_bad_arguments_exit_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 64
        out = capsys.readouterr().out
        assert f"bad {argv[0]} parameters" in out
        if argv[1] != "--tenants":
            assert "choose from" in out

    @pytest.mark.parametrize(
        "name, invalid_exit",
        [
            ("serve", 3), ("colbench", 1), ("midquery", 1),
            ("sketchbench", 1), ("fedbench", 1),
        ],
    )
    def test_invalid_artefact_exit_code(
        self, name, invalid_exit, capsys, monkeypatch
    ):
        """A report that fails its validator exits with the bench's own
        code (serve: 3, the others: 1) after printing the violations."""
        from repro import cli

        class Broken:
            def to_text(self):
                return "broken report"

            def to_dict(self):
                return {}

            def validate(self):
                return ["first problem", "second problem"]

        monkeypatch.setitem(
            cli.ARTEFACT_BENCHES,
            name,
            dataclasses.replace(
                cli.ARTEFACT_BENCHES[name], run=lambda args: Broken()
            ),
        )
        with pytest.raises(SystemExit) as excinfo:
            main([name])
        assert excinfo.value.code == invalid_exit
        label = "SLO" if name == "serve" else name
        assert (
            f"invalid {label} artefact: first problem; second problem"
            in capsys.readouterr().out
        )


def _smoke_artefact(name, tmp_path):
    path = tmp_path / f"{name}.json"
    main([name, "--smoke", "--out", str(path)])
    payload = json.loads(path.read_text())
    # The serve bench artefact wraps one repro-serve/v1 report per
    # system; that report is what its validator checks.
    return payload["systems"]["IC+"] if name == "serve" else payload


#: bench -> (validator, {record key: record class}).
CONTRACTS = {
    "colbench": (
        colbench.validate_colbench_artefact,
        {"queries": colbench.QueryColbench},
    ),
    "midquery": (
        midquery.validate_midquery_artefact,
        {"queries": midquery.QueryMidquery},
    ),
    "sketchbench": (
        sketchbench.validate_sketchbench_artefact,
        {
            "queries": sketchbench.QuerySketchbench,
            "cells": sketchbench.CellSketchbench,
        },
    ),
    "fedbench": (
        fedbench.validate_fedbench_artefact,
        {
            "cells": fedbench.FedbenchCell,
            "pushdown": fedbench.PushdownEvidence,
            "plan_flips": fedbench.PlanFlip,
            "chaos": fedbench.ChaosCell,
        },
    ),
    "serve": (validate_slo_artefact, {"tenants": TenantSlo}),
}


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_validator_requires_every_emitted_key(name, tmp_path):
    """The artefact contract: every top-level key and every field of
    every record class is required, by name.  Required keys are derived
    from ``dataclasses.fields``, so this fails the moment a dataclass
    field and the validator disagree."""
    validate, records = CONTRACTS[name]
    valid = _smoke_artefact(name, tmp_path)
    assert validate(valid) == []

    def problems_without(*path):
        broken = copy.deepcopy(valid)
        target = broken
        for step in path[:-1]:
            target = target[step]
        del target[path[-1]]
        return validate(broken)

    for key in valid:
        assert any(
            repr(key) in problem for problem in problems_without(key)
        ), f"dropping top-level {key!r} went unnoticed"
    for key, record_cls in records.items():
        first = (0,) if isinstance(valid[key], list) else ()
        row = valid[key][0] if first else valid[key]
        names = [f.name for f in dataclasses.fields(record_cls)]
        assert sorted(row) == sorted(names)
        for field_name in names:
            assert any(
                repr(field_name) in problem
                for problem in problems_without(key, *first, field_name)
            ), f"dropping {key}.{field_name} went unnoticed"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["failures", "--sf", "0.1"], "cli-failures-sf0.1.txt"),
        (
            ["figure7", "--sf", "0.1", "--sites", "4"],
            "cli-figure7-sf0.1-sites4.txt",
        ),
        (
            ["figure8", "--sf", "0.1", "--sites", "4"],
            "cli-figure8-sf0.1-sites4.txt",
        ),
        (
            ["figure9", "--sf", "0.1", "--sites", "4"],
            "cli-figure9-sf0.1-sites4.txt",
        ),
        (
            ["figure11", "--sf", "0.1", "--sites", "4"],
            "cli-figure11-sf0.1-sites4.txt",
        ),
        (
            ["table3", "--sf", "0.1", "--sites", "4", "--clients", "2"],
            "cli-table3-sf0.1-sites4-clients2.txt",
        ),
    ],
    ids=["failures", "figure7", "figure8", "figure9", "figure11", "table3"],
)
def test_paper_artefact_stdout_is_pinned(argv, golden, capsys):
    """The paper commands print ``to_text()`` of the repro.bench.reporting
    artefacts; their stdout is pinned to text captured before they did
    (failures/figure7: PR 12's tree; the other four: PR 23's)."""
    main(argv)
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_failures_runs_at_the_requested_site_count(capsys, monkeypatch):
    """``failures --sites 8`` used to be accepted and ignored (the matrix
    hard-coded four sites)."""
    from repro.bench import reporting

    loaded = []
    load = reporting.load_tpch_cluster

    def spy(config, scale_factor):
        loaded.append((config.name, config.sites))
        return load(config, scale_factor)

    monkeypatch.setattr(reporting, "load_tpch_cluster", spy)
    main(["failures", "--sf", "0.1", "--sites", "8"])
    assert loaded == [("IC", 8), ("IC+", 8)]


def _documented_subcommands(path):
    match = re.search(r"^Subcommands: `([^`]+)`", path.read_text(), re.M)
    assert match, f"{path} lists no subcommands"
    return sorted(match.group(1).split())


@pytest.mark.parametrize(
    "path", [ROOT / "README.md", ROOT / ".claude/skills/verify/SKILL.md"],
    ids=["README", "verify-skill"],
)
def test_documented_subcommands_match_the_parser(path):
    sub = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert _documented_subcommands(path) == sorted(sub.choices)
