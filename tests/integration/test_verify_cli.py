"""Integration test for the ``repro-bench verify`` subcommand."""

import pytest

from repro.cli import build_parser, main


class TestVerifyCli:
    def test_parser_accepts_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.queries == "tpch"
        assert args.seed == 0
        assert args.count == 50
        assert args.systems == "IC,IC+,IC+M"
        assert args.sf == (0.05,)

    def test_small_tpch_sweep_passes(self, capsys):
        main(
            [
                "verify",
                "--queries",
                "tpch",
                "--seed",
                "1",
                "--count",
                "5",
                "--sf",
                "0.02",
                "--systems",
                "IC+",
            ]
        )
        out = capsys.readouterr().out
        assert "5 random tpch queries" in out
        assert "PASS" in out
        assert "failed=0" in out

    def test_small_ssb_sweep_passes(self, capsys):
        main(
            [
                "verify",
                "--queries",
                "ssb",
                "--seed",
                "2",
                "--count",
                "4",
                "--sf",
                "0.02",
                "--systems",
                "IC",
            ]
        )
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_mismatch_exits_nonzero(self, capsys, monkeypatch):
        # Force the comparison itself to report a divergence and check the
        # command surfaces it as a failing exit code.
        import repro.verify.differential as differential

        def broken_compare(engine_rows, reference_rows, logical=None):
            return "forced divergence (test)"

        monkeypatch.setattr(
            differential, "compare_results", broken_compare
        )
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "verify",
                    "--queries",
                    "tpch",
                    "--seed",
                    "1",
                    "--count",
                    "2",
                    "--sf",
                    "0.02",
                    "--systems",
                    "IC+",
                ]
            )
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "mismatch" in out


class TestVerifyExitCodes:
    """Mismatch, invariant violation and harness crash are told apart."""

    ARGS = [
        "verify", "--queries", "tpch", "--seed", "1", "--count", "2",
        "--sf", "0.02", "--systems", "IC+",
    ]

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        import repro.verify.differential as differential

        def forced_invariant(sql, cluster):
            return differential.DifferentialReport(
                sql, cluster.config.name, differential.INVARIANT, "forced"
            )

        monkeypatch.setattr(
            differential, "differential_check", forced_invariant
        )
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS)
        assert excinfo.value.code == 2
        assert "invariant violation" in capsys.readouterr().out

    def test_harness_crash_exits_3(self, capsys, monkeypatch):
        import repro.verify.differential as differential

        def exploding_check(sql, cluster):
            raise RuntimeError("forced crash (test)")

        monkeypatch.setattr(
            differential, "differential_check", exploding_check
        )
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS)
        assert excinfo.value.code == 3
        assert "CRASH" in capsys.readouterr().out

    def test_crash_outranks_invariant_and_mismatch(self, capsys, monkeypatch):
        import repro.verify.differential as differential

        calls = iter(("crash", "invariant", "mismatch"))

        def mixed_check(sql, cluster):
            kind = next(calls, "ok")
            if kind == "crash":
                raise RuntimeError("forced crash (test)")
            if kind == "invariant":
                return differential.DifferentialReport(
                    sql, cluster.config.name, differential.INVARIANT, "forced"
                )
            if kind == "mismatch":
                return differential.DifferentialReport(
                    sql, cluster.config.name, differential.MISMATCH, "forced"
                )
            return differential.DifferentialReport(
                sql, cluster.config.name, differential.OK
            )

        monkeypatch.setattr(differential, "differential_check", mixed_check)
        args = list(self.ARGS)
        args[args.index("--count") + 1] = "3"
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 3
        capsys.readouterr()

    def test_unknown_system_exits_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--systems", "NOPE"])
        assert excinfo.value.code == 64
        assert "unknown system" in capsys.readouterr().out


class TestChaosCli:
    def test_parser_accepts_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.queries == "tpch"
        assert args.seed == 0
        assert args.retries == 2
        assert args.deadline is None
        assert args.kill_site == []
        assert args.sf == (0.05,)

    def test_bad_fault_spec_exits_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--kill-site", "bogus"])
        assert excinfo.value.code == 64
        assert "bad --kill-site spec" in capsys.readouterr().out

    @pytest.mark.chaos
    def test_end_to_end_kill_site_report(self, capsys):
        main(
            [
                "chaos", "--queries", "tpch", "--seed", "0",
                "--kill-site", "2@t=0.01", "--retries", "2",
                "--sf", "0.02",
            ]
        )
        out = capsys.readouterr().out
        assert "chaos report: system=IC+ sites=4 seed=0" in out
        assert "availability=100.0%" in out
        assert "recovered results match the reference executor" in out
        assert "latency: p50=" in out
