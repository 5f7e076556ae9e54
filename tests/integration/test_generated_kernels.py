"""Generated row kernels stay debuggable, and failures stay small.

* a kernel's source is on the function (``__source__``) and in
  ``linecache``, so a traceback through generated code shows the line;
* an error raised inside a kernel still classifies to the same
  ``QueryOutcome`` / propagates as the same exception type;
* a classified failure holds no interpreter frame's locals: a timed-out
  IC Q21 must not pin its nested-loop cross product (332 MB at SF 0.5)
  for as long as somebody keeps the outcome.
"""

import traceback

import pytest

from helpers import make_company_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS
from repro.core.cluster import QueryStatus
from repro.exec.fragments import number_operators
from repro.exec.physical import PhysFilter, PhysValues
from repro.exec.operators import ExecContext, execute_node
from repro.rel.expr import BinaryOp, ColRef, Literal, compile_expr
from repro.storage.store import DataStore


def kernel_frames(exc):
    return [
        frame
        for frame in traceback.extract_tb(exc.__traceback__)
        if frame.filename.startswith("<kernel ")
    ]


class TestKernelTracebacks:
    def test_source_is_kept_on_the_function(self):
        fn = compile_expr(BinaryOp("/", ColRef(0), ColRef(1)))
        assert fn.__source__.startswith("def expr(row):\n    return ")
        assert "row[0] / row[1]" in fn.__source__

    def test_zero_division_shows_the_generated_line(self):
        node = PhysFilter(
            PhysValues([(4, 2), (1, 0)], ["a", "b"]),
            BinaryOp(">", BinaryOp("/", ColRef(0), ColRef(1)), Literal(1)),
        )
        ctx = ExecContext(DataStore(site_count=1, partitions_per_table=1), 1e9)
        number_operators(node)
        with pytest.raises(ZeroDivisionError) as info:
            execute_node(node, 0, ctx)
        frames = kernel_frames(info.value)
        assert frames and frames[0].name == "filter"
        assert "row[0] / row[1]" in frames[-1].line
        assert node._kernel.__source__.splitlines()[frames[0].lineno - 1].strip() == (
            frames[0].line
        )

    def test_type_error_shows_the_generated_line(self):
        fn = compile_expr(BinaryOp("<", ColRef(0), ColRef(1)))
        with pytest.raises(TypeError) as info:
            fn(("a", 1))
        (frame,) = kernel_frames(info.value)
        assert "row[0] < row[1]" in frame.line

    def test_kernel_errors_escape_sql_as_before(self, execution_backend):
        """Not a ReproError: ``try_sql`` never classified a division by
        zero, and generated code must not change what callers catch."""
        cluster = make_company_cluster(
            PRESETS["IC+"](2).with_(execution_backend=execution_backend)
        )
        with pytest.raises(ZeroDivisionError):
            cluster.try_sql("select emp_id / (emp_id - emp_id) from emp")

    def test_timeout_inside_generated_plan_classifies(self):
        cluster = load_tpch_cluster(PRESETS["IC"](4), 0.02)
        outcome = cluster.try_sql(QUERIES[21].sql)
        assert outcome.status is QueryStatus.TIMED_OUT


class TestFailedOutcomeRetention:
    def test_held_timeout_outcome_pins_no_frame_locals(self):
        cluster = load_tpch_cluster(PRESETS["IC"](4), 0.02)
        outcome = cluster.try_sql(QUERIES[21].sql)
        assert outcome.status is QueryStatus.TIMED_OUT
        tb = outcome.error.__traceback__
        assert tb is not None
        depth = 0
        # The first frame is try_sql itself (it was still running when the
        # frames were cleared; it holds the statement and plan, no rows).
        tb = tb.tb_next
        while tb is not None:
            assert tb.tb_frame.f_locals == {}, tb.tb_frame.f_code.co_name
            depth += 1
            tb = tb.tb_next
        assert depth >= 3  # engine, interpreter and operator frames

    def test_planning_failure_is_cleared_too(self):
        cluster = load_tpch_cluster(PRESETS["IC"](4), 0.02)
        outcome = cluster.try_sql(QUERIES[5].sql)
        assert outcome.status is QueryStatus.PLANNING_FAILED
        tb = outcome.error.__traceback__.tb_next
        while tb is not None:
            assert tb.tb_frame.f_locals == {}
            tb = tb.tb_next
