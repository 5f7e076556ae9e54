"""Span arithmetic on a synthetic call tree, and wrapper hygiene."""

from perfbench import spans


def _synthetic_tree(recorder, now):
    """top -> mid -> leaf, leaf ; top -> rec(3) recursing; fake clock."""
    fns = {}

    def leaf():
        now[0] += 5

    def mid():
        now[0] += 2
        fns["leaf"]()
        fns["leaf"]()
        now[0] += 1

    def rec(depth):
        now[0] += 1
        if depth:
            fns["rec"](depth - 1)

    def top():
        now[0] += 3
        fns["mid"]()
        fns["rec"](3)
        now[0] += 4

    for fn in (leaf, mid, rec, top):
        fns[fn.__name__] = recorder.wrap(fn.__name__, fn)
    return fns["top"]


def test_self_time_on_nested_and_recursive_tree():
    now = [100]
    recorder = spans.SpanRecorder(clock=lambda: now[0])
    top = _synthetic_tree(recorder, now)
    latency, _ = recorder.timed_op("synthetic", top)
    self_ns, inclusive_ns = spans.span_totals(recorder.spans)
    assert latency == 24
    assert inclusive_ns == {"op": 24, "top": 24, "mid": 13, "leaf": 10, "rec": 4}
    assert self_ns == {"op": 0, "top": 7, "mid": 3, "leaf": 10, "rec": 4}
    # Self times tile the op exactly: nothing counted twice or lost.
    assert sum(self_ns.values()) == latency
    # Four recursive activations, one span.
    assert [s[0] for s in recorder.spans].count("rec") == 1
    # Every span carries its parent and the op it belongs to.
    by_name = {s[0]: s for s in recorder.spans}
    assert recorder.spans[by_name["mid"][3]][0] == "top"
    assert recorder.spans[by_name["top"][3]][0] == "op"
    assert {s[4] for s in recorder.spans} == {0}
    assert recorder.op_labels == ["synthetic"]


def test_exception_still_closes_the_span():
    now = [0]
    recorder = spans.SpanRecorder(clock=lambda: now[0])

    def boom():
        now[0] += 2
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert recorder.spans == [["boom", 0, 2, -1, -1]]
    wrapped_again = recorder.wrap("boom", lambda: None)
    wrapped_again()  # not stuck "active" after the exception
    assert len(recorder.spans) == 2


def test_every_wrap_point_resolves_and_is_removed_again():
    recorder = spans.SpanRecorder()
    assert spans.installed_wrappers() == []
    originals = {}
    for points in (spans.QUERY_POINTS, spans.SETUP_POINTS):
        for targets in points.values():
            for module_name, path in targets:
                owner, leaf, fn = spans._resolve(module_name, path)
                originals[(module_name, path)] = (owner, leaf, fn)
    with spans.traced(recorder, spans.QUERY_POINTS) as unresolved_q:
        with spans.traced(recorder, spans.SETUP_POINTS) as unresolved_s:
            assert len(spans.installed_wrappers()) == len(originals)
    assert unresolved_q == [] and unresolved_s == []
    assert spans.installed_wrappers() == []
    for owner, leaf, fn in originals.values():
        assert vars(owner)[leaf] is fn


def test_wrappers_removed_when_the_traced_block_raises():
    recorder = spans.SpanRecorder()
    try:
        with spans.traced(recorder, spans.QUERY_POINTS):
            raise RuntimeError("workload blew up")
    except RuntimeError:
        pass
    assert spans.installed_wrappers() == []


def test_unresolved_points_are_listed_not_fatal():
    points = {
        "gone.module": [("repro.no_such_module", "f")],
        "gone.attr": [("repro.sql.parser", "no_such_function")],
        "gone.class": [("repro.core.cluster", "NoSuchClass.method")],
        # A staticmethod cannot be rebound through setattr safely.
        "not.plain": [("repro.core.cluster", "IgniteCalciteCluster.ic")],
        "fine": [("repro.sql.parser", "parse")],
    }
    recorder = spans.SpanRecorder()
    with spans.traced(recorder, points) as unresolved:
        assert sorted(u.split("=")[0] for u in unresolved) == [
            "gone.attr", "gone.class", "gone.module", "not.plain",
        ]
    from repro.sql import parser

    assert not hasattr(parser.parse, spans._MARK)
