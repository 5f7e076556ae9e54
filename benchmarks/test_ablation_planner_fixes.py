"""Ablation: each Section 4/5 fix toggled individually on top of IC.

DESIGN.md calls out the individual design choices; this bench flips one
flag at a time and reports the latency effect on the queries the paper
attributes to each fix:

* FILTER_CORRELATE            -> Q4 (filters stuck above the correlation)
* join-condition simplification -> Q19 (Section 5.2's motivating query)
* broadcast join mapping + hash join -> Q3 (LINEITEM stays in place)
* fixed join estimation       -> Q21 (cardinality-1 NLJ chains)
"""

from __future__ import annotations

from repro.bench.core import paired_run
from repro.bench.tpch import QUERIES, load_tpch_cluster

# The fixed-estimation ablation needs enough data for the baseline's
# nested-loop catastrophe to matter; 0.5 is the paper's smallest SF.
SF = 0.5

#: (query id, flags to enable on top of IC+-minus-that-flag) — we compare
#: full IC+ against IC+ with one fix disabled, which isolates the fix while
#: keeping the rest of the system stable (the paper notes the fixes are
#: interdependent, so disabling one from IC+ is the meaningful direction).
ABLATIONS = [
    ("Q4", 4, {"filter_correlate_rule": False}),
    ("Q19", 19, {"join_condition_simplification": False}),
    ("Q3", 3, {"broadcast_join_mapping": False}),
    # The estimation fix's big wins (Q17/Q21 timeouts) only manifest in
    # combination with the baseline's other defects — the paper notes the
    # Section 4/5.1/5.2 changes "are dependent on one another".  Q2 is the
    # query where the legacy estimator still dents an otherwise-fixed
    # system (region/nation inputs sit below its small-input threshold).
    ("Q2", 2, {"fixed_join_estimation": False}),
]


def test_ablation_planner_fixes(benchmark, capsys):
    lines = ["", "Ablation: disabling one IC+ fix at a time (SF %.1f)" % SF]
    lines.append("query  fix disabled                      IC+       without    impact")
    full = None
    for label, qid, overrides in ABLATIONS:
        (pair,) = paired_run(
            load_tpch_cluster, ["IC+"], sites=4, scale_factor=SF, seed=7,
            treatment=overrides,
        )
        full = full or pair.control
        base, without = (run.outcome for run in pair.observe(QUERIES[qid].sql))
        assert base.ok
        flag = next(iter(overrides))
        if without.ok:
            impact = without.simulated_seconds / base.simulated_seconds
            lines.append(
                f"{label:<6} {flag:<33} {base.simulated_seconds:8.3f}  "
                f"{without.simulated_seconds:8.3f}  {impact:6.2f}x slower"
            )
            # Each fix must matter for its poster query.
            assert impact >= 1.0, (label, flag, impact)
        else:
            lines.append(
                f"{label:<6} {flag:<33} {base.simulated_seconds:8.3f}  "
                f"{without.status.value:>9}"
            )
    with capsys.disabled():
        print("\n".join(lines))

    benchmark(lambda: full.try_sql(QUERIES[4].sql))
