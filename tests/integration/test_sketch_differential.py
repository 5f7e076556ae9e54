"""The sketch-statistics differential cell: 9 cells x 2 backends.

Sketch estimates may only change *plans*, never *answers*.  This sweep
runs the full sketchbench query set with ``sketch_statistics=True``
across company/TPC-H/SSB x IC/IC+/IC+M under both execution backends
and demands:

* rows identical to the single-node reference executor in every cell
  (order-identical to the histograms-only run is asserted separately by
  the bench's own differential columns — here the oracle is the truth);
* plan invariants hold (the autouse conftest wrapper validates every
  executed plan structurally);
* a traced run of the headline query still produces a valid
  ``repro-trace/v1`` artefact with sketches on.
"""

import pytest

from repro.bench.core import canon_rows, sorted_rows
from repro.bench.sketchbench import LOADERS, SKETCHBENCH_QUERIES
from repro.common.config import PRESETS
from repro.obs.trace import validate_trace
from repro.verify.reference import ReferenceExecutor

pytestmark = [pytest.mark.sketch, pytest.mark.verify]

SYSTEMS = ("IC", "IC+", "IC+M")
SCALE = 0.05
SEED = 7


@pytest.mark.parametrize("bench", sorted(SKETCHBENCH_QUERIES))
def test_sketch_cell_matches_oracle(bench, execution_backend):
    for system in SYSTEMS:
        config = PRESETS[system](4).with_(
            sketch_statistics=True, execution_backend=execution_backend
        )
        cluster = LOADERS[bench](config, SCALE, SEED)
        oracle = ReferenceExecutor(cluster.store)
        for name, sql in SKETCHBENCH_QUERIES[bench].items():
            result = cluster.sql(sql)
            reference = oracle.execute(cluster.parse_to_logical(sql))
            assert sorted_rows(canon_rows(result.rows)) == sorted_rows(
                canon_rows(reference)
            ), (
                f"{bench}/{system}/{name} diverged from the oracle "
                f"under the {execution_backend} backend"
            )


@pytest.mark.parametrize("bench", sorted(SKETCHBENCH_QUERIES))
def test_sketch_rows_order_identical_to_histogram_rows(bench):
    """Within each cell the sketch run returns the histogram run's rows
    *in the same order* — every bench query carries an ORDER BY over
    keys unique in the output, so plan changes may not reorder them."""
    for system in SYSTEMS:
        base = PRESETS[system](4)
        hist_cluster = LOADERS[bench](base, SCALE, SEED)
        sketch_cluster = LOADERS[bench](
            base.with_(sketch_statistics=True), SCALE, SEED
        )
        for name, sql in SKETCHBENCH_QUERIES[bench].items():
            assert canon_rows(hist_cluster.sql(sql).rows) == canon_rows(
                sketch_cluster.sql(sql).rows
            ), f"{bench}/{system}/{name}: sketches changed the answer"


def test_traced_run_stays_valid_with_sketches_on():
    config = PRESETS["IC+M"](4).with_(sketch_statistics=True, tracing=True)
    cluster = LOADERS["tpch"](config, SCALE, SEED)
    sql = SKETCHBENCH_QUERIES["tpch"]["T2"]
    cluster.sql(sql)
    artefact = cluster.last_trace.to_dict(query="T2", system="IC+M")
    assert validate_trace(artefact) == []
