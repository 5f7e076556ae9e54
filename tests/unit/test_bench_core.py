"""The shared bench harness: one loader, one observation, one paired run."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.core import observe, paired_run, same_rows, sorted_rows
from repro.bench.fedbench import TABLE_ADAPTERS, load_fedbench_cluster
from repro.bench.midquery import MIDQUERY_QUERIES, load_skewed_cluster
from repro.bench.sketchbench import load_skewed_tpch_cluster
from repro.bench.ssb import load_ssb_cluster
from repro.bench.tpch import load_tpch_cluster
from repro.common.config import PRESETS
from repro.obs.metrics import get_registry

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "bench-datasets.json"

MIDQUERY_COUNTERS = (
    "midquery.checkpoints",
    "midquery.triggers",
    "midquery.replans",
    "midquery.plan_switches",
    "midquery.declined",
)


def _fingerprint(cluster):
    """Per table: adapter, row count, indexes and a digest of the placed
    partitions — everything a loader decides."""
    out = {}
    for name in cluster.store.table_names():
        data = cluster.store.table(name)
        out[name] = {
            "adapter": data.schema.adapter,
            "rows": data.row_count,
            "indexes": sorted(
                [index.name, list(index.columns)]
                for index in data.schema.indexes.values()
            ),
            "sha256": hashlib.sha256(
                repr((data.partitions, data.partition_sites)).encode()
            ).hexdigest(),
        }
    return out


DATASETS = {
    "tpch": lambda config: load_tpch_cluster(config, 0.01),
    "ssb": lambda config: load_ssb_cluster(config, 0.01),
    "skewed-star": lambda config: load_skewed_cluster(config, 0.1),
    "skewed-tpch": lambda config: load_skewed_tpch_cluster(config, 0.01),
    "fedbench": lambda config: load_fedbench_cluster(config, 0.05),
    "fedbench-native": lambda config: load_fedbench_cluster(
        config, 0.05, adapters={name: "native" for name in TABLE_ADAPTERS}
    ),
}


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_loader_loads_what_its_private_copy_did(dataset):
    """Tables, row counts, indexes and placement are pinned to what the
    five hand-written loaders produced before they became data plus one
    ``load_dataset`` call."""
    cluster = DATASETS[dataset](PRESETS["IC+"](4))
    assert _fingerprint(cluster) == json.loads(GOLDEN.read_text())[dataset]


def test_an_observation_counts_what_the_registry_counted():
    cluster = load_skewed_cluster(
        PRESETS["IC+"](4).with_(midquery_reoptimization=True), 0.5
    )
    registry = get_registry()
    before = {name: registry.counter(name) for name in MIDQUERY_COUNTERS}
    run = observe(cluster, MIDQUERY_QUERIES["MQ1"], oracle=True)
    moved = {
        name: int(registry.counter(name) - value)
        for name, value in before.items()
    }
    assert {name: run.count(name) for name in MIDQUERY_COUNTERS} == moved
    assert moved["midquery.replans"] == 1
    assert run.oracle_match and run.failure == "" and run.plan is None


def test_a_planned_observation_keeps_the_plan_that_ran():
    cluster = load_skewed_cluster(PRESETS["IC+"](4), 0.1)
    run = observe(cluster, MIDQUERY_QUERIES["MQ2"], planned=True)
    assert run.plan is not None and run.rows
    assert run.oracle is None  # not asked


@pytest.mark.parametrize("planned", [False, True])
def test_a_failed_observation_says_why_and_skips_the_oracle(planned):
    cluster = load_skewed_cluster(PRESETS["IC+"](4), 0.1)
    run = observe(cluster, "select nope from orders", planned=planned, oracle=True)
    assert run.failure.startswith(type(run.outcome.error).__name__)
    assert run.oracle is None and not run.oracle_match


def test_a_paired_run_loads_each_side_once_per_system():
    loaded = []

    def load(config, scale_factor, seed, **layout):
        loaded.append((config.name, config.sketch_statistics, layout))
        return load_skewed_cluster(config, scale_factor, seed, **layout)

    pairs = list(
        paired_run(
            load, ["IC", "IC+"], sites=4, scale_factor=0.1, seed=7,
            treatment=dict(sketch_statistics=True),
            layouts=({}, dict(hot_fraction=0.5)),
        )
    )
    assert [pair.system for pair in pairs] == ["IC", "IC+"]
    assert loaded == [
        ("IC", False, {}),
        ("IC", True, {"hot_fraction": 0.5}),
        ("IC+", False, {}),
        ("IC+", True, {"hot_fraction": 0.5}),
    ]
    control, treatment = pairs[0].observe(MIDQUERY_QUERIES["MQ2"])
    # The treatment's layout sends fewer orders to the hot customer.
    assert len(treatment.rows) < len(control.rows)
    assert pairs[0].delta()["exec.queries"] == 2


class TestRowConvention:
    def test_float_noise_is_not_a_divergence(self):
        assert same_rows([(1, -136756.21800000002)], [(1, -136756.218)], True)
        assert not same_rows([(1, 0.5)], [(1, 0.6)], False)

    def test_order_counts_only_when_asked(self):
        a, b = [(1,), (2,)], [(2,), (1,)]
        assert same_rows(a, b, ordered=False)
        assert not same_rows(a, b, ordered=True)

    def test_nulls_sort_last_instead_of_raising(self):
        rows = [(None, 1), (2, 1), (1, None)]
        assert sorted_rows(rows) == [(1, None), (2, 1), (None, 1)]
        assert same_rows(rows, list(reversed(rows)), ordered=False)
