"""TPC-H benchmark: schemas, mini dbgen, the 22 queries, cluster loader."""

from functools import lru_cache

from repro.bench.core import load_dataset
from repro.bench.tpch.datagen import (
    TPCH_INDEXES,
    generate_tpch,
    table_cardinalities,
    tpch_schemas,
)
from repro.bench.tpch.queries import (
    ENABLED_QUERY_IDS,
    IC_FAILING_QUERY_IDS,
    QUERIES,
    query_sql,
)
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster


@lru_cache(maxsize=4)
def cached_tpch_data(scale_factor: float, seed: int = 7):
    """Generated rows are immutable; share them across clusters."""
    return generate_tpch(scale_factor, seed)


def load_tpch_cluster(
    config: SystemConfig, scale_factor: float, seed: int = 7
) -> IgniteCalciteCluster:
    """A cluster with the TPC-H schema, data and the paper's 16 indexes."""
    return load_dataset(
        config, tpch_schemas(), cached_tpch_data(scale_factor, seed), TPCH_INDEXES
    )

