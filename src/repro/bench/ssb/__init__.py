"""Star Schema Benchmark: schemas, mini generator, 13 queries, loader."""

from functools import lru_cache

from repro.bench.core import load_dataset
from repro.bench.ssb.datagen import SSB_INDEXES, generate_ssb, ssb_schemas
from repro.bench.ssb.queries import FIGURE11_QUERY_IDS, SSB_QUERIES
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster


@lru_cache(maxsize=4)
def cached_ssb_data(scale_factor: float, seed: int = 11):
    return generate_ssb(scale_factor, seed)


def load_ssb_cluster(
    config: SystemConfig, scale_factor: float, seed: int = 11
) -> IgniteCalciteCluster:
    """A cluster with the SSB schema, data and the paper's nine indexes."""
    return load_dataset(
        config, ssb_schemas(), cached_ssb_data(scale_factor, seed), SSB_INDEXES
    )

