"""Property tests for the probabilistic sketches (repro.stats.sketches).

The estimator trusts three mathematical guarantees:

* **Determinism** — every sketch is a pure function of (seed, multiset):
  same seed, same values => bit-identical state, anywhere, any build
  order for HLL/CMS and any *merge* order for all three.  Distributed
  per-partition builds depend on this.
* **Mergeability** — merging per-partition sketches equals sketching the
  concatenation; merge is associative and commutative.
* **Error bounds** — HLL at p=14 is within a few standard errors
  (sigma ~= 1.04/sqrt(2^14) ~= 0.81%) of the true NDV; Count-Min never
  under-counts and over-counts by at most 2N/width per row w.h.p.;
  Fast-AGMS join sizes land within the 4*sqrt(F2*F2'/width) bound, with
  skew (the PR-8 90%-hot-key shape) *helping* because the hot key
  dominates both streams' second moments.
"""

import hashlib
import random

import pytest

from repro.stats.sketches import (
    DEFAULT_SEED,
    CountMinSketch,
    FastAGMSSketch,
    HyperLogLog,
    encode_value,
    merge_all,
    value_hash,
)

pytestmark = pytest.mark.sketch


def _split(values, parts, rng):
    shards = [[] for _ in range(parts)]
    for v in values:
        shards[rng.randrange(parts)].append(v)
    return shards


# -- hashing ------------------------------------------------------------------


def test_value_hash_is_seeded_and_stable():
    assert value_hash("abc", 1) == value_hash("abc", 1)
    assert value_hash("abc", 1) != value_hash("abc", 2)
    # Canonicalisation: SQL equality classes hash identically.
    assert value_hash(1, 7) == value_hash(1.0, 7) == value_hash(True, 7)
    assert encode_value(1) == encode_value(1.0) == encode_value(True)
    assert encode_value("1") != encode_value(1)


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: HyperLogLog(p=8),
        lambda: CountMinSketch(depth=3, width=64),
        lambda: FastAGMSSketch(depth=5, width=32),
    ],
    ids=["hll", "cms", "agms"],
)
def test_same_seed_same_values_bit_identical(factory):
    values = [f"v{i % 97}" for i in range(2000)] + [None and 0, 3.0, True]
    a, b = factory(), factory()
    for v in values:
        a.add(v)
    for v in values:
        b.add(v)
    assert a.state_bytes() == b.state_bytes()
    assert a == b


def test_different_seeds_differ():
    a, b = HyperLogLog(p=8, seed=1), HyperLogLog(p=8, seed=2)
    for i in range(500):
        a.add(i)
        b.add(i)
    assert a.state_bytes() != b.state_bytes()


def test_hll_insertion_order_irrelevant():
    values = list(range(3000))
    a, b = HyperLogLog(p=10), HyperLogLog(p=10)
    for v in values:
        a.add(v)
    for v in reversed(values):
        b.add(v)
    assert a.state_bytes() == b.state_bytes()


# -- mergeability -------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: HyperLogLog(p=8),
        lambda: CountMinSketch(depth=3, width=64),
        lambda: FastAGMSSketch(depth=5, width=32),
    ],
    ids=["hll", "cms", "agms"],
)
def test_merged_shards_equal_whole_build(factory):
    rng = random.Random(41)
    values = [rng.randrange(500) for _ in range(4000)]
    whole = factory()
    for v in values:
        whole.add(v)
    shard_sketches = []
    for shard in _split(values, 4, random.Random(42)):
        s = factory()
        for v in shard:
            s.add(v)
        shard_sketches.append(s)
    merged = merge_all(shard_sketches)
    assert merged.state_bytes() == whole.state_bytes()
    # merge_all copies: the shard sketches themselves are untouched.
    rebuilt = factory()
    for v in values:
        rebuilt.add(v)
    assert merged == rebuilt


@pytest.mark.parametrize(
    "factory",
    [
        lambda: HyperLogLog(p=8),
        lambda: CountMinSketch(depth=3, width=64),
        lambda: FastAGMSSketch(depth=5, width=32),
    ],
    ids=["hll", "cms", "agms"],
)
def test_merge_associative_and_commutative(factory):
    rng = random.Random(43)
    shards = _split([rng.randrange(200) for _ in range(3000)], 3, rng)
    built = []
    for shard in shards:
        s = factory()
        for v in shard:
            s.add(v)
        built.append(s)
    a, b, c = built

    ab_c = a.copy()
    ab_c.merge(b)
    ab_c.merge(c)
    a_bc = b.copy()
    a_bc.merge(c)
    a_bc.merge(a)
    c_b_a = c.copy()
    c_b_a.merge(b)
    c_b_a.merge(a)
    assert ab_c.state_bytes() == a_bc.state_bytes() == c_b_a.state_bytes()


def test_merge_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        HyperLogLog(p=8).merge(HyperLogLog(p=10))
    with pytest.raises(ValueError):
        CountMinSketch(depth=3, width=64).merge(
            CountMinSketch(depth=3, width=128)
        )
    with pytest.raises(ValueError):
        FastAGMSSketch(seed=1).merge(FastAGMSSketch(seed=2))


# -- error bounds -------------------------------------------------------------


@pytest.mark.parametrize("true_ndv", [100, 5_000, 50_000])
def test_hll_relative_error_within_five_percent(true_ndv):
    """At the production p=14 (16384 registers) the standard error is
    ~0.81%; +-5% is > 6 sigma — a deterministic seeded build either
    passes forever or is broken."""
    hll = HyperLogLog()  # production shape: p=14
    for i in range(true_ndv):
        hll.add(f"user-{i}")
    assert hll.estimate() == pytest.approx(true_ndv, rel=0.05)


def test_hll_duplicates_do_not_inflate():
    hll = HyperLogLog()
    for _ in range(50):
        for i in range(1000):
            hll.add(i)
    assert hll.estimate() == pytest.approx(1000, rel=0.05)


def test_cms_never_undercounts_and_bounds_overcount():
    rng = random.Random(44)
    truth = {}
    cms = CountMinSketch()  # production shape: 4 x 4096
    n = 20_000
    for _ in range(n):
        v = rng.randrange(2000)
        truth[v] = truth.get(v, 0) + 1
        cms.add(v)
    assert cms.total == n
    # Per-row Markov bound: P[excess > 2N/width] <= 1/2, so after the
    # min over depth=4 rows at most ~1/16 of values may exceed it.
    slack = 2 * n / cms.width
    violations = 0
    for v, count in truth.items():
        est = cms.estimate(v)
        assert est >= count, f"Count-Min under-counted {v}"
        assert est <= count + 4 * slack  # hard ceiling, way out in the tail
        violations += int(est > count + slack)
    assert violations / len(truth) <= 1 / 16
    # A never-seen value can only collide upward, never go negative.
    assert 0 <= cms.estimate("never-seen") <= 4 * slack


def _agms_pair(left_values, right_values):
    a = FastAGMSSketch()
    b = FastAGMSSketch()
    for v in left_values:
        a.add(v)
    for v in right_values:
        b.add(v)
    return a, b


def _true_join_size(left_values, right_values):
    from collections import Counter

    lc, rc = Counter(left_values), Counter(right_values)
    return sum(count * rc.get(key, 0) for key, count in lc.items())


def test_agms_join_size_uniform_within_bound():
    rng = random.Random(45)
    left = [rng.randrange(100) for _ in range(5000)]
    right = [rng.randrange(100) for _ in range(3000)]
    a, b = _agms_pair(left, right)
    truth = _true_join_size(left, right)
    bound = 4.0 * (
        (a.second_moment() * b.second_moment()) / a.width
    ) ** 0.5
    assert abs(a.join_size(b) - truth) <= bound
    # And the bound is actually tight enough to be useful here: within
    # ~10% relative error on this self-join-heavy uniform workload.
    assert a.join_size(b) == pytest.approx(truth, rel=0.1)


@pytest.mark.parametrize("hot_fraction", [0.5, 0.9])
def test_agms_join_size_under_hot_key_skew(hot_fraction):
    """The PR-8 skew shape: ``hot_fraction`` of the fact rows share one
    key.  The hot key dominates both second moments, so the relative
    error *shrinks* — precisely the regime histograms get most wrong."""
    rng = random.Random(46)
    n_keys = 200
    left = [
        1 if rng.random() < hot_fraction else rng.randrange(n_keys)
        for _ in range(4000)
    ]
    right = list(range(n_keys))  # PK side
    a, b = _agms_pair(left, right)
    truth = _true_join_size(left, right)
    assert truth >= hot_fraction * 4000 * 0.9  # sanity: skew materialised
    assert a.join_size(b) == pytest.approx(truth, rel=0.05)


def test_agms_second_moment_matches_truth():
    from collections import Counter

    rng = random.Random(47)
    values = [rng.randrange(50) for _ in range(3000)]
    truth = sum(c * c for c in Counter(values).values())
    sketch = FastAGMSSketch()
    for v in values:
        sketch.add(v)
    assert sketch.second_moment() == pytest.approx(truth, rel=0.1)


def test_agms_disjoint_domains_join_near_zero():
    a, b = _agms_pair(range(0, 1000), range(50_000, 51_000))
    bound = 4.0 * (
        (a.second_moment() * b.second_moment()) / a.width
    ) ** 0.5
    assert abs(a.join_size(b)) <= bound


def test_registry_default_seed_makes_any_pair_inner_productable():
    """All sketches built under the registry's single DEFAULT_SEED are
    mutually compatible — the property that lets the estimator take the
    inner product of *any* two base columns."""
    a = FastAGMSSketch(seed=DEFAULT_SEED)
    b = FastAGMSSketch(seed=DEFAULT_SEED)
    for i in range(100):
        a.add(i)
        b.add(i)
    assert a.join_size(b) > 0.0


# -- pinned state -------------------------------------------------------------


def _pinned_stream():
    rng = random.Random(41)
    values = []
    for _ in range(3000):
        r = rng.random()
        if r < 0.5:
            values.append(rng.randrange(500))
        elif r < 0.8:
            values.append(f"k{rng.randrange(200)}")
        elif r < 0.95:
            values.append(rng.randrange(-(10**12), 10**12))
        else:
            values.append(None)
    return values


#: sha256 of ``state_bytes()`` after the stream above, recorded before the
#: Count-Min and Fast-AGMS sketches shared one counter-row base: a fold of
#: the sketch code must leave every bucket choice and sign where it was.
_PINNED_DIGESTS = {
    "hll-default": (
        lambda: HyperLogLog(),
        "209f4a2d2ea96707a5414d7ec481ea627f129c3d01a559f1516a52844f127e61",
    ),
    "hll-small": (
        lambda: HyperLogLog(p=6, seed=7),
        "56c76af4349bf40f948d3d39555b0f0c17a68afc235a9749bb23cbd18e5ec146",
    ),
    "cms-default": (
        lambda: CountMinSketch(),
        "c3cff5a29633bc3711c649c7a8b731f06008169663ccb19551738515b881ecea",
    ),
    "cms-small": (
        lambda: CountMinSketch(depth=3, width=64, seed=7),
        "06009f55d00287de56ab505eacd6dc21ef72de9eab5337893025d087411740bd",
    ),
    "agms-default": (
        lambda: FastAGMSSketch(),
        "b49168fbe6fa8106e9f47eb06e44cb3d75d3e647ccf3629d77ca3c4c11f18b9d",
    ),
    "agms-small": (
        lambda: FastAGMSSketch(depth=3, width=32, seed=7),
        "3fc69087b7ec6c2422f089bed2e4f15000ab3429d3c060a74ed7072c17642340",
    ),
}


@pytest.mark.parametrize("shape", sorted(_PINNED_DIGESTS))
def test_sketch_state_is_pinned(shape):
    make, digest = _PINNED_DIGESTS[shape]
    sketch = make()
    for i, value in enumerate(_pinned_stream()):
        if isinstance(sketch, HyperLogLog):
            sketch.add(value)
        else:
            sketch.add(value, 1 + i % 3)
    assert hashlib.sha256(sketch.state_bytes()).hexdigest() == digest
