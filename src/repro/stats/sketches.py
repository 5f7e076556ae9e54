"""Seeded, mergeable data sketches: Fast-AGMS, Count-Min, HyperLogLog.

The equi-depth histograms built at load time price *range* predicates
well, but two estimation problems are structurally out of their reach:

* **equi-join sizes** — ``|A join B| = sum_v f_A(v) * f_B(v)`` depends on
  the per-value frequency *product*, which no per-column summary of
  either side alone can recover.  A Fast-AGMS sketch [Cormode & Garofalakis]
  projects each column onto ``depth`` random +/-1 vectors; the inner
  product of two sketches built with the same seed is an unbiased
  estimate of the join size, with error ``O(sqrt(F2(A) * F2(B) / width))``
  per row and the median over rows controlling the failure probability.

* **hot-key frequencies and distinct counts under skew** — equality
  selectivity via ``1/NDV`` assumes uniformity, exactly what a Zipf-like
  hot key violates.  A Count-Min sketch answers per-value frequencies
  (over-estimating only, by at most ``total/width`` per row w.h.p.), and
  a HyperLogLog register file estimates distinct counts within
  ``~1.04/sqrt(m)`` relative error (0.8% at ``m = 2**14``).

All three sketches here are

* **seeded** — hashing goes through :func:`value_hash`, a keyed
  blake2b-based 64-bit hash that is independent of ``PYTHONHASHSEED``,
  so the same seed over the same multiset of values produces
  bit-identical sketch state in every process;
* **mergeable** — the sketch of a union of partitions equals the merge
  of per-partition sketches (register-wise max for HLL, counter-wise sum
  for CMS/AGMS), which is what makes per-partition construction and
  cross-site aggregation possible;
* **insertion-order independent** — adds commute, so harvesting rows in
  whatever order fragments complete cannot perturb the state.

The sketches store plain Python ints (``bytearray`` / ``array('q')``),
so "bit-identical" is literal: ``==`` compares full state.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional

from repro.common.hashing import encode_value, value_hash

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_HLL_P",
    "DEFAULT_CMS_DEPTH",
    "DEFAULT_CMS_WIDTH",
    "DEFAULT_AGMS_DEPTH",
    "DEFAULT_AGMS_WIDTH",
    "CountMinSketch",
    "FastAGMSSketch",
    "HyperLogLog",
    "encode_value",
    "value_hash",
]

#: Registry-wide default seed.  Every sketch that should ever be merged
#: or inner-producted with another must share the seed (the hash
#: functions are derived from it).
DEFAULT_SEED = 0xA65EED

#: HLL register-count exponent: ``2**14`` registers, ~0.8% standard
#: error, 16 KiB per column.
DEFAULT_HLL_P = 14

#: Count-Min dimensions: 4 rows of 4096 counters.  The point-query
#: over-estimate is at most ``2 * total / 4096`` per row w.p. >= 1/2,
#: so the min over 4 rows is within that bound w.p. >= 15/16.
DEFAULT_CMS_DEPTH = 4
DEFAULT_CMS_WIDTH = 4096

#: Fast-AGMS dimensions: 7 rows (odd, so the median is one row's value)
#: of 1024 buckets.
DEFAULT_AGMS_DEPTH = 7
DEFAULT_AGMS_WIDTH = 1024

_MASK64 = (1 << 64) - 1

#: Per-row salts for deriving independent hash functions from one base
#: hash (golden-ratio multiples, the Weyl sequence trick).
_ROW_SALTS = tuple(
    (0x9E3779B97F4A7C15 * (i + 1)) & _MASK64 for i in range(32)
)
#: Separate salt stream for AGMS signs so the +/-1 vector is independent
#: of the bucket choice.
_SIGN_SALTS = tuple(
    (0xC2B2AE3D27D4EB4F * (i + 1)) & _MASK64 for i in range(32)
)


def _mix64(x: int) -> int:
    """Murmur3's 64-bit finalizer: a cheap full-avalanche mixer."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


class HyperLogLog:
    """Distinct-count sketch: ``2**p`` max-rank registers."""

    __slots__ = ("p", "seed", "registers")

    def __init__(self, p: int = DEFAULT_HLL_P, seed: int = DEFAULT_SEED):
        if not 4 <= p <= 18:
            raise ValueError(f"HLL precision p={p} outside [4, 18]")
        self.p = p
        self.seed = seed
        self.registers = bytearray(1 << p)

    # -- updates -----------------------------------------------------------

    def add(self, value: object) -> None:
        """Observe one value (NULLs are not distinct values; skip them)."""
        if value is None:
            return
        self.add_hash(value_hash(value, self.seed))

    def add_hash(self, h: int) -> None:
        """Observe a pre-computed :func:`value_hash` (shared-hash path)."""
        j = h >> (64 - self.p)
        w = h & ((1 << (64 - self.p)) - 1)
        # Rank: leading-zero count of the remaining bits, plus one.
        rho = (64 - self.p) - w.bit_length() + 1
        if rho > self.registers[j]:
            self.registers[j] = rho

    def merge(self, other: "HyperLogLog") -> None:
        """Register-wise max: the sketch of the union of both streams."""
        self._check_compatible(other)
        mine, theirs = self.registers, other.registers
        for i in range(len(mine)):
            if theirs[i] > mine[i]:
                mine[i] = theirs[i]

    # -- estimation --------------------------------------------------------

    def estimate(self) -> float:
        """The HLL cardinality estimate with small-range correction."""
        m = 1 << self.p
        if m >= 128:
            alpha = 0.7213 / (1.0 + 1.079 / m)
        elif m == 64:
            alpha = 0.709
        elif m == 32:
            alpha = 0.697
        else:
            alpha = 0.673
        total = 0.0
        zeros = 0
        for r in self.registers:
            total += 2.0 ** -r
            if r == 0:
                zeros += 1
        raw = alpha * m * m / total
        if raw <= 2.5 * m and zeros:
            # Linear counting: near-exact when most registers are empty.
            return m * math.log(m / zeros)
        return raw

    # -- plumbing ----------------------------------------------------------

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog(self.p, self.seed)
        clone.registers[:] = self.registers
        return clone

    def state_bytes(self) -> bytes:
        """The full register file (bit-identical determinism checks)."""
        return bytes(self.registers)

    def _check_compatible(self, other: "HyperLogLog") -> None:
        if self.p != other.p or self.seed != other.seed:
            raise ValueError("cannot merge HLLs with different p or seed")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperLogLog)
            and self.p == other.p
            and self.seed == other.seed
            and self.registers == other.registers
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HyperLogLog(p={self.p}, est={self.estimate():.1f})"


class _CounterRows:
    """``depth`` rows of ``width`` int64 counters, merged by summing.

    Count-Min and Fast-AGMS are one family of linear sketches: they
    differ only in what ``add_hash`` adds to each row's bucket (the
    count, or the count times a +/-1 sign) and in what they estimate.
    Two sketches combine only when they are of the same type, shape and
    seed.
    """

    __slots__ = ("depth", "width", "seed", "rows", "total")

    def __init__(self, depth: int, width: int, seed: int = DEFAULT_SEED):
        if depth < 1 or depth > len(_ROW_SALTS) or width < 1:
            raise ValueError(f"bad {type(self).__name__} dimensions {depth}x{width}")
        self.depth = depth
        self.width = width
        self.seed = seed
        self.rows: List[array] = [array("q", [0]) * width for _ in range(depth)]
        #: Values added (the frequency-estimate denominator).
        self.total = 0

    def add(self, value: object, count: int = 1) -> None:
        if value is None:
            return
        self.add_hash(value_hash(value, self.seed), count)

    def merge(self, other: "_CounterRows") -> None:
        """Counter-wise sum: the sketch of the concatenated streams."""
        self._check_compatible(other)
        for mine, theirs in zip(self.rows, other.rows):
            for i in range(self.width):
                mine[i] += theirs[i]
        self.total += other.total

    def copy(self) -> "_CounterRows":
        clone = type(self)(self.depth, self.width, self.seed)
        for mine, theirs in zip(clone.rows, self.rows):
            mine[:] = theirs
        clone.total = self.total
        return clone

    def state_bytes(self) -> bytes:
        return b"".join(row.tobytes() for row in self.rows)

    def _shape(self) -> tuple:
        return type(self), self.depth, self.width, self.seed

    def _check_compatible(self, other: "_CounterRows") -> None:
        if self._shape() != other._shape():
            raise ValueError(f"cannot combine {self!r} with {other!r}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _CounterRows)
            and self._shape() == other._shape()
            and self.total == other.total
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}({self.depth}x{self.width}, seed={self.seed}, total={self.total})"


class CountMinSketch(_CounterRows):
    """Point-frequency sketch: ``depth`` rows of ``width`` counters."""

    __slots__ = ()

    def __init__(
        self,
        depth: int = DEFAULT_CMS_DEPTH,
        width: int = DEFAULT_CMS_WIDTH,
        seed: int = DEFAULT_SEED,
    ):
        super().__init__(depth, width, seed)

    def add_hash(self, h: int, count: int = 1) -> None:
        for i in range(self.depth):
            bucket = _mix64(h ^ _ROW_SALTS[i]) % self.width
            self.rows[i][bucket] += count
        self.total += count

    def estimate(self, value: object) -> int:
        """Estimated frequency of ``value`` (over-estimates only)."""
        if value is None:
            return 0
        h = value_hash(value, self.seed)
        best: Optional[int] = None
        for i in range(self.depth):
            bucket = _mix64(h ^ _ROW_SALTS[i]) % self.width
            count = self.rows[i][bucket]
            if best is None or count < best:
                best = count
        return best or 0


class FastAGMSSketch(_CounterRows):
    """Join-size sketch: ``depth`` signed-counter rows of ``width`` buckets.

    Two sketches built with the same (seed, depth, width) over columns A
    and B satisfy ``E[row_i(A) . row_i(B)] = |A join B|`` for each row
    ``i``; :meth:`join_size` returns the median over rows.  A sketch
    inner-producted with itself estimates its column's second frequency
    moment ``F2`` (:meth:`second_moment`), which is what the error bound
    ``|est - J| <= 4 * sqrt(F2(A) * F2(B) / width)`` w.h.p. is stated in.
    """

    __slots__ = ()

    def __init__(
        self,
        depth: int = DEFAULT_AGMS_DEPTH,
        width: int = DEFAULT_AGMS_WIDTH,
        seed: int = DEFAULT_SEED,
    ):
        super().__init__(depth, width, seed)

    def add_hash(self, h: int, count: int = 1) -> None:
        for i in range(self.depth):
            bucket = _mix64(h ^ _ROW_SALTS[i]) % self.width
            sign = 1 if _mix64(h ^ _SIGN_SALTS[i]) & 1 else -1
            self.rows[i][bucket] += sign * count
        self.total += count

    def join_size(self, other: "FastAGMSSketch") -> float:
        """Estimated equi-join size between this column and ``other``."""
        self._check_compatible(other)
        estimates = sorted(
            sum(a * b for a, b in zip(mine, theirs))
            for mine, theirs in zip(self.rows, other.rows)
        )
        return float(estimates[len(estimates) // 2])

    def second_moment(self) -> float:
        """Estimated ``F2 = sum_v f(v)^2`` of the sketched column."""
        return self.join_size(self)


def merge_all(sketches: Iterable):
    """Fold ``merge`` over copies: the combined sketch, inputs untouched."""
    result = None
    for sketch in sketches:
        if result is None:
            result = sketch.copy()
        else:
            result.merge(sketch)
    return result
