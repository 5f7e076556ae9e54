"""Physical traits: distribution and collation.

Section 3.2.2 describes the *distribution* trait — the trait with the most
impact on plan cost — with three values Ignite uses during optimisation:

* ``SINGLE``    — the operator executes at one site;
* ``BROADCAST`` — the operator executes at all sites (full copy of data);
* ``HASH``      — the operator executes at a subset of sites determined by
  a hash function over key columns.

Table 1 of the paper defines when a source distribution *satisfies* a
target distribution; :func:`satisfies` implements that matrix.  When a
source does not satisfy a target, the planner inserts an exchange.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class DistributionType(enum.Enum):
    SINGLE = "single"
    BROADCAST = "broadcast"
    HASH = "hash"
    #: Planner-internal wildcard: "whatever the input produces".
    ANY = "any"


@dataclass(frozen=True)
class Distribution:
    """A distribution trait value; HASH carries its key column indexes."""

    type: DistributionType
    keys: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.type is DistributionType.HASH and not self.keys:
            raise ValueError("HASH distribution requires key columns")
        if self.type is not DistributionType.HASH and self.keys:
            raise ValueError(f"{self.type} distribution takes no keys")

    # Constructors ----------------------------------------------------------

    @staticmethod
    def single() -> "Distribution":
        return _SINGLE

    @staticmethod
    def broadcast() -> "Distribution":
        return _BROADCAST

    @staticmethod
    def hash(keys: Tuple[int, ...]) -> "Distribution":
        return Distribution(DistributionType.HASH, tuple(keys))

    @staticmethod
    def any() -> "Distribution":
        return _ANY

    # Predicates --------------------------------------------------------------

    @property
    def is_single(self) -> bool:
        return self.type is DistributionType.SINGLE

    @property
    def is_broadcast(self) -> bool:
        return self.type is DistributionType.BROADCAST

    @property
    def is_hash(self) -> bool:
        return self.type is DistributionType.HASH

    def remap(self, mapping) -> Optional["Distribution"]:
        """Remap hash keys through ``mapping`` (index -> index or None).

        Returns None if any key is projected away (the hash property is
        lost).
        """
        if not self.is_hash:
            return self
        new_keys = []
        for key in self.keys:
            mapped = mapping(key)
            if mapped is None:
                return None
            new_keys.append(mapped)
        return Distribution.hash(tuple(new_keys))

    def __str__(self) -> str:
        if self.is_hash:
            return f"hash{list(self.keys)}"
        return self.type.value


_SINGLE = Distribution(DistributionType.SINGLE)
_BROADCAST = Distribution(DistributionType.BROADCAST)
_ANY = Distribution(DistributionType.ANY)


def satisfies(source: Distribution, target: Distribution) -> bool:
    """Table 1: does ``source`` satisfy ``target``?

    A source satisfies a target if the source executes at a superset of the
    target's sites.  BROADCAST satisfies everything (data is everywhere).
    HASH satisfies BROADCAST/HASH only when its hash function covers a
    superset of the target sites — for HASH targets the reproduction
    requires the same key columns (the same affinity function), which is
    the condition Ignite checks.
    """
    if target.type is DistributionType.ANY:
        return True
    if source.type is DistributionType.SINGLE:
        return target.type is DistributionType.SINGLE
    if source.type is DistributionType.BROADCAST:
        return True
    if source.type is DistributionType.HASH:
        if target.type is DistributionType.HASH:
            return source.keys == target.keys
        return False
    return False


@dataclass(frozen=True)
class Collation:
    """Sort order trait: a tuple of (column index, ascending) pairs."""

    keys: Tuple[Tuple[int, bool], ...] = ()

    def __hash__(self) -> int:
        # The dataclass hash, computed once: plan memo probes hash it.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.keys,))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def is_sorted(self) -> bool:
        return bool(self.keys)

    def prefix_of(self, other: "Collation") -> bool:
        """True if ``self`` is a leading prefix of ``other``."""
        if len(self.keys) > len(other.keys):
            return False
        return other.keys[: len(self.keys)] == self.keys

    def satisfies(self, required: "Collation") -> bool:
        """A collation satisfies a requirement that is a prefix of it."""
        return required.prefix_of(self)

    def __str__(self) -> str:
        if not self.keys:
            return "unsorted"
        parts = [f"${i}{'' if asc else ' DESC'}" for i, asc in self.keys]
        return "[" + ", ".join(parts) + "]"


EMPTY_COLLATION = Collation()
