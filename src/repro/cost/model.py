"""The operator cost model (Sections 3.2, 4.2, 5.1.2, 5.1.3).

Every operator cost is a four-component object — CPU, Memory, IO, Network —
whose equal-weighted sum is the operator's cost (Eq. 2).  IO is always zero
(Ignite is in-memory).  A plan's cost is the sum over its operators (Eq. 1).

``cost_model_fixes`` off reproduces the stock model, with two defects
and without the distribution factor:

* the Eq. 4 unit mismatch: memory and network charge *bytes*
  (cardinality x width x AFS) while CPU charges *operations*
  (cardinality), over-weighting data size in planning; fixed, Eq. 5
  applies (cardinality only);
* the shadowed-constant bug: the multi-target penalty of an exchange is
  never applied, so a broadcast exchange costs the same as a
  point-to-point one;
* fixed, :func:`distribution_factor` (Alg. 2) rewards operators that run
  on partitioned data without an intervening exchange by dividing their
  work by the number of partition sites (Eq. 6).

CPU terms are not written here: each is the charge spec's function
(:mod:`repro.common.charges`) on estimated local row counts, the function
execution charges on actual ones.
"""

from __future__ import annotations

from repro.common import charges
from repro.common.config import SystemConfig
from repro.common.constants import AFS


class Cost:
    """A four-component operator cost (Eq. 2).

    A plain value object: the planner allocates one per operator and one
    per cumulative sum, so the equal-weighted total is worked out once, at
    construction, rather than on every comparison.
    """

    __slots__ = ("cpu", "memory", "io", "network", "value")

    def __init__(
        self,
        cpu: float = 0.0,
        memory: float = 0.0,
        io: float = 0.0,
        network: float = 0.0,
    ):
        self.cpu = cpu
        self.memory = memory
        self.io = io
        self.network = network
        #: Equal-weighted sum (Eq. 2).
        self.value = cpu + memory + io + network

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.io + other.io,
            self.network + other.network,
        )

    def __lt__(self, other: "Cost") -> bool:
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return isinstance(other, Cost) and (
            (self.cpu, self.memory, self.io, self.network)
            == (other.cpu, other.memory, other.io, other.network)
        )

    def __hash__(self) -> int:
        return hash((self.cpu, self.memory, self.io, self.network))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cost(cpu={self.cpu:.1f}, mem={self.memory:.1f}, "
            f"net={self.network:.1f}, total={self.value:.1f})"
        )


ZERO_COST = Cost()


def distribution_factor(node) -> float:
    """Algorithm 2: the parallelism reward for an operator subtree.

    If the subtree reaches its leaves without crossing an exchange, the
    operator runs in parallel on the partitions of the leaf relation(s) and
    the factor is the number of partition sites (1 for replicated tables).
    Any exchange on the way means the operator sees a whole relation:
    factor 1.  Both facts are derived once, when the physical node is
    built (:class:`repro.exec.physical.PhysNode`).
    """
    if node.has_exchange:
        return 1.0
    return float(node.leaf_partition_sites)


class CostModel:
    """Operator costing parameterised by the system configuration."""

    def __init__(self, config: SystemConfig):
        self._fixed = config.cost_model_fixes

    # -- helpers -----------------------------------------------------------------

    def _bytes(self, rows: float, width: int) -> float:
        """Memory/network charge for ``rows`` of ``width`` columns.

        Legacy (Eq. 4): bytes = rows * width * AFS.  Normalised (Eq. 5):
        just rows.
        """
        if self._fixed:
            return rows
        return rows * width * AFS

    def _df(self, factor: float) -> float:
        """Distribution factor, honouring the Section 4.2 fix."""
        if self._fixed:
            return max(1.0, factor)
        return 1.0

    # -- relational operators -------------------------------------------------------

    def scan(
        self,
        rows: float,
        width: int,
        df: float = 1.0,
        adapter_costs=None,
        out_rows: float = None,
    ) -> Cost:
        """Table or index scan: pass every tuple of the local partition.

        For adapter-backed tables, ``adapter_costs`` (an
        :class:`repro.storage.adapters.AdapterCosts`) prices the source
        asymmetry: CPU and IO are charged on the ``rows`` the source must
        read, network shipping on ``out_rows`` — the rows surviving any
        pushed filter/project/fetch — so pushdown visibly cheapens the
        plans the optimizer compares.  ``adapter_costs=None`` (the native
        engine) reproduces the historical ``rows * RPTC`` exactly.
        """
        local = rows / self._df(df)
        if adapter_costs is None:
            return Cost(cpu=charges.pass_through(local))
        shipped = (rows if out_rows is None else out_rows) / self._df(df)
        return Cost(
            cpu=charges.pass_through(local) * adapter_costs.scan_cpu_factor,
            io=local * adapter_costs.io_units_per_row,
            network=(
                shipped * adapter_costs.network_units_per_row
                + adapter_costs.request_units
            ),
        )

    def index_scan(self, rows: float, df: float = 1.0) -> Cost:
        """Index-ordered scan of a native table: a small per-row
        indirection premium, order for free."""
        return Cost(cpu=charges.index_scan(rows / self._df(df)))

    def filter(self, rows: float, df: float = 1.0) -> Cost:
        return Cost(cpu=charges.filter(rows / self._df(df)))

    def project(self, rows: float, width: int, df: float = 1.0) -> Cost:
        return Cost(cpu=charges.pass_through(rows / self._df(df)))

    def sort(self, rows: float, width: int, df: float = 1.0) -> Cost:
        """Eq. 4 / Eq. 5 / Eq. 6 depending on the enabled fixes."""
        local = rows / self._df(df)
        return Cost(cpu=charges.sort(local), memory=self._bytes(local, width))

    def limit(self, rows: float) -> Cost:
        return Cost(cpu=charges.pass_through(rows))

    def values(self, rows: float) -> Cost:
        return Cost(cpu=charges.pass_through(rows))

    def nested_loop_join(
        self,
        left_rows: float,
        right_rows: float,
        right_width: int,
        df_left: float = 1.0,
    ) -> Cost:
        """Nested-loop join: compare every outer tuple with every inner."""
        outer = left_rows / self._df(df_left)
        return Cost(
            cpu=charges.nested_loop_join(outer, right_rows),
            memory=self._bytes(right_rows, right_width),
        )

    def merge_join(
        self, left_rows: float, right_rows: float, df: float = 1.0
    ) -> Cost:
        """The merge phase of a merge join (Section 5.1.3, Eq. 9).

        Per tuple the merge pays a comparison and a pass-through but no
        hashing, which is what makes "if both sorting costs are removed,
        MJ_CPU will always be less than H_CPU" hold.  Input sorts are
        separate operators and carry their own cost.
        """
        # The factor divides the sum, so the sum goes in as one input.
        local = (left_rows + right_rows) / self._df(df)
        return Cost(cpu=charges.merge_join(local, 0.0))

    def hash_join(
        self,
        left_rows: float,
        right_rows: float,
        right_width: int,
        df_right: float = 1.0,
    ) -> Cost:
        """Eq. 7: build on the right relation, probe with the left.

        The distribution factor applies to the *right* (build) relation
        only, rewarding plans that build the hash table on a small, local
        partition (Section 5.1.2).
        """
        build = right_rows / self._df(df_right)
        return Cost(
            cpu=charges.hash_join(left_rows, build),
            memory=self._bytes(build, right_width),
        )

    def hash_aggregate(
        self, rows: float, groups: float, width: int, df: float = 1.0
    ) -> Cost:
        local = rows / self._df(df)
        return Cost(
            cpu=charges.hash_aggregate(local),
            memory=self._bytes(min(groups, local), width),
        )

    def sort_aggregate(
        self, rows: float, groups: float, width: int, df: float = 1.0
    ) -> Cost:
        """Aggregation over an already-sorted input: no hash table needed.

        This is the plan shape behind the paper's Q14 anecdote: a changed
        index-scan sort order let a sort-based aggregate replace the
        hash-based one and removed an intermediate sort entirely.
        """
        local = rows / self._df(df)
        return Cost(cpu=charges.sort_aggregate(local), memory=self._bytes(1.0, width))

    def exchange(
        self, rows: float, width: int, target_sites: int, df: float = 1.0
    ) -> Cost:
        """An exchange: serialise, ship, deserialise.

        The multi-target penalty multiplies the network charge by the
        number of destination sites.  The baseline never applies it — the
        constant in the check was shadowed by a same-named constant from
        another class (Section 4.1) — so without ``cost_model_fixes`` a
        broadcast costs the same as a unicast.
        """
        local = rows / self._df(df)
        network = self._bytes(local, width)
        if self._fixed and target_sites > 1:
            network *= target_sites
        return Cost(cpu=charges.exchange(local), network=network)
