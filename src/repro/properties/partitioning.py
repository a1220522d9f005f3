"""The partitioning property: how a stream divides into partition streams.

The paper's machinery tracks *order* through a plan; partitioning is
the sibling physical property for scale-out plans. A stream is either
``singleton`` (one sequential stream — every classic operator sees
this), or split into ``count`` parallel streams by ``hash`` or
``range`` over partition columns, or ``roundrobin`` (split with no
column guarantee — what survives when a projection drops a partition
column or a join mixes streams conservatively).

The lattice, coarsest to finest guarantee:

    roundrobin  <  hash(cols)  <  range(cols)      (singleton apart)

``range`` makes the stronger promise that partition index order agrees
with partition-column order, which is what lets a merge exchange over
per-partition ordered streams deliver a global order without sorting.
``hash`` only promises equal keys land together — enough for
partition-wise joins and group-bys, never for order.

:meth:`PartitioningProperty.colocates` is the partition-key analogue of
the paper's Test Order: a grouping/join key set is satisfied by the
existing partitioning — no repartition exchange needed — when every
partition column is a constant or is equated (via the stream's
equivalence classes) to one of the required columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

from repro.core.context import OrderContext
from repro.core.equivalence import EquivalenceClasses
from repro.expr.nodes import ColumnRef

SINGLETON_KIND = "singleton"
HASH_KIND = "hash"
RANGE_KIND = "range"
ROUND_ROBIN_KIND = "roundrobin"

_KINDS = (SINGLETON_KIND, HASH_KIND, RANGE_KIND, ROUND_ROBIN_KIND)


@dataclass(frozen=True)
class PartitioningProperty:
    """Partitioning of a stream: kind + partition columns + stream count.

    ``columns`` is meaningful only for hash/range; ``count`` is 1 for
    singleton and >= 2 otherwise.
    """

    kind: str = SINGLETON_KIND
    columns: Tuple[ColumnRef, ...] = ()
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown partitioning kind {self.kind!r}")
        if self.kind == SINGLETON_KIND:
            if self.columns or self.count != 1:
                raise ValueError("singleton partitioning has no columns")
        else:
            if self.count < 2:
                raise ValueError(f"{self.kind} partitioning needs count >= 2")
            if self.kind in (HASH_KIND, RANGE_KIND) and not self.columns:
                raise ValueError(f"{self.kind} partitioning needs columns")
            if self.kind == ROUND_ROBIN_KIND and self.columns:
                raise ValueError("roundrobin partitioning has no columns")

    @property
    def is_singleton(self) -> bool:
        return self.kind == SINGLETON_KIND

    @property
    def is_parallel(self) -> bool:
        return self.kind != SINGLETON_KIND

    def restricted(self, columns: Set[ColumnRef]) -> "PartitioningProperty":
        """After a projection to ``columns``: losing any partition column
        degrades hash/range to round-robin (rows still split the same
        way, but downstream can no longer *prove* anything about it)."""
        if self.is_singleton or self.kind == ROUND_ROBIN_KIND:
            return self
        if all(column in columns for column in self.columns):
            return self
        return round_robin(self.count)

    def renamed(
        self, mapping: Dict[ColumnRef, ColumnRef]
    ) -> "PartitioningProperty":
        if self.is_singleton or self.kind == ROUND_ROBIN_KIND:
            return self
        if all(column in mapping for column in self.columns):
            return PartitioningProperty(
                self.kind,
                tuple(mapping[column] for column in self.columns),
                self.count,
            )
        return round_robin(self.count)

    def colocates(
        self, required: Iterable[ColumnRef], context: OrderContext
    ) -> bool:
        """Test Partitioning: do equal values of ``required`` always land
        in the same partition already?

        True for singleton trivially (one partition). For hash/range,
        every partition column must be a constant (all rows share one
        partition-column value, so routing ignores it) or equivalent to
        a required column. Round-robin guarantees nothing.
        """
        if self.is_singleton:
            return True
        if self.kind == ROUND_ROBIN_KIND:
            return False
        required_set = set(required)
        for column in self.columns:
            if context.is_constant(column):
                continue
            if column in required_set:
                continue
            if context.equivalences.members(column) & required_set:
                continue
            return False
        return True

    def aligned(
        self,
        other: "PartitioningProperty",
        equivalences: EquivalenceClasses,
    ) -> bool:
        """Whether two sides are co-partitioned for a partition-wise
        join: same kind and count, and partition columns pairwise equated
        by the join's equality closure. Range boundaries are per-table,
        so range alignment additionally requires equal column *values* to
        route identically — which pairwise equality gives for hash (same
        stable hash) but not for range (different boundary lists); range
        sides therefore only align with themselves via equivalence of
        the identical spec, handled by the caller comparing specs."""
        if self.kind != HASH_KIND or other.kind != HASH_KIND:
            return False
        if self.count != other.count:
            return False
        if len(self.columns) != len(other.columns):
            return False
        for mine, theirs in zip(self.columns, other.columns):
            if mine == theirs:
                continue
            if theirs in equivalences.members(mine):
                continue
            return False
        return True

    def describe(self) -> str:
        if self.is_singleton:
            return "singleton"
        if self.kind == ROUND_ROBIN_KIND:
            return f"roundrobin x{self.count}"
        inner = ", ".join(str(column) for column in self.columns)
        return f"{self.kind}({inner}) x{self.count}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitioningProperty({self.describe()})"


SINGLETON = PartitioningProperty()


def hash_partitioning(
    columns: Iterable[ColumnRef], count: int
) -> PartitioningProperty:
    return PartitioningProperty(HASH_KIND, tuple(columns), count)


def range_partitioning(
    columns: Iterable[ColumnRef], count: int
) -> PartitioningProperty:
    return PartitioningProperty(RANGE_KIND, tuple(columns), count)


def round_robin(count: int) -> PartitioningProperty:
    return PartitioningProperty(ROUND_ROBIN_KIND, (), count)
