"""General interesting orders with degrees of freedom (Section 7).

Order-based GROUP BY and DISTINCT do not dictate one exact order: their
columns may appear in any permutation and each may be ascending or
descending. For ``GROUP BY x, y`` with ``SUM(DISTINCT z)`` the paper
counts sixteen satisfying orders — two permutations of ``{x, y}`` times
eight direction choices — and stores *one* general order instead.

A :class:`GeneralOrderSpec` is a sequence of :class:`OrderSegment`
entries. Each segment is either

* fixed — one column with a required direction (ORDER BY contributes
  these), or
* free — a set of columns that may be permuted, each direction free
  (GROUP BY / DISTINCT contribute these).

Segments must be satisfied in sequence: every column of segment *i*
(minus FD-redundant ones) must be consumed before segment *i+1* starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.context import OrderContext
from repro.core.ordering import OrderKey, OrderSpec, SortDirection
from repro.core.reduce import reduce_order
from repro.errors import OrderError
from repro.expr.nodes import ColumnRef


@dataclass(frozen=True)
class OrderSegment:
    """One segment of a general order.

    ``columns`` is the unordered set of columns the segment needs.
    ``fixed_key`` is set for fixed segments (exactly one column with a
    required direction); free segments leave it ``None``.
    """

    columns: frozenset
    fixed_key: Optional[OrderKey] = None

    def __post_init__(self):
        if self.fixed_key is not None:
            if self.columns != frozenset((self.fixed_key.column,)):
                raise OrderError("fixed segment must contain exactly its key")
        elif not self.columns:
            raise OrderError("free segment needs at least one column")

    @property
    def is_fixed(self) -> bool:
        return self.fixed_key is not None

    @classmethod
    def fixed(cls, key: OrderKey) -> "OrderSegment":
        return cls(frozenset((key.column,)), key)

    @classmethod
    def free(cls, columns: Iterable[ColumnRef]) -> "OrderSegment":
        return cls(frozenset(columns))

    def __str__(self) -> str:
        if self.is_fixed:
            return str(self.fixed_key)
        inner = ", ".join(sorted(str(column) for column in self.columns))
        return "{" + inner + "}"


def _deterministic(column: ColumnRef) -> Tuple[str, str]:
    return (column.qualifier, column.name)


class GeneralOrderSpec:
    """An interesting order with permutation and direction freedom."""

    def __init__(self, segments: Iterable[OrderSegment]):
        self.segments: Tuple[OrderSegment, ...] = tuple(segments)

    @classmethod
    def from_group_by(cls, columns: Sequence[ColumnRef]) -> "GeneralOrderSpec":
        """The general order of an order-based GROUP BY."""
        if not columns:
            return cls(())
        return cls((OrderSegment.free(columns),))

    @classmethod
    def from_distinct(cls, columns: Sequence[ColumnRef]) -> "GeneralOrderSpec":
        """The general order of an order-based DISTINCT."""
        return cls.from_group_by(columns)

    @classmethod
    def from_group_by_with_distinct_agg(
        cls,
        group_columns: Sequence[ColumnRef],
        distinct_argument: ColumnRef,
    ) -> "GeneralOrderSpec":
        """GROUP BY + one DISTINCT aggregate: group columns, then the arg.

        This is the paper's sixteen-orders example: ``{x, y}`` then
        ``{z}``, permutable within segments, directions free.
        """
        segments: List[OrderSegment] = []
        if group_columns:
            segments.append(OrderSegment.free(group_columns))
        segments.append(OrderSegment.free((distinct_argument,)))
        return cls(segments)

    @classmethod
    def from_spec(cls, specification: OrderSpec) -> "GeneralOrderSpec":
        """An exact order as a degenerate general order (all fixed)."""
        return cls(OrderSegment.fixed(key) for key in specification)

    def is_empty(self) -> bool:
        return not self.segments

    # ------------------------------------------------------------------
    # Satisfaction
    # ------------------------------------------------------------------

    def satisfied_by(
        self, order_property: OrderSpec, context: OrderContext
    ) -> bool:
        """Whether a stream ordered by ``order_property`` satisfies us."""
        return self._match(order_property, context) is not None

    def _match(
        self, order_property: OrderSpec, context: OrderContext
    ) -> Optional[int]:
        """Greedy segment-by-segment match.

        Returns the number of property keys consumed on success, None on
        failure. Works on reduced forms; FD-redundant segment columns are
        auto-satisfied as the closure grows.
        """
        reduced_property = reduce_order(order_property, context)
        position = 0
        closure = context.closure(())
        for segment in self.segments:
            needed = {
                context.equivalences.head(column) for column in segment.columns
            }
            needed = {column for column in needed if column not in closure}
            while needed:
                if position >= len(reduced_property):
                    return None
                key = reduced_property[position]
                if key.column not in needed:
                    return None
                if segment.is_fixed:
                    required = segment.fixed_key.direction
                    if key.direction is not required:
                        return None
                position += 1
                closure.extend(key.column)
                needed = {
                    column for column in needed if column not in closure
                }
        return position

    # ------------------------------------------------------------------
    # Concretization
    # ------------------------------------------------------------------

    def concrete(
        self,
        context: OrderContext,
        hint: Optional[OrderSpec] = None,
    ) -> OrderSpec:
        """One concrete order satisfying this general order.

        ``hint`` biases free segments: columns appearing in the hint are
        emitted first, in hint order and with hint directions, so the
        concrete order has the best chance of *also* satisfying the hint
        (see :meth:`aligned_with`). Without a hint, columns come out in a
        deterministic lexicographic order, ascending.
        """
        hint_rank = {}
        hint_direction = {}
        if hint is not None:
            for index, key in enumerate(reduce_order(hint, context)):
                hint_rank[key.column] = index
                hint_direction[key.column] = key.direction
        emitted: List[OrderKey] = []
        closure = context.closure(())
        for segment in self.segments:
            if segment.is_fixed:
                head = context.equivalences.head(segment.fixed_key.column)
                if head in closure:
                    continue
                emitted.append(segment.fixed_key.with_column(head))
                closure.extend(head)
            else:
                heads = {
                    context.equivalences.head(column)
                    for column in segment.columns
                }
                pending = sorted(
                    heads,
                    key=lambda column: (
                        hint_rank.get(column, len(hint_rank)),
                        _deterministic(column),
                    ),
                )
                for column in pending:
                    if column in closure:
                        continue
                    direction = hint_direction.get(column, SortDirection.ASC)
                    emitted.append(OrderKey(column, direction))
                    closure.extend(column)
            if closure.determines_everything:
                break
        return OrderSpec(emitted)

    def aligned_with(
        self, other: OrderSpec, context: OrderContext
    ) -> Optional[OrderSpec]:
        """A concrete order satisfying both us and ``other``, if one exists.

        This is Cover Order generalized to a free order: used to merge a
        GROUP BY's general order with an ORDER BY so one sort serves both
        (Figure 6). Returns None when no single order can satisfy both.
        """
        candidate = self.concrete(context, hint=other)
        # The candidate always satisfies the general order by
        # construction; ``other`` must reduce to a prefix of it, possibly
        # extended by trailing keys of ``other`` beyond our columns.
        reduced_other = reduce_order(other, context)
        reduced_candidate = reduce_order(candidate, context)
        if reduced_other.is_prefix_of(reduced_candidate):
            return reduced_candidate
        if reduced_candidate.is_prefix_of(reduced_other):
            # ``other`` keeps ordering beyond our needs: the longer order
            # still satisfies both (our match consumes only a prefix).
            if self.satisfied_by(reduced_other, context):
                return reduced_other
        return None

    def enumerate_orders(self, limit: int = 64) -> List[OrderSpec]:
        """Every concrete order this general order admits (up to ``limit``).

        Exists to demonstrate the Section 7 example (sixteen orders);
        planning never enumerates — it uses :meth:`satisfied_by`.
        """
        import itertools

        results: List[OrderSpec] = []

        def expand(segment_index: int, keys: List[OrderKey]) -> None:
            if len(results) >= limit:
                return
            if segment_index == len(self.segments):
                results.append(OrderSpec(list(keys)))
                return
            segment = self.segments[segment_index]
            if segment.is_fixed:
                keys.append(segment.fixed_key)
                expand(segment_index + 1, keys)
                keys.pop()
                return
            columns = sorted(segment.columns, key=_deterministic)
            for permutation in itertools.permutations(columns):
                for directions in itertools.product(
                    (SortDirection.ASC, SortDirection.DESC),
                    repeat=len(permutation),
                ):
                    if len(results) >= limit:
                        return
                    keys.extend(
                        OrderKey(column, direction)
                        for column, direction in zip(permutation, directions)
                    )
                    expand(segment_index + 1, keys)
                    del keys[len(keys) - len(permutation) :]

        expand(0, [])
        return results

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GeneralOrderSpec)
            and self.segments == other.segments
        )

    def __hash__(self) -> int:
        return hash(self.segments)

    def __str__(self) -> str:
        inner = ", ".join(str(segment) for segment in self.segments)
        return f"general[{inner}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeneralOrderSpec({self})"
