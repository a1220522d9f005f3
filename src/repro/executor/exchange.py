"""Exchange operators: move rows between partition streams and one stream.

Three operators connect the partitioned and sequential worlds:

* :class:`PartitionScanOp` — sequential scan over a *subset* of a
  partitioned table's partitions (partition pruning, or a single
  partition as the leaf of a per-partition subtree);
* :class:`GatherExchangeOp` — concatenates its per-partition children's
  outputs in partition order (the deterministic union-all; order across
  partitions is not claimed);
* :class:`MergeExchangeOp` — k-way-merges per-partition streams that
  each deliver the target order, producing the global order without a
  sort. The merge is stable: entries are decorated ``(key, partition,
  sequence, row)`` so equal keys preserve partition-then-arrival order
  and rows are never compared.

The hash repartition exchange is realized as ``count`` instances of
:class:`PartitionSplitOp` sharing one child: the child executes once,
its rows are split into hash buckets with the *same* stable hash the
storage layer routes with, and each split instance serves one bucket to
its consumer.

Execution model: an exchange pulls its children directly, in the
caller's thread, with the caller's :class:`ExecutionContext`, so every
partition stream shares the statement's cancel token, metrics and
counters, and sees its host-variable bindings. Partitioning pays off
through order (pruned partitions, a merge in place of a sort,
per-partition grouping and joins), not through concurrency: under the
GIL, a thread per partition measured slower than serial pulls.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.partition import _stable_hash
from repro.core.ordering import OrderSpec
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.executor.operators import (
    Batch,
    PhysicalOperator,
    Row,
    _batch_keys,
)
from repro.expr.schema import RowSchema


class PartitionScanOp(PhysicalOperator):
    """Sequential scan of selected partitions of a partitioned table.

    Charges exactly the pages of the partitions it touches — pruned
    partitions cost nothing, which is the point.
    """

    def __init__(
        self,
        table_name: str,
        alias: str,
        schema: RowSchema,
        partitions: Sequence[int],
    ):
        super().__init__(schema)
        self.table_name = table_name
        self.alias = alias
        self.partitions = tuple(partitions)

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        heap = context.database.store(self.table_name).heap
        size = context.batch_size
        batch: Batch = []
        for partition in self.partitions:
            for page in heap.scan_pages_partition(partition):
                batch.extend(page)
                while len(batch) >= size:
                    yield batch[:size]
                    batch = batch[size:]
        if batch:
            yield batch

    def label(self) -> str:
        parts = ",".join(str(p) for p in self.partitions)
        return (
            f"partition scan {self.table_name} as {self.alias} "
            f"[parts {parts}]"
        )


class _ExchangeBase(PhysicalOperator):
    """Shared input validation for gather and merge exchanges."""

    def __init__(
        self, children: Sequence[PhysicalOperator], schema: RowSchema
    ):
        super().__init__(schema)
        if len(children) < 2:
            raise ExecutionError("an exchange needs >= 2 input streams")
        self._children = tuple(children)
        for child in self._children:
            if tuple(child.schema.columns) != tuple(schema.columns):
                raise ExecutionError("exchange inputs must share a schema")

    def children(self) -> Sequence[PhysicalOperator]:
        return self._children


class GatherExchangeOp(_ExchangeBase):
    """Union of partition streams, output in partition order.

    Drains child 0 to exhaustion, then child 1, and so on, so the output
    is the deterministic concatenation — identical to the sequential
    engines' row order.
    """

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        for child in self._children:
            yield from child.batches(context)

    def label(self) -> str:
        return f"gather exchange ({len(self._children)} streams)"


class MergeExchangeOp(_ExchangeBase):
    """Order-preserving k-way merge of partition streams.

    Every input must deliver ``order`` already; the merge only
    interleaves. Stability: heap entries are
    ``(key, partition, sequence, row)`` — unique ``(partition,
    sequence)`` pairs mean equal keys resolve to partition-then-arrival
    order and row payloads are never compared (they may not be
    comparable).
    """

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        schema: RowSchema,
        order: OrderSpec,
    ):
        super().__init__(children, schema)
        if order.is_empty():
            raise ExecutionError("merge exchange needs a non-empty order")
        self.order = order

    @staticmethod
    def _entries(
        child: PhysicalOperator,
        partition: int,
        keys_of,
        context: ExecutionContext,
    ) -> Iterator[Tuple]:
        sequence = 0
        for batch in child.batches(context):
            for key, row in zip(keys_of(batch), batch):
                yield (key, partition, sequence, row)
                sequence += 1

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        keys_of = _batch_keys(context, self.schema, self.order)
        streams = [
            self._entries(child, partition, keys_of, context)
            for partition, child in enumerate(self._children)
        ]
        size = context.batch_size
        batch: Batch = []
        append = batch.append
        for entry in heapq.merge(*streams):
            append(entry[3])
            if len(batch) >= size:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def label(self) -> str:
        return (
            f"merge exchange {self.order} "
            f"({len(self._children)} streams)"
        )


class _SplitSource:
    """The shared half of a hash repartition exchange.

    Executes the child once (when the first bucket is pulled) and
    splits its rows into ``count`` hash buckets using the storage
    layer's stable hash — a repartitioned stream therefore co-locates
    with a hash-partitioned table over equal column values.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        positions: Sequence[int],
        count: int,
    ):
        self.child = child
        self.positions = tuple(positions)
        self.count = count
        self._buckets: Optional[List[List[Row]]] = None

    def bucket(self, context: ExecutionContext, index: int) -> List[Row]:
        if self._buckets is None:
            buckets: List[List[Row]] = [[] for _ in range(self.count)]
            positions = self.positions
            count = self.count
            for batch in self.child.batches(context):
                for row in batch:
                    values = tuple(row[position] for position in positions)
                    buckets[_stable_hash(values) % count].append(row)
            self._buckets = buckets
        return self._buckets[index]


class PartitionSplitOp(PhysicalOperator):
    """One output bucket of a hash repartition exchange.

    ``count`` sibling instances share one :class:`_SplitSource`; the
    builder (``repro.executor.build``) guarantees the sharing by caching
    on the plan node's shared child.
    """

    def __init__(
        self, source: _SplitSource, index: int, schema: RowSchema
    ):
        super().__init__(schema)
        self.source = source
        self.index = index

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.source.child,)

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        rows = self.source.bucket(context, self.index)
        size = context.batch_size
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def label(self) -> str:
        return f"partition split #{self.index}/{self.source.count}"
