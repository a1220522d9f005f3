"""Partition-parallel planning: pruned scans, exchanges, partition-wise
joins and group-bys.

Everything here is gated by ``OptimizerConfig.enable_partitioning``
(itself behind the master switch): with the feature off, a partitioned
table is planned as one sequential stream and none of these plan shapes
exist.

Two modeling decisions shape the plans:

* Per-partition B-trees are **local** indexes. A globally ordered index
  scan over a partitioned table is inherently a k-way merge of the
  per-partition cursors — an exchange capability — so the sequential
  planner does not offer whole-table index scans on partitioned tables
  at all (point probes through ``PartitionedTree.probe`` still work for
  index nested loops). With partitioning enabled, the merge-exchange
  access path below supplies the ordered scan; without it, the planner
  scans and, if order is needed, sorts — which is exactly the
  asymmetry the paper's machinery should observe.

* A parallel subtree is always capped by an exchange before it meets a
  classic operator, so the DP enumeration only ever sees singleton
  streams at the root of each candidate; partition-wise joins peel a
  gather exchange open again and zip its children instead of joining
  the gathered stream.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.catalog import Index, TableSchema
from repro.catalog.partition import RANGE, PartitionSpec
from repro.core.ordering import OrderSpec
from repro.cost.model import Cost
from repro.expr.nodes import ColumnRef, Expression, Parameter
from repro.expr.schema import RowSchema
from repro.optimizer.plan import OpKind, PlanNode
from repro.optimizer.planner import (
    PlannerContext,
    _apply_filters,
    _find_equality,
    _find_range,
    extract_sargable,
)
from repro.properties.partitioning import (
    HASH_KIND,
    SINGLETON,
    PartitioningProperty,
    hash_partitioning,
    range_partitioning,
)
from repro.properties.propagate import (
    base_table_properties,
    propagate_filter,
    propagate_group_by,
    propagate_join,
    propagate_sort,
)


def partition_property(spec: PartitionSpec, alias: str) -> PartitioningProperty:
    """The stream property a partitioned table's parallel scan delivers."""
    columns = tuple(ColumnRef(alias, name) for name in spec.columns)
    if spec.kind == RANGE:
        return range_partitioning(columns, spec.partition_count)
    return hash_partitioning(columns, spec.partition_count)


# ----------------------------------------------------------------------
# Partition pruning
# ----------------------------------------------------------------------


def pruned_partitions(
    spec: PartitionSpec, alias: str, predicates: Sequence[Expression]
) -> Optional[Tuple[int, ...]]:
    """Partitions that can hold qualifying rows, or None when the
    predicates say nothing about the partition key.

    Host variables (``Parameter``) never prune: the plan is cached and
    re-bound, so pruning may only use values fixed at plan time.
    """
    values = []
    for name in spec.columns:
        value, predicate = _find_equality(
            ColumnRef(alias, name), predicates
        )
        if predicate is None or isinstance(value, Parameter):
            break
        values.append(value)
    else:
        return spec.prune_equal(values)
    if spec.kind == RANGE:
        low, high, _low_inc, high_inc, covered = _find_range(
            ColumnRef(alias, spec.columns[0]), predicates
        )
        if isinstance(low, Parameter):
            low = None
        if isinstance(high, Parameter):
            high = None
        if covered and (low is not None or high is not None):
            return spec.prune_range(low, high, high_inclusive=high_inc)
    return None


# ----------------------------------------------------------------------
# Access paths
# ----------------------------------------------------------------------


def partitioned_access_paths(
    planner: PlannerContext, alias: str, table: TableSchema
) -> List[PlanNode]:
    """Parallel and pruned access paths for one partitioned quantifier.

    Three families:

    * a **pruned sequential scan** (``PARTITION_SCAN``) when the local
      predicates pin the partition key — charges exactly the pages of
      the surviving partitions;
    * a **gather exchange** over per-partition scans (filters pushed
      below the exchange, so each partition stream filters its own rows);
    * a **merge exchange** over per-partition local-index scans for
      every index: each partition delivers the index order, the merge
      preserves it globally — an ordered stream with zero sorts.
    """
    spec = table.partitioning
    config = planner.config
    if spec is None or not config.effective("enable_partitioning"):
        return []
    predicates = planner.local_predicates.get(alias, [])
    filtered_rows = planner.base_cardinality(alias)
    count = spec.partition_count
    heap = planner.database.store(table.name).heap
    plans: List[PlanNode] = []

    pruned = pruned_partitions(spec, alias, predicates)
    if pruned is not None and len(pruned) < count:
        plans.append(
            _pruned_scan_plan(
                planner, alias, table, predicates, filtered_rows, pruned, heap
            )
        )

    # Range specs prune the parallel paths too: an exchange over the
    # surviving partitions only. Hash gathers must keep every partition
    # in position — partition-wise joins zip their children index-for-
    # index against repartitioned inner buckets.
    if spec.kind == RANGE and pruned is not None:
        parts: Tuple[int, ...] = pruned
    else:
        parts = tuple(range(count))
    if not parts:
        return plans

    # An exchange needs >= 2 streams. With one surviving partition the
    # pruned sequential scan (already appended) covers unordered access,
    # and the index family below degenerates to a plain local-index
    # scan over that partition — no exchange wrapper.
    if len(parts) > 1:
        plans.append(
            _gather_scan_plan(
                planner, alias, table, spec, predicates, filtered_rows,
                heap, parts,
            )
        )

    for index in planner.database.catalog.indexes_on(table.name):
        for descending in (False, True):
            if descending and not _descending_merge_useful(
                planner, index, alias
            ):
                continue
            plans.append(
                _merge_index_plan(
                    planner,
                    alias,
                    table,
                    spec,
                    index,
                    predicates,
                    filtered_rows,
                    descending,
                    parts,
                )
            )
    return plans


def _descending_merge_useful(
    planner: PlannerContext, index: Index, alias: str
) -> bool:
    reversed_spec = index.order_spec(alias).reversed()
    if reversed_spec.is_empty():
        return False
    head = reversed_spec.head()
    return any(
        interesting and interesting.head() == head
        for interesting in planner.interesting_orders
    )


def _pruned_scan_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    predicates: Sequence[Expression],
    filtered_rows: float,
    pruned: Tuple[int, ...],
    heap,
) -> PlanNode:
    pages = sum(heap.partition_page_count(p) for p in pruned)
    scanned_rows = float(
        sum(heap.partition(p).row_count for p in pruned)
    )
    properties = base_table_properties(alias, table).with_cardinality(
        max(1.0, scanned_rows)
    )
    cost = planner.cost_model.table_scan(pages, scanned_rows)
    node = PlanNode(
        OpKind.PARTITION_SCAN,
        (),
        properties,
        cost,
        {"table": table.name, "alias": alias, "partitions": tuple(pruned)},
    )
    # Pruning only skips partitions that cannot match — every local
    # predicate still applies to the rows that remain.
    final = max(1.0, min(filtered_rows, scanned_rows or 1.0))
    return _apply_filters(planner, node, predicates, final)


def _partition_child(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    spec: PartitionSpec,
    predicates: Sequence[Expression],
    filtered_rows: float,
    partition: int,
    heap,
    share: int,
) -> PlanNode:
    """One partition's scan + filters, as a parallel-subtree leaf.

    ``share`` is how many partitions survive pruning — the filtered
    cardinality splits across those, not the full partition count.
    """
    pages = heap.partition_page_count(partition)
    rows = float(heap.partition(partition).row_count)
    properties = (
        base_table_properties(alias, table)
        .with_cardinality(max(1.0, rows))
        .with_partitioning(partition_property(spec, alias))
    )
    cost = planner.cost_model.table_scan(pages, rows)
    node = PlanNode(
        OpKind.PARTITION_SCAN,
        (),
        properties,
        cost,
        {"table": table.name, "alias": alias, "partitions": (partition,)},
    )
    return _apply_filters(
        planner, node, predicates, max(1.0, filtered_rows / share)
    )


def _gather_scan_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    spec: PartitionSpec,
    predicates: Sequence[Expression],
    filtered_rows: float,
    heap,
    parts: Tuple[int, ...],
) -> PlanNode:
    children = tuple(
        _partition_child(
            planner, alias, table, spec, predicates, filtered_rows, p, heap,
            len(parts),
        )
        for p in parts
    )
    return gather_plan(planner, children, filtered_rows)


def _merge_index_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    spec: PartitionSpec,
    index: Index,
    predicates: Sequence[Expression],
    filtered_rows: float,
    descending: bool,
    parts: Tuple[int, ...],
) -> PlanNode:
    """Merge exchange over the surviving partitions' local-index scans."""
    count = spec.partition_count
    share = len(parts)
    bounds = extract_sargable(index, alias, predicates)
    covered_selectivity = 1.0
    for predicate in bounds.covered:
        covered_selectivity *= planner.estimator.selectivity(predicate)
    matched_rows = max(
        1.0, table.stats.row_count * covered_selectivity
    )
    tree = planner.database.store(table.name).indexes.get(index.name)
    height = tree[1].height if tree is not None else 2
    order = index.order_spec(alias)
    if descending:
        order = order.reversed()
    residual = [
        predicate
        for predicate in predicates
        if predicate not in bounds.covered
    ]

    children = []
    for partition in parts:
        properties = base_table_properties(alias, table).with_cardinality(
            max(1.0, matched_rows / share)
        )
        if share > 1:
            properties = properties.with_partitioning(
                partition_property(spec, alias)
            )
        properties = propagate_sort(properties, order)
        for predicate in bounds.covered:
            properties = propagate_filter(
                properties, predicate, max(1.0, matched_rows / share)
            )
        cost = planner.cost_model.index_scan(
            # Pages per partition stay 1/count of the table — pruning
            # shrinks how many partitions are read, not their size —
            # while the surviving matches split across the pruned set.
            table_pages=max(1, table.stats.pages // count),
            table_rows=table.stats.row_count / count,
            matched_rows=matched_rows / share,
            tree_height=height,
            clustered=index.clustered,
        )
        node = PlanNode(
            OpKind.INDEX_SCAN,
            (),
            properties,
            cost,
            {
                "table": table.name,
                "index": index.name,
                "alias": alias,
                "low": bounds.low,
                "high": bounds.high,
                "low_inclusive": bounds.low_inclusive,
                "high_inclusive": bounds.high_inclusive,
                "descending": descending,
                "partition": partition,
            },
        )
        children.append(
            _apply_filters(
                planner, node, residual, max(1.0, filtered_rows / share)
            )
        )
    if share == 1:
        # Pruned to one partition: its local-index scan already delivers
        # the order on a singleton stream; a one-way merge is illegal.
        return children[0]
    return merge_plan(planner, tuple(children), filtered_rows, order)


# ----------------------------------------------------------------------
# Exchange construction
# ----------------------------------------------------------------------


def _subtree_cost(children: Sequence[PlanNode]) -> Cost:
    total = Cost(0.0, 0.0)
    for child in children:
        total = total + child.cost
    return total


def gather_plan(
    planner: PlannerContext,
    children: Tuple[PlanNode, ...],
    total_rows: float,
) -> PlanNode:
    """Cap a parallel subtree with an unordered gather exchange."""
    count = len(children)
    template = children[0].properties
    properties = (
        template.with_partitioning(SINGLETON)
        .with_cardinality(total_rows)
        .with_order(OrderSpec())
    )
    cost = planner.cost_model.parallel_input(
        _subtree_cost(children), count
    ) + planner.cost_model.exchange_gather(total_rows, count)
    return PlanNode(
        OpKind.GATHER_EXCHANGE, children, properties, cost, {}
    )


def merge_plan(
    planner: PlannerContext,
    children: Tuple[PlanNode, ...],
    total_rows: float,
    order: OrderSpec,
) -> PlanNode:
    """Cap a parallel subtree with an order-preserving merge exchange.

    Every child must already deliver ``order``; the merge interleaves
    without disturbing it, so the gathered stream keeps the order
    property — no sort, which is the point.
    """
    count = len(children)
    template = children[0].properties
    properties = template.with_partitioning(SINGLETON).with_cardinality(
        total_rows
    )
    cost = planner.cost_model.parallel_input(
        _subtree_cost(children), count
    ) + planner.cost_model.exchange_merge(total_rows, count)
    return PlanNode(
        OpKind.MERGE_EXCHANGE,
        children,
        properties,
        cost,
        {"order": order},
    )


# ----------------------------------------------------------------------
# Partition-wise joins
# ----------------------------------------------------------------------


def partition_wise_joins(
    planner: PlannerContext,
    outer_plan: PlanNode,
    inner_plans: Sequence[PlanNode],
    predicates: Sequence[Expression],
    pairs_of,
    output_rows: float,
) -> List[PlanNode]:
    """Hash joins executed partition by partition under a gather.

    Requires the outer to be gather-rooted with hash-partitioned
    children whose partition columns are all join keys. The inner side
    either arrives co-partitioned (a gather whose children carry the
    same hash partitioning over the matching join columns — zip the
    children, no data movement) or is a singleton stream repartitioned
    through ``PARTITION_SPLIT`` buckets sharing one child.

    ``pairs_of(inner_plan)`` supplies the deduped equi-pairs for one
    inner candidate (computed by the enumeration, which already has
    them).
    """
    config = planner.config
    if not config.effective("enable_partitioning"):
        return []
    if not config.enable_hash_join:
        return []
    if outer_plan.kind is not OpKind.GATHER_EXCHANGE:
        return []
    outer_children = outer_plan.children
    partitioning = outer_children[0].properties.partitioning
    if partitioning.kind != HASH_KIND:
        return []
    count = partitioning.count

    results: List[PlanNode] = []
    for inner_plan in inner_plans:
        pairs = pairs_of(inner_plan)
        if not pairs:
            continue
        by_outer = {o: i for o, i, _p in pairs}
        split_columns: List[ColumnRef] = []
        for column in partitioning.columns:
            inner_column = by_outer.get(column)
            if inner_column is None:
                break
            split_columns.append(inner_column)
        if len(split_columns) != len(partitioning.columns):
            continue
        residual = [
            predicate
            for predicate in predicates
            if predicate not in {p for _o, _i, p in pairs}
        ]
        join_predicates = [p for _o, _i, p in pairs] + residual

        inner_children, extra_cost = _partitioned_inner(
            planner, inner_plan, split_columns, count
        )
        if inner_children is None:
            continue

        per_partition = max(1.0, output_rows / count)
        join_nodes = []
        for outer_child, inner_child in zip(outer_children, inner_children):
            properties = propagate_join(
                outer_child.properties,
                inner_child.properties,
                join_predicates,
                per_partition,
                preserves_outer_order=True,
            )
            build_rows = inner_child.properties.cardinality
            method = planner.cost_model.hash_join(
                build_rows,
                outer_child.properties.cardinality,
                per_partition,
                planner.pages_for(build_rows),
            )
            join_nodes.append(
                PlanNode(
                    OpKind.HASH_JOIN,
                    (outer_child, inner_child),
                    properties,
                    outer_child.cost + method,
                    {
                        "outer_keys": [o for o, _i, _p in pairs],
                        "inner_keys": [i for _o, i, _p in pairs],
                        "residual": _and_all(residual),
                    },
                )
            )
        # Explicit total: outer children + per-partition join work run
        # on the pool; the inner side's cost is added exactly once
        # (zip case: via the join nodes' inputs; split case: serially,
        # because the shared child executes once under a lock).
        parallel_work = _subtree_cost(join_nodes)
        if extra_cost is None:
            total = planner.cost_model.parallel_input(parallel_work, count)
        else:
            total = (
                planner.cost_model.parallel_input(parallel_work, count)
                + extra_cost
            )
        total = total + planner.cost_model.exchange_gather(
            output_rows, count
        )
        template = join_nodes[0].properties
        properties = (
            template.with_partitioning(SINGLETON)
            .with_cardinality(output_rows)
            .with_order(OrderSpec())
        )
        results.append(
            PlanNode(
                OpKind.GATHER_EXCHANGE,
                tuple(join_nodes),
                properties,
                total,
                {},
            )
        )
    planner.stats.plans_generated += len(results)
    return results


def _partitioned_inner(
    planner: PlannerContext,
    inner_plan: PlanNode,
    split_columns: Sequence[ColumnRef],
    count: int,
) -> Tuple[Optional[Sequence[PlanNode]], Optional[Cost]]:
    """The inner side as ``count`` co-located per-partition streams.

    Returns ``(children, serial_cost)``: ``serial_cost`` is None when
    the children's own costs already account for everything (the
    co-partitioned zip), or the one-time cost of the shared split child
    plus the repartition itself.
    """
    if inner_plan.kind is OpKind.GATHER_EXCHANGE:
        children = inner_plan.children
        inner_part = children[0].properties.partitioning
        if (
            inner_part.kind == HASH_KIND
            and inner_part.count == count
            and tuple(inner_part.columns) == tuple(split_columns)
        ):
            return children, None
        return None, None
    if inner_plan.properties.partitioning.is_parallel:
        return None, None
    rows = inner_plan.properties.cardinality
    available = frozenset(inner_plan.properties.schema.columns)
    if not set(split_columns) <= available:
        return None, None
    split_cost = planner.cost_model.repartition(rows, count)
    per_bucket = max(1.0, rows / count)
    splits = []
    for index in range(count):
        # A bucket is a subsequence of the child's rows: cardinality
        # shrinks, order survives, and the stream is now hash-placed on
        # the split columns.
        properties = inner_plan.properties.with_cardinality(
            per_bucket
        ).with_partitioning(hash_partitioning(tuple(split_columns), count))
        splits.append(
            PlanNode(
                OpKind.PARTITION_SPLIT,
                (inner_plan,),
                properties,
                # Display-only: the real accounting happens at the
                # gather, where the shared child is charged once.
                split_cost,
                {
                    "index": index,
                    "columns": tuple(split_columns),
                    "count": count,
                },
            )
        )
    return splits, inner_plan.cost + split_cost


# ----------------------------------------------------------------------
# Partition-wise GROUP BY
# ----------------------------------------------------------------------


def partitioned_group_by(
    planner: PlannerContext,
    plan: PlanNode,
    output_schema: RowSchema,
    aggregate_columns: Sequence[ColumnRef],
    output_rows: float,
) -> Optional[PlanNode]:
    """Push a hash GROUP BY below a gather exchange.

    Sound only when the children's partitioning co-locates the grouping
    columns (Test Partitioning): every group then lives wholly inside
    one partition, so per-partition aggregation is complete — no
    combine stage — and the gather concatenates disjoint group sets.
    """
    block = planner.block
    config = planner.config
    if not config.effective("enable_partitioning"):
        return None
    if not config.enable_hash_group_by:
        return None
    if plan.kind is not OpKind.GATHER_EXCHANGE:
        return None
    if not block.group_columns:
        return None
    children = plan.children
    first = children[0].properties
    if not first.partitioning.colocates(
        block.group_columns, first.context()
    ):
        return None
    count = len(children)
    per_partition = max(1.0, output_rows / count)
    grouped = []
    for child in children:
        properties = propagate_group_by(
            child.properties,
            block.group_columns,
            output_schema,
            aggregate_columns,
            per_partition,
        ).with_order(OrderSpec())
        cost = child.cost + planner.cost_model.group_by_hash(
            child.properties.cardinality,
            per_partition,
            planner.pages_for(per_partition),
        )
        grouped.append(
            PlanNode(
                OpKind.GROUP_HASH,
                (child,),
                properties,
                cost,
                {
                    "group_columns": list(block.group_columns),
                    "aggregates": list(block.aggregates),
                },
            )
        )
    return gather_plan(planner, tuple(grouped), output_rows)


def _and_all(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    from repro.expr.nodes import BooleanExpr, BooleanOp

    return BooleanExpr(BooleanOp.AND, tuple(conjuncts))
