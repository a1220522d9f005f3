"""Exchange operators: merge identity/stability, cancellation, faults.

Covers the executor half of the partitioning subsystem:

* MergeExchange must be byte-identical across all three engines and to
  the single-stream (no-partitioning) plan for the same query;
* the k-way merge is stable — equal keys resolve to
  partition-then-arrival order, never by comparing row payloads;
* a consumer cancelled mid-merge raises the typed error, and an
  abandoned merge generator closes cleanly;
* a fault injected into the statement's token while a gather is
  draining its partitions surfaces as the typed error, without
  corrupting later fault-free runs;
* per-partition operators record their metrics in the caller's
  context;
* host variables bind inside every partition stream, both through
  ``run_query(parameters=...)`` and through the service's
  auto-parameterized plan cache.
"""

import datetime
import random

import pytest

from repro import Column, Index, TableSchema
from repro.api import execute, plan_query, run_query
from repro.catalog import range_spec
from repro.core.ordering import OrderSpec, asc
from repro.errors import QueryCancelled, QueryTimeout
from repro.executor import (
    ExecutionContext,
    MODE_COMPILED,
    MODE_INTERPRETED,
    MODE_VECTOR,
)
from repro.executor.build import build_executor
from repro.executor.context import CancelToken, set_fault_hook
from repro.executor.exchange import MergeExchangeOp
from repro.executor.operators import PhysicalOperator
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.optimizer import OptimizerConfig
from repro.optimizer.plan import OpKind
from repro.service import QueryService
from repro.sqltypes import DATE, INTEGER
from repro.storage import Database
from repro.verify.faults import inject_token_faults

ORDERED_SQL = "select okey, odate from orders order by odate"


def _merge_plan(db):
    plan = plan_query(db, ORDERED_SQL, config=OptimizerConfig())
    assert plan.find_all(OpKind.MERGE_EXCHANGE), plan.explain()
    assert plan.sort_count() == 0
    return plan


class TestCrossEngineIdentity:
    def test_merge_exchange_identical_in_all_three_engines(
        self, partitioned_db
    ):
        plan = _merge_plan(partitioned_db)
        rows_by_mode = {
            mode: execute(partitioned_db, plan, mode=mode).rows
            for mode in (MODE_COMPILED, MODE_VECTOR, MODE_INTERPRETED)
        }
        assert rows_by_mode[MODE_COMPILED] == rows_by_mode[MODE_INTERPRETED]
        assert rows_by_mode[MODE_COMPILED] == rows_by_mode[MODE_VECTOR]

    def test_merge_matches_single_stream_sort_byte_for_byte(
        self, partitioned_db
    ):
        merged = execute(partitioned_db, _merge_plan(partitioned_db)).rows
        off = OptimizerConfig()
        off.enable_partitioning = False
        baseline_plan = plan_query(partitioned_db, ORDERED_SQL, config=off)
        assert baseline_plan.sort_count() >= 1
        assert merged == execute(partitioned_db, baseline_plan).rows

    def test_batch_size_does_not_change_merge_output(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        baseline = execute(partitioned_db, plan).rows
        for batch_size in (1, 7, 4096):
            context = ExecutionContext(
                partitioned_db, batch_size=batch_size
            )
            assert execute(
                partitioned_db, plan, context=context
            ).rows == baseline


class _StaticOp(PhysicalOperator):
    """Fixed row source for direct operator-level tests."""

    def __init__(self, schema, rows):
        super().__init__(schema)
        self.rows = list(rows)

    def _batches(self, context):
        size = context.batch_size
        for start in range(0, len(self.rows), size):
            yield self.rows[start : start + size]

    def label(self):
        return "static"


class TestMergeStability:
    SCHEMA = RowSchema([ColumnRef("t", "k"), ColumnRef("t", "src")])
    ORDER = OrderSpec([asc(ColumnRef("t", "k"))])

    def _merge(self, *streams):
        op = MergeExchangeOp(
            [_StaticOp(self.SCHEMA, rows) for rows in streams],
            self.SCHEMA,
            self.ORDER,
        )
        out = []
        for batch in op.batches(ExecutionContext(Database())):
            out.extend(batch)
        return out

    def test_equal_keys_keep_partition_then_arrival_order(self):
        merged = self._merge(
            [(1, "p0-a"), (1, "p0-b")],
            [(1, "p1-a"), (1, "p1-b")],
            [(1, "p2-a")],
        )
        assert merged == [
            (1, "p0-a"),
            (1, "p0-b"),
            (1, "p1-a"),
            (1, "p1-b"),
            (1, "p2-a"),
        ]

    def test_distinct_keys_interleave_in_key_order(self):
        merged = self._merge(
            [(1, "a"), (4, "d")],
            [(2, "b"), (3, "c"), (5, "e")],
        )
        assert [row[0] for row in merged] == [1, 2, 3, 4, 5]

    def test_row_payloads_are_never_compared(self):
        # Ties everywhere and uncomparable payloads: only the decorated
        # (key, partition, sequence) prefix may decide.
        class Opaque:
            __lt__ = None

        left, right = Opaque(), Opaque()
        merged = self._merge([(7, left)], [(7, right)])
        assert merged[0][1] is left and merged[1][1] is right


class TestCancellation:
    def test_mid_merge_cancel_raises_typed_and_joins_workers(
        self, partitioned_db
    ):
        plan = _merge_plan(partitioned_db)
        operator = build_executor(plan, partitioned_db)
        token = CancelToken()
        context = ExecutionContext(
            partitioned_db, batch_size=64, cancel_token=token
        )
        stream = operator.batches(context)
        assert next(stream)  # the merge is live
        token.cancel("test cancel")
        with pytest.raises(QueryCancelled):
            for _ in stream:
                pass

    def test_abandoned_generator_joins_workers(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        baseline = execute(partitioned_db, plan).rows
        operator = build_executor(plan, partitioned_db)
        context = ExecutionContext(partitioned_db, batch_size=64)
        stream = operator.batches(context)
        assert next(stream)
        stream.close()  # abandon the merge mid-stream
        assert next(stream, None) is None
        assert execute(partitioned_db, plan).rows == baseline


class TestGatherFaults:
    GATHER_SQL = "select okey, qty from lineitem where qty < 40"

    def _gather_plan(self, db):
        plan = plan_query(db, self.GATHER_SQL, config=OptimizerConfig())
        assert plan.find_all(OpKind.GATHER_EXCHANGE), plan.explain()
        return plan

    @staticmethod
    def _scanned_rows(context):
        return [
            entry.rows
            for entry in context.metrics.values()
            if entry.label.startswith("partition scan")
        ]

    @pytest.mark.parametrize(
        "kind,error",
        [("cancel", QueryCancelled), ("timeout", QueryTimeout)],
    )
    def test_token_fault_inside_gather(self, partitioned_db, kind, error):
        plan = self._gather_plan(partitioned_db)
        baseline = execute(partitioned_db, plan).rows
        total_rows = partitioned_db.store("lineitem").heap.row_count

        def context():
            return ExecutionContext(
                partitioned_db, batch_size=32, cancel_token=CancelToken()
            )

        checkpoints = []
        previous = set_fault_hook(checkpoints.append)
        try:
            execute(partitioned_db, plan, context=context())
        finally:
            set_fault_hook(previous)
        # One token per statement; trip it halfway through its run.
        assert len({id(token) for token in checkpoints}) == 1
        faulted = context()
        with inject_token_faults(len(checkpoints) // 2, kind=kind):
            with pytest.raises(error):
                execute(partitioned_db, plan, context=faulted)
        # The fault landed while the gather was draining partitions.
        assert 0 < sum(self._scanned_rows(faulted)) < total_rows
        # The fault interrupted; it must not corrupt later runs.
        assert execute(partitioned_db, plan).rows == baseline

    def test_partition_scan_metrics_land_in_caller_context(
        self, partitioned_db
    ):
        plan = self._gather_plan(partitioned_db)
        context = ExecutionContext(partitioned_db)
        result = execute(partitioned_db, plan, context=context)
        scans = self._scanned_rows(context)
        assert len(scans) == 4  # one entry per partition
        total_rows = partitioned_db.store("lineitem").heap.row_count
        assert sum(scans) == total_rows
        assert len(result.rows) < total_rows  # the filter did run


def _no_partitioning():
    return OptimizerConfig(enable_partitioning=False)


@pytest.fixture(scope="module")
def shipments_db():
    """``shipments`` range-partitioned into four date bands, loaded in
    date order under a clustered local index on ``sdate``."""
    rng = random.Random(3)
    start = datetime.date(1992, 1, 1)
    rows = sorted(
        (
            (i, start + datetime.timedelta(days=rng.randrange(2500)),
             rng.randrange(50))
            for i in range(2000)
        ),
        key=lambda row: row[1],
    )
    db = Database()
    db.create_table(
        TableSchema(
            "shipments",
            [
                Column("id", INTEGER, nullable=False),
                Column("sdate", DATE, nullable=False),
                Column("qty", INTEGER, nullable=False),
            ],
            primary_key=("id",),
            partitioning=range_spec(
                ["sdate"],
                [
                    datetime.date(1993, 7, 1),
                    datetime.date(1995, 1, 1),
                    datetime.date(1996, 7, 1),
                ],
            ),
        ),
        rows=rows,
    )
    db.create_index(
        Index.on("ship_sdate", "shipments", ("sdate",), clustered=True)
    )
    db.analyze_all()
    return db


class TestHostVariablesInsideExchanges:
    """Parameter bindings reach every partition stream of an exchange."""

    @pytest.mark.parametrize(
        "sql,parameters,exchange,ordered",
        [
            (
                "select okey, odate from orders where okey <> :k "
                "order by odate",
                {"k": 300},
                OpKind.MERGE_EXCHANGE,
                True,
            ),
            (
                "select l.okey, l.qty, o.pri from lineitem l, orders2 o "
                "where l.okey = o.okey and o.pri = :p",
                {"p": 3},
                OpKind.GATHER_EXCHANGE,
                False,
            ),
            (
                "select okey, sum(qty) as q from lineitem where qty < :q "
                "group by okey",
                {"q": 20},
                OpKind.GATHER_EXCHANGE,
                False,
            ),
        ],
        ids=["merge-order-by", "copartitioned-join", "colocated-group-by"],
    )
    def test_parameterized_exchange_matches_single_stream(
        self, partitioned_db, sql, parameters, exchange, ordered
    ):
        on = run_query(partitioned_db, sql, parameters=parameters)
        assert on.plan.find_all(exchange), on.plan.explain()
        # The parameter is evaluated below the exchange, per partition.
        assert any(
            ":" in child.explain()
            for node in on.plan.find_all(exchange)
            for child in node.children
        ), on.plan.explain()
        off = run_query(
            partitioned_db,
            sql,
            config=_no_partitioning(),
            parameters=parameters,
        )
        assert on.rows, sql
        if ordered:
            assert on.rows == off.rows
        else:
            assert sorted(on.rows) == sorted(off.rows)

    def test_service_date_band_binds_inside_the_exchange(
        self, shipments_db
    ):
        sql = (
            "select sdate, count(*) as n, sum(qty) as q from shipments "
            "where sdate >= date('1995-01-01') "
            "and sdate < date('1996-07-01') "
            "group by sdate order by sdate"
        )
        expected = run_query(
            shipments_db, sql, config=_no_partitioning()
        ).rows
        assert expected
        with QueryService(shipments_db, workers=1) as service:
            for status in ("miss", "hit"):
                result = service.query(sql)
                assert result.cache_status == status
                assert result.plan.find_all(OpKind.GATHER_EXCHANGE) or (
                    result.plan.find_all(OpKind.MERGE_EXCHANGE)
                ), result.plan.explain()
                assert result.rows == expected
