"""Database builds for the benchmark, timed phase by phase.

The TPC-D builds mirror ``repro.tpcd.build_tpcd_database`` step for
step, through the same public pieces (``TpcdGenerator``, ``tpcd_schema``,
``tpcd_indexes``, ``Database``), so that generation, loading and
indexing are timed separately (``setup.dbgen_s``, ``setup.load_s``,
``setup.index_s``) and each table and index is its own step of the
set-up clock (``perfbench.speed.Clock``). The partitioned layout is the
one the ``parallel_ops`` experiment uses: ``orders`` range-partitioned
on ``o_orderdate`` in four date bands and loaded in date order (so the
local ``idx_o_orderdate`` is clustered), ``lineitem`` hash-partitioned
on ``l_orderkey`` in four parts.
"""

from __future__ import annotations

import datetime
from typing import Dict

from repro.catalog import Index, TableSchema, hash_spec, range_spec
from repro.storage import Database
from repro.tpcd import TpcdGenerator, tpcd_indexes, tpcd_schema
from repro.workload import build_skewed_database

from perfbench.speed import Clock

SMALL_TABLES = ("region", "nation", "supplier", "customer", "part", "partsupp")

# Holds every heap page of SF 0.005 (about 800), so dashboard and adhoc
# never miss after the first touch.
WAREHOUSE_POOL_PAGES = 2048
# Smaller than lineitem's ~610 heap pages at SF 0.005: the partitioned
# workload is the one whose data does not fit.
PARTITIONED_POOL_PAGES = 256

ORDERS_DATE_BOUNDARIES = (
    datetime.date(1993, 7, 1),
    datetime.date(1995, 1, 1),
    datetime.date(1996, 7, 1),
)
LINEITEM_HASH_PARTS = 4


def _partitioned_schemas() -> Dict[str, TableSchema]:
    schemas = tpcd_schema()
    for table, spec in (
        ("orders", range_spec(["o_orderdate"], list(ORDERS_DATE_BOUNDARIES))),
        ("lineitem", hash_spec(["l_orderkey"], LINEITEM_HASH_PARTS)),
    ):
        plain = schemas[table]
        schemas[table] = TableSchema(
            plain.name,
            plain.columns,
            primary_key=plain.primary_key,
            unique_keys=plain.unique_keys,
            partitioning=spec,
        )
    return schemas


def _partitioned_index(index: Index) -> Index:
    if index.name == "pk_orders":
        return Index.on("pk_orders", "orders", ["o_orderkey"], unique=True)
    if index.name == "idx_o_orderdate":
        return Index.on(
            "idx_o_orderdate", "orders", ["o_orderdate"], clustered=True
        )
    return index


def build_tpcd(
    scale_factor: float, partitioned: bool, clock: Clock, seed: int = 19960604
) -> Database:
    """Build TPC-D, ending a ``clock`` lap after every step (phases
    ``dbgen``, ``load``, ``index``).

    ``seed`` is the data generator's seed, fixed so every run measures
    the same database; the workload seed only picks statements.
    """
    generator = TpcdGenerator(scale_factor, seed)
    rows = {name: list(getattr(generator, f"{name}_rows")()) for name in SMALL_TABLES}
    clock.lap("dbgen")
    rows["orders"], rows["lineitem"] = generator.order_and_lineitem_rows()
    if partitioned:
        rows["orders"].sort(key=lambda row: (row[4], row[0]))  # date order
    clock.lap("dbgen")

    if partitioned:
        schemas = _partitioned_schemas()
        database = Database(PARTITIONED_POOL_PAGES)
    else:
        schemas = tpcd_schema()
        database = Database(WAREHOUSE_POOL_PAGES)
    for name in SMALL_TABLES + ("orders", "lineitem"):
        database.create_table(schemas[name], rows[name])
        clock.lap("load")

    for index in tpcd_indexes():
        database.create_index(_partitioned_index(index) if partitioned else index)
        clock.lap("index")
    database.reset_io(cold=True)
    clock.lap("index")
    return database


def build_fleet_database(seed: int, clock: Clock) -> Database:
    """The skewed fleet database (``repro.workload.fleetgen``)."""
    database = build_skewed_database(seed=seed)
    clock.lap("fleetgen")
    return database
