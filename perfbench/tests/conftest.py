"""Make ``repro`` (under src/) and ``perfbench`` importable from the
repository root, the way ``perfbench/run.py`` does."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def simple_service():
    from repro import Column, Database, TableSchema
    from repro.service import QueryService
    from repro.sqltypes import INTEGER

    database = Database()
    database.create_table(
        TableSchema("t", [Column("a", INTEGER, nullable=False)], primary_key=("a",)),
        rows=[(value,) for value in range(10)],
    )
    service = QueryService(database, workers=1)
    yield service
    service.close()
