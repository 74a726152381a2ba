"""MariaDB-like relational store.

The thesis ported the Hotel application to MariaDB too — it boots far
faster than Cassandra on RISC-V and the port was straightforward — but
abandoned it because it is a *relational* database and the goal was a
NoSQL drop-in for MongoDB (§3.3.3.2).  We keep it: it backs an ablation
bench and an example, and exercises a schema'd row-store code path.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.db.engine import BootProfile, Datastore, encoded_size


class TableSchema:
    """Column definitions for one table."""

    def __init__(self, columns: Sequence[str], primary_key: str = "id"):
        if primary_key not in columns:
            raise ValueError("primary key %r not among columns %r" % (primary_key, columns))
        self.columns = tuple(columns)
        self.primary_key = primary_key

    def validate(self, record: Dict[str, Any]) -> None:
        unknown = set(record) - set(self.columns)
        if unknown:
            raise ValueError("unknown columns %s (schema has %s)" % (sorted(unknown), self.columns))


class _Table:
    """Row storage for one schema: rows by key plus a sorted primary-key
    index.

    ``rows`` maps each key to ``(row, size)``, ``size`` being the row's
    :func:`encoded_size` taken when it was written.
    """

    __slots__ = ("schema", "rows", "pk_index")

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: Dict[str, Tuple[Dict[str, Any], int]] = {}
        self.pk_index: List[str] = []


class MariaDbStore(Datastore):
    """Row store with schemas, a clustered PK index, and WHERE filters."""

    name = "mariadb"
    riscv_friendly = True  # "a RISC-V friendly database" per the thesis
    boot_profile = BootProfile(
        instructions=19_000_000_000, resident_bytes=192 << 20, jvm=False
    )

    def __init__(self):
        super().__init__()
        self._tables: Dict[str, _Table] = {}

    def create_table(self, name: str, columns: Sequence[str], primary_key: str = "id") -> None:
        if name in self._tables:
            raise ValueError("table %r already exists" % name)
        self._tables[name] = _Table(TableSchema(columns, primary_key))
        self.receipt.add(cpu_work=50)

    def _table(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                "no table %r: relational stores require CREATE TABLE first" % name
            ) from None

    # -- Datastore interface: auto-creates a permissive schema if needed -----

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        if table not in self._tables:
            columns = sorted(set(record) | {"id"})
            self.create_table(table, columns, primary_key="id")
        tbl = self._table(table)
        self.receipt.add(ops=1)
        row = dict(record)
        row.setdefault("id", key)
        tbl.schema.validate(row)
        size = encoded_size(row)
        if key not in tbl.rows:
            bisect.insort(tbl.pk_index, key)
        tbl.rows[key] = (row, size)
        self.receipt.add(index_probes=2, bytes_written=size,
                         serializations=1, cpu_work=size // 8 + 10)

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        if table not in self._tables:
            return None
        tbl = self._table(table)
        self.receipt.add(ops=1, index_probes=2, cpu_work=10)
        entry = tbl.rows.get(key)
        if entry is None:
            self.receipt.add(structure_misses=1)
            return None
        row, size = entry
        self.receipt.add(rows_scanned=1, rows_returned=1, bytes_read=size,
                         serializations=1, cpu_work=size // 8)
        return dict(row)

    def delete(self, table: str, key: str) -> bool:
        if table not in self._tables:
            return False
        tbl = self._table(table)
        self.receipt.add(ops=1, index_probes=2, cpu_work=10)
        if key not in tbl.rows:
            self.receipt.add(structure_misses=1)
            return False
        del tbl.rows[key]
        position = bisect.bisect_left(tbl.pk_index, key)
        del tbl.pk_index[position]
        return True

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        if table not in self._tables:
            return
        tbl = self._table(table)
        self.receipt.add(ops=1)
        for key in list(tbl.pk_index):
            row, size = tbl.rows[key]
            self.receipt.add(rows_scanned=1, bytes_read=size, cpu_work=6)
            yield dict(row)

    def query(self, table: str, **equals: Any) -> List[Dict[str, Any]]:
        """SELECT * FROM table WHERE col = val AND ... (no secondary index)."""
        results = []
        for row in self.scan(table):
            if all(row.get(column) == value for column, value in equals.items()):
                self.receipt.add(rows_returned=1, serializations=1)
                results.append(row)
        return results

    def select(self, table: str, columns: Sequence[str], **equals: Any) -> List[Dict[str, Any]]:
        """Projection + filter, the closest thing to real SQL we need."""
        tbl = self._table(table)
        missing = set(columns) - set(tbl.schema.columns)
        if missing:
            raise ValueError("unknown columns in select: %s" % sorted(missing))
        return [
            {column: row.get(column) for column in columns}
            for row in self.query(table, **equals)
        ]

    def data_bytes(self) -> int:
        return sum(
            size
            for table in self._tables.values()
            for _row, size in table.rows.values()
        )

    def tables(self) -> List[str]:
        return sorted(self._tables)
