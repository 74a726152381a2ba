"""Redis-like in-memory key-value store.

The thesis considered Redis as a MongoDB replacement — it is RISC-V
friendly, boots quickly and is NoSQL — but turned it down because Redis
is rarely used as a *primary* database (§3.3.3.1).  We implement it with
strings, hashes and sorted sets so it can serve either as an alternative
cache (its usual role) or as the primary store in an ablation bench.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.db.engine import BootProfile, Datastore, encoded_size

#: What a missing key reads as in ``_strings`` and ``_hashes``.
_NO_STRING = (None, 0)
_NO_HASH = ({}, encoded_size({}), {})


class RedisStore(Datastore):
    """String/hash/zset store with the Datastore record interface on top.

    Strings hold ``(value, size)`` and hashes ``(mapping, size,
    field_sizes)``: each size is an :func:`encoded_size` taken when the
    value, the whole mapping or one field was written.
    """

    name = "redis"
    riscv_friendly = True
    boot_profile = BootProfile(instructions=600_000_000, resident_bytes=16 << 20)

    def __init__(self):
        super().__init__()
        self._strings: Dict[str, Tuple[Any, int]] = {}
        self._hashes: Dict[str, Tuple[Dict[str, Any], int, Dict[str, int]]] = {}
        self._zsets: Dict[str, List[Tuple[float, str]]] = {}

    # -- string commands ------------------------------------------------------

    def set_value(self, key: str, value: Any) -> None:
        size = encoded_size(value)
        self._strings[key] = (value, size)
        self.receipt.add(bytes_written=size, cpu_work=size // 16 + 2)

    def get_value(self, key: str) -> Optional[Any]:
        value, size = self._strings.get(key, _NO_STRING)
        if value is None:
            self.receipt.add(structure_misses=1, cpu_work=2)
            return None
        self.receipt.add(bytes_read=size, rows_returned=1, cpu_work=3)
        return value

    # -- hash commands -----------------------------------------------------------

    def hset(self, key: str, field: str, value: Any) -> None:
        mapping, _size, field_sizes = self._hashes.get(key, ({}, 0, {}))
        size = encoded_size(value)
        mapping[field] = value
        field_sizes[field] = size
        self._hashes[key] = (mapping, encoded_size(mapping), field_sizes)
        self.receipt.add(bytes_written=size, cpu_work=3)

    def hget(self, key: str, field: str) -> Optional[Any]:
        mapping, _size, field_sizes = self._hashes.get(key, _NO_HASH)
        value = mapping.get(field)
        if value is None:
            self.receipt.add(structure_misses=1, cpu_work=2)
            return None
        self.receipt.add(bytes_read=field_sizes[field], rows_returned=1, cpu_work=3)
        return value

    def hgetall(self, key: str) -> Dict[str, Any]:
        mapping, size, _field_sizes = self._hashes.get(key, _NO_HASH)
        self.receipt.add(bytes_read=size, cpu_work=4 + len(mapping))
        return dict(mapping)

    # -- sorted sets (used by geo-style nearest queries) ----------------------------

    def zadd(self, key: str, score: float, member: str) -> None:
        entries = self._zsets.setdefault(key, [])
        entries[:] = [(s, m) for s, m in entries if m != member]
        bisect.insort(entries, (score, member))
        self.receipt.add(cpu_work=6)

    def zrange_by_score(self, key: str, low: float, high: float) -> List[str]:
        entries = self._zsets.get(key, [])
        start = bisect.bisect_left(entries, (low, ""))
        out = []
        for score, member in entries[start:]:
            if score > high:
                break
            out.append(member)
        self.receipt.add(rows_scanned=len(out), rows_returned=len(out),
                         cpu_work=4 + len(out))
        return out

    # -- Datastore record interface (hash per record) ---------------------------------

    @staticmethod
    def _record_key(table: str, key: str) -> str:
        return "%s:%s" % (table, key)

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        record_key = self._record_key(table, key)
        self.receipt.add(ops=1)
        mapping = dict(record)
        size = encoded_size(mapping)
        self._hashes[record_key] = (mapping, size, {
            field: encoded_size(value) for field, value in mapping.items()})
        self._zsets.setdefault("keys:%s" % table, [])
        self.zadd("keys:%s" % table, 0.0, key)
        self.receipt.add(bytes_written=size, serializations=1,
                         cpu_work=size // 16 + 4)

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        self.receipt.add(ops=1)
        entry = self._hashes.get(self._record_key(table, key))
        if entry is None:
            self.receipt.add(structure_misses=1, cpu_work=2)
            return None
        record, size, _field_sizes = entry
        self.receipt.add(bytes_read=size, rows_returned=1,
                         serializations=1, cpu_work=size // 16 + 2)
        return dict(record)

    def delete(self, table: str, key: str) -> bool:
        record_key = self._record_key(table, key)
        self.receipt.add(ops=1)
        if record_key not in self._hashes:
            self.receipt.add(structure_misses=1)
            return False
        del self._hashes[record_key]
        entries = self._zsets.get("keys:%s" % table, [])
        entries[:] = [(s, m) for s, m in entries if m != key]
        self.receipt.add(cpu_work=5)
        return True

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        self.receipt.add(ops=1)
        for _score, key in list(self._zsets.get("keys:%s" % table, [])):
            entry = self._hashes.get(self._record_key(table, key))
            if entry is not None:
                record, size, _field_sizes = entry
                self.receipt.add(rows_scanned=1, bytes_read=size, cpu_work=4)
                yield dict(record)

    def query(self, table: str, **equals: Any) -> List[Dict[str, Any]]:
        results = []
        for record in self.scan(table):
            if all(record.get(field) == value for field, value in equals.items()):
                self.receipt.add(rows_returned=1, serializations=1)
                results.append(record)
        return results

    def data_bytes(self) -> int:
        total = sum(size for _value, size in self._strings.values())
        total += sum(size for _mapping, size, _fields in self._hashes.values())
        total += sum(16 * len(entries) for entries in self._zsets.values())
        return total
