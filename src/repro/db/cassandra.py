"""Apache Cassandra-like wide-column LSM store.

The replacement database the thesis ported the Hotel application to
(§3.3.3.2).  The storage engine is a real log-structured merge tree:

* writes land in a per-table **memtable**;
* when the memtable exceeds its threshold it flushes to an immutable
  sorted **SSTable** with a bloom filter;
* reads probe the memtable, then each SSTable newest-first, skipping
  tables whose bloom filter rejects the key;
* **compaction** merges SSTables once too many accumulate.

The extra read-path layers relative to MongoDB's B-tree are what make the
cold Cassandra requests slower in the Fig 4.20 comparison, and the JVM
boot profile is what made its QEMU RISC-V container boots take ~17
minutes despite the thesis tuning heap size and token counts.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.db.engine import BootProfile, Datastore, encoded_size

_TOMBSTONE = object()


class BloomFilter:
    """A small double-hashed bloom filter over string keys."""

    __slots__ = ("bits", "size", "hashes")

    def __init__(self, expected_keys: int, bits_per_key: int = 10, hashes: int = 3):
        self.size = max(64, expected_keys * bits_per_key)
        self.bits = 0
        self.hashes = hashes

    def _positions(self, key: str) -> Iterator[int]:
        # zlib.crc32, not hash(): str hashing is salted per process, and
        # which tables a read probes must not depend on the salt.
        h1 = zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF
        h2 = zlib.crc32((key + "#").encode("utf-8")) & 0x7FFFFFFF | 1
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.size

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self.bits |= 1 << position

    def might_contain(self, key: str) -> bool:
        return all(self.bits >> position & 1 for position in self._positions(key))


class SSTable:
    """An immutable sorted run of (key, value) pairs with a bloom filter.

    Each value is a ``(row, size)`` entry, ``size`` being the row's
    :func:`encoded_size` taken when it was written, or a tombstone.
    """

    __slots__ = ("keys", "values", "bloom", "bytes")

    def __init__(self, items: List[Tuple[str, Any]]):
        items = sorted(items)
        self.keys = [key for key, _value in items]
        self.values = [value for _key, value in items]
        self.bloom = BloomFilter(len(items))
        self.bytes = 0
        for key, value in items:
            self.bloom.add(key)
            if value is not _TOMBSTONE:
                self.bytes += value[1]

    def get(self, key: str) -> Tuple[bool, Any]:
        """Binary search; returns (found, value)."""
        import bisect

        position = bisect.bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            return True, self.values[position]
        return False, None

    def __len__(self) -> int:
        return len(self.keys)


class _ColumnFamily:
    """One table: memtable + SSTable list (values as in :class:`SSTable`)."""

    __slots__ = ("memtable", "sstables")

    def __init__(self):
        self.memtable: Dict[str, Any] = {}
        self.sstables: List[SSTable] = []


class CassandraStore(Datastore):
    """LSM wide-column store with realistic read/write paths."""

    name = "cassandra"
    riscv_friendly = True  # containers for riscv64 exist on Docker Hub
    #: JVM class loading + gossip/token-ring init: an order of magnitude
    #: more boot work than mongod, amplified brutally under emulation.
    boot_profile = BootProfile(
        instructions=60_000_000_000, resident_bytes=512 << 20, jvm=True
    )

    def __init__(
        self,
        memtable_flush_threshold: int = 64,
        compaction_threshold: int = 4,
        num_tokens: int = 16,
        heap_mb: int = 512,
    ):
        super().__init__()
        if memtable_flush_threshold <= 0:
            raise ValueError("memtable threshold must be positive")
        if compaction_threshold < 2:
            raise ValueError("compaction threshold must be >= 2")
        self.memtable_flush_threshold = memtable_flush_threshold
        self.compaction_threshold = compaction_threshold
        self.num_tokens = num_tokens
        self.heap_mb = heap_mb
        self._families: Dict[str, _ColumnFamily] = {}
        self.flushes = 0
        self.compactions = 0

    def _family(self, table: str) -> _ColumnFamily:
        if table not in self._families:
            self._families[table] = _ColumnFamily()
        return self._families[table]

    # -- write path ---------------------------------------------------------------

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        family = self._family(table)
        self.receipt.add(ops=1)
        size = encoded_size(record)
        family.memtable[key] = (dict(record), size)
        # Commit-log append + memtable insert.
        self.receipt.add(bytes_written=size, serializations=1, cpu_work=size // 8 + 6)
        if len(family.memtable) >= self.memtable_flush_threshold:
            self._flush(family)

    def delete(self, table: str, key: str) -> bool:
        existed = self.get(table, key) is not None
        family = self._family(table)
        family.memtable[key] = _TOMBSTONE
        self.receipt.add(ops=1, bytes_written=16, cpu_work=6)
        return existed

    def _flush(self, family: _ColumnFamily) -> None:
        items = list(family.memtable.items())
        sstable = SSTable(items)
        family.sstables.append(sstable)
        family.memtable.clear()
        self.flushes += 1
        self.receipt.add(
            bytes_written=sstable.bytes,
            cpu_work=len(sstable) * 12,  # sort + bloom build
        )
        if len(family.sstables) >= self.compaction_threshold:
            self._compact(family)

    def _compact(self, family: _ColumnFamily) -> None:
        merged: Dict[str, Any] = {}
        total = 0
        for sstable in family.sstables:  # oldest first; newer overwrite
            total += len(sstable)
            for key, value in zip(sstable.keys, sstable.values):
                merged[key] = value
        survivors = [
            (key, value) for key, value in merged.items() if value is not _TOMBSTONE
        ]
        family.sstables = [SSTable(survivors)] if survivors else []
        self.compactions += 1
        self.receipt.add(cpu_work=total * 10, bytes_read=total * 32,
                         bytes_written=len(survivors) * 32)

    def flush_all(self) -> None:
        """Force-flush every memtable (nodetool flush analog)."""
        for family in self._families.values():
            if family.memtable:
                self._flush(family)

    # -- read path -----------------------------------------------------------------

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        family = self._family(table)
        self.receipt.add(ops=1, cpu_work=6)  # partitioner hash + token lookup
        if key in family.memtable:
            value = family.memtable[key]
            if value is _TOMBSTONE:
                self.receipt.add(structure_misses=1)
                return None
            row, size = value
            self.receipt.add(rows_scanned=1, rows_returned=1, bytes_read=size,
                             serializations=1, cpu_work=size // 8)
            return dict(row)
        self.receipt.add(structure_misses=1)  # memtable probe failed
        for sstable in reversed(family.sstables):
            if not sstable.bloom.might_contain(key):
                self.receipt.add(cpu_work=3)  # bloom rejection is cheap
                continue
            # Touching an SSTable reads an index entry plus a compressed
            # data block (block-granular I/O + decompression) — the read
            # amplification a B-tree store does not pay.
            self.receipt.add(index_probes=1, cpu_work=310, bytes_read=2048)
            found, value = sstable.get(key)
            if found:
                if value is _TOMBSTONE:
                    return None
                row, size = value
                self.receipt.add(rows_scanned=1, rows_returned=1, bytes_read=size,
                                 serializations=1, cpu_work=size // 8)
                return dict(row)
            self.receipt.add(structure_misses=1)  # bloom false positive
        return None

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        for _key, row in self._scan_pairs(table):
            yield row

    def _scan_pairs(self, table: str) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """A table's live ``(key, row)`` pairs in key order, metered as a
        scan; :class:`~repro.db.cluster.CassandraCluster` merges replicas
        by these keys."""
        family = self._family(table)
        self.receipt.add(ops=1)
        seen: Dict[str, Any] = {}
        for sstable in family.sstables:
            # Per-run iterator setup + merge bookkeeping per row.
            self.receipt.add(cpu_work=200 + 6 * len(sstable))
            seen.update(zip(sstable.keys, sstable.values))
        seen.update(family.memtable)
        for key in sorted(seen):
            value = seen[key]
            if value is _TOMBSTONE:
                continue
            row, size = value
            # The per-row charge, added field by field (the hot path of
            # every scan).  `self.receipt` is read per row, since a
            # harvest may swap it while the scan is suspended.
            receipt = self.receipt
            receipt.rows_scanned += 1
            receipt.bytes_read += size
            receipt.cpu_work += 8
            yield key, dict(row)

    def query(self, table: str, **equals: Any) -> List[Dict[str, Any]]:
        # Cassandra has no ad-hoc secondary scans without an index; model
        # the ALLOW FILTERING path: full scan + filter.
        results = []
        for record in self.scan(table):
            if all(record.get(field) == value for field, value in equals.items()):
                self.receipt.add(rows_returned=1, serializations=1)
                results.append(record)
        return results

    # -- introspection -----------------------------------------------------------------

    def sstable_count(self, table: str) -> int:
        return len(self._family(table).sstables)

    def data_bytes(self) -> int:
        total = 0
        for family in self._families.values():
            for value in family.memtable.values():
                if value is not _TOMBSTONE:
                    total += value[1]
            for sstable in family.sstables:
                total += sstable.bytes
        return total
