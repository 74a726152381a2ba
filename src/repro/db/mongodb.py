"""MongoDB-like document store.

Collections of JSON-ish documents with a primary-key B-tree-style index
and optional secondary indexes; supports the ad-hoc equality queries the
Hotel application issues.  MongoDB has no RISC-V port ("not a RISC-V
friendly database", §3.3.3), which is why the thesis swapped it for
Cassandra on that platform — but it remains the x86 baseline and one side
of the Fig 4.20 comparison.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.db.engine import BootProfile, Datastore, encoded_size

_BTREE_FANOUT = 128


class _Collection:
    """One collection: documents plus a sorted primary index.

    ``documents`` maps each key to ``(document, size)``, ``size`` being
    the document's :func:`encoded_size` taken when it was written.
    """

    __slots__ = ("documents", "sorted_keys", "secondary")

    def __init__(self):
        self.documents: Dict[str, Tuple[Dict[str, Any], int]] = {}
        self.sorted_keys: List[str] = []
        self.secondary: Dict[str, Dict[Any, List[str]]] = {}


class MongoStore(Datastore):
    """Document-oriented store with B-tree index cost accounting."""

    name = "mongodb"
    riscv_friendly = False
    #: mongod starts reasonably fast; native C++ binary, no JVM warm-up.
    boot_profile = BootProfile(
        instructions=12_000_000_000, resident_bytes=96 << 20, jvm=False
    )

    def __init__(self):
        super().__init__()
        self._collections: Dict[str, _Collection] = {}

    def _collection(self, table: str) -> _Collection:
        if table not in self._collections:
            self._collections[table] = _Collection()
        return self._collections[table]

    def _btree_depth(self, collection: _Collection) -> int:
        entries = max(2, len(collection.sorted_keys))
        depth = 1
        capacity = _BTREE_FANOUT
        while capacity < entries:
            capacity *= _BTREE_FANOUT
            depth += 1
        return depth

    # -- CRUD -----------------------------------------------------------------

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        collection = self._collection(table)
        self.receipt.add(ops=1)
        size = encoded_size(record)
        depth = self._btree_depth(collection)
        if key not in collection.documents:
            bisect.insort(collection.sorted_keys, key)
        else:
            self._unindex(collection, key)
        collection.documents[key] = (dict(record), size)
        for field, index in collection.secondary.items():
            index.setdefault(record.get(field), []).append(key)
        self.receipt.add(
            index_probes=depth,
            bytes_written=size,
            serializations=1,
            cpu_work=size // 8 + depth * 4,
        )

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        collection = self._collection(table)
        self.receipt.add(ops=1)
        depth = self._btree_depth(collection)
        entry = collection.documents.get(key)
        if entry is None:
            self.receipt.add(index_probes=depth, structure_misses=1, cpu_work=depth * 4)
            return None
        document, size = entry
        self.receipt.add(
            index_probes=depth,
            rows_scanned=1,
            rows_returned=1,
            bytes_read=size + 256 * depth,  # mmap'd B-tree page touches
            serializations=1,
            cpu_work=size // 8 + depth * 4,
        )
        return dict(document)

    def delete(self, table: str, key: str) -> bool:
        collection = self._collection(table)
        self.receipt.add(ops=1)
        depth = self._btree_depth(collection)
        self.receipt.add(index_probes=depth, cpu_work=depth * 4)
        if key not in collection.documents:
            self.receipt.add(structure_misses=1)
            return False
        self._unindex(collection, key)
        del collection.documents[key]
        position = bisect.bisect_left(collection.sorted_keys, key)
        del collection.sorted_keys[position]
        return True

    def _unindex(self, collection: _Collection, key: str) -> None:
        entry = collection.documents.get(key)
        if entry is None:
            return
        old = entry[0]
        for field, index in collection.secondary.items():
            keys = index.get(old.get(field))
            if keys and key in keys:
                keys.remove(key)

    # -- queries ------------------------------------------------------------------

    def create_index(self, table: str, field: str) -> None:
        """Build a secondary index over an existing collection."""
        collection = self._collection(table)
        index: Dict[Any, List[str]] = {}
        for key, (document, _size) in collection.documents.items():
            index.setdefault(document.get(field), []).append(key)
            self.receipt.add(rows_scanned=1, cpu_work=4)
        collection.secondary[field] = index

    def query(self, table: str, **equals: Any) -> List[Dict[str, Any]]:
        collection = self._collection(table)
        self.receipt.add(ops=1)
        if not equals:
            return [dict(document) for document in self.scan(table)]
        # Use a secondary index for the first indexed field, if any.
        for field, wanted in equals.items():
            index = collection.secondary.get(field)
            if index is not None:
                keys = index.get(wanted, [])
                depth = self._btree_depth(collection)
                self.receipt.add(index_probes=depth, cpu_work=depth * 4)
                results = []
                for key in keys:
                    document, size = collection.documents[key]
                    if all(document.get(f) == v for f, v in equals.items()):
                        self.receipt.add(
                            rows_scanned=1, rows_returned=1,
                            bytes_read=size, serializations=1, cpu_work=size // 8,
                        )
                        results.append(dict(document))
                return results
        # COLLSCAN: the ad-hoc query path MongoDB is known for.
        results = []
        for document, size in collection.documents.values():
            self.receipt.add(rows_scanned=1, bytes_read=size, cpu_work=size // 16)
            if all(document.get(f) == v for f, v in equals.items()):
                self.receipt.add(rows_returned=1, serializations=1)
                results.append(dict(document))
        return results

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        collection = self._collection(table)
        self.receipt.add(ops=1)
        for key in list(collection.sorted_keys):
            document, size = collection.documents[key]
            self.receipt.add(rows_scanned=1, bytes_read=size, cpu_work=8)
            yield dict(document)

    def data_bytes(self) -> int:
        return sum(
            size
            for collection in self._collections.values()
            for _document, size in collection.documents.values()
        )
