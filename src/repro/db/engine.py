"""Shared datastore machinery: work metering and encoding.

Stores are *functional* — they really hold and return data — and *metered*:
every operation accumulates counts of the physical work performed (index
probes, rows scanned, bytes moved, CPU work units).  The Hotel workload
models read these receipts to build the IR programs whose execution the
simulator times, so a query that walked three SSTables costs more cycles
than one absorbed by the memtable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, Optional


class WorkReceipt:
    """Physical work performed by one or more datastore operations."""

    FIELDS = (
        "ops",
        "index_probes",
        "rows_scanned",
        "rows_returned",
        "bytes_read",
        "bytes_written",
        "serializations",
        "cpu_work",
        "structure_misses",  # bloom-filter negatives, empty memtable probes
    )

    __slots__ = FIELDS

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def add(self, *, ops: int = 0, index_probes: int = 0,
            rows_scanned: int = 0, rows_returned: int = 0,
            bytes_read: int = 0, bytes_written: int = 0,
            serializations: int = 0, cpu_work: int = 0,
            structure_misses: int = 0, **unknown: int) -> None:
        if unknown:
            raise KeyError("unknown receipt field %r" % next(iter(unknown)))
        self.ops += ops
        self.index_probes += index_probes
        self.rows_scanned += rows_scanned
        self.rows_returned += rows_returned
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.serializations += serializations
        self.cpu_work += cpu_work
        self.structure_misses += structure_misses

    def merge(self, other: "WorkReceipt") -> None:
        for field in self.FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "WorkReceipt":
        receipt = cls()
        for field in cls.FIELDS:
            setattr(receipt, field, data.get(field, 0))
        return receipt

    def __repr__(self) -> str:
        busy = ", ".join(
            "%s=%d" % (field, getattr(self, field))
            for field in self.FIELDS
            if getattr(self, field)
        )
        return "WorkReceipt(%s)" % (busy or "idle")


#: The one encoder behind :func:`encoded_size`: what ``json.dumps(value,
#: separators=(",", ":"), sort_keys=True, default=str)`` would build on
#: every call.  ``encode`` keeps no state between calls.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, default=str)


def encoded_size(value: Any) -> int:
    """Approximate wire/storage size of a value (JSON-encoded bytes)."""
    return len(_ENCODER.encode(value))


class BootProfile:
    """How expensive it is to boot this store's container.

    ``instructions`` is the dynamic instruction count of the boot path at
    native scale; ``jvm`` marks JVM-hosted stores whose interpreter/JIT
    start-up is what made Cassandra's QEMU RISC-V boots take ~17 minutes
    versus MongoDB's ~3-4 on x86 (§3.3.3.2).
    """

    def __init__(self, instructions: int, resident_bytes: int, jvm: bool = False):
        self.instructions = instructions
        self.resident_bytes = resident_bytes
        self.jvm = jvm

    def __repr__(self) -> str:
        return "BootProfile(%.0fM instrs%s)" % (
            self.instructions / 1e6, ", jvm" if self.jvm else "",
        )


class Datastore:
    """Base class for the primary datastores.

    Subclasses implement the storage engine; this class provides the
    metering protocol: :attr:`receipt` accumulates work until
    :meth:`take_receipt` harvests and resets it.

    Storage contract: a store takes each row's :func:`encoded_size` once,
    when the row is written, and keeps it beside the row.  Reads, scans,
    queries, compaction and :meth:`data_bytes` charge that stored size
    and never encode a row again.  So a stored row changes only through
    a write: nothing mutates a record after handing it to a write, nor a
    row a read returns (reads return shallow copies, which share nested
    lists and dicts with the stored row).
    """

    name = "datastore"
    #: True where a maintained RISC-V port existed during the thesis work.
    riscv_friendly = False
    boot_profile = BootProfile(instructions=5_000_000_000, resident_bytes=64 << 20)

    def __init__(self):
        self.receipt = WorkReceipt()

    def take_receipt(self) -> WorkReceipt:
        """Harvest the work performed since the last harvest."""
        harvested = self.receipt
        self.receipt = WorkReceipt()
        return harvested

    # -- storage interface (dict-of-fields records keyed by string ids) -----

    def put(self, table: str, key: str, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def get(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def delete(self, table: str, key: str) -> bool:
        raise NotImplementedError

    def scan(self, table: str) -> Iterator[Dict[str, Any]]:
        raise NotImplementedError

    def query(self, table: str, **equals: Any) -> list:
        """Filter scan on field equality (ad-hoc query path)."""
        raise NotImplementedError

    def count(self, table: str) -> int:
        return sum(1 for _ in self.scan(table))

    def data_bytes(self) -> int:
        """Total resident payload bytes (drives the simulated footprint)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__
