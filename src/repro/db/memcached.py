"""Memcached-like slab-allocated LRU cache.

The Hotel application's Reservation, Rate and Profile functions consult
Memcached before the primary database and populate it after a miss
(§4.2.1.2) — the back-and-forth the thesis identifies as the source of
their 10x cold-execution slowdown and their excellent warm behaviour.

The engine models the real layout: fixed-size slab classes chosen by item
size, per-slab-class LRU eviction, optional TTL expiry driven by a logical
clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.db.engine import BootProfile, WorkReceipt, encoded_size

#: Slab class chunk sizes in bytes (growth factor ~2 from 64B to 64KB).
_SLAB_SIZES = [64 << i for i in range(11)]


class MemcachedCache:
    """get/set/delete cache with slab classes and per-class LRU."""

    name = "memcached"
    riscv_friendly = True
    boot_profile = BootProfile(instructions=400_000_000, resident_bytes=8 << 20)

    def __init__(self, capacity_bytes: int = 4 << 20, default_ttl: Optional[int] = None):
        if capacity_bytes < _SLAB_SIZES[-1]:
            raise ValueError("capacity must hold at least one largest chunk")
        self.capacity_bytes = capacity_bytes
        self.default_ttl = default_ttl
        self.clock = 0
        self.receipt = WorkReceipt()
        # slab class -> insertion-ordered {key: (value, chunk, expires_at,
        # size)}, size being the value's encoded_size taken by ``set``.
        self._slabs: Dict[int, Dict[str, Tuple[Any, int, Optional[int], int]]] = {
            chunk: {} for chunk in _SLAB_SIZES
        }
        self._key_slab: Dict[str, int] = {}
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def take_receipt(self) -> WorkReceipt:
        harvested = self.receipt
        self.receipt = WorkReceipt()
        return harvested

    def tick(self, amount: int = 1) -> None:
        """Advance the logical clock used for TTL expiry."""
        self.clock += amount

    @staticmethod
    def _chunk_for(size: int) -> int:
        for chunk in _SLAB_SIZES:
            if size <= chunk:
                return chunk
        raise ValueError("item of %d bytes exceeds the largest slab class" % size)

    def set(self, key: str, value: Any, ttl: Optional[int] = None) -> None:
        self.receipt.add(ops=1)
        value_size = encoded_size(value)
        size = value_size + len(key)
        chunk = self._chunk_for(size)
        self.delete(key, quiet=True)
        slab = self._slabs[chunk]
        while self.used_bytes + chunk > self.capacity_bytes and slab:
            self._evict_one(chunk)
        if self.used_bytes + chunk > self.capacity_bytes:
            self._evict_any()
        expiry = ttl if ttl is not None else self.default_ttl
        expires_at = self.clock + expiry if expiry is not None else None
        slab[key] = (value, chunk, expires_at, value_size)
        self._key_slab[key] = chunk
        self.used_bytes += chunk
        self.receipt.add(bytes_written=size, serializations=1, cpu_work=size // 16 + 4)

    def get(self, key: str) -> Optional[Any]:
        self.receipt.add(ops=1)
        chunk = self._key_slab.get(key)
        if chunk is None:
            self.misses += 1
            self.receipt.add(structure_misses=1, cpu_work=3)
            return None
        slab = self._slabs[chunk]
        entry = slab[key]
        value, _chunk, expires_at, size = entry
        if expires_at is not None and self.clock >= expires_at:
            self.delete(key, quiet=True)
            self.misses += 1
            self.receipt.add(structure_misses=1, cpu_work=4)
            return None
        # LRU refresh.
        del slab[key]
        slab[key] = entry
        self.hits += 1
        self.receipt.add(rows_returned=1, bytes_read=size,
                         serializations=1, cpu_work=size // 16 + 3)
        return value

    def get_multi(self, keys) -> Dict[str, Any]:
        """Batched get: one round trip for many keys (the memcached
        ``get_multi`` the DeathStarBench services use for profile reads).

        Charges a single operation plus per-key lookup work; found values
        are returned keyed by their request key.
        """
        self.receipt.add(ops=1)
        found: Dict[str, Any] = {}
        for key in keys:
            chunk = self._key_slab.get(key)
            if chunk is None:
                self.misses += 1
                self.receipt.add(structure_misses=1, cpu_work=3)
                continue
            slab = self._slabs[chunk]
            entry = slab[key]
            value, _chunk, expires_at, size = entry
            if expires_at is not None and self.clock >= expires_at:
                self.delete(key, quiet=True)
                self.misses += 1
                self.receipt.add(structure_misses=1, cpu_work=4)
                continue
            del slab[key]
            slab[key] = entry
            self.hits += 1
            self.receipt.add(rows_returned=1, bytes_read=size,
                             serializations=1, cpu_work=size // 16 + 3)
            found[key] = value
        return found

    def delete(self, key: str, quiet: bool = False) -> bool:
        chunk = self._key_slab.pop(key, None)
        if chunk is None:
            if not quiet:
                self.receipt.add(structure_misses=1, cpu_work=2)
            return False
        del self._slabs[chunk][key]
        self.used_bytes -= chunk
        if not quiet:
            self.receipt.add(cpu_work=3)
        return True

    def _evict_one(self, chunk: int) -> None:
        slab = self._slabs[chunk]
        victim = next(iter(slab))
        self.delete(victim, quiet=True)
        self.evictions += 1
        self.receipt.add(cpu_work=4)

    def _evict_any(self) -> None:
        for chunk in reversed(_SLAB_SIZES):
            if self._slabs[chunk]:
                self._evict_one(chunk)
                return

    def flush_all(self) -> None:
        for slab in self._slabs.values():
            slab.clear()
        self._key_slab.clear()
        self.used_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._key_slab)

    def keys(self) -> List[str]:
        return list(self._key_slab)

    def __repr__(self) -> str:
        return "MemcachedCache(%d items, %d/%d bytes)" % (
            len(self), self.used_bytes, self.capacity_bytes,
        )
