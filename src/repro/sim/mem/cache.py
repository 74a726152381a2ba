"""Set-associative cache model.

Tag-only (the simulator keeps data in the functional layer), write-back
write-allocate, with an lru, fifo or random replacement policy.  Each set
is one insertion-ordered ``dict`` mapping a resident line to its dirty
bit, kept in the policy's order: the first key is the lru/fifo victim,
and random draws its victim over the keys in that order.  Every access is
counted in the attached :class:`~repro.sim.statistics.StatGroup`, so the
harness's stat-reset/stat-dump protocol sees exactly the counters the
thesis reports: accesses, hits, misses, and writebacks.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.sim.statistics import Stat, StatGroup

_POLICIES = ("fifo", "lru", "random")


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class _CounterView(Stat):
    """A gem5-protocol stat backed by a plain attribute on its owner.

    The access path increments ``owner.<attr>`` as a bare integer (no
    bound-method call per access); this view keeps the reset/dump
    protocol working by remembering the attribute's value at the last
    reset and reporting the delta.  Used by the cache, TLB, DRAM and
    hierarchy models.
    """

    def __init__(self, name: str, owner: object, attr: str, desc: str = ""):
        super().__init__(name, desc)
        self._owner = owner
        self._attr = attr
        self._base = 0

    def inc(self, amount: int = 1) -> None:
        setattr(self._owner, self._attr, getattr(self._owner, self._attr) + amount)

    def reset(self) -> None:
        self._base = getattr(self._owner, self._attr)

    def value(self) -> int:
        return getattr(self._owner, self._attr) - self._base

    def __repr__(self) -> str:
        return "_CounterView(%s=%s)" % (self.name, self.value())


class Cache:
    """One level of tag-only set-associative cache.

    ``_sets[index]`` maps each resident line to its dirty bit.  Under lru
    a hit moves the line to the end; under fifo and random a hit leaves
    it in place (assigning to an existing key keeps its position).  The
    random policy draws from one ``random.Random(index)`` per set.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        policy: str = "lru",
        stats_parent: Optional[StatGroup] = None,
    ):
        if not _is_pow2(line_size):
            raise ValueError("line size must be a power of two, got %d" % line_size)
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError(
                "cache %s: size %d not divisible by assoc*line (%d*%d)"
                % (name, size_bytes, assoc, line_size)
            )
        num_sets = size_bytes // (assoc * line_size)
        if not _is_pow2(num_sets):
            raise ValueError("cache %s: set count %d must be a power of two" % (name, num_sets))
        if policy not in _POLICIES:
            raise ValueError("unknown replacement policy %r; have %s"
                             % (policy, list(_POLICIES)))

        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self.policy_name = policy

        self._sets: List[Dict[int, bool]] = [{} for _ in range(num_sets)]
        self._lru = policy == "lru"
        self._rngs: Optional[List[random.Random]] = (
            [random.Random(index) for index in range(num_sets)]
            if policy == "random" else None
        )

        # Hot-path counters are plain ints; the registered stats are
        # views over them so reset/dump still work (see _CounterView).
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

        #: Optional :class:`repro.obs.CacheProfiler`; when attached, the
        #: demand stream feeds its shadow miss classifier.
        self.profiler = None

        stats = (stats_parent or StatGroup("orphan")).group(name)
        self.stats = stats
        self.stat_accesses = stats.add(_CounterView(
            "accesses", self, "accesses", "total demand accesses"))
        self.stat_hits = stats.add(_CounterView(
            "hits", self, "hits", "demand hits"))
        self.stat_misses = stats.add(_CounterView(
            "misses", self, "misses", "demand misses"))
        self.stat_writebacks = stats.add(_CounterView(
            "writebacks", self, "writebacks", "dirty lines evicted"))
        stats.formula(
            "missRate",
            lambda: (self.stat_misses.value() / self.stat_accesses.value())
            if self.stat_accesses.value()
            else 0.0,
            "misses / accesses",
        )

    def _random_victim(self, ways: Dict[int, bool], index: int) -> int:
        keys = list(ways)
        return keys[self._rngs[index].randrange(len(keys))]

    # -- core access path ---------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def access_line(self, line: int, write: bool = False) -> bool:
        """Access one cache line; returns True on hit.

        On a miss the line is allocated (write-allocate) and a victim
        evicted if the set is full; a dirty victim counts a writeback.
        """
        ways = self._sets[line & self._set_mask]
        self.accesses += 1
        profiler = self.profiler
        if line in ways:
            self.hits += 1
            if profiler is not None:
                profiler.on_hit(line)
            if self._lru:
                ways[line] = ways.pop(line) or write
            elif write:
                ways[line] = True
            return True
        self.misses += 1
        if profiler is not None:
            profiler.on_miss(line)
        if len(ways) >= self.assoc:
            if self._rngs is None:
                victim = next(iter(ways))
            else:
                victim = self._random_victim(ways, line & self._set_mask)
            if ways.pop(victim):
                self.writebacks += 1
        ways[line] = write
        return False

    def access(self, addr: int, write: bool = False) -> bool:
        """Byte-address convenience wrapper around :meth:`access_line`."""
        return self.access_line(self.line_of(addr), write)

    def fill_line(self, line: int) -> None:
        """Install a line without counting a demand access (prefetch fill)."""
        ways = self._sets[line & self._set_mask]
        if line in ways:
            return
        if len(ways) >= self.assoc:
            if self._rngs is None:
                victim = next(iter(ways))
            else:
                victim = self._random_victim(ways, line & self._set_mask)
            if ways.pop(victim):
                self.writebacks += 1
        ways[line] = False

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    # -- maintenance ---------------------------------------------------------

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty writebacks."""
        writebacks = 0
        for ways in self._sets:
            writebacks += sum(1 for dirty in ways.values() if dirty)
            ways.clear()
        if self._rngs is not None:
            for index, rng in enumerate(self._rngs):
                rng.seed(index)
        self.writebacks += writebacks
        return writebacks

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> Dict:
        """Microarchitectural state for checkpointing (tags + dirty bits).

        ``sets`` lists each set's lines in policy order, ``dirty`` each
        set's dirty lines in ascending order.  The random policy adds
        ``rngs``, each set's rng state, so a restored run draws the same
        victims as the run it was taken from.
        """
        state = {
            "geometry": (self.size_bytes, self.assoc, self.line_size),
            "sets": [list(ways) for ways in self._sets],
            "dirty": [sorted(line for line, dirty in ways.items() if dirty)
                      for ways in self._sets],
        }
        if self._rngs is not None:
            state["rngs"] = [rng.getstate() for rng in self._rngs]
        return state

    def load_state(self, state: Dict) -> None:
        geometry = state.get("geometry")
        if geometry is not None and tuple(geometry) != (
            self.size_bytes, self.assoc, self.line_size
        ):
            raise ValueError(
                "checkpoint geometry %s does not match cache %s "
                "(%dB %d-way, %dB lines): checkpoints only restore onto "
                "the configuration they were taken from"
                % (tuple(geometry), self.name, self.size_bytes, self.assoc,
                   self.line_size)
            )
        # Checkpoints taken before the rng states joined the state dict
        # re-seed each set's rng instead.
        rngs = state.get("rngs")
        for index, (tags, dirty) in enumerate(zip(state["sets"], state["dirty"])):
            dirty = set(dirty)
            self._sets[index] = {tag: tag in dirty for tag in tags}
            if self._rngs is None:
                continue
            if rngs is None:
                self._rngs[index].seed(index)
            else:
                self._rngs[index].setstate(rngs[index])

    def __repr__(self) -> str:
        return "Cache(%s: %dB %d-way, %d sets, %s)" % (
            self.name, self.size_bytes, self.assoc, self.num_sets, self.policy_name,
        )
