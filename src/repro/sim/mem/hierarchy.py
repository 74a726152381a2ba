"""Per-core memory hierarchy: L1I + L1D + I/D TLBs over L2 over DRAM.

Mirrors Fig 4.3 of the thesis: each core owns split L1 caches and a
private L2; both cores share the DRAM controller.  The hierarchy exposes
three timed operations to the CPU models:

* :meth:`CoreMemSystem.ifetch` — fetch one instruction cache line,
* :meth:`CoreMemSystem.data_access` — one load/store,

each returning the access latency in cycles while updating cache state and
statistics, and :meth:`CoreMemSystem.replay`, which replays one unrolled
segment as the Atomic model does: it walks the segment's I-cache lines
once, fetching on each line change, and a memory segment's loads or
stores with them.  It takes the TLBs, L1s, prefetch fills and L2 in its
own frame, with the same calls to :class:`~repro.sim.mem.dram.DramModel`,
cycles and state as :meth:`ifetch` and :meth:`data_access` would give.

A fourth, :meth:`warm_touch`, updates state without timing — used for
the functional fast-forward between the cold (1st) and warm (10th)
requests of the experiment protocol.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.sim.mem.cache import _POLICIES, Cache, _CounterView, _is_pow2
from repro.sim.mem.dram import DramModel
from repro.sim.mem.prefetcher import PREFETCHER_KINDS, make_prefetcher
from repro.sim.mem.tlb import PAGE_SHIFT, Tlb
from repro.sim.statistics import StatGroup


class MemoryHierarchyConfig:
    """Geometry and latency knobs (defaults = Table 4.1).

    A size, associativity, line size or TLB size below one, a negative
    latency or prefetch degree, or an unknown replacement policy or
    prefetcher kind raises a ``ValueError`` naming the field.  Whether
    a geometry divides into power-of-two sets is :meth:`scaled`'s check.
    """

    def __init__(
        self,
        l1i_size: int = 32 * 1024,
        l1i_assoc: int = 8,
        l1d_size: int = 32 * 1024,
        l1d_assoc: int = 8,
        l2_size: int = 512 * 1024,
        l2_assoc: int = 4,
        line_size: int = 64,
        l1_latency: int = 2,
        l2_latency: int = 18,
        replacement: str = "lru",
        itlb_entries: int = 64,
        dtlb_entries: int = 64,
        prefetch_i_degree: int = 0,
        prefetch_d_degree: int = 2,
        prefetch_i_kind: str = "nextline",
        prefetch_d_kind: str = "nextline",
    ):
        self.l1i_size = l1i_size
        self.l1i_assoc = l1i_assoc
        self.l1d_size = l1d_size
        self.l1d_assoc = l1d_assoc
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.line_size = line_size
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.replacement = replacement
        self.itlb_entries = itlb_entries
        self.dtlb_entries = dtlb_entries
        self.prefetch_i_degree = prefetch_i_degree
        self.prefetch_d_degree = prefetch_d_degree
        self.prefetch_i_kind = prefetch_i_kind
        self.prefetch_d_kind = prefetch_d_kind
        for name in _POSITIVE_FIELDS:
            _check_count(name, getattr(self, name), 1)
        for name in _NON_NEGATIVE_FIELDS:
            _check_count(name, getattr(self, name), 0)
        for name, choices in (("replacement", _POLICIES),
                              ("prefetch_i_kind", PREFETCHER_KINDS),
                              ("prefetch_d_kind", PREFETCHER_KINDS)):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    "MemoryHierarchyConfig.%s must be one of %s, got %r"
                    % (name, ", ".join(choices), value))

    def scaled(self, space_scale: int) -> "MemoryHierarchyConfig":
        """Shrink capacities by ``space_scale`` (see repro.core.scale).

        Latencies and associativities are preserved; only capacities shrink,
        keeping footprint-to-capacity ratios — and therefore miss behaviour —
        faithful to the full-size machine.
        """
        if space_scale <= 0:
            raise ValueError("space_scale must be positive")
        line = self.line_size

        def shrink(name: str, size: int, assoc: int, min_sets: int) -> int:
            scaled_size = max(min_sets * assoc * line, size // space_scale)
            sets, rest = divmod(scaled_size, assoc * line)
            if rest or not _is_pow2(sets):
                raise ValueError(
                    "space_scale %d shrinks cache %s from %d to %d bytes, "
                    "which is not a power-of-two number of %d-way sets of "
                    "%d-byte lines" % (space_scale, name, size, scaled_size,
                                       assoc, line))
            return scaled_size

        return MemoryHierarchyConfig(
            l1i_size=shrink("l1i", self.l1i_size, self.l1i_assoc, 1),
            l1i_assoc=self.l1i_assoc,
            l1d_size=shrink("l1d", self.l1d_size, self.l1d_assoc, 1),
            l1d_assoc=self.l1d_assoc,
            l2_size=shrink("l2", self.l2_size, self.l2_assoc, 2),
            l2_assoc=self.l2_assoc,
            line_size=self.line_size,
            l1_latency=self.l1_latency,
            l2_latency=self.l2_latency,
            replacement=self.replacement,
            itlb_entries=max(8, self.itlb_entries // max(1, space_scale // 4)),
            dtlb_entries=max(8, self.dtlb_entries // max(1, space_scale // 4)),
            prefetch_i_degree=self.prefetch_i_degree,
            prefetch_d_degree=self.prefetch_d_degree,
            prefetch_i_kind=self.prefetch_i_kind,
            prefetch_d_kind=self.prefetch_d_kind,
        )


#: Sizes a memory system needs at least one of.
_POSITIVE_FIELDS = ("l1i_size", "l1i_assoc", "l1d_size", "l1d_assoc",
                    "l2_size", "l2_assoc", "line_size", "itlb_entries",
                    "dtlb_entries")

#: Latencies and prefetch degrees, which may be zero.
_NON_NEGATIVE_FIELDS = ("l1_latency", "l2_latency", "prefetch_i_degree",
                        "prefetch_d_degree")


def _check_count(name, value, least):
    if type(value) is not int or value < least:
        raise ValueError("MemoryHierarchyConfig.%s must be an integer >= %d, "
                         "got %r" % (name, least, value))


class CoreMemSystem:
    """One core's view of the memory system."""

    def __init__(
        self,
        core_id: int,
        config: MemoryHierarchyConfig,
        dram: DramModel,
        stats_parent: Optional[StatGroup] = None,
    ):
        self.core_id = core_id
        self.config = config
        self.dram = dram
        stats = (stats_parent or StatGroup("orphan")).group("core%d" % core_id)
        self.stats = stats
        cfg = config
        self.l1i = Cache("l1i", cfg.l1i_size, cfg.l1i_assoc, cfg.line_size,
                         cfg.replacement, stats)
        self.l1d = Cache("l1d", cfg.l1d_size, cfg.l1d_assoc, cfg.line_size,
                         cfg.replacement, stats)
        self.l2 = Cache("l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
                        cfg.replacement, stats)
        self.itlb = Tlb("itlb", cfg.itlb_entries, stats_parent=stats)
        self.dtlb = Tlb("dtlb", cfg.dtlb_entries, stats_parent=stats)
        self._line_shift = cfg.line_size.bit_length() - 1
        # Latencies as plain ints: the access paths below run once per
        # simulated memory instruction, so the config-attribute chain is
        # worth hoisting out of them.
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._iprefetcher = make_prefetcher(cfg.prefetch_i_kind,
                                            cfg.prefetch_i_degree)
        self._dprefetcher = make_prefetcher(cfg.prefetch_d_kind,
                                            cfg.prefetch_d_degree)
        self.prefetch_fills = 0
        self.stat_prefetches = stats.add(_CounterView(
            "prefetchFills", self, "prefetch_fills", "lines installed by prefetch"))

    # -- timed access paths ---------------------------------------------------

    def ifetch(self, addr: int, now_cycle: int = 0) -> int:
        """Fetch the line containing ``addr``; returns latency in cycles."""
        latency = self._l1_latency + self.itlb.translate(addr)
        line = addr >> self._line_shift
        if self.l1i.access_line(line):
            return latency
        l2 = self.l2
        prefetcher = self._iprefetcher
        if prefetcher.degree:
            for fill in prefetcher.on_miss(addr, line):
                self.l1i.fill_line(fill)
                l2.fill_line(fill)
                self.prefetch_fills += 1
        latency += self._l2_latency
        if l2.access_line(line):
            return latency
        return latency + self.dram.access(addr, now_cycle)

    def data_access(self, addr: int, write: bool = False, now_cycle: int = 0,
                    pc: int = 0) -> int:
        """One load or store; returns latency in cycles.

        ``pc`` identifies the accessing instruction for PC-indexed
        prefetchers; timing is unaffected by it otherwise.
        """
        latency = self._l1_latency + self.dtlb.translate(addr)
        line = addr >> self._line_shift
        if self.l1d.access_line(line, write):
            return latency
        l2 = self.l2
        for fill in self._dprefetcher.on_miss(pc, line):
            self.l1d.fill_line(fill)
            l2.fill_line(fill)
            self.prefetch_fills += 1
        latency += self._l2_latency
        if l2.access_line(line, write):
            return latency
        return latency + self.dram.access(addr, now_cycle)

    # replay() repeats in its own frame, in the same order, what ifetch
    # and data_access do through calls: the TLB refresh (Tlb.translate on
    # a TLB miss), the L1 set's hit update or, under lru and fifo, its
    # miss (count, evict the set's first line, insert), the prefetch
    # fills (L1 set, then L2 set, by fill_line's rule) and the L2 demand
    # access (by access_line's rule); DRAM stays a DramModel.access call.
    # replay, Tlb.translate, Cache.access_line and Cache.fill_line are
    # the only code that updates a TLB or cache set on a demand access,
    # and must agree.  Counters are added once per call.  A random-policy
    # miss goes through ifetch/data_access, so each set's rng is drawn in
    # one place; so does every access of a profiled L1, because its
    # profiler observes hits, and every L1 miss while the L2 is profiled.
    # An I-prefetcher of non-zero degree keeps its fill_line calls.

    def replay(self, pcs: Sequence[int], ns: Sequence[int], cycles: int,
               current_line: int, sizes: Optional[Sequence[int]] = None,
               base: int = 0, offsets: Iterable[int] = (),
               write: bool = False) -> Tuple[int, int]:
        """Replay one unrolled run; returns ``(cycles, current_line)``.

        ``pcs[i]`` is the PC of the first instance that starts in the
        run's i-th I-cache line and ``ns[i]`` how many instances start
        there.  Each line fetches when it differs from ``current_line``.
        A compute or branch run (``sizes`` None) then takes ``ns[i]``
        cycles.  In a memory run the instances are ``sizes`` bytes long
        and the j-th accesses ``base`` plus the j-th of ``offsets``;
        each of a line's ``ns[i]`` instances takes one cycle, then makes
        its access at that cycle and PC.  That is the same calls, cycles
        and state as one :meth:`ifetch` per line change and one
        :meth:`data_access` per instance would give.

        Two shortcuts are exact because between two accesses on one side
        only the other side runs, and no fetch touches the DTLB or the
        L1D, nor any data access the ITLB.  An access whose page is the
        page of the frame's previous access on the same TLB counts one
        TLB access and skips the refresh: a refresh, a walk or a call
        left that page the TLB's newest entry.  A data access to the line
        that the run's previous access hit in the frame is a repeat: it
        adds ``l1_latency`` cycles and counts one DTLB access, one L1D
        access and one L1D hit, with no lookup.  The hit left the line
        its set's newest under lru (in place under fifo and random) with
        its dirty bit already holding ``write``, so the repeat's update
        changes nothing.  An L1D miss, or an access sent to
        :meth:`data_access`, ends the repeat.  A line no wider than a
        page keeps the page with it; wider lines take every data access
        through :meth:`data_access`.
        """
        line_shift = self._line_shift
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        ifetch = self.ifetch
        data_access = self.data_access
        dram_access = self.dram.access
        itlb = self.itlb
        itlb_pages = itlb._tlb
        itranslate = itlb.translate
        dtlb = self.dtlb
        dtlb_pages = dtlb._tlb
        dtranslate = dtlb.translate
        l1i = self.l1i
        isets = l1i._sets
        imask = l1i._set_mask
        iassoc = l1i.assoc
        ilru = l1i._lru
        l1d = self.l1d
        dsets = l1d._sets
        dmask = l1d._set_mask
        dassoc = l1d.assoc
        dlru = l1d._lru
        l2 = self.l2
        l2sets = l2._sets
        l2mask = l2._set_mask
        l2assoc = l2.assoc
        l2lru = l2._lru
        iprefetcher = self._iprefetcher
        iprefetching = iprefetcher.degree
        ion_miss = iprefetcher.on_miss
        fill_l1i = l1i.fill_line
        fill_l2 = l2.fill_line
        don_miss = self._dprefetcher.on_miss
        l2_inline = l2.profiler is None and l2._rngs is None
        fetch_inline = l1i.profiler is None
        fetch_misses_inline = (fetch_inline and l1i._rngs is None
                               and l2_inline)
        data_inline = l1d.profiler is None and line_shift <= PAGE_SHIFT
        data_misses_inline = (data_inline and l1d._rngs is None
                              and l2_inline)
        memory = sizes is not None
        accesses = zip(sizes, offsets) if memory else None
        ipage = dpage = hit_line = -1
        itlb_hits = ihits = imisses = iwritebacks = 0
        dtlb_hits = repeats = dhits = dmisses = dwritebacks = 0
        l2hits = l2misses = l2writebacks = fills = 0
        for pc, n in zip(pcs, ns):
            line = pc >> line_shift
            if line != current_line:
                current_line = line
                ways = isets[line & imask]
                hit = line in ways
                if fetch_misses_inline or (fetch_inline and hit):
                    page = pc >> PAGE_SHIFT
                    if page == ipage:
                        itlb_hits += 1
                        latency = l1_latency
                    elif page in itlb_pages:
                        del itlb_pages[page]
                        itlb_pages[page] = None
                        itlb_hits += 1
                        latency = l1_latency
                    else:
                        latency = l1_latency + itranslate(pc)
                    ipage = page
                    if hit:
                        if ilru:
                            ways[line] = ways.pop(line)
                        ihits += 1
                    else:
                        imisses += 1
                        if len(ways) >= iassoc and ways.pop(next(iter(ways))):
                            iwritebacks += 1
                        ways[line] = False
                        if iprefetching:
                            proposed = ion_miss(pc, line)
                            for fill in proposed:
                                fill_l1i(fill)
                                fill_l2(fill)
                            fills += len(proposed)
                        latency += l2_latency
                        ways = l2sets[line & l2mask]
                        if line in ways:
                            if l2lru:
                                ways[line] = ways.pop(line)
                            l2hits += 1
                        else:
                            l2misses += 1
                            if (len(ways) >= l2assoc
                                    and ways.pop(next(iter(ways)))):
                                l2writebacks += 1
                            ways[line] = False
                            latency += dram_access(pc, cycles)
                    cycles += latency
                else:
                    cycles += ifetch(pc, cycles)
                    ipage = pc >> PAGE_SHIFT
            if not memory:
                cycles += n
                continue
            for size, offset in islice(accesses, n):
                cycles += 1
                addr = base + offset
                data_line = addr >> line_shift
                if data_line == hit_line:
                    cycles += l1_latency
                    repeats += 1
                    pc += size
                    continue
                ways = dsets[data_line & dmask]
                hit = data_line in ways
                if data_misses_inline or (data_inline and hit):
                    page = addr >> PAGE_SHIFT
                    if page == dpage:
                        dtlb_hits += 1
                        latency = l1_latency
                    elif page in dtlb_pages:
                        del dtlb_pages[page]
                        dtlb_pages[page] = None
                        dtlb_hits += 1
                        latency = l1_latency
                    else:
                        latency = l1_latency + dtranslate(addr)
                    dpage = page
                    if hit:
                        if dlru:
                            ways[data_line] = ways.pop(data_line) or write
                        elif write:
                            ways[data_line] = True
                        dhits += 1
                        hit_line = data_line
                    else:
                        dmisses += 1
                        if len(ways) >= dassoc and ways.pop(next(iter(ways))):
                            dwritebacks += 1
                        ways[data_line] = write
                        proposed = don_miss(pc, data_line)
                        for fill in proposed:
                            ways = dsets[fill & dmask]
                            if fill not in ways:
                                if (len(ways) >= dassoc
                                        and ways.pop(next(iter(ways)))):
                                    dwritebacks += 1
                                ways[fill] = False
                            ways = l2sets[fill & l2mask]
                            if fill not in ways:
                                if (len(ways) >= l2assoc
                                        and ways.pop(next(iter(ways)))):
                                    l2writebacks += 1
                                ways[fill] = False
                        fills += len(proposed)
                        latency += l2_latency
                        ways = l2sets[data_line & l2mask]
                        if data_line in ways:
                            if l2lru:
                                ways[data_line] = ways.pop(data_line) or write
                            elif write:
                                ways[data_line] = True
                            l2hits += 1
                        else:
                            l2misses += 1
                            if (len(ways) >= l2assoc
                                    and ways.pop(next(iter(ways)))):
                                l2writebacks += 1
                            ways[data_line] = write
                            latency += dram_access(addr, cycles)
                        hit_line = -1
                    cycles += latency
                else:
                    cycles += data_access(addr, write, cycles, pc)
                    dpage = addr >> PAGE_SHIFT
                    hit_line = -1
                pc += size
        itlb.accesses += itlb_hits
        l1i.accesses += ihits + imisses
        l1i.hits += ihits
        l1i.misses += imisses
        l1i.writebacks += iwritebacks
        dtlb.accesses += dtlb_hits + repeats
        l1d.accesses += repeats + dhits + dmisses
        l1d.hits += repeats + dhits
        l1d.misses += dmisses
        l1d.writebacks += dwritebacks
        l2.accesses += l2hits + l2misses
        l2.hits += l2hits
        l2.misses += l2misses
        l2.writebacks += l2writebacks
        self.prefetch_fills += fills
        return cycles, current_line

    # -- functional (untimed) path ---------------------------------------------

    def warm_touch(self, addr: int, is_ifetch: bool, write: bool = False,
                   pc: int = 0) -> None:
        """Update cache/TLB state without producing a latency.

        Statistics still accumulate; the harness discards them with a stat
        reset before each measured region, matching the m5-ops protocol.
        """
        line = addr >> self._line_shift
        if is_ifetch:
            self.itlb.translate(addr)
            if not self.l1i.access_line(line):
                for fill in self._iprefetcher.on_miss(addr, line):
                    self.l1i.fill_line(fill)
                    self.l2.fill_line(fill)
                self.l2.access_line(line)
        else:
            self.dtlb.translate(addr)
            if not self.l1d.access_line(line, write):
                for fill in self._dprefetcher.on_miss(pc, line):
                    self.l1d.fill_line(fill)
                    self.l2.fill_line(fill)
                self.l2.access_line(line, write)

    # -- maintenance -------------------------------------------------------------

    def flush_all(self) -> None:
        """Cold microarchitectural state: empty caches, TLBs, prefetchers."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self._iprefetcher.flush()
        self._dprefetcher.flush()

    def state_dict(self) -> Dict:
        return {
            "l1i": self.l1i.state_dict(),
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
            "itlb": self.itlb.state_dict(),
            "dtlb": self.dtlb.state_dict(),
            "iprefetcher": self._iprefetcher.state_dict(),
            "dprefetcher": self._dprefetcher.state_dict(),
        }

    def load_state(self, state: Dict) -> None:
        self.l1i.load_state(state["l1i"])
        self.l1d.load_state(state["l1d"])
        self.l2.load_state(state["l2"])
        self.itlb.load_state(state["itlb"])
        self.dtlb.load_state(state["dtlb"])
        # Checkpoints taken before prefetchers joined the state dict
        # restore them as cold rather than erroring out.
        if "iprefetcher" in state:
            self._iprefetcher.load_state(state["iprefetcher"])
        else:
            self._iprefetcher.flush()
        if "dprefetcher" in state:
            self._dprefetcher.load_state(state["dprefetcher"])
        else:
            self._dprefetcher.flush()

    def __repr__(self) -> str:
        return "CoreMemSystem(core%d)" % self.core_id
