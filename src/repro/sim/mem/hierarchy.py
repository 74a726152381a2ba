"""Per-core memory hierarchy: L1I + L1D + I/D TLBs over L2 over DRAM.

Mirrors Fig 4.3 of the thesis: each core owns split L1 caches and a
private L2; both cores share the DRAM controller.  The hierarchy exposes
two operations to the CPU models:

* :meth:`CoreMemSystem.ifetch` — fetch one instruction cache line,
* :meth:`CoreMemSystem.data_access` — one load/store,

each returning the access latency in cycles while updating cache state and
statistics.  A third, :meth:`warm_touch`, updates state without timing —
used for the functional fast-forward between the cold (1st) and warm
(10th) requests of the experiment protocol.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.mem.cache import Cache, _CounterView
from repro.sim.mem.dram import DramModel
from repro.sim.mem.prefetcher import make_prefetcher
from repro.sim.mem.tlb import Tlb
from repro.sim.statistics import StatGroup


class MemoryHierarchyConfig:
    """Geometry and latency knobs (defaults = Table 4.1)."""

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

    def scaled(self, space_scale: int) -> "MemoryHierarchyConfig":
        """Shrink capacities by ``space_scale`` (see repro.core.scale).

        Latencies and associativities are preserved; only capacities shrink,
        keeping footprint-to-capacity ratios — and therefore miss behaviour —
        faithful to the full-size machine.
        """
        if space_scale <= 0:
            raise ValueError("space_scale must be positive")

        def shrink(size: int, floor: int) -> int:
            scaled_size = max(floor, size // space_scale)
            # Round down to a power-of-two multiple of assoc*line handled
            # by the caller; here just keep byte counts sane.
            return scaled_size

        return MemoryHierarchyConfig(
            l1i_size=shrink(self.l1i_size, self.l1i_assoc * self.line_size),
            l1i_assoc=self.l1i_assoc,
            l1d_size=shrink(self.l1d_size, self.l1d_assoc * self.line_size),
            l1d_assoc=self.l1d_assoc,
            l2_size=shrink(self.l2_size, self.l2_assoc * self.line_size * 2),
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
        self._now = 0
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
        for fill in self._iprefetcher.on_miss(addr, line):
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
