"""Main-memory timing model.

A bank/row-buffer model of the single-channel DDR3-1600 configuration from
Table 4.1: row-buffer hits pay CAS only, conflicts pay precharge +
activate + CAS, and a simple controller-queue term adds pressure under
bursts.  Latencies are expressed in *core cycles at 1 GHz* so they compose
directly with the CPU models.  The access, row-hit and row-conflict
counters are plain ints behind ``_CounterView`` stats, as in the caches.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.mem.cache import _CounterView
from repro.sim.statistics import StatGroup


class DramModel:
    """DDR3-1600-like single-channel memory timing."""

    def __init__(
        self,
        banks: int = 8,
        row_bytes: int = 8192,
        cas_cycles: int = 44,
        activate_cycles: int = 44,
        precharge_cycles: int = 44,
        controller_cycles: int = 20,
        queue_window: int = 64,
        queue_penalty: int = 8,
        stats_parent: Optional[StatGroup] = None,
    ):
        if banks <= 0 or row_bytes <= 0:
            raise ValueError("banks and row_bytes must be positive")
        self.banks = banks
        self.row_bytes = row_bytes
        self.cas_cycles = cas_cycles
        self.activate_cycles = activate_cycles
        self.precharge_cycles = precharge_cycles
        self.controller_cycles = controller_cycles
        self.queue_window = queue_window
        self.queue_penalty = queue_penalty

        self._open_rows: Dict[int, int] = {}
        self._last_access_cycle = -(10**9)
        self._recent_accesses = 0

        self.accesses = 0
        self.row_hits = 0
        self.row_conflicts = 0

        stats = (stats_parent or StatGroup("orphan")).group("dram")
        self.stat_reads = stats.add(_CounterView(
            "accesses", self, "accesses", "memory accesses"))
        self.stat_row_hits = stats.add(_CounterView(
            "rowHits", self, "row_hits", "row buffer hits"))
        self.stat_row_conflicts = stats.add(_CounterView(
            "rowConflicts", self, "row_conflicts", "row buffer conflicts"))

    def access(self, addr: int, now_cycle: int = 0) -> int:
        """Latency in core cycles for one line fill from DRAM."""
        self.accesses += 1
        row = addr // self.row_bytes
        bank = row % self.banks
        latency = self.controller_cycles + self.cas_cycles

        open_row = self._open_rows.get(bank)
        if open_row == row:
            self.row_hits += 1
        else:
            self.row_conflicts += 1
            latency += self.activate_cycles
            if open_row is not None:
                latency += self.precharge_cycles
            self._open_rows[bank] = row

        # Crude queueing: accesses clustered within the window contend.
        if now_cycle - self._last_access_cycle <= self.queue_window:
            self._recent_accesses += 1
            latency += min(self._recent_accesses, 8) * self.queue_penalty
        else:
            self._recent_accesses = 0
        self._last_access_cycle = now_cycle
        return latency

    def state_dict(self) -> Dict:
        # The controller queue (_last_access_cycle/_recent_accesses) is
        # timing state: a restored run must observe the same clustering
        # window a continuing run would, or restore-then-run diverges
        # from checkpoint-then-run.
        return {
            "open_rows": dict(self._open_rows),
            "last_access_cycle": self._last_access_cycle,
            "recent_accesses": self._recent_accesses,
        }

    def load_state(self, state: Dict) -> None:
        self._open_rows = dict(state["open_rows"])
        self._last_access_cycle = state.get("last_access_cycle", -(10**9))
        self._recent_accesses = state.get("recent_accesses", 0)

    def __repr__(self) -> str:
        return "DramModel(%d banks, %dB rows)" % (self.banks, self.row_bytes)
