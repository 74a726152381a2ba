"""CPU model base class and run-result record.

A CPU model executes an :class:`~repro.sim.isa.base.AssembledProgram`
against its core's memory hierarchy and returns a :class:`RunResult` with
the counters the thesis's evaluation collects per request: cycles,
committed instructions, CPI, and (via the stat tree) cache miss counts.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.isa import predecode
from repro.sim.isa.base import InstrClass
from repro.sim.mem.hierarchy import CoreMemSystem
from repro.sim.statistics import StatGroup


class RunResult:
    """Counters for one program execution on one CPU model."""

    __slots__ = ("cycles", "instructions", "loads", "stores", "branches", "exit_cause")

    def __init__(
        self,
        cycles: int,
        instructions: int,
        loads: int = 0,
        stores: int = 0,
        branches: int = 0,
        exit_cause: str = "program completed",
    ):
        self.cycles = cycles
        self.instructions = instructions
        self.loads = loads
        self.stores = stores
        self.branches = branches
        self.exit_cause = exit_cause

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:
        return "RunResult(cycles=%d, insts=%d, cpi=%.2f)" % (
            self.cycles, self.instructions, self.cpi,
        )


class BaseCpu:
    """Common plumbing: the stat group every CPU model publishes."""

    model_name = "base"

    def __init__(self, core_id: int, mem: CoreMemSystem, stats_parent: Optional[StatGroup] = None):
        self.core_id = core_id
        self.mem = mem
        # Each model publishes under cpuN.<model> so that switching CPU
        # models (Atomic for setup, O3 for evaluation) keeps distinct
        # counter namespaces, as gem5's switchable CPUs do.
        stats = (stats_parent or StatGroup("orphan")).group("cpu%d" % core_id).group(
            self.model_name
        )
        self.stats = stats
        self.stat_cycles = stats.scalar("numCycles", "cycles simulated")
        self.stat_insts = stats.scalar("committedInsts", "instructions committed")
        self.stat_by_class = stats.vector(
            "instsByClass", list(InstrClass.NAMES), "committed instructions by class"
        )
        stats.formula(
            "cpi",
            lambda: (self.stat_cycles.value() / self.stat_insts.value())
            if self.stat_insts.value()
            else 0.0,
            "cycles per instruction",
        )

    def run_program(self, assembled, seed: int = 0) -> RunResult:
        raise NotImplementedError

    def warm_program(self, assembled, seed: int = 0, bpred=None) -> int:
        """Functional pass: update cache/TLB/predictor state, no timing.

        Returns the number of instructions traversed.  Used for the
        untimed requests (2..9) between the cold and warm measurements.
        ``bpred`` (the detailed core's branch predictor, if any) trains on
        the branch stream, exactly what functional warming is for.
        Replays predecoded blocks (:func:`repro.sim.isa.predecode.
        warm_run`).
        """
        return predecode.warm_run(assembled, seed, self.mem, bpred)

    def __repr__(self) -> str:
        return "%s(core%d)" % (type(self).__name__, self.core_id)
