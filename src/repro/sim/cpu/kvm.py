"""KVM-accelerated CPU model analog — fast, and unstable on m5 ops.

gem5's KVM core runs guest code directly on the host for near-native
speed, at the cost of simulation fidelity and — as the thesis documents in
§3.4.1 and the vSwarm-u authors acknowledge — stability: the simulator
frequently froze when an m5 magic instruction (most often a checkpoint)
executed under KVM.  We reproduce that behaviour: the model executes
programs functionally at "host speed" (no timing), and m5 operations
raise :class:`KvmInstabilityError` with a seeded probability, which is why
the harness's setup mode defaults to the Atomic core exactly as the
thesis's workflow does.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sim.cpu.base import BaseCpu, RunResult
from repro.sim.isa import predecode
from repro.sim.mem.hierarchy import CoreMemSystem
from repro.sim.statistics import StatGroup


class KvmInstabilityError(RuntimeError):
    """The simulation froze while executing an m5 op under KVM."""

    def __init__(self, op: str):
        super().__init__(
            "KVM core froze while executing m5 op %r "
            "(known vSwarm-u/gem5 instability; use the Atomic core for setup)" % op
        )
        self.op = op


class KvmCpu(BaseCpu):
    """Host-speed functional model with the documented instability."""

    model_name = "kvm"

    #: Empirical failure rate of m5 ops under KVM ("a lot of times", §3.4.1).
    M5_OP_FAILURE_PROBABILITY = 0.4

    def __init__(
        self,
        core_id: int,
        mem: CoreMemSystem,
        stats_parent: Optional[StatGroup] = None,
        seed: int = 0,
    ):
        super().__init__(core_id, mem, stats_parent)
        self._rng = random.Random("kvm|%d|%d" % (core_id, seed))
        self.stat_m5_ops = self.stats.scalar("m5Ops", "magic instructions executed")
        self.stat_m5_failures = self.stats.scalar("m5Failures", "m5 ops that froze")

    def run_program(self, assembled, seed: int = 0) -> RunResult:
        """Execute functionally; KVM provides no timing, only progress.

        Progress is the instruction count, which depends on the program's
        structure and not on the seed, so it is counted without walking
        the trace.  The caches are *not* warmed — virtualized execution
        bypasses the simulated memory system entirely, one of the
        reasons checkpoints taken from KVM boots behave inconsistently.
        """
        instructions = predecode.program_length(assembled)
        self.stat_insts.inc(instructions)
        # Report wall-clock-like "cycles": one per instruction, untrusted.
        return RunResult(instructions, instructions, exit_cause="kvm functional run")

    def execute_m5_op(self, op: str) -> None:
        """Execute a magic instruction; may freeze (raise)."""
        self.stat_m5_ops.inc()
        if self._rng.random() < self.M5_OP_FAILURE_PROBABILITY:
            self.stat_m5_failures.inc()
            raise KvmInstabilityError(op)
