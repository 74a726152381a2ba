"""AtomicSimpleCPU analog: in-order, one instruction at a time.

Memory accesses complete "atomically" — their latency is charged
immediately and nothing overlaps.  Exactly like gem5's Atomic CPU it is
not a realistic performance model; the harness uses it to boot the system
and take checkpoints (setup mode), because the KVM model is unstable
(§3.4.1).

Replay runs predecoded basic blocks (:func:`repro.sim.isa.predecode.
atomic_run`).
"""

from __future__ import annotations

from repro.sim.cpu.base import BaseCpu, RunResult
from repro.sim.isa import predecode
from repro.sim.isa.base import InstrClass


class AtomicCpu(BaseCpu):
    """Functional-with-latency in-order model."""

    model_name = "atomic"

    def run_program(self, assembled, seed: int = 0) -> RunResult:
        cycles, class_counts = predecode.atomic_run(assembled, seed, self.mem)
        names = InstrClass.NAMES
        by_class = self.stat_by_class
        instructions = 0
        for icls, count in enumerate(class_counts):
            if count:
                by_class.inc(names[icls], count)
                instructions += count
        self.stat_cycles.inc(cycles)
        self.stat_insts.inc(instructions)
        return RunResult(cycles, instructions,
                         class_counts[InstrClass.LOAD],
                         class_counts[InstrClass.STORE],
                         class_counts[InstrClass.BRANCH])
