"""AtomicSimpleCPU analog: in-order, one instruction at a time.

Memory accesses complete "atomically" — their latency is charged
immediately and nothing overlaps.  Exactly like gem5's Atomic CPU it is
not a realistic performance model; the harness uses it to boot the system
and take checkpoints (setup mode), because the KVM model is unstable
(§3.4.1).

The fast path replays predecoded basic blocks
(:mod:`repro.sim.isa.predecode`); the legacy per-instruction loop is kept
as the reference, selected by ``predecode.set_enabled(False)``, for the
equivalence tests that pin the two paths bit-identical.
"""

from __future__ import annotations

from repro.sim.cpu.base import BaseCpu, RunResult
from repro.sim.isa import predecode
from repro.sim.isa.base import InstrClass


class AtomicCpu(BaseCpu):
    """Functional-with-latency in-order model."""

    model_name = "atomic"

    def run_program(self, assembled, seed: int = 0) -> RunResult:
        if predecode.enabled():
            cycles, class_counts = predecode.atomic_run(assembled, seed,
                                                        self.mem)
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
        return self._run_legacy(assembled, seed)

    def _run_legacy(self, assembled, seed: int = 0) -> RunResult:
        mem = self.mem
        line_mask = ~(mem.config.line_size - 1)
        names = InstrClass.NAMES
        by_class = self.stat_by_class

        cycles = 0
        instructions = 0
        loads = stores = branches = 0
        current_line = -1

        is_load = InstrClass.LOAD
        is_store = InstrClass.STORE
        is_branch = InstrClass.BRANCH
        is_syscall = InstrClass.SYSCALL

        for static, addr, _taken in assembled.trace(seed):
            pc_line = static.pc & line_mask
            if pc_line != current_line:
                cycles += mem.ifetch(static.pc, cycles)
                current_line = pc_line
            icls = static.icls
            cycles += 1
            if icls == is_load:
                cycles += mem.data_access(addr, False, cycles, static.pc)
                loads += 1
            elif icls == is_store:
                cycles += mem.data_access(addr, True, cycles, static.pc)
                stores += 1
            elif icls == is_branch:
                branches += 1
            elif icls == is_syscall:
                cycles += 20  # trap entry/exit overhead, no pipeline to drain
            instructions += 1
            by_class.inc(names[icls])

        self.stat_cycles.inc(cycles)
        self.stat_insts.inc(instructions)
        return RunResult(cycles, instructions, loads, stores, branches)
