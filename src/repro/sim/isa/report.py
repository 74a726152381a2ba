"""Program introspection: footprints and instruction-mix reports.

Work models are only as good as their shapes; this module answers "what
does this invocation program actually look like" — static code bytes per
routine, dynamic instruction mix, distinct cache lines touched — the
numbers one checks before believing a simulated cycle count.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.sim.isa.base import AssembledProgram, InstrClass
from repro.sim.isa.predecode import instructions

LINE_SIZE = 64


class ProgramReport:
    """Static and dynamic profile of one assembled program."""

    def __init__(self, assembled: AssembledProgram, seed: int = 0):
        self.name = assembled.name
        self.isa = assembled.isa.name
        self.routine_code_bytes: Dict[str, int] = {
            name: routine.code_size
            for name, routine in assembled.routines.items()
        }
        self.dynamic_by_class: Dict[str, int] = {
            name: 0 for name in InstrClass.NAMES
        }
        self.dynamic_instructions = 0
        code_lines: Set[int] = set()
        data_lines: Set[int] = set()
        branches = taken = 0
        for pc, icls, addr, was_taken in instructions(assembled, seed):
            self.dynamic_by_class[InstrClass.NAMES[icls]] += 1
            self.dynamic_instructions += 1
            code_lines.add(pc // LINE_SIZE)
            if addr >= 0:
                data_lines.add(addr // LINE_SIZE)
            if icls == InstrClass.BRANCH:
                branches += 1
                taken += was_taken
        self.code_lines_touched = len(code_lines)
        self.data_lines_touched = len(data_lines)
        self.branch_count = branches
        self.branch_taken_fraction = taken / branches if branches else 0.0

    @property
    def static_code_bytes(self) -> int:
        return sum(self.routine_code_bytes.values())

    @property
    def code_footprint_bytes(self) -> int:
        return self.code_lines_touched * LINE_SIZE

    @property
    def data_footprint_bytes(self) -> int:
        return self.data_lines_touched * LINE_SIZE

    @property
    def memory_fraction(self) -> float:
        memory_ops = self.dynamic_by_class["load"] + self.dynamic_by_class["store"]
        return memory_ops / self.dynamic_instructions \
            if self.dynamic_instructions else 0.0

    def render(self) -> str:
        lines = [
            "Program report: %s (%s)" % (self.name, self.isa),
            "  dynamic instructions : %d" % self.dynamic_instructions,
            "  static code          : %d bytes in %d routines"
            % (self.static_code_bytes, len(self.routine_code_bytes)),
            "  code footprint       : %d bytes (%d lines)"
            % (self.code_footprint_bytes, self.code_lines_touched),
            "  data footprint       : %d bytes (%d lines)"
            % (self.data_footprint_bytes, self.data_lines_touched),
            "  memory-op fraction   : %.1f%%" % (self.memory_fraction * 100),
            "  branches             : %d (%.0f%% taken)"
            % (self.branch_count, self.branch_taken_fraction * 100),
            "  mix:",
        ]
        for name, count in sorted(self.dynamic_by_class.items(),
                                  key=lambda item: -item[1]):
            if count:
                lines.append("    %-8s %8d (%.1f%%)" % (
                    name, count, count / self.dynamic_instructions * 100))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "ProgramReport(%s: %d insts, %dB code)" % (
            self.name, self.dynamic_instructions, self.code_footprint_bytes,
        )


def report(assembled: AssembledProgram, seed: int = 0) -> ProgramReport:
    """Profile an assembled program (one functional trace pass)."""
    return ProgramReport(assembled, seed=seed)
