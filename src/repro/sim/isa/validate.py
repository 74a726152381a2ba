"""Assembled-program validators.

Work models are code, and code has bugs; these checks catch the ways a
bad model silently corrupts an experiment — overlapping code layouts,
memory accesses escaping their regions, unreachable routines, loops whose
backedges point nowhere.  The harness does not run them on every build
(they cost a replay of the program); tests and `python -m repro trace`
do.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List

from repro.sim.isa.base import (
    AssembledBlock,
    AssembledCall,
    AssembledLoop,
    AssembledProgram,
    InstrClass,
    UnrolledRun,
)
from repro.sim.isa.predecode import instructions

_MEMORY = (InstrClass.LOAD, InstrClass.STORE)


class ValidationIssue:
    """One problem found in an assembled program."""

    def __init__(self, severity: str, message: str):
        if severity not in ("error", "warning"):
            raise ValueError("severity must be error or warning")
        self.severity = severity
        self.message = message

    def __repr__(self) -> str:
        return "[%s] %s" % (self.severity, self.message)


def validate_assembled(assembled: AssembledProgram,
                       trace_seed: int = 0) -> List[ValidationIssue]:
    """Run all static and dynamic checks; returns the issues found."""
    issues: List[ValidationIssue] = []
    issues.extend(_check_layout(assembled))
    issues.extend(_check_structure(assembled))
    issues.extend(_check_dynamic(assembled, trace_seed))
    return issues


def assert_valid(assembled: AssembledProgram, trace_seed: int = 0) -> None:
    """Raise if any error-severity issue exists."""
    errors = [issue for issue in validate_assembled(assembled, trace_seed)
              if issue.severity == "error"]
    if errors:
        raise AssertionError(
            "program %s failed validation:\n%s"
            % (assembled.name, "\n".join(str(error) for error in errors))
        )


def _check_layout(assembled: AssembledProgram) -> List[ValidationIssue]:
    """Routines must occupy disjoint, positive code ranges."""
    issues: List[ValidationIssue] = []
    ranges = []
    for name, routine in assembled.routines.items():
        if routine.code_size <= 0:
            issues.append(ValidationIssue(
                "error", "routine %s has non-positive code size" % name))
            continue
        ranges.append((routine.code_base,
                       routine.code_base + routine.code_size, name))
    ranges.sort()
    for (start_a, end_a, name_a), (start_b, _end_b, name_b) in zip(
            ranges, ranges[1:]):
        if start_b < end_a:
            issues.append(ValidationIssue(
                "error", "code ranges of %s and %s overlap" % (name_a, name_b)))
    return issues


def _walk_instrs(body):
    """Every static instruction as ``(pc, icls, region)``, in layout
    order; an unrolled run gives one entry per instance."""
    for node in body:
        if isinstance(node, AssembledBlock):
            for segment in node.segments:
                if type(segment) is UnrolledRun:
                    for pc in accumulate(segment.sizes[:-1],
                                         initial=segment.base_pc):
                        yield pc, segment.icls, segment.region
                else:
                    for instr in segment:
                        yield instr.pc, instr.icls, instr.region
        elif isinstance(node, AssembledLoop):
            yield from _walk_instrs(node.body)
            backedge = node.backedge
            yield backedge.pc, backedge.icls, backedge.region
        elif isinstance(node, AssembledCall):
            for instr in (node.call_instr, node.ret_instr):
                yield instr.pc, instr.icls, instr.region


def _check_structure(assembled: AssembledProgram) -> List[ValidationIssue]:
    """PCs inside each routine stay within its range and increase."""
    issues: List[ValidationIssue] = []
    called = {assembled.entry}
    for name, routine in assembled.routines.items():
        last_pc = -1
        end = routine.code_base + routine.code_size
        for pc, icls, region in _walk_instrs(routine.body):
            if not routine.code_base <= pc < end:
                issues.append(ValidationIssue(
                    "error",
                    "instr at 0x%x escapes routine %s [0x%x, 0x%x)"
                    % (pc, name, routine.code_base, end)))
            if pc < last_pc:
                issues.append(ValidationIssue(
                    "error", "PCs not monotonic in routine %s" % name))
            last_pc = pc
            if icls in _MEMORY and region is None:
                issues.append(ValidationIssue(
                    "error", "memory instr at 0x%x has no region" % pc))
        for node in routine.body:
            if isinstance(node, AssembledCall):
                called.add(node.routine)
        _collect_calls(routine.body, called)
    for name in assembled.routines:
        if name not in called:
            issues.append(ValidationIssue(
                "warning", "routine %s is never called" % name))
    return issues


def _collect_calls(body, called) -> None:
    for node in body:
        if isinstance(node, AssembledCall):
            called.add(node.routine)
        elif isinstance(node, AssembledLoop):
            _collect_calls(node.body, called)


def _check_dynamic(assembled: AssembledProgram,
                   trace_seed: int) -> List[ValidationIssue]:
    """Replay once: addresses in bounds, branches carry outcomes."""
    issues: List[ValidationIssue] = []
    regions = {pc: region
               for routine in assembled.routines.values()
               for pc, icls, region in _walk_instrs(routine.body)
               if icls in _MEMORY}
    bad_addresses = 0
    for pc, icls, addr, taken in instructions(assembled, trace_seed):
        if icls in _MEMORY:
            region = regions[pc]
            if not region.base <= addr < region.end:
                bad_addresses += 1
        elif icls == InstrClass.BRANCH and not isinstance(taken, bool):
            issues.append(ValidationIssue(
                "error", "branch at 0x%x yields non-bool outcome" % pc))
    if bad_addresses:
        issues.append(ValidationIssue(
            "error", "%d memory accesses escaped their regions" % bad_addresses))
    return issues
