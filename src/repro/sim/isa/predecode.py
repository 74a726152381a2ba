"""Basic-block predecode cache: decode each static block once, replay many.

The legacy trace path (:mod:`repro.sim.isa.trace`) re-derives every
dynamic instruction from the IR structure on every run: one generator
frame per block, per-instance class dispatch, per-access pattern
arithmetic, and a ``(static, addr, taken)`` tuple allocation per
instruction.  The experiment protocol replays the same assembled
programs hundreds of times (boot, warming requests, cold/warm measured
requests), so all of that work is redundant after the first replay.

This module decodes each *static* :class:`~repro.sim.isa.base.AssembledBlock`
exactly once per consumer into flat tuples, and replays those:

* ``atomic_run``  — timed in-order replay for ``AtomicCpu.run_program``,
* ``warm_run``    — untimed functional warming for ``BaseCpu.warm_program``,
* ``o3_stream``   — resolved instruction *runs* (one tuple per group of
  consecutive dynamic instances of a static instruction) consumed by the
  O3 model's merged pipeline loop.

This is the only fast tier.  Replay is **bit-identical** to the legacy
trace path, which stays as the reference: the same rng draws in the
same order (address patterns and branch outcomes), the same cycle
number at every cache/TLB/DRAM access, the same per-access PC (feeding
PC-indexed prefetchers), and the same statistics.  The tier-1 suite
asserts this equivalence by calling :func:`set_enabled` — the one
switch to the legacy path — with the cache forced on and off.

Decoded forms are cached on the ``AssembledProgram`` instance itself
(keyed by consumer and line granularity), so they share the lifetime of
the static instructions they index and never go stale.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.sim.isa import ir
from repro.sim.isa.base import (
    AssembledBlock,
    AssembledCall,
    AssembledLoop,
    InstrClass,
    UnrolledRun,
)
from repro.sim.isa.trace import _MAX_CALL_DEPTH

_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE
_BRANCH = InstrClass.BRANCH
_SYSCALL = InstrClass.SYSCALL
_NUM_CLASSES = len(InstrClass.NAMES)

_ENABLED = True

#: Process-wide counter, read by the repository benchmark's host tracer:
#: ``decoded_blocks`` counts decode misses (first replay of a block per
#: consumer flavour).
STATS: dict = {"decoded_blocks": 0}


def enabled() -> bool:
    """Whether replay uses the predecode cache (default: yes)."""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Toggle the predecode cache; returns the previous setting.

    Turning it off selects the legacy trace path, the reference the
    equivalence tests and ``bench-smoke --with-legacy`` compare against.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


def _cache_for(assembled, key) -> dict:
    """Per-program decode cache for one (consumer, line-shift) flavour."""
    caches = assembled.__dict__.get("_predecode")
    if caches is None:
        caches = assembled._predecode = {}
    per = caches.get(key)
    if per is None:
        per = caches[key] = {}
    return per


def _stride_addrs(instr, count: int) -> Optional[Tuple[int, ...]]:
    """Precomputed absolute addresses for rng-free stride patterns.

    Returns ``None`` when the pattern draws from the trace rng (random /
    hot-cold / unknown subclasses), in which case addresses must be
    materialised at replay time to keep the draw order intact.
    """
    pattern = instr.pattern
    if type(pattern) is not ir.StridePattern:
        return None
    region = instr.region
    size = region.size
    base = region.base
    stride = pattern.stride
    offset = pattern.start % size
    addrs: List[int] = []
    append = addrs.append
    for _ in range(count):
        append(base + offset)
        offset = (offset + stride) % size
    return tuple(addrs)


def program_length(assembled) -> int:
    """Total dynamic instruction count of one replay (seed-independent).

    Dynamic counts come from static ``repeat`` values, loop trip counts
    and call edges — never from the trace rng — so the length is a pure
    property of the assembled program.  The sampled simulation path uses
    it to decide whether a run is long enough to sample at all.  Cached
    on the assembled object.
    """
    cached = assembled.__dict__.get("_insts_total")
    if cached is not None:
        return cached
    routines = assembled.routines
    block_counts: dict = {}

    def body_count(body, depth: int) -> int:
        total = 0
        for node in body:
            kind = type(node)
            if kind is AssembledBlock:
                n = block_counts.get(id(node))
                if n is None:
                    n = 0
                    for segment in node.segments:
                        if type(segment) is UnrolledRun:
                            n += segment.count
                        else:
                            n += sum(instr.repeat for instr in segment)
                    block_counts[id(node)] = n
                total += n
            elif kind is AssembledLoop:
                # Per trip: the body plus the backedge branch.
                total += node.trips * (body_count(node.body, depth) + 1)
            elif kind is AssembledCall:
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                total += 2 + body_count(routines[node.routine].body,
                                        depth + 1)
            else:
                raise TypeError("unknown assembled node %r" % (node,))
        return total

    total = body_count(routines[assembled.entry].body, 0)
    assembled._insts_total = total
    return total


# ---------------------------------------------------------------------------
# Atomic replay
# ---------------------------------------------------------------------------
#
# Decoded step vocabulary (tag first):
#   (0, pc, line)                        fetch point: ifetch on line change
#   (1, n)                               n plain instructions: cycles += n
#   (2, n)                               n branch-probability draws + n cycles
#   (3, n)                               n syscalls: cycles += 21 * n
#   (4, write, pc, addrs)                memory run, precomputed addresses
#   (5, write, pc, region, pattern, n)   memory run, rng-drawn addresses
#   (6, write, pairs)                    memory run, precomputed (pc, addr)
#                                        pairs spanning several static
#                                        instructions (unrolled lowering)
#
# Plain cycles accumulate across consecutive non-memory, non-drawing
# instructions and flush before any step that observes the cycle count
# or the rng, so every data_access() sees exactly the legacy cycle.


def _decode_atomic_run(run, line_shift, steps, append, counts, prev_line,
                       pending):
    """Decode one :class:`UnrolledRun` straight from its compact form.

    Emits the same access stream the materialized per-instruction form
    decodes to — same fetch points, same per-access PCs and addresses —
    without ever creating the ``StaticInstr`` objects.
    """
    icls = run.icls
    counts[icls] += run.count
    pc = run.base_pc
    sizes = run.sizes
    if icls == _LOAD or icls == _STORE:
        if pending:
            append((1, pending))
            pending = 0
        write = icls == _STORE
        pattern = run.pattern
        if type(pattern) is ir.StridePattern:
            region = run.region
            rbase = region.base
            rsize = region.size
            stride = pattern.stride
            start = pattern.start
            pairs: List[tuple] = []
            for index, size in enumerate(sizes):
                line = pc >> line_shift
                if line != prev_line:
                    if pairs:
                        append((6, write, tuple(pairs)))
                        pairs = []
                    append((0, pc, line))
                    prev_line = line
                pairs.append((pc, rbase + (start + index * stride) % rsize))
                pc += size
            if pairs:
                append((6, write, tuple(pairs)))
        else:
            region = run.region
            for size in sizes:
                line = pc >> line_shift
                if line != prev_line:
                    append((0, pc, line))
                    prev_line = line
                append((5, write, pc, region, pattern, 1))
                pc += size
    elif icls == _BRANCH and run.probability < 1.0:
        if pending:
            append((1, pending))
            pending = 0
        for size in sizes:
            line = pc >> line_shift
            if line != prev_line:
                append((0, pc, line))
                prev_line = line
            if steps and steps[-1][0] == 2:
                steps[-1] = (2, steps[-1][1] + 1)
            else:
                append((2, 1))
            pc += size
    else:  # compute / always-taken branch: plain cycles
        for size in sizes:
            line = pc >> line_shift
            if line != prev_line:
                if pending:
                    append((1, pending))
                    pending = 0
                append((0, pc, line))
                prev_line = line
            pending += 1
            pc += size
    return prev_line, pending


def _decode_atomic_block(block, line_shift: int):
    steps: List[tuple] = []
    append = steps.append
    counts = [0] * _NUM_CLASSES
    prev_line = -1
    pending = 0
    for segment in block.segments:
        if type(segment) is UnrolledRun:
            prev_line, pending = _decode_atomic_run(
                segment, line_shift, steps, append, counts, prev_line,
                pending)
            continue
        for instr in segment:
            pc = instr.pc
            line = pc >> line_shift
            if line != prev_line:
                if pending:
                    append((1, pending))
                    pending = 0
                append((0, pc, line))
                prev_line = line
            icls = instr.icls
            n = instr.repeat
            counts[icls] += n
            if instr.is_mem:
                if pending:
                    append((1, pending))
                    pending = 0
                write = icls == _STORE
                addrs = _stride_addrs(instr, n)
                if addrs is not None:
                    append((4, write, pc, addrs))
                else:
                    append((5, write, pc, instr.region, instr.pattern, n))
            elif icls == _BRANCH and instr.taken_probability < 1.0:
                if pending:
                    append((1, pending))
                    pending = 0
                if steps and steps[-1][0] == 2:
                    steps[-1] = (2, steps[-1][1] + n)
                else:
                    append((2, n))
            elif icls == _SYSCALL:
                if pending:
                    append((1, pending))
                    pending = 0
                if steps and steps[-1][0] == 3:
                    steps[-1] = (3, steps[-1][1] + n)
                else:
                    append((3, n))
            else:
                pending += n
    if pending:
        append((1, pending))
    pairs = tuple((icls, c) for icls, c in enumerate(counts) if c)
    return steps, pairs


def atomic_run(assembled, seed: int, mem) -> Tuple[int, List[int]]:
    """Timed in-order replay; returns ``(cycles, class_counts)``.

    Bit-identical to ``AtomicCpu.run_program``'s legacy loop over
    ``assembled.trace(seed)``: same fetches, same per-access cycles and
    PCs, same rng consumption.
    """
    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    line_shift = mem._line_shift
    ifetch = mem.ifetch
    data_access = mem.data_access
    blocks = _cache_for(assembled, ("atomic", line_shift))
    routines = assembled.routines
    class_counts = [0] * _NUM_CLASSES
    stats = STATS

    def run_body(body, cycles, current_line, depth):
        for node in body:
            kind = type(node)
            if kind is AssembledBlock:
                decoded = blocks.get(id(node))
                if decoded is None:
                    stats["decoded_blocks"] += 1
                    decoded = blocks[id(node)] = _decode_atomic_block(
                        node, line_shift)
                steps, pairs = decoded
                for step in steps:
                    tag = step[0]
                    if tag == 1:
                        cycles += step[1]
                    elif tag == 4:
                        write = step[1]
                        pc = step[2]
                        for addr in step[3]:
                            cycles += 1
                            cycles += data_access(addr, write, cycles, pc)
                    elif tag == 0:
                        line = step[2]
                        if line != current_line:
                            cycles += ifetch(step[1], cycles)
                            current_line = line
                    elif tag == 5:
                        write = step[1]
                        pc = step[2]
                        region = step[3]
                        base = region.base
                        for offset in step[4].offsets(region, step[5], rng):
                            cycles += 1
                            cycles += data_access(base + offset, write,
                                                  cycles, pc)
                    elif tag == 6:
                        write = step[1]
                        for pc, addr in step[2]:
                            cycles += 1
                            cycles += data_access(addr, write, cycles, pc)
                    elif tag == 2:
                        n = step[1]
                        for _ in range(n):
                            rng_random()
                        cycles += n
                    else:  # tag == 3: syscall trap entry/exit
                        cycles += 21 * step[1]
                for icls, count in pairs:
                    class_counts[icls] += count
            elif kind is AssembledLoop:
                backedge = node.backedge
                bpc = backedge.pc
                bline = bpc >> line_shift
                body_nodes = node.body
                trips = node.trips
                for _ in range(trips):
                    cycles, current_line = run_body(
                        body_nodes, cycles, current_line, depth)
                    if bline != current_line:
                        cycles += ifetch(bpc, cycles)
                        current_line = bline
                    cycles += 1
                class_counts[backedge.icls] += trips
            elif kind is AssembledCall:
                call_instr = node.call_instr
                line = call_instr.pc >> line_shift
                if line != current_line:
                    cycles += ifetch(call_instr.pc, cycles)
                    current_line = line
                cycles += 1
                class_counts[call_instr.icls] += 1
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                cycles, current_line = run_body(
                    routines[node.routine].body, cycles, current_line,
                    depth + 1)
                ret_instr = node.ret_instr
                line = ret_instr.pc >> line_shift
                if line != current_line:
                    cycles += ifetch(ret_instr.pc, cycles)
                    current_line = line
                cycles += 1
                class_counts[ret_instr.icls] += 1
            else:
                raise TypeError("unknown assembled node %r" % (node,))
        return cycles, current_line

    cycles, _ = run_body(routines[assembled.entry].body, 0, -1, 0)
    return cycles, class_counts


# ---------------------------------------------------------------------------
# Functional warming replay
# ---------------------------------------------------------------------------
#
# Decoded step vocabulary:
#   (0, pc, line)                        warm ifetch on line change
#   (1, write, pc, addrs)                memory run, precomputed addresses
#   (2, write, pc, region, pattern, n)   memory run, rng-drawn addresses
#   (3, pc, n)                           always-taken branch (trains bpred)
#   (4, pc, n, p)                        probabilistic branch (draws always,
#                                        trains bpred when attached)
#   (5, write, pairs)                    memory run, precomputed (pc, addr)
#                                        pairs spanning several static
#                                        instructions (unrolled lowering)


def _decode_warm_run(run, line_shift, append, prev_line):
    """Decode one :class:`UnrolledRun` for warming, skipping materialize."""
    icls = run.icls
    pc = run.base_pc
    sizes = run.sizes
    if icls == _LOAD or icls == _STORE:
        write = icls == _STORE
        pattern = run.pattern
        if type(pattern) is ir.StridePattern:
            region = run.region
            rbase = region.base
            rsize = region.size
            stride = pattern.stride
            start = pattern.start
            pairs: List[tuple] = []
            for index, size in enumerate(sizes):
                line = pc >> line_shift
                if line != prev_line:
                    if pairs:
                        append((5, write, tuple(pairs)))
                        pairs = []
                    append((0, pc, line))
                    prev_line = line
                pairs.append((pc, rbase + (start + index * stride) % rsize))
                pc += size
            if pairs:
                append((5, write, tuple(pairs)))
        else:
            region = run.region
            for size in sizes:
                line = pc >> line_shift
                if line != prev_line:
                    append((0, pc, line))
                    prev_line = line
                append((2, write, pc, region, pattern, 1))
                pc += size
    elif icls == _BRANCH:
        taken = run.probability >= 1.0
        probability = run.probability
        for size in sizes:
            line = pc >> line_shift
            if line != prev_line:
                append((0, pc, line))
                prev_line = line
            if taken:
                append((3, pc, 1))
            else:
                append((4, pc, 1, probability))
            pc += size
    else:  # compute: only fetch points matter for warming
        for size in sizes:
            line = pc >> line_shift
            if line != prev_line:
                append((0, pc, line))
                prev_line = line
            pc += size
    return prev_line


def _decode_warm_block(block, line_shift: int):
    steps: List[tuple] = []
    append = steps.append
    count = 0
    prev_line = -1
    for segment in block.segments:
        if type(segment) is UnrolledRun:
            count += segment.count
            prev_line = _decode_warm_run(segment, line_shift, append,
                                         prev_line)
            continue
        for instr in segment:
            pc = instr.pc
            line = pc >> line_shift
            if line != prev_line:
                append((0, pc, line))
                prev_line = line
            icls = instr.icls
            n = instr.repeat
            count += n
            if instr.is_mem:
                write = icls == _STORE
                addrs = _stride_addrs(instr, n)
                if addrs is not None:
                    append((1, write, pc, addrs))
                else:
                    append((2, write, pc, instr.region, instr.pattern, n))
            elif icls == _BRANCH:
                if instr.taken_probability >= 1.0:
                    append((3, pc, n))
                else:
                    append((4, pc, n, instr.taken_probability))
    return steps, count


def warm_run(assembled, seed: int, mem, bpred=None) -> int:
    """Untimed functional pass; returns the instruction count.

    Mirrors ``BaseCpu.warm_program``: caches and TLBs update on the same
    access stream, the branch predictor (when supplied) trains on every
    branch outcome, and the trace rng is consumed identically — branch
    probability draws happen whether or not a predictor is attached,
    because the legacy trace generator draws them unconditionally.
    """
    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    line_shift = mem._line_shift
    warm_touch = mem.warm_touch
    predict = bpred.predict_and_update if bpred is not None else None
    blocks = _cache_for(assembled, ("warm", line_shift))
    routines = assembled.routines
    total = [0]
    stats = STATS

    def run_body(body, current_line, depth):
        for node in body:
            kind = type(node)
            if kind is AssembledBlock:
                decoded = blocks.get(id(node))
                if decoded is None:
                    stats["decoded_blocks"] += 1
                    decoded = blocks[id(node)] = _decode_warm_block(
                        node, line_shift)
                steps, block_count = decoded
                total[0] += block_count
                for step in steps:
                    tag = step[0]
                    if tag == 1:
                        write = step[1]
                        pc = step[2]
                        for addr in step[3]:
                            warm_touch(addr, False, write, pc)
                    elif tag == 0:
                        line = step[2]
                        if line != current_line:
                            warm_touch(step[1], True)
                            current_line = line
                    elif tag == 2:
                        write = step[1]
                        pc = step[2]
                        region = step[3]
                        base = region.base
                        for offset in step[4].offsets(region, step[5], rng):
                            warm_touch(base + offset, False, write, pc)
                    elif tag == 3:
                        if predict is not None:
                            pc = step[1]
                            for _ in range(step[2]):
                                predict(pc, True)
                    elif tag == 5:
                        write = step[1]
                        for pc, addr in step[2]:
                            warm_touch(addr, False, write, pc)
                    else:  # tag == 4
                        pc = step[1]
                        probability = step[3]
                        if predict is not None:
                            for _ in range(step[2]):
                                predict(pc, rng_random() < probability)
                        else:
                            for _ in range(step[2]):
                                rng_random()
            elif kind is AssembledLoop:
                backedge = node.backedge
                bpc = backedge.pc
                bline = bpc >> line_shift
                body_nodes = node.body
                last = node.trips - 1
                for trip in range(node.trips):
                    current_line = run_body(body_nodes, current_line, depth)
                    if bline != current_line:
                        warm_touch(bpc, True)
                        current_line = bline
                    if predict is not None:
                        predict(bpc, trip != last)
                total[0] += node.trips
            elif kind is AssembledCall:
                line = node.call_instr.pc >> line_shift
                if line != current_line:
                    warm_touch(node.call_instr.pc, True)
                    current_line = line
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                current_line = run_body(
                    routines[node.routine].body, current_line, depth + 1)
                line = node.ret_instr.pc >> line_shift
                if line != current_line:
                    warm_touch(node.ret_instr.pc, True)
                    current_line = line
                total[0] += 2
            else:
                raise TypeError("unknown assembled node %r" % (node,))
        return current_line

    run_body(routines[assembled.entry].body, -1, 0)
    return total[0]


# ---------------------------------------------------------------------------
# O3 run stream
# ---------------------------------------------------------------------------
#
# The O3 model consumes *runs*: one tuple per group of consecutive
# dynamic instances of a static instruction,
#
#   (count, icls, pc, line, srcs, dst, lanes, serializing, latency,
#    busy, memkind, addrs, takens)
#
# with ``lanes`` either None or a tuple of per-rotation (srcs, dst)
# pairs (instance i uses lanes[i % len]); ``memkind`` 0/1/2 for
# none/load/store; ``addrs`` an indexable of per-instance addresses for
# memory runs; ``takens`` True/False for constant branch outcomes, an
# indexable of bools for probabilistic branches, None otherwise.
#
# Cached decoded entries are (tag, payload) pairs: tag 0 is a fully
# resolved run yielded as-is, tags 1/2 carry rng-dependent memory /
# branch templates resolved per execution — resolution draws from the
# trace rng in exactly the legacy order, since a run's draws are
# contiguous in the legacy stream too.


def _make_lanes(instr) -> Optional[tuple]:
    rotate = instr.rotate
    if not rotate:
        return None
    icls = instr.icls
    dst = instr.dst
    lanes = []
    for lane_reg in rotate:
        lane_srcs = (lane_reg,) if dst >= 0 or icls == _STORE else instr.srcs
        lane_dst = lane_reg if dst >= 0 else -1
        lanes.append((lane_srcs, lane_dst))
    return tuple(lanes)


def _edge_run(instr, taken, line_shift, lat_t, busy_t, ser_t):
    icls = instr.icls
    return (1, icls, instr.pc, instr.pc >> line_shift, instr.srcs,
            instr.dst, None, ser_t[icls], lat_t[icls], busy_t[icls],
            0, None, taken)


def _decode_o3_run(run, line_shift, lat_t, busy_t, ser_t, entries):
    """Decode one :class:`UnrolledRun` to per-instance O3 entries.

    Emits exactly what decoding the materialized instructions would —
    same PCs, register lanes, addresses, and rng templates — without
    creating the ``StaticInstr`` objects.
    """
    from repro.sim.isa.base import (
        ADDR_REG, FP_CHAIN_BASE, INT_CHAIN_BASE, ZERO_REG,
    )
    icls = run.icls
    pc = run.base_pc
    sizes = run.sizes
    chain = run.chain
    ilp = run.ilp
    ser = ser_t[icls]
    lat = lat_t[icls]
    busy = busy_t[icls]
    append = entries.append
    if icls == _LOAD or icls == _STORE:
        load = icls == _LOAD
        memkind = 1 if load else 2
        regs = [INT_CHAIN_BASE + (lane % 24) for lane in range(ilp)]
        region = run.region
        pattern = run.pattern
        if type(pattern) is ir.StridePattern:
            rbase = region.base
            rsize = region.size
            stride = pattern.stride
            start = pattern.start
            for index, size in enumerate(sizes):
                reg = regs[(chain + index) % ilp]
                srcs = (ADDR_REG,) if load else (reg, ADDR_REG)
                dst = reg if load else -1
                addr = rbase + (start + index * stride) % rsize
                append((0, (1, icls, pc, pc >> line_shift, srcs, dst,
                            None, ser, lat, busy, memkind, (addr,), None)))
                pc += size
        else:
            for index, size in enumerate(sizes):
                reg = regs[(chain + index) % ilp]
                srcs = (ADDR_REG,) if load else (reg, ADDR_REG)
                dst = reg if load else -1
                append((1, (1, icls, pc, pc >> line_shift, srcs, dst,
                            None, ser, lat, busy, memkind, region,
                            pattern)))
                pc += size
    elif icls == _BRANCH:
        regs = [INT_CHAIN_BASE + (lane % 24) for lane in range(ilp)]
        probability = run.probability
        if probability < 1.0:
            for index, size in enumerate(sizes):
                reg = regs[(chain + index) % ilp]
                append((2, (1, icls, pc, pc >> line_shift, (reg,), -1,
                            None, ser, lat, busy, probability)))
                pc += size
        else:
            for index, size in enumerate(sizes):
                reg = regs[(chain + index) % ilp]
                append((0, (1, icls, pc, pc >> line_shift, (reg,), -1,
                            None, ser, lat, busy, 0, None, True)))
                pc += size
    else:  # compute: dst = lane register, srcs = (lane, zero)
        base = FP_CHAIN_BASE if run.fp else INT_CHAIN_BASE
        lanes = [(base + (lane % 24), (base + (lane % 24), ZERO_REG))
                 for lane in range(ilp)]
        for index, size in enumerate(sizes):
            reg, srcs = lanes[(chain + index) % ilp]
            append((0, (1, icls, pc, pc >> line_shift, srcs, reg,
                        None, ser, lat, busy, 0, None, None)))
            pc += size


def _decode_o3_block(block, line_shift, lat_t, busy_t, ser_t):
    entries: List[tuple] = []
    for segment in block.segments:
        if type(segment) is UnrolledRun:
            _decode_o3_run(segment, line_shift, lat_t, busy_t, ser_t,
                           entries)
            continue
        for instr in segment:
            icls = instr.icls
            pc = instr.pc
            count = instr.repeat
            lanes = _make_lanes(instr)
            line = pc >> line_shift
            ser = ser_t[icls]
            lat = lat_t[icls]
            busy = busy_t[icls]
            if instr.is_mem:
                memkind = 1 if icls == _LOAD else 2
                addrs = _stride_addrs(instr, count)
                if addrs is None:
                    entries.append((1, (count, icls, pc, line, instr.srcs,
                                        instr.dst, lanes, ser, lat, busy,
                                        memkind, instr.region,
                                        instr.pattern)))
                else:
                    entries.append((0, (count, icls, pc, line, instr.srcs,
                                        instr.dst, lanes, ser, lat, busy,
                                        memkind, addrs, None)))
            elif icls == _BRANCH and instr.taken_probability < 1.0:
                entries.append((2, (count, icls, pc, line, instr.srcs,
                                    instr.dst, lanes, ser, lat, busy,
                                    instr.taken_probability)))
            else:
                takens = True if icls == _BRANCH else None
                entries.append((0, (count, icls, pc, line, instr.srcs,
                                    instr.dst, lanes, ser, lat, busy,
                                    0, None, takens)))
    return entries


def _o3_decoded_runs(assembled, seed, line_shift, lat_t, busy_t, ser_t):
    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    blocks = _cache_for(assembled, ("o3", line_shift))
    routines = assembled.routines
    stats = STATS

    def run_body(body, depth):
        for node in body:
            kind = type(node)
            if kind is AssembledBlock:
                decoded = blocks.get(id(node))
                if decoded is None:
                    stats["decoded_blocks"] += 1
                    decoded = blocks[id(node)] = _decode_o3_block(
                        node, line_shift, lat_t, busy_t, ser_t)
                for tag, payload in decoded:
                    if tag == 0:
                        yield payload
                    elif tag == 1:
                        (count, icls, pc, line, srcs, dst, lanes, ser,
                         lat, busy, memkind, region, pattern) = payload
                        base = region.base
                        addrs = [base + offset for offset in
                                 pattern.offsets(region, count, rng)]
                        yield (count, icls, pc, line, srcs, dst, lanes,
                               ser, lat, busy, memkind, addrs, None)
                    else:
                        (count, icls, pc, line, srcs, dst, lanes, ser,
                         lat, busy, probability) = payload
                        takens = [rng_random() < probability
                                  for _ in range(count)]
                        yield (count, icls, pc, line, srcs, dst, lanes,
                               ser, lat, busy, 0, None, takens)
            elif kind is AssembledLoop:
                pair = blocks.get(id(node))
                if pair is None:
                    backedge = node.backedge
                    pair = blocks[id(node)] = (
                        _edge_run(backedge, True, line_shift,
                                  lat_t, busy_t, ser_t),
                        _edge_run(backedge, False, line_shift,
                                  lat_t, busy_t, ser_t),
                    )
                taken_run, fall_run = pair
                body_nodes = node.body
                last = node.trips - 1
                for trip in range(node.trips):
                    for run in run_body(body_nodes, depth):
                        yield run
                    yield taken_run if trip != last else fall_run
            elif kind is AssembledCall:
                pair = blocks.get(id(node))
                if pair is None:
                    pair = blocks[id(node)] = (
                        _edge_run(node.call_instr, None, line_shift,
                                  lat_t, busy_t, ser_t),
                        _edge_run(node.ret_instr, None, line_shift,
                                  lat_t, busy_t, ser_t),
                    )
                yield pair[0]
                if depth >= _MAX_CALL_DEPTH:
                    raise RecursionError(
                        "call depth exceeded %d in %r"
                        % (_MAX_CALL_DEPTH, node.routine))
                for run in run_body(routines[node.routine].body, depth + 1):
                    yield run
                yield pair[1]
            else:
                raise TypeError("unknown assembled node %r" % (node,))

    return run_body(routines[assembled.entry].body, 0)


def _o3_legacy_runs(assembled, seed, line_shift, lat_t, busy_t, ser_t):
    """Adapter: the legacy trace stream in run form (count=1 per instance).

    Resolves register rotation exactly as the legacy O3 loops did —
    tracking consecutive instances of one static instruction — so the
    merged pipeline loop behaves identically with the cache disabled.
    """
    prev_static = None
    rotation = 0
    is_store = _STORE
    for static, addr, taken in assembled.trace(seed):
        if static is prev_static:
            rotation += 1
        else:
            prev_static = static
            rotation = 0
        icls = static.icls
        rotate = static.rotate
        if rotate:
            lane_reg = rotate[rotation % len(rotate)]
            srcs = ((lane_reg,) if static.dst >= 0 or icls == is_store
                    else static.srcs)
            dst = lane_reg if static.dst >= 0 else -1
        else:
            srcs = static.srcs
            dst = static.dst
        memkind = 1 if icls == _LOAD else (2 if icls == is_store else 0)
        yield (1, icls, static.pc, static.pc >> line_shift, srcs, dst,
               None, ser_t[icls], lat_t[icls], busy_t[icls], memkind,
               (addr,), taken)


def o3_stream(assembled, seed, line_shift, lat_t, busy_t, ser_t) -> Iterator[tuple]:
    """The O3 model's instruction-run stream (decoded, or legacy).

    Both the merged pipeline loop and the sampled fast-forward/warmup
    windows consume this stream, so the tier choice made here covers
    every O3 execution mode.
    """
    if _ENABLED:
        return _o3_decoded_runs(assembled, seed, line_shift,
                                lat_t, busy_t, ser_t)
    return _o3_legacy_runs(assembled, seed, line_shift,
                           lat_t, busy_t, ser_t)
