"""Basic-block predecode cache: decode each static block once, replay many.

The experiment protocol replays the same assembled programs hundreds of
times (boot, warming requests, cold/warm measured requests), so every
piece of per-instruction work that depends only on the static program —
class dispatch, PCs, register lanes, stride addresses, I-cache line
splits — is done once.  This module decodes each *static*
:class:`~repro.sim.isa.base.AssembledBlock` exactly once per consumer
into flat tuples, and replays those:

* ``atomic_run``  — timed in-order replay for ``AtomicCpu.run_program``:
  one step per repeat instruction or fetch point, and one step per
  unrolled segment, replayed by one ``CoreMemSystem.replay`` call over
  the segment's I-cache line split,
* ``o3_stream``   — resolved instruction *runs* (one tuple per repeat
  instruction, loop/call edge or unrolled segment) consumed by the O3
  model's pipeline loop and by the two consumers below,
* ``warm_runs``   — untimed functional warming over ``o3_stream``'s runs:
  ``BaseCpu.warm_program`` warms the whole stream and each warm-up
  region of sampled O3 the runs it covers,
* ``instructions`` — the dynamic instruction stream, one
  ``(pc, icls, addr, taken)`` per instance, expanded from ``o3_stream``
  for the program report and the validators.

Boot blocks are straight-line segments of up to millions of unrolled
instructions that each replay once per process, so the Atomic decode
of an :class:`~repro.sim.isa.base.UnrolledRun` does no per-instance
work in Python and caches nothing per instance.

Replay is deterministic for a given (program, ISA, seed): the two
walkers, ``atomic_run`` and ``o3_stream``, draw address patterns and
branch outcomes from the same trace rng in the same order, so every
replay mode sees one dynamic stream, and a run
makes the same cache/TLB/DRAM accesses at the same cycles and PCs every
time.  The tier-1 suite pins that behaviour with literal goldens (stat
dumps, RunResults, memory-call streams and trace event logs) in
``tests/sim/test_predecode.py`` and ``tests/sim/test_sampled_goldens.py``.
Both walkers stop at the same call depth, :data:`_MAX_CALL_DEPTH`.

Decoded forms are cached on the ``AssembledProgram`` instance itself
(keyed by consumer and line granularity), so they share the lifetime of
the static instructions they index and never go stale.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import accumulate, repeat
from typing import Iterator, List, Optional, Tuple

from repro.sim.isa import ir
from repro.sim.isa.base import (
    ADDR_REG,
    FP_CHAIN_BASE,
    INT_CHAIN_BASE,
    ZERO_REG,
    AssembledBlock,
    AssembledCall,
    AssembledLoop,
    InstrClass,
    UnrolledRun,
)

_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE
_BRANCH = InstrClass.BRANCH
_SYSCALL = InstrClass.SYSCALL
_NUM_CLASSES = len(InstrClass.NAMES)

#: Nested calls a replay may make; one more raises ``RecursionError``.
_MAX_CALL_DEPTH = 64

#: Process-wide counter, read by the repository benchmark's host tracer:
#: ``decoded_blocks`` counts decode misses (first replay of a block per
#: consumer flavour).
STATS: dict = {"decoded_blocks": 0}


def _cache_for(assembled, key) -> dict:
    """Per-program decode cache for one (consumer, line-shift) flavour."""
    caches = assembled.__dict__.get("_predecode")
    if caches is None:
        caches = assembled._predecode = {}
    per = caches.get(key)
    if per is None:
        per = caches[key] = {}
    return per


def _stride_addrs(region, pattern, count: int) -> Optional[Tuple[int, ...]]:
    """Precomputed absolute addresses for rng-free stride patterns.

    A stride pattern's offsets draw no rng, so they can be taken at
    decode time.  Returns ``None`` when the pattern draws from the trace
    rng (random / hot-cold / unknown subclasses), in which case
    addresses must be materialised at replay time to keep the draw
    order intact.
    """
    if type(pattern) is not ir.StridePattern:
        return None
    base = region.base
    return tuple(base + offset
                 for offset in pattern.offsets(region, count, None))


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
# Decoded step vocabulary (tag first).  Repeat instructions:
#   (0, pc, line)                        fetch point: ifetch on line change
#   (1, n)                               n plain instructions: cycles += n
#   (2, n)                               n branch-probability draws + n cycles
#   (3, n)                               n syscalls: cycles += 21 * n
#   (4, write, pc, addrs)                memory run, precomputed addresses
#   (5, write, pc, region, pattern, n)   memory run, rng-drawn addresses
# Each UnrolledRun is one step that holds nothing per instance but the
# run's own ``sizes``, and one mem.replay() call replays it over its
# I-cache line split ``pcs, ns`` (``_split_lines``): per line, a fetch
# on line change at pcs[i], then the line's ns[i] instances, with every
# access below the fetch in replay's frame.
#   (6, pcs, ns, draws)                  compute / branch run: a p<1
#                                        branch run first draws its
#                                        ``draws`` outcomes; each line
#                                        then takes ns[i] cycles
#   (7, write, pcs, ns, sizes, region, pattern)
#                                        memory run: each instance takes
#                                        one cycle and one access; one
#                                        pattern.offsets() call gives
#                                        the run's addresses
#
# Plain cycles accumulate across consecutive non-memory, non-drawing
# repeat instructions and flush before any step that observes the cycle
# count or the rng, so every ifetch() and data_access() sees the cycle
# of a one-instruction-at-a-time walk.  Neither reads the trace rng, so
# a run's outcome draws may all come before its fetches: the rng sees
# the stream order.


def _split_lines(pc, sizes, line_shift):
    """Split an unrolled run by I-cache line: ``(pcs, ns)`` arrays.

    ``pcs[i]`` is the PC of the first instance that starts in the run's
    i-th line and ``ns[i]`` how many instances start there.  Bisecting
    the run's accumulated PCs (an array dropped on return) keeps the
    Python loop to one pass per line.  Sizes are at least one byte, so
    no line holds more than ``1 << line_shift`` instances: that bounds
    each bisect window.
    """
    starts = array("Q", accumulate(sizes, initial=pc))
    count = len(sizes)
    width = 1 << line_shift
    mask = width - 1
    pcs = array("Q")
    ns = array("I")
    add_pc = pcs.append
    add_n = ns.append
    index = 0
    while index < count:
        pc = starts[index]
        end = bisect_left(starts, (pc | mask) + 1, index + 1,
                          min(index + width, count))
        add_pc(pc)
        add_n(end - index)
        index = end
    return pcs, ns


def _decode_atomic_run(run, line_shift, append, counts):
    """Decode one :class:`UnrolledRun` to one step; returns its last line.

    The step replays the same fetches, cycles, per-access PCs and
    addresses, and rng draws as one instruction at a time would,
    without any per-instance step.
    """
    icls = run.icls
    counts[icls] += run.count
    sizes = run.sizes
    pcs, ns = _split_lines(run.base_pc, sizes, line_shift)
    if icls == _LOAD or icls == _STORE:
        append((7, icls == _STORE, pcs, ns, sizes, run.region, run.pattern))
    else:
        draws = run.count if icls == _BRANCH and run.probability < 1.0 else 0
        append((6, pcs, ns, draws))
    return pcs[-1] >> line_shift


def _decode_atomic_block(block, line_shift: int):
    steps: List[tuple] = []
    append = steps.append
    counts = [0] * _NUM_CLASSES
    prev_line = -1
    pending = 0
    for segment in block.segments:
        if type(segment) is UnrolledRun:
            if pending:
                append((1, pending))
                pending = 0
            prev_line = _decode_atomic_run(segment, line_shift, append,
                                           counts)
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
                addrs = _stride_addrs(instr.region, instr.pattern, n)
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

    Each instruction costs one cycle, plus its I-cache fetch when it
    starts a new line, its data access for a load or store, and 20 more
    for a syscall's trap entry and exit.
    """
    rng = random.Random("%d|%d|trace" % (assembled.program.seed, seed))
    rng_random = rng.random
    line_shift = mem._line_shift
    ifetch = mem.ifetch
    data_access = mem.data_access
    replay = mem.replay
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
                        for _ in range(step[3]):
                            rng_random()
                        cycles, current_line = replay(
                            step[1], step[2], cycles, current_line)
                    elif tag == 7:
                        sizes = step[4]
                        region = step[5]
                        cycles, current_line = replay(
                            step[2], step[3], cycles, current_line, sizes,
                            region.base,
                            step[6].offsets(region, len(sizes), rng),
                            step[1])
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
# O3 run stream
# ---------------------------------------------------------------------------
#
# The O3 model consumes *runs*: one tuple per repeat instruction, per
# loop/call edge and per unrolled segment,
#
#   (count, icls, pc, line, pcs, srcs, dst, lanes, serializing, latency,
#    busy, memkind, addrs, takens)
#
# with ``pc``/``line`` those of the first instance; ``pcs`` None when
# every instance shares ``pc`` (repeat instructions, edges), else the
# per-instance PCs of an unrolled segment; ``lanes`` either None or a
# tuple of per-rotation (srcs, dst) pairs (instance i uses
# lanes[i % len]); ``memkind`` 0/1/2 for none/load/store; ``addrs`` an
# indexable of per-instance addresses for memory runs; ``takens``
# True/False for constant branch outcomes, a list of bools for
# probabilistic branches, None otherwise.  Repeat runs carry no
# per-instance arrays: their counts scale with the time scale.
#
# Cached decoded entries are (tag, payload) pairs: tag 0 is a fully
# resolved run yielded as-is; tags 1/2 carry a run's first twelve fields
# plus an rng-dependent memory / branch template, resolved per execution
# — resolution draws from the trace rng in stream order, since a run's
# draws are contiguous in the dynamic stream.
#
# The O3 timing tables are decoded into every run, so they live here,
# next to the decoder: each cached run is complete by construction.

#: Execution latency (cycles) per instruction class; loads are dynamic.
_OP_LATENCY = {
    InstrClass.IALU: 1,
    InstrClass.IMUL: 3,
    InstrClass.IDIV: 20,
    InstrClass.FALU: 3,
    InstrClass.FMUL: 4,
    InstrClass.FDIV: 12,
    InstrClass.STORE: 1,
    InstrClass.BRANCH: 1,
    InstrClass.CALL: 1,
    InstrClass.RET: 1,
    InstrClass.SYSCALL: 30,
    InstrClass.CSR: 10,
    InstrClass.NOP: 1,
}

#: Unpipelined units hold their FU for the whole latency.
_UNPIPELINED = frozenset({InstrClass.IDIV, InstrClass.FDIV})

#: Serializing instructions drain the ROB before dispatch.
_SERIALIZING = frozenset({InstrClass.SYSCALL, InstrClass.CSR})

#: The dict/set views above, flattened into tuples indexed by
#: instruction class.
_LATENCY_BY_CLASS = tuple(
    _OP_LATENCY.get(icls, 1) for icls in range(_NUM_CLASSES)
)
_BUSY_BY_CLASS = tuple(
    (_OP_LATENCY.get(icls, 1) if icls in _UNPIPELINED else 1)
    for icls in range(_NUM_CLASSES)
)
_SERIALIZING_BY_CLASS = tuple(
    icls in _SERIALIZING for icls in range(_NUM_CLASSES)
)


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


def _edge_run(instr, taken, line_shift):
    icls = instr.icls
    return (1, icls, instr.pc, instr.pc >> line_shift, None, instr.srcs,
            instr.dst, None, _SERIALIZING_BY_CLASS[icls],
            _LATENCY_BY_CLASS[icls], _BUSY_BY_CLASS[icls], 0, None, taken)


def _decode_o3_run(run, line_shift):
    """Decode one :class:`UnrolledRun` to a single O3 entry.

    Instance ``i`` sits at ``pcs[i]`` and uses ``lanes[i % ilp]``, the
    register lane its chain position ``chain + i`` gives it.
    """
    icls = run.icls
    count = run.count
    pc = run.base_pc
    pcs = tuple(accumulate(run.sizes[:-1], initial=pc))
    ilp = run.ilp
    rotation = [(run.chain + index) % ilp % 24 for index in range(ilp)]
    if icls == _LOAD:
        lanes = tuple(((ADDR_REG,), INT_CHAIN_BASE + lane)
                      for lane in rotation)
    elif icls == _STORE:
        lanes = tuple(((INT_CHAIN_BASE + lane, ADDR_REG), -1)
                      for lane in rotation)
    elif icls == _BRANCH:
        lanes = tuple(((INT_CHAIN_BASE + lane,), -1) for lane in rotation)
    else:  # compute: dst = lane register, srcs = (lane, zero)
        base = FP_CHAIN_BASE if run.fp else INT_CHAIN_BASE
        lanes = tuple(((base + lane, ZERO_REG), base + lane)
                      for lane in rotation)
    srcs, dst = lanes[0]
    head = (count, icls, pc, pc >> line_shift, pcs, srcs, dst, lanes,
            _SERIALIZING_BY_CLASS[icls], _LATENCY_BY_CLASS[icls],
            _BUSY_BY_CLASS[icls])
    if icls == _LOAD or icls == _STORE:
        head += (1 if icls == _LOAD else 2,)
        addrs = _stride_addrs(run.region, run.pattern, count)
        if addrs is None:
            return (1, (head, run.region, run.pattern))
        return (0, head + (addrs, None))
    head += (0,)
    if icls != _BRANCH:
        return (0, head + (None, None))
    if run.probability < 1.0:
        return (2, (head, run.probability))
    return (0, head + (None, True))


def _decode_o3_block(block, line_shift):
    entries: List[tuple] = []
    append = entries.append
    for segment in block.segments:
        if type(segment) is UnrolledRun:
            append(_decode_o3_run(segment, line_shift))
            continue
        for instr in segment:
            icls = instr.icls
            pc = instr.pc
            count = instr.repeat
            head = (count, icls, pc, pc >> line_shift, None, instr.srcs,
                    instr.dst, _make_lanes(instr),
                    _SERIALIZING_BY_CLASS[icls], _LATENCY_BY_CLASS[icls],
                    _BUSY_BY_CLASS[icls])
            if instr.is_mem:
                head += (1 if icls == _LOAD else 2,)
                addrs = _stride_addrs(instr.region, instr.pattern, count)
                if addrs is None:
                    append((1, (head, instr.region, instr.pattern)))
                else:
                    append((0, head + (addrs, None)))
            elif icls == _BRANCH and instr.taken_probability < 1.0:
                append((2, (head + (0,), instr.taken_probability)))
            else:
                append((0, head + (0, None,
                                   True if icls == _BRANCH else None)))
    return entries


def o3_stream(assembled, seed, line_shift) -> Iterator[tuple]:
    """The O3 model's instruction-run stream.

    The full-detail pipeline, the sampled fast-forward, warm-up and
    detail windows, and functional warming (:func:`warm_runs`) consume
    this stream, so every O3 execution mode and every warmed request
    sees the same runs.
    """
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
                        node, line_shift)
                for tag, payload in decoded:
                    if tag == 0:
                        yield payload
                    elif tag == 1:
                        head, region, pattern = payload
                        base = region.base
                        yield head + ([base + offset for offset in
                                       pattern.offsets(region, head[0], rng)],
                                      None)
                    else:
                        head, probability = payload
                        yield head + (None, [rng_random() < probability
                                             for _ in range(head[0])])
            elif kind is AssembledLoop:
                pair = blocks.get(id(node))
                if pair is None:
                    backedge = node.backedge
                    pair = blocks[id(node)] = (
                        _edge_run(backedge, True, line_shift),
                        _edge_run(backedge, False, line_shift),
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
                        _edge_run(node.call_instr, None, line_shift),
                        _edge_run(node.ret_instr, None, line_shift),
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


def warm_runs(runs, mem, bpred, current_line, class_counts) -> int:
    """Untimed functional warming over O3 runs; returns the last line.

    Per instance, in stream order: a fetch touch when the I-cache line
    changes from ``current_line`` (-1 for none), then a load's or
    store's data touch or, when ``bpred`` is given, a branch's
    training on its outcome.  Each run's instance count is added to
    ``class_counts``.  :func:`o3_stream` draws the trace rng whether or
    not a predictor trains, and neither touch reads it, so warming sees
    the stream every replay mode sees.  One loop per run kind keeps the
    per-instance work to what that kind warms, and an unrolled compute
    run, which warms only its fetches, steps one I-cache line at a time.
    """
    line_shift = mem._line_shift
    warm_touch = mem.warm_touch
    predict = bpred.predict_and_update if bpred is not None else None
    for run in runs:
        (count, icls, pc, line, pcs, _, _, _, _, _, _, memkind, addrs,
         takens) = run
        class_counts[icls] += count
        if predict is None:
            takens = None
        elif type(takens) is bool:
            takens = repeat(takens, count)
        if pcs is None:
            # A repeat instruction or an edge: every instance at one PC.
            if line != current_line:
                warm_touch(pc, True)
                current_line = line
            if memkind:
                write = memkind == 2
                for addr in addrs:
                    warm_touch(addr, False, write, pc)
            elif takens is not None:
                for taken in takens:
                    predict(pc, taken)
        elif memkind:
            write = memkind == 2
            for pc, addr in zip(pcs, addrs):
                line = pc >> line_shift
                if line != current_line:
                    warm_touch(pc, True)
                    current_line = line
                warm_touch(addr, False, write, pc)
        elif takens is not None:
            for pc, taken in zip(pcs, takens):
                line = pc >> line_shift
                if line != current_line:
                    warm_touch(pc, True)
                    current_line = line
                predict(pc, taken)
        else:
            # Unrolled compute touches only its lines: one step per line,
            # bisecting the increasing PCs for the next line's first.
            index = 0
            while index < count:
                pc = pcs[index]
                line = pc >> line_shift
                if line != current_line:
                    warm_touch(pc, True)
                    current_line = line
                index = bisect_left(pcs, (line + 1) << line_shift,
                                    index + 1, count)
    return current_line


def instructions(assembled,
                 seed: int = 0) -> Iterator[Tuple[int, int, int, bool]]:
    """The dynamic instruction stream: ``(pc, icls, addr, taken)`` each.

    ``addr`` is the effective byte address of a load or store and -1
    otherwise; ``taken`` is the branch outcome, False for non-branches.
    Expands :func:`o3_stream`'s runs (at 64-byte lines, whose decode the
    default O3 core shares), so it draws the trace rng exactly as
    replay does.
    """
    for run in o3_stream(assembled, seed, 6):
        count, icls, pc = run[0], run[1], run[2]
        pcs, addrs, takens = run[4], run[12], run[13]
        for index in range(count):
            yield (pc if pcs is None else pcs[index], icls,
                   -1 if addrs is None else addrs[index],
                   takens[index] if type(takens) is list else takens is True)
