"""Out-of-order CPU timing model (gem5 DerivO3CPU analog).

An instruction-grained scoreboard model of a modern OoO core, loosely
based — like gem5's O3 — on the Alpha 21264 pipeline: width-limited
in-order dispatch and commit, out-of-order issue constrained by register
dependences and functional-unit bandwidth, a 192-entry ROB, 32+32 LSQ,
rename register limits, a tournament branch predictor with front-end
redirect penalties, and demand-driven I-/D-cache access latencies.

The model processes the dynamic trace in program order but computes each
instruction's issue time from its operands' ready times, so independent
chains overlap exactly as they would in hardware.  This
"timing-directed trace simulation" style keeps per-instruction cost low
enough to run the thesis's full experiment matrix in pure Python while
retaining cycle-level sensitivity to cache misses, mispredicts and ILP —
the effects the thesis's figures are built on.

One method, :meth:`O3Cpu._pipeline`, holds the pipeline: full detail
runs it once over the whole stream, and sampled simulation
(:mod:`repro.sim.sampling`) runs it once per detail window.  It replays
a compute run by the chunk (see :func:`_chunk_state`): an unrolled run
one I-cache line at a time, each line's outcome memoized by the state
it starts from, and a repeat run until a chunk leaves the state it
found, when every remaining whole chunk is applied in one step.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapreplace
from math import lcm
from typing import Optional

from repro.obs.tracer import (
    TRACK_COMMIT,
    TRACK_DISPATCH,
    TRACK_FETCH,
    TRACK_ISSUE,
    TRACK_PIPELINE,
)
from repro.sim.cpu.base import BaseCpu, RunResult
from repro.sim.cpu.bpred import make_predictor
from repro.sim.isa import predecode
from repro.sim.isa.base import NUM_ARCH_REGS, InstrClass
from repro.sim.mem.hierarchy import CoreMemSystem
from repro.sim.sampling import FAST_FORWARD, WARMUP
from repro.sim.statistics import StatGroup

#: Traced runs sample the pipeline counters once per this many committed
#: instructions (a Chrome counter track, cheap enough to keep dense).
_SAMPLE_PERIOD = 1024


class O3Config:
    """Pipeline parameters (defaults = Table 4.1 plus gem5 O3 defaults).

    A size, width or unit count below one, or a negative front-end
    depth or mispredict penalty, raises a ``ValueError`` naming the
    field.
    """

    def __init__(
        self,
        rob_entries: int = 192,
        lq_entries: int = 32,
        sq_entries: int = 32,
        int_regs: int = 256,
        float_regs: int = 256,
        dispatch_width: int = 8,
        commit_width: int = 8,
        frontend_depth: int = 5,
        mispredict_penalty: int = 10,
        int_alus: int = 4,
        int_mult_units: int = 1,
        int_div_units: int = 1,
        fp_units: int = 2,
        mem_ports: int = 2,
        branch_predictor: str = "tournament",
    ):
        self.rob_entries = rob_entries
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self.int_regs = int_regs
        self.float_regs = float_regs
        self.dispatch_width = dispatch_width
        self.commit_width = commit_width
        self.frontend_depth = frontend_depth
        self.mispredict_penalty = mispredict_penalty
        self.int_alus = int_alus
        self.int_mult_units = int_mult_units
        self.int_div_units = int_div_units
        self.fp_units = fp_units
        self.mem_ports = mem_ports
        self.branch_predictor = branch_predictor
        for name in _POSITIVE_FIELDS:
            _check_count(name, getattr(self, name), 1)
        for name in ("frontend_depth", "mispredict_penalty"):
            _check_count(name, getattr(self, name), 0)


#: Sizes and widths a pipeline needs at least one of.
_POSITIVE_FIELDS = ("rob_entries", "lq_entries", "sq_entries", "int_regs",
                    "float_regs", "dispatch_width", "commit_width",
                    "int_alus", "int_mult_units", "int_div_units",
                    "fp_units", "mem_ports")


def _check_count(name, value, least):
    if type(value) is not int or value < least:
        raise ValueError("O3Config.%s must be an integer >= %d, got %r"
                         % (name, least, value))


_NUM_CLASSES = len(InstrClass.NAMES)


def _fu_pools(cfg: O3Config) -> tuple:
    """Functional-unit pools indexed by instruction class.

    Each pool is a min-heap of its units' free-at cycles, and classes
    that share units share one list.  The units of a pool are identical,
    so only the multiset of free-at cycles matters: issuing at
    ``max(ready, free[0])`` and ``heapreplace``-ing that unit's new
    free-at gives the same cycles as a lowest-index argmin scan.
    """
    alu = [0] * cfg.int_alus
    mul = [0] * cfg.int_mult_units
    div = [0] * cfg.int_div_units
    fp = [0] * cfg.fp_units
    mem = [0] * cfg.mem_ports
    # IALU IMUL IDIV FALU FMUL FDIV LOAD STORE BRANCH CALL RET SYSCALL
    # CSR NOP
    return (alu, mul, div, fp, fp, fp, mem, mem, alu, alu, alu, alu,
            alu, alu)


def _cut(run, start, stop):
    """Instances ``start`` to ``stop`` of an O3 run, as a run of its own.

    The per-instance fields are cut (``pcs``, ``addrs`` and a list of
    ``takens``) and ``lanes`` is rotated so that the cut's instance 0
    keeps instance ``start``'s lane.  ``pc`` and ``line`` stay as they
    are: the pipeline reads them only when ``pcs`` is None, and then
    every instance shares them.
    """
    if start == 0 and stop == run[0]:
        return run
    (_, icls, pc, line, pcs, srcs, dst, lanes, serializing, latency, busy,
     memkind, addrs, takens) = run
    if pcs is not None:
        pcs = pcs[start:stop]
    if lanes is not None:
        shift = start % len(lanes)
        lanes = lanes[shift:] + lanes[:shift]
    if addrs is not None:
        addrs = addrs[start:stop]
    if type(takens) is list:
        takens = takens[start:stop]
    return (stop - start, icls, pc, line, pcs, srcs, dst, lanes,
            serializing, latency, busy, memkind, addrs, takens)


def _chunk_state(now, ready, dispatch_slots, commit_cycle, commit_slots,
                 rob, free, reg_ready, regs) -> tuple:
    """A compute chunk's pipeline state, relative to dispatch cycle ``now``.

    A compute chunk makes no memory-system or predictor call (its line
    is fetched before it) and reads and writes only the state below, so
    this tuple and the run's static timing fields decide its outcome;
    the loop's arithmetic is invariant under a shift of every cycle.
    ``ready`` is the front end's restart cycle (line ready or redirect).
    The dispatch cycle never decreases, so a restart at or before
    ``now`` can no longer delay a dispatch and an FU or register free
    at ``now + 1`` or before is as free as at ``now + 1``: those cycles
    are clipped, and ROB entries at or before ``now`` are popped here,
    as the next dispatch would pop them.  The FU pool is a sorted
    multiset, since issue only ever takes its minimum.  The commit
    cycle stays exact, however stale: the first commit's stall is the
    gap from it.
    """
    popleft = rob.popleft
    while rob and rob[0] <= now:
        popleft()
    floor = now + 1
    return (ready - now if ready > now else 0, dispatch_slots,
            commit_cycle - now, commit_slots,
            tuple(map(now.__rsub__, rob)),
            tuple(sorted([cycle - now if cycle > floor else 1
                          for cycle in free])),
            tuple([reg_ready[reg] - now if reg_ready[reg] > floor else 1
                   for reg in regs]))


def _run_statics(ident, fields, dispatch_width) -> tuple:
    """A compute run's chunking entry: ``ident`` for its static timing
    ``fields`` (class, lanes, latency, busy), the registers its lanes
    read or write, and its repeat-chunk length."""
    regs = set()
    for lane_srcs, lane_dst in fields[1]:
        regs.update(lane_srcs)
        if lane_dst >= 0:
            regs.add(lane_dst)
    return ident, tuple(sorted(regs)), lcm(len(fields[1]), dispatch_width)


class O3Cpu(BaseCpu):
    """Detailed out-of-order core model."""

    model_name = "o3"

    def __init__(
        self,
        core_id: int,
        mem: CoreMemSystem,
        stats_parent: Optional[StatGroup] = None,
        config: Optional[O3Config] = None,
    ):
        super().__init__(core_id, mem, stats_parent)
        self.config = config or O3Config()
        self.bpred = make_predictor(self.config.branch_predictor,
                                    stats_parent=self.stats)
        self.stat_mispredict_squashes = self.stats.scalar(
            "squashes", "front-end redirects from mispredicted branches"
        )
        self.stat_rob_stalls = self.stats.scalar("robStalls", "dispatch stalls on full ROB")
        self.stat_lsq_stalls = self.stats.scalar("lsqStalls", "dispatch stalls on full LSQ")
        #: Optional :class:`repro.obs.Tracer`.  Attaching one makes the
        #: run emit pipeline phase spans and dense counter samples.
        self.tracer = None

    def run_program(self, assembled, seed: int = 0, sampling=None) -> RunResult:
        if sampling is not None:
            # Exact-short-run floor: programs below the config's length
            # threshold run full detail.  Short serverless requests are
            # one-shot phases where a single extrapolated window is
            # systematically biased, and their full-detail cost is
            # negligible next to the long runs sampling accelerates.
            if predecode.program_length(assembled) >= sampling.min_insts:
                return self._run_sampled(assembled, seed, sampling)
        return self._run(assembled, seed)

    def _stream(self, assembled, seed):
        return predecode.o3_stream(assembled, seed, self.mem._line_shift)

    def _pipeline(self, runs, start, class_counts, tracer=None) -> tuple:
        """The pipeline model over an iterable of O3 runs.

        The pipeline starts cold at cycle ``start``: an empty ROB, LSQ
        and scoreboard, idle functional units and no fetched line.  Full
        detail runs it once over the whole stream from cycle 0; sampled
        mode runs it once per detail window.  Each run's instance count
        is added to ``class_counts``.  Returns the end state and, last,
        how many instances came from the memo or a fixed point::

            (last_commit, fetch_line, instructions, rob_stalls,
             lsq_stalls, squashes, fetch_stall_cycles,
             dispatch_stall_cycles, operand_wait_cycles, fu_wait_cycles,
             commit_stall_cycles, replayed)

        The stall attribution accumulators are plain integer adds kept
        unconditionally, so one loop serves traced and untraced runs,
        and the per-instruction counter-sample check is disarmed without
        a ``tracer`` by pushing ``next_sample`` beyond any instruction
        count.  A run is a repeat
        instruction, a loop/call edge or a whole unrolled segment; the
        fetch check runs before each instance's dispatch, on that
        instance's PC (``pcs[index]`` for a segment), so it fetches
        exactly where one run per instance would.

        A compute run (no data access, branch or serialization) replays
        by the chunk.  Its instance that changes the I-cache line runs
        alone and fetches the line, so a chunk never calls the memory
        system.  The rest of an unrolled run's line is one chunk, whose
        outcome (dispatch advance, end state and stall-sum deltas) is
        memoized, keyed by the run's static fields, the lane phase, the
        chunk length and :func:`_chunk_state`.  A repeat run of at least
        two chunks of lcm(lanes, dispatch width) instances steps chunk
        by chunk until one leaves the state it found, shifted by its
        advance: every remaining whole chunk then does the same, and all
        of them apply in one step.  A chunk that would reach the next
        counter sample runs instance by instance, so traced runs sample
        the same counters.  The memo lives for one call.  The tier-1
        suite pins the results with literal goldens and checks them
        against the per-instance loop.
        """
        base = tracer.now if tracer is not None else 0
        cfg = self.config
        mem = self.mem
        bpred = self.bpred
        l1_latency = mem.config.l1_latency

        # Architectural scoreboard sized from the ISA's register-index
        # space and the configured rename register files, so DSE points
        # with larger register files cannot index out of range.  The +32
        # keeps room above NUM_ARCH_REGS for address/temporary lanes.
        scoreboard_size = max(NUM_ARCH_REGS + 32, cfg.int_regs + cfg.float_regs)
        reg_ready = [0] * scoreboard_size

        rob = deque()        # commit cycles, program order
        load_queue = deque()  # completion cycles of in-flight loads
        store_queue = deque()

        fu_by_class = _fu_pools(cfg)
        # Bound-method and table hoists: the loop below runs once per
        # dynamic instruction, so every attribute/hash lookup hoisted here
        # is worth percent-level wall clock on the full matrix.
        line_shift = mem._line_shift
        ifetch = mem.ifetch
        data_access = mem.data_access
        predict_and_update = bpred.predict_and_update
        dispatch_width = cfg.dispatch_width
        commit_width = cfg.commit_width
        rob_entries = cfg.rob_entries
        lq_entries = cfg.lq_entries
        sq_entries = cfg.sq_entries
        mispredict_penalty = cfg.mispredict_penalty
        rob_popleft = rob.popleft
        rob_append = rob.append
        lq_popleft = load_queue.popleft
        lq_append = load_queue.append
        sq_popleft = store_queue.popleft
        sq_append = store_queue.append

        # Width-limited in-order stages track a (cycle, slots-used) pair.
        dispatch_cycle = start
        dispatch_slots = 0
        commit_cycle = start
        commit_slots = 0
        last_commit = start

        redirect_at = start   # front-end earliest restart after squash
        line_ready = start    # current fetch line available at this cycle
        current_line = -1

        instructions = 0
        is_branch = InstrClass.BRANCH

        # Per-run stat accumulators, returned instead of flushed per event.
        rob_stalls = 0
        lsq_stalls = 0
        squashes = 0

        # Phase attribution (cycles lost per pipeline stage); emitted
        # only when a tracer is attached but accumulated unconditionally.
        fetch_stall_cycles = 0
        dispatch_stall_cycles = 0
        operand_wait_cycles = 0
        fu_wait_cycles = 0
        commit_stall_cycles = 0
        next_sample = _SAMPLE_PERIOD if tracer is not None else (1 << 62)

        # Chunked compute replay: static fields -> (id, registers,
        # repeat-chunk length), and the line-chunk memo.
        statics = {}
        memo = {}
        replayed = 0
        # A repeat chunk is at least ``dispatch_width`` long, and a
        # repeat run needs two of them to reach a fixed point.
        least_repeat = 2 * dispatch_width

        for run in runs:
            (count, icls, pc, pc_line, pcs, srcs, dst, lanes, serializing,
             op_latency, busy, memkind, addrs, takens) = run
            free = fu_by_class[icls]
            branch_run = icls == is_branch
            lanes_len = len(lanes) if lanes is not None else 0
            takens_seq = takens if type(takens) is list else None

            static = None
            if not (memkind or branch_run or serializing) and (
                    pcs is not None or count >= least_repeat):
                fields = (icls, lanes or ((srcs, dst),), op_latency, busy)
                entry = statics.get(fields)
                if entry is None:
                    entry = statics[fields] = _run_statics(
                        len(statics), fields, dispatch_width)
                static, regs, period = entry
                if pcs is None and count < 2 * period:
                    static = None

            lo = 0
            while lo < count:
                # Instances ``lo`` to ``hi``: the whole run, or for a
                # compute run a line's first instance, which fetches the
                # line, or the rest of the line or a repeat chunk.
                hi = count
                state = outcome = None
                if static is not None:
                    line = pc_line if pcs is None else pcs[lo] >> line_shift
                    if line != current_line:
                        hi = lo + 1
                    elif pcs is not None:
                        hi = bisect_left(pcs, (line + 1) << line_shift,
                                         lo + 1, count)
                    elif count - lo >= period:
                        hi = lo + period
                    n = hi - lo
                    if line == current_line and (pcs is not None
                                                 or n == period) \
                            and instructions + n < next_sample:
                        while rob and rob[0] <= dispatch_cycle:
                            rob_popleft()
                        # A memo hit rebuilds the whole ROB, which costs
                        # more than it saves once the ROB holds more than
                        # twice the chunk's instances: such a line runs
                        # per instance, and takes the next line's first
                        # instance with it.
                        if pcs is not None and len(rob) > 2 * n:
                            if hi < count:
                                hi += 1
                        else:
                            state = _chunk_state(
                                dispatch_cycle, line_ready if line_ready >
                                redirect_at else redirect_at, dispatch_slots,
                                commit_cycle, commit_slots, rob, free,
                                reg_ready, regs)
                            if pcs is not None:
                                key = (static,
                                       lo % lanes_len if lanes_len else 0,
                                       n, state)
                                outcome = memo.get(key)
                            if outcome is None:
                                begin = dispatch_cycle
                                sums = (fetch_stall_cycles,
                                        dispatch_stall_cycles,
                                        operand_wait_cycles, fu_wait_cycles,
                                        commit_stall_cycles, rob_stalls)

                if outcome is None:
                    for index in range(lo, hi):
                        # ---- fetch: on each change of I-cache line -----
                        if pcs is not None:
                            pc = pcs[index]
                            pc_line = pc >> line_shift
                        if pc_line != current_line:
                            fetch_start = dispatch_cycle if dispatch_cycle > redirect_at else redirect_at
                            latency = ifetch(pc, fetch_start)
                            miss_extra = latency - l1_latency
                            line_ready = fetch_start + (miss_extra if miss_extra > 0 else 0)
                            current_line = pc_line

                        earliest_dispatch = line_ready if line_ready > redirect_at else redirect_at

                        # ---- dispatch (in-order, width-limited) --------
                        if earliest_dispatch > dispatch_cycle:
                            fetch_stall_cycles += earliest_dispatch - dispatch_cycle
                            dispatch_cycle = earliest_dispatch
                            dispatch_slots = 1
                        elif dispatch_slots < dispatch_width:
                            dispatch_slots += 1
                        else:
                            dispatch_cycle += 1
                            dispatch_slots = 1

                        # ROB occupancy.
                        while rob and rob[0] <= dispatch_cycle:
                            rob_popleft()
                        if len(rob) >= rob_entries:
                            stall_until = rob_popleft()
                            if stall_until > dispatch_cycle:
                                dispatch_stall_cycles += stall_until - dispatch_cycle
                                dispatch_cycle = stall_until
                                dispatch_slots = 1
                            rob_stalls += 1

                        # LSQ occupancy.
                        if memkind == 1:
                            while load_queue and load_queue[0] <= dispatch_cycle:
                                lq_popleft()
                            if len(load_queue) >= lq_entries:
                                stall_until = lq_popleft()
                                if stall_until > dispatch_cycle:
                                    dispatch_stall_cycles += stall_until - dispatch_cycle
                                    dispatch_cycle = stall_until
                                    dispatch_slots = 1
                                lsq_stalls += 1
                        elif memkind == 2:
                            while store_queue and store_queue[0] <= dispatch_cycle:
                                sq_popleft()
                            if len(store_queue) >= sq_entries:
                                stall_until = sq_popleft()
                                if stall_until > dispatch_cycle:
                                    dispatch_stall_cycles += stall_until - dispatch_cycle
                                    dispatch_cycle = stall_until
                                    dispatch_slots = 1
                                lsq_stalls += 1

                        if serializing and last_commit > dispatch_cycle:
                            # Serializing ops wait for the pipeline to drain.
                            dispatch_stall_cycles += last_commit - dispatch_cycle
                            dispatch_cycle = last_commit
                            dispatch_slots = 1

                        # ---- issue (out-of-order) ----------------------
                        if lanes_len:
                            srcs, dst = lanes[index % lanes_len]
                        ready = dispatch_cycle + 1
                        for src in srcs:
                            src_ready = reg_ready[src]
                            if src_ready > ready:
                                ready = src_ready
                        operand_wait_cycles += ready - dispatch_cycle - 1

                        # ``busy`` is 1 for loads and stores: a port for a
                        # cycle.
                        issue = free[0]
                        if ready > issue:
                            issue = ready
                        heapreplace(free, issue + busy)
                        if memkind == 1:
                            latency = data_access(addrs[index], False, issue, pc)
                            complete = issue + latency
                            lq_append(complete)
                        elif memkind == 2:
                            data_access(addrs[index], True, issue, pc)
                            complete = issue + 1
                            sq_append(complete)
                        else:
                            complete = issue + op_latency
                            if branch_run:
                                taken = takens_seq[index] if takens_seq is not None else takens
                                if not predict_and_update(pc, taken):
                                    squash_at = complete + mispredict_penalty
                                    if squash_at > redirect_at:
                                        redirect_at = squash_at
                                    squashes += 1
                        if issue > ready:
                            fu_wait_cycles += issue - ready

                        if dst >= 0:
                            reg_ready[dst] = complete

                        # ---- commit (in-order, width-limited) ----------
                        earliest_commit = complete + 1
                        if last_commit > earliest_commit:
                            earliest_commit = last_commit
                        if earliest_commit > commit_cycle:
                            commit_stall_cycles += earliest_commit - commit_cycle
                            commit_cycle = earliest_commit
                            commit_slots = 1
                        elif commit_slots < commit_width:
                            commit_slots += 1
                        else:
                            commit_cycle += 1
                            commit_slots = 1
                        last_commit = commit_cycle
                        rob_append(commit_cycle)

                        instructions += 1
                        if instructions >= next_sample:
                            next_sample += _SAMPLE_PERIOD
                            tracer.counter("o3.core%d" % self.core_id,
                                           base + commit_cycle,
                                           {"instructions": instructions,
                                            "robStalls": rob_stalls,
                                            "lsqStalls": lsq_stalls,
                                            "squashes": squashes})
                    lo = hi
                    if state is None:
                        continue
                    post = _chunk_state(
                        dispatch_cycle, line_ready if line_ready >
                        redirect_at else redirect_at, dispatch_slots,
                        commit_cycle, commit_slots, rob, free, reg_ready,
                        regs)
                    outcome = (dispatch_cycle - begin, post, (
                        fetch_stall_cycles - sums[0],
                        dispatch_stall_cycles - sums[1],
                        operand_wait_cycles - sums[2],
                        fu_wait_cycles - sums[3],
                        commit_stall_cycles - sums[4],
                        rob_stalls - sums[5]))
                    if pcs is not None:
                        memo[key] = outcome
                        continue
                    if post != state:
                        continue
                    # A fixed point: every remaining whole chunk before
                    # the next counter sample does what this one did.
                    times = (count - lo) // n
                    room = (next_sample - 1 - instructions) // n
                    if room < times:
                        times = room
                    if times <= 0:
                        continue
                else:
                    times = 1

                # ---- apply ``times`` chunks of ``outcome`` -------------
                advance, post, deltas = outcome
                dispatch_cycle += times * advance
                (_, dispatch_slots, commit_at, commit_slots, rob_at, free_at,
                 regs_at) = post
                commit_cycle = last_commit = dispatch_cycle + commit_at
                rob.clear()
                rob.extend(map(dispatch_cycle.__add__, rob_at))
                free[:] = map(dispatch_cycle.__add__, free_at)
                for reg, cycle in zip(regs, regs_at):
                    reg_ready[reg] = dispatch_cycle + cycle
                fetch_stall_cycles += times * deltas[0]
                dispatch_stall_cycles += times * deltas[1]
                operand_wait_cycles += times * deltas[2]
                fu_wait_cycles += times * deltas[3]
                commit_stall_cycles += times * deltas[4]
                rob_stalls += times * deltas[5]
                instructions += times * n
                replayed += times * n
                lo += times * n
            class_counts[icls] += count

        return (last_commit, current_line, instructions, rob_stalls,
                lsq_stalls, squashes, fetch_stall_cycles,
                dispatch_stall_cycles, operand_wait_cycles, fu_wait_cycles,
                commit_stall_cycles, replayed)

    def _flush_stats(self, class_counts, cycles, instructions, rob_stalls,
                     lsq_stalls, squashes) -> RunResult:
        """Add one run's counters to the stat tree; its RunResult."""
        names = InstrClass.NAMES
        for icls, count in enumerate(class_counts):
            if count:
                self.stat_by_class.inc(names[icls], count)
        if rob_stalls:
            self.stat_rob_stalls.inc(rob_stalls)
        if lsq_stalls:
            self.stat_lsq_stalls.inc(lsq_stalls)
        if squashes:
            self.stat_mispredict_squashes.inc(squashes)
        self.stat_cycles.inc(cycles)
        self.stat_insts.inc(instructions)
        return RunResult(cycles, instructions, class_counts[InstrClass.LOAD],
                         class_counts[InstrClass.STORE],
                         class_counts[InstrClass.BRANCH])

    def _run(self, assembled, seed: int = 0) -> RunResult:
        """Full detail: one pipeline over the whole run stream, from 0."""
        tracer = self.tracer
        class_counts = [0] * _NUM_CLASSES
        (total_cycles, _, instructions, rob_stalls, lsq_stalls, squashes,
         fetch_stall_cycles, dispatch_stall_cycles, operand_wait_cycles,
         fu_wait_cycles, commit_stall_cycles, _) = self._pipeline(
            self._stream(assembled, seed), 0, class_counts, tracer)
        result = self._flush_stats(class_counts, total_cycles, instructions,
                                   rob_stalls, lsq_stalls, squashes)

        if tracer is not None:
            base = tracer.now
            tracer.complete("o3.run", "pipeline", base,
                            total_cycles if total_cycles > 0 else 1,
                            TRACK_PIPELINE,
                            args={"core": self.core_id,
                                  "instructions": instructions,
                                  "loads": result.loads,
                                  "stores": result.stores,
                                  "branches": result.branches,
                                  "squashes": squashes,
                                  "robStalls": rob_stalls,
                                  "lsqStalls": lsq_stalls})
            if fetch_stall_cycles:
                tracer.complete("fetch-stall", "pipeline", base,
                                fetch_stall_cycles, TRACK_FETCH)
            if dispatch_stall_cycles:
                tracer.complete("dispatch-stall", "pipeline", base,
                                dispatch_stall_cycles, TRACK_DISPATCH,
                                args={"robStalls": rob_stalls,
                                      "lsqStalls": lsq_stalls})
            if operand_wait_cycles:
                tracer.complete("operand-wait", "pipeline", base,
                                operand_wait_cycles, TRACK_ISSUE)
            if fu_wait_cycles:
                tracer.complete("fu-wait", "pipeline", base,
                                fu_wait_cycles, TRACK_ISSUE)
            if commit_stall_cycles:
                tracer.complete("commit-stall", "pipeline", base,
                                commit_stall_cycles, TRACK_COMMIT)
            tracer.count("o3.instructions", instructions)
            tracer.advance(total_cycles)
        return result

    def _run_sampled(self, assembled, seed, sampling) -> RunResult:
        """Sampled execution: each detail window runs :meth:`_pipeline`.

        Follows :mod:`repro.sim.sampling`'s window schedule over the same
        predecoded run stream the full-detail loop consumes — so the
        trace rng is drawn identically and the functional instruction
        stream is exact; only *timing* is estimated.  Fast-forward
        regions count instructions without touching microarchitectural
        state.  Warm-up regions and detail windows gather the runs they
        cover, cut at their edges, in one loop: a warm-up region hands
        them to :func:`~repro.sim.isa.predecode.warm_runs`, which warms
        caches/TLBs and trains the branch predictor as functional
        warming of a whole request does, and a detail window to the
        full-detail pipeline method, which starts cold (but on a warm
        memory system).  The windows' CPI extrapolates over the whole
        stream.

        When a single window covers the whole program the result is
        bit-identical to the full-detail loop (the calibration suite's
        anchor case).  Pipeline stall/squash statistics accumulate only
        inside detail windows; cache and TLB statistics cover detail and
        warm-up regions.  Tracer phase spans are not emitted in sampled
        mode — sampled timing is an estimate, not an event log.
        """
        mem = self.mem
        bpred = self.bpred

        instructions = 0
        class_counts = [0] * _NUM_CLASSES
        rob_stalls = 0
        lsq_stalls = 0
        squashes = 0

        detailed_cycles = 0
        detailed_insts = 0
        windows = 0
        last_commit = 0
        fetch_line = -1

        placement = sampling.placement_rng(assembled.program.seed, seed)
        segment_iter = sampling.segments(placement)
        seg_end, seg_mode = next(segment_iter)

        runs = self._stream(assembled, seed)
        for run in runs:
            count = run[0]
            index = 0
            while index < count:
                while instructions >= seg_end:
                    seg_end, seg_mode = next(segment_iter)
                take = count - index
                room = seg_end - instructions
                if room < take:
                    take = room

                if seg_mode == FAST_FORWARD:
                    # Counted, not simulated: the speed win.
                    class_counts[run[1]] += take
                    index += take
                    instructions += take
                    continue

                # The runs the region covers, cut at its edges.  The
                # loop goes on from where the region ends: inside ``run``
                # when ``index < count``.
                region = [_cut(run, index, index + take)]
                index += take
                left = room - take
                while left:
                    run = next(runs, None)
                    if run is None:
                        break
                    count = run[0]
                    if count > left:
                        region.append(_cut(run, 0, left))
                        index = left
                        left = 0
                    else:
                        region.append(run)
                        index = count
                        left -= count
                covered = room - left

                if seg_mode == WARMUP:
                    fetch_line = predecode.warm_runs(region, mem, bpred,
                                                     fetch_line, class_counts)
                else:
                    # The pipeline starts at the extrapolated global
                    # cycle, not 0: timing state keyed on absolute cycles
                    # (the DRAM controller's queue window) must see a
                    # monotonic clock, or every window's misses look
                    # clustered with the previous window's.  The first
                    # window starts at 0, keeping the single
                    # all-covering-window case bit-identical to full
                    # detail.
                    if detailed_insts:
                        start = int(instructions * detailed_cycles
                                    / detailed_insts)
                    else:
                        start = instructions
                    if start < last_commit:
                        start = last_commit
                    (last_commit, fetch_line, _, window_rob, window_lsq,
                     window_squashes) = self._pipeline(
                        region, start, class_counts)[:6]
                    rob_stalls += window_rob
                    lsq_stalls += window_lsq
                    squashes += window_squashes
                    detailed_cycles += last_commit - start
                    detailed_insts += covered
                    windows += 1
                instructions += covered
                if run is None:
                    break

        # SimPoint-style extrapolation: detailed CPI over the whole
        # stream.  A single all-covering window reproduces full detail
        # exactly; with no window at all (degenerate config vs a tiny
        # program) fall back to CPI 1.0 rather than claiming zero time.
        if detailed_insts == 0:
            total_cycles = instructions
        elif detailed_insts == instructions and windows == 1:
            total_cycles = detailed_cycles
        else:
            total_cycles = int(round(
                (detailed_cycles / detailed_insts) * instructions))
        return self._flush_stats(class_counts, total_cycles, instructions,
                                 rob_stalls, lsq_stalls, squashes)
