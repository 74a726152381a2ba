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
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace
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
from repro.sim.sampling import DETAIL, FAST_FORWARD, WARMUP
from repro.sim.statistics import StatGroup

#: Traced runs sample the pipeline counters once per this many committed
#: instructions (a Chrome counter track, cheap enough to keep dense).
_SAMPLE_PERIOD = 1024


class O3Config:
    """Pipeline parameters (defaults = Table 4.1 plus gem5 O3 defaults)."""

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

#: The dict/set views above, flattened into tuples indexed by instruction
#: class so the per-instruction loop pays a list index instead of a hash.
_NUM_CLASSES = len(InstrClass.NAMES)
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

    def _run(self, assembled, seed: int = 0) -> RunResult:
        """The pipeline model over the predecoded instruction-run stream.

        One loop serves both the plain and the traced paths (previously
        two byte-identical copies): stall attribution accumulators are
        plain integer adds, cheap enough to keep unconditionally, and
        the per-instruction counter-sample check is disarmed without a
        tracer by pushing ``next_sample`` beyond any instruction count.
        A run is a repeat instruction, a loop/call edge or a whole
        unrolled segment; the fetch check runs before each instance's
        dispatch, on that instance's PC (``pcs[index]`` for a segment),
        so it fetches exactly where one run per instance would.
        Arithmetic is bit-identical to the legacy per-instruction loops
        over ``assembled.trace()`` — the tier-1 suite pins this with the
        predecode cache forced on and off.
        """
        tracer = self.tracer
        base = tracer.now if tracer is not None else 0
        cfg = self.config
        mem = self.mem
        bpred = self.bpred
        l1_latency = mem.config.l1_latency
        names = InstrClass.NAMES
        by_class = self.stat_by_class

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
        dispatch_cycle = 0
        dispatch_slots = 0
        commit_cycle = 0
        commit_slots = 0
        last_commit = 0

        redirect_at = 0       # front-end earliest restart after squash
        line_ready = 0        # current fetch line available at this cycle
        current_line = -1

        instructions = 0
        loads = stores = branches = 0
        is_branch = InstrClass.BRANCH

        # Per-run stat accumulators, flushed to the Stat objects once at
        # the end instead of per event.
        class_counts = [0] * _NUM_CLASSES
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

        runs = predecode.o3_stream(assembled, seed, line_shift,
                                   _LATENCY_BY_CLASS, _BUSY_BY_CLASS,
                                   _SERIALIZING_BY_CLASS)
        for run in runs:
            (count, icls, pc, pc_line, pcs, srcs, dst, lanes, serializing,
             op_latency, busy, memkind, addrs, takens) = run
            free = fu_by_class[icls]
            branch_run = icls == is_branch
            lanes_len = len(lanes) if lanes is not None else 0
            takens_seq = takens if type(takens) is list else None

            for index in range(count):
                # ---- fetch: on each change of I-cache line -------------
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

                # ---- dispatch (in-order, width-limited) ----------------
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

                # ---- issue (out-of-order) ------------------------------
                if lanes_len:
                    srcs, dst = lanes[index % lanes_len]
                ready = dispatch_cycle + 1
                for src in srcs:
                    src_ready = reg_ready[src]
                    if src_ready > ready:
                        ready = src_ready
                operand_wait_cycles += ready - dispatch_cycle - 1

                # ``busy`` is 1 for loads and stores: a port for a cycle.
                issue = free[0]
                if ready > issue:
                    issue = ready
                heapreplace(free, issue + busy)
                if memkind == 1:
                    latency = data_access(addrs[index], False, issue, pc)
                    complete = issue + latency
                    lq_append(complete)
                    loads += 1
                elif memkind == 2:
                    data_access(addrs[index], True, issue, pc)
                    complete = issue + 1
                    sq_append(complete)
                    stores += 1
                else:
                    complete = issue + op_latency
                    if branch_run:
                        branches += 1
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

                # ---- commit (in-order, width-limited) ------------------
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
            class_counts[icls] += count

        for icls, count in enumerate(class_counts):
            if count:
                by_class.inc(names[icls], count)
        if rob_stalls:
            self.stat_rob_stalls.inc(rob_stalls)
        if lsq_stalls:
            self.stat_lsq_stalls.inc(lsq_stalls)
        if squashes:
            self.stat_mispredict_squashes.inc(squashes)

        total_cycles = last_commit
        self.stat_cycles.inc(total_cycles)
        self.stat_insts.inc(instructions)

        if tracer is not None:
            tracer.complete("o3.run", "pipeline", base,
                            total_cycles if total_cycles > 0 else 1,
                            TRACK_PIPELINE,
                            args={"core": self.core_id,
                                  "instructions": instructions,
                                  "loads": loads, "stores": stores,
                                  "branches": branches, "squashes": squashes,
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
        return RunResult(total_cycles, instructions, loads, stores, branches)

    def _run_sampled(self, assembled, seed, sampling) -> RunResult:
        """Sampled execution: detail windows on a fresh mini-pipeline.

        Follows :mod:`repro.sim.sampling`'s window schedule over the same
        predecoded run stream the full-detail loop consumes — so the
        trace rng is drawn identically and the functional instruction
        stream is exact; only *timing* is estimated.  Fast-forward
        regions count instructions without touching microarchitectural
        state; warm-up regions functionally warm caches/TLBs and train
        the branch predictor; each detail window runs the full pipeline
        arithmetic from a cold pipeline (but warm memory system) and its
        CPI extrapolates over the surrounding interval.

        When a single window covers the whole program the result is
        bit-identical to the full-detail loop (the calibration suite's
        anchor case).  Pipeline stall/squash statistics accumulate only
        inside detail windows; cache and TLB statistics cover detail and
        warm-up regions.  Tracer phase spans are not emitted in sampled
        mode — sampled timing is an estimate, not an event log.
        """
        cfg = self.config
        mem = self.mem
        bpred = self.bpred
        l1_latency = mem.config.l1_latency
        names = InstrClass.NAMES
        by_class = self.stat_by_class

        scoreboard_size = max(NUM_ARCH_REGS + 32, cfg.int_regs + cfg.float_regs)

        line_shift = mem._line_shift
        ifetch = mem.ifetch
        data_access = mem.data_access
        warm_touch = mem.warm_touch
        predict_and_update = bpred.predict_and_update
        dispatch_width = cfg.dispatch_width
        commit_width = cfg.commit_width
        rob_entries = cfg.rob_entries
        lq_entries = cfg.lq_entries
        sq_entries = cfg.sq_entries
        mispredict_penalty = cfg.mispredict_penalty
        is_branch = InstrClass.BRANCH

        instructions = 0
        loads = stores = branches = 0
        class_counts = [0] * _NUM_CLASSES
        rob_stalls = 0
        lsq_stalls = 0
        squashes = 0

        detailed_cycles = 0
        detailed_insts = 0
        windows = 0
        in_window = False
        window_insts = 0
        window_base = 0
        warm_line = -1

        # Detail-window pipeline state; rebuilt cold on window entry.
        reg_ready = None
        rob = load_queue = store_queue = None
        rob_popleft = rob_append = None
        lq_popleft = lq_append = None
        sq_popleft = sq_append = None
        fu_by_class = None
        dispatch_cycle = dispatch_slots = 0
        commit_cycle = commit_slots = last_commit = 0
        redirect_at = line_ready = 0
        current_line = -1

        placement = sampling.placement_rng(assembled.program.seed, seed)
        segment_iter = sampling.segments(placement)
        seg_end, seg_mode = next(segment_iter)

        runs = predecode.o3_stream(assembled, seed, line_shift,
                                   _LATENCY_BY_CLASS, _BUSY_BY_CLASS,
                                   _SERIALIZING_BY_CLASS)
        for run in runs:
            (count, icls, pc, pc_line, pcs, srcs, dst, lanes, serializing,
             op_latency, busy, memkind, addrs, takens) = run
            branch_run = icls == is_branch
            lanes_len = len(lanes) if lanes is not None else 0
            takens_seq = takens if type(takens) is list else None
            write = memkind == 2
            class_counts[icls] += count
            if memkind == 1:
                loads += count
            elif memkind == 2:
                stores += count
            elif branch_run:
                branches += count

            index = 0
            while index < count:
                while instructions >= seg_end:
                    if seg_mode == DETAIL and in_window:
                        detailed_cycles += last_commit - window_base
                        detailed_insts += window_insts
                        windows += 1
                        in_window = False
                    seg_end, seg_mode = next(segment_iter)
                take = count - index
                room = seg_end - instructions
                if room < take:
                    take = room

                if seg_mode == FAST_FORWARD:
                    # Counted, not simulated: the speed win.
                    index += take
                    instructions += take
                    continue

                if seg_mode == WARMUP:
                    # Per instance, in the legacy order: a fetch touch on
                    # a line change, then the data touch or the branch
                    # training.  A repeat compute run touches only its
                    # one fetch line.
                    if pcs is not None or memkind or branch_run:
                        for j in range(index, index + take):
                            if pcs is not None:
                                pc = pcs[j]
                                pc_line = pc >> line_shift
                            if pc_line != warm_line:
                                warm_touch(pc, True)
                                warm_line = pc_line
                            if memkind:
                                warm_touch(addrs[j], False, write, pc)
                            elif branch_run:
                                predict_and_update(
                                    pc, takens_seq[j] if takens_seq is not None
                                    else takens)
                    elif pc_line != warm_line:
                        warm_touch(pc, True)
                        warm_line = pc_line
                    index += take
                    instructions += take
                    continue

                # ---- detail window -------------------------------------
                if not in_window:
                    # The mini-pipeline starts at the extrapolated global
                    # cycle, not 0: timing state keyed on absolute cycles
                    # (the DRAM controller's queue window) must see a
                    # monotonic clock, or every window's misses look
                    # clustered with the previous window's.  The first
                    # window starts at 0, keeping the single-all-covering
                    # -window case bit-identical to full detail.
                    if detailed_insts:
                        base = int(instructions * detailed_cycles
                                   / detailed_insts)
                    else:
                        base = instructions
                    if base < last_commit:
                        base = last_commit
                    window_base = base
                    reg_ready = [0] * scoreboard_size
                    rob = deque()
                    load_queue = deque()
                    store_queue = deque()
                    rob_popleft = rob.popleft
                    rob_append = rob.append
                    lq_popleft = load_queue.popleft
                    lq_append = load_queue.append
                    sq_popleft = store_queue.popleft
                    sq_append = store_queue.append
                    fu_by_class = _fu_pools(cfg)
                    dispatch_cycle = base
                    dispatch_slots = 0
                    commit_cycle = base
                    commit_slots = 0
                    last_commit = base
                    redirect_at = base
                    line_ready = base
                    current_line = -1
                    window_insts = 0
                    in_window = True

                free = fu_by_class[icls]
                for j in range(index, index + take):
                    if pcs is not None:
                        pc = pcs[j]
                        pc_line = pc >> line_shift
                    if pc_line != current_line:
                        fetch_start = dispatch_cycle if dispatch_cycle > redirect_at else redirect_at
                        latency = ifetch(pc, fetch_start)
                        miss_extra = latency - l1_latency
                        line_ready = fetch_start + (miss_extra if miss_extra > 0 else 0)
                        current_line = pc_line
                        warm_line = pc_line

                    earliest_dispatch = line_ready if line_ready > redirect_at else redirect_at
                    if earliest_dispatch > dispatch_cycle:
                        dispatch_cycle = earliest_dispatch
                        dispatch_slots = 1
                    elif dispatch_slots < dispatch_width:
                        dispatch_slots += 1
                    else:
                        dispatch_cycle += 1
                        dispatch_slots = 1

                    while rob and rob[0] <= dispatch_cycle:
                        rob_popleft()
                    if len(rob) >= rob_entries:
                        stall_until = rob_popleft()
                        if stall_until > dispatch_cycle:
                            dispatch_cycle = stall_until
                            dispatch_slots = 1
                        rob_stalls += 1

                    if memkind == 1:
                        while load_queue and load_queue[0] <= dispatch_cycle:
                            lq_popleft()
                        if len(load_queue) >= lq_entries:
                            stall_until = lq_popleft()
                            if stall_until > dispatch_cycle:
                                dispatch_cycle = stall_until
                                dispatch_slots = 1
                            lsq_stalls += 1
                    elif memkind == 2:
                        while store_queue and store_queue[0] <= dispatch_cycle:
                            sq_popleft()
                        if len(store_queue) >= sq_entries:
                            stall_until = sq_popleft()
                            if stall_until > dispatch_cycle:
                                dispatch_cycle = stall_until
                                dispatch_slots = 1
                            lsq_stalls += 1

                    if serializing and last_commit > dispatch_cycle:
                        dispatch_cycle = last_commit
                        dispatch_slots = 1

                    if lanes_len:
                        srcs, dst = lanes[j % lanes_len]
                    ready = dispatch_cycle + 1
                    for src in srcs:
                        src_ready = reg_ready[src]
                        if src_ready > ready:
                            ready = src_ready

                    issue = free[0]
                    if ready > issue:
                        issue = ready
                    heapreplace(free, issue + busy)
                    if memkind == 1:
                        latency = data_access(addrs[j], False, issue, pc)
                        complete = issue + latency
                        lq_append(complete)
                    elif memkind == 2:
                        data_access(addrs[j], True, issue, pc)
                        complete = issue + 1
                        sq_append(complete)
                    else:
                        complete = issue + op_latency
                        if branch_run:
                            taken = takens_seq[j] if takens_seq is not None else takens
                            if not predict_and_update(pc, taken):
                                squash_at = complete + mispredict_penalty
                                if squash_at > redirect_at:
                                    redirect_at = squash_at
                                squashes += 1

                    if dst >= 0:
                        reg_ready[dst] = complete

                    earliest_commit = complete + 1
                    if last_commit > earliest_commit:
                        earliest_commit = last_commit
                    if earliest_commit > commit_cycle:
                        commit_cycle = earliest_commit
                        commit_slots = 1
                    elif commit_slots < commit_width:
                        commit_slots += 1
                    else:
                        commit_cycle += 1
                        commit_slots = 1
                    last_commit = commit_cycle
                    rob_append(commit_cycle)

                window_insts += take
                index += take
                instructions += take

        if in_window:
            detailed_cycles += last_commit - window_base
            detailed_insts += window_insts
            windows += 1

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

        for icls, count in enumerate(class_counts):
            if count:
                by_class.inc(names[icls], count)
        if rob_stalls:
            self.stat_rob_stalls.inc(rob_stalls)
        if lsq_stalls:
            self.stat_lsq_stalls.inc(lsq_stalls)
        if squashes:
            self.stat_mispredict_squashes.inc(squashes)
        self.stat_cycles.inc(total_cycles)
        self.stat_insts.inc(instructions)
        return RunResult(total_cycles, instructions, loads, stores, branches)
