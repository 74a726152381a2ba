"""The O3 pipeline's chunked compute replay against the per-instance loop.

:meth:`O3Cpu._pipeline` replays compute runs by the chunk: an unrolled
run one I-cache line at a time through a memo keyed by the pipeline
state, a repeat run until a chunk reaches a fixed point.
:func:`reference_pipeline` is the loop it replaced, one instance at a
time with a fetch check before each, kept as the oracle: drawn run
streams that mix long compute runs with memory, branch and serializing
runs must give the same end state, stat dump, memory-system state and
traced event log, in full detail and cut into sampled windows.
"""

import random
from collections import deque
from heapq import heapreplace
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer
from repro.sim.cpu.o3 import _SAMPLE_PERIOD, _cut, _fu_pools
from repro.sim.isa.base import (
    ADDR_REG,
    FP_CHAIN_BASE,
    INT_CHAIN_BASE,
    NUM_ARCH_REGS,
    ZERO_REG,
    InstrClass,
)
from repro.sim.isa.predecode import (
    _BUSY_BY_CLASS,
    _LATENCY_BY_CLASS,
    _SERIALIZING_BY_CLASS,
)
from repro.sim.system import SimulatedSystem


def reference_pipeline(cpu, runs, start, class_counts, tracer=None):
    """The per-instance pipeline loop, as ``O3Cpu._pipeline`` ran it
    before compute runs replayed by the chunk: its 11-field end state."""
    base = tracer.now if tracer is not None else 0
    cfg = cpu.config
    mem = cpu.mem
    bpred = cpu.bpred
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
                tracer.counter("o3.core%d" % cpu.core_id,
                               base + commit_cycle,
                               {"instructions": instructions,
                                "robStalls": rob_stalls,
                                "lsqStalls": lsq_stalls,
                                "squashes": squashes})
        class_counts[icls] += count

    return (last_commit, current_line, instructions, rob_stalls,
            lsq_stalls, squashes, fetch_stall_cycles,
            dispatch_stall_cycles, operand_wait_cycles, fu_wait_cycles,
            commit_stall_cycles)


_NUM_CLASSES = len(InstrClass.NAMES)
_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE
_BRANCH = InstrClass.BRANCH
_COMPUTE = (InstrClass.IALU, InstrClass.IMUL, InstrClass.IDIV,
            InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV)
_FP = (InstrClass.FALU, InstrClass.FMUL, InstrClass.FDIV)

ISAS = ("riscv", "x86", "arm")

#: Run PCs carry the I-cache line of the default 64-byte lines.
LINE_SHIFT = 6

#: Where code starts.
CODE = 0x10000
#: The data region memory runs stride through.
DATA = 0x200000


def lanes_of(icls, chain, ilp):
    """The register lanes of ``ilp`` chains rotated by ``chain``, in the
    forms the O3 decode gives each class."""
    rotation = [(chain + index) % ilp for index in range(ilp)]
    if icls == _LOAD:
        return tuple(((ADDR_REG,), INT_CHAIN_BASE + lane)
                     for lane in rotation)
    if icls == _STORE:
        return tuple(((INT_CHAIN_BASE + lane, ADDR_REG), -1)
                     for lane in rotation)
    if icls == _BRANCH:
        return tuple(((INT_CHAIN_BASE + lane,), -1) for lane in rotation)
    base = FP_CHAIN_BASE if icls in _FP else INT_CHAIN_BASE
    return tuple(((base + lane, ZERO_REG), base + lane) for lane in rotation)


def make_run(icls, count, pc, lanes, sizes=None, addrs=None, takens=None):
    """One run in ``o3_stream``'s format: unrolled when ``sizes`` (one
    per instance) is given, else a repeat instruction at ``pc``, whose
    single lane is its registers."""
    pcs = None
    if sizes is not None:
        pcs = tuple(accumulate(sizes[:-1], initial=pc))
    srcs, dst = lanes[0]
    if sizes is None and len(lanes) == 1:
        lanes = None
    memkind = 1 if icls == _LOAD else 2 if icls == _STORE else 0
    return (count, icls, pc, pc >> LINE_SHIFT, pcs, srcs, dst, lanes,
            _SERIALIZING_BY_CLASS[icls], _LATENCY_BY_CLASS[icls],
            _BUSY_BY_CLASS[icls], memkind, addrs, takens)


def compute_run(icls, count, pc, ilp=1, size=None):
    """A compute run of ``ilp`` lanes; unrolled at ``size`` bytes per
    instance if given."""
    return make_run(icls, count, pc, lanes_of(icls, 0, ilp),
                    None if size is None else (size,) * count)


def random_stream(rng, isa):
    """A loop body of two to eight runs of every kind, replayed one to
    four times: long repeat and unrolled compute runs of 1 to 24 lanes,
    stride loads and stores, branches with fixed or drawn outcomes and
    serializing instructions, at PCs in 32 contiguous lines and in 32
    lines that share an L1I set, so that lines recur in varied
    pipeline states."""
    # RISC-V mixes 2-byte compressed and 4-byte instructions, x86 takes
    # 1 to 15 bytes, Arm 4.
    sizes_of = {"riscv": (2, 4), "x86": range(1, 16), "arm": (4,)}[isa]
    pc = CODE + rng.randrange(256)
    body = []
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.3:
            pc = CODE + rng.randrange(32 * 64)
        elif rng.random() < 0.3:
            # Lines one L1I set apart evict each other, so they recur
            # after fetch stalls that drain the pipeline.
            pc = CODE + rng.randrange(1, 32) * 4096 + rng.randrange(64)
        kind = rng.choice(("repeat", "unrolled", "unrolled", "memory",
                           "branch", "serializing"))
        if kind == "serializing":
            icls = rng.choice((InstrClass.SYSCALL, InstrClass.CSR))
            body.append(make_run(icls, 1, pc, (((ZERO_REG,), -1),)))
            pc += 4
            continue
        if kind in ("repeat", "unrolled"):
            icls = rng.choice(_COMPUTE)
            count = rng.randint(1, 800 if kind == "repeat" else 300)
        else:
            icls = rng.choice((_LOAD, _STORE)) if kind == "memory" \
                else _BRANCH
            count = rng.randint(1, 40)
        lanes = lanes_of(icls, rng.randrange(24),
                         rng.choice((1, 1, 2, 3, 4, 5, 8, 24)))
        sizes = None
        if kind == "unrolled" or (kind != "repeat" and rng.random() < 0.5):
            sizes = [rng.choice(sizes_of) for _ in range(count)]
        addrs = takens = None
        if kind == "memory":
            offset = rng.randrange(8192)
            stride = rng.choice((-8, 4, 8, 64, 200))
            addrs = tuple(DATA + (offset + index * stride) % 8192
                          for index in range(count))
        elif kind == "branch":
            takens = rng.random() < 0.5
            if rng.random() < 0.5:
                takens = [rng.random() < 0.7 for _ in range(count)]
        body.append(make_run(icls, count, pc, lanes, sizes, addrs, takens))
        pc += sum(sizes) if sizes is not None else 4
    return body * rng.randint(1, 4)


def random_windows(rng, runs):
    """``runs`` cut at random instance boundaries (``o3._cut``, as
    sampled mode cuts them) into regions, about half of them detail
    windows, each with the gap its start cycle leaves after the last
    window's end; the rest are fast-forwarded."""
    total = sum(run[0] for run in runs)
    cuts = sorted(rng.sample(range(1, total), min(total - 1,
                                                 rng.randint(0, 12))))
    pieces = []
    offset = 0
    for run in runs:
        count = run[0]
        edges = [cut - offset for cut in cuts if offset < cut < offset + count]
        for start, stop in zip([0] + edges, edges + [count]):
            pieces.append(_cut(run, start, stop))
        offset += count
    windows = []
    while pieces:
        size = rng.randint(1, 6)
        region, pieces = pieces[:size], pieces[size:]
        if rng.random() < 0.5:
            windows.append((rng.randrange(300), region))
    return windows


def chunked(cpu, runs, start, class_counts, tracer):
    return cpu._pipeline(runs, start, class_counts, tracer)


def observe(isa, windows, traced, pipeline):
    """Run ``windows`` of ``(gap, runs)`` back to back through
    ``pipeline`` on one fresh system, each window starting ``gap``
    cycles after the last one ended.  Returns the instances taken from
    the memo or a fixed point, then what must match: each window's
    11-field end state, the class counts, the stat dump, the whole
    system's and the predictor's state, and the traced event log."""
    system = SimulatedSystem("s", isa)
    cpu = system.cpu(1, "o3")
    tracer = Tracer() if traced else None
    counts = [0] * _NUM_CLASSES
    ends = []
    replayed = 0
    last_commit = 0
    for gap, runs in windows:
        end = pipeline(cpu, runs, last_commit + gap, counts, tracer)
        ends.append(end[:11])
        replayed += sum(end[11:])
        last_commit = end[0]
    return replayed, (ends, counts, system.dump_stats(),
                      repr(system.state_dict()), cpu.bpred.state_dict(),
                      tracer.freeze() if traced else None)


def assert_same(isa, windows, traced):
    """The chunked pipeline observes what the per-instance loop does;
    returns how many instances it replayed."""
    replayed, seen = observe(isa, windows, traced, chunked)
    assert seen == observe(isa, windows, traced, reference_pipeline)[1]
    return replayed


@settings(max_examples=50, deadline=None)
@given(isa=st.sampled_from(ISAS), traced=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_chunks_match_per_instance_loop(isa, traced, seed):
    """Drawn streams, in full detail and cut into sampled windows."""
    rng = random.Random(seed)
    runs = random_stream(rng, isa)
    assert_same(isa, [(0, runs)], traced)
    assert_same(isa, random_windows(rng, runs), traced)


class TestChunks:
    def test_repeat_runs_reach_a_fixed_point(self):
        """A dependent IMUL chain fills the ROB, and three IALU lanes
        run at the ALUs' rate: both reach a state that each chunk
        leaves as it found it, shifted, and jump to the run's end."""
        for runs in ([compute_run(InstrClass.IMUL, 3000, CODE)],
                     [compute_run(InstrClass.IALU, 3000, CODE, ilp=3)]):
            for isa in ISAS:
                replayed = assert_same(isa, [(0, runs)], traced=False)
                assert 2500 < replayed < 3000
                assert assert_same(isa, [(0, runs)], traced=True) > 0

    def test_lines_after_fetch_stalls_replay_from_the_memo(self):
        """Unrolled compute segments spread over cold code: each line's
        fetch stall drains the pipeline, so after a line's first
        instance, which fetches, the rest of it starts from a state the
        memo has seen."""
        runs = [compute_run(InstrClass.IALU, 200, CODE + 4096 * index + 6,
                            ilp=4, size=2) for index in range(12)]
        replayed = assert_same("riscv", [(0, runs)], traced=True)
        assert replayed > sum(run[0] for run in runs) // 2

    def test_chunk_reaching_a_counter_sample_runs_per_instance(self):
        """A repeat run whose fixed point would jump past the first
        counter sample, then 2-byte instructions from a line start, 32
        to a line, whose 32nd line (instances 2026 to 2057) spans the
        second: the three samples see the same counters."""
        runs = [compute_run(InstrClass.IALU, _SAMPLE_PERIOD + 10, CODE,
                            ilp=2),
                compute_run(InstrClass.IALU, 2 * _SAMPLE_PERIOD, CODE + 64,
                            ilp=5, size=2)]
        replayed = assert_same("riscv", [(0, runs)], traced=True)
        assert replayed > _SAMPLE_PERIOD
        tracer = Tracer()
        chunked(SimulatedSystem("s", "riscv").cpu(1, "o3"), runs, 0,
                [0] * _NUM_CLASSES, tracer)
        assert [event[0] for event in tracer.events] == ["C"] * 3

    def test_chunk_behind_a_redirect_keeps_its_commit_cycle(self):
        """In cold lines, each a fetch stall that drains the pipeline:
        two FALUs or two FMULs, a branch that does not wait for them and
        often mispredicts, then compute in the same line.  That chunk
        starts with the front end still to restart and the last commit,
        behind the FP pair, before the restart; chunks that differ only
        in that commit cycle differ in the first commit's stall."""
        rng = random.Random(5)
        runs = []
        for trip in range(60):
            pc = CODE + 4096 * trip
            runs.append(compute_run(rng.choice(_FP[:2]), 2, pc, size=4))
            runs.append(make_run(_BRANCH, 1, pc + 8,
                                 lanes_of(_BRANCH, 0, 1), (4,),
                                 takens=[rng.random() < 0.8]))
            runs.append(compute_run(InstrClass.IALU, 13, pc + 12, ilp=3,
                                    size=4))
        for traced in (False, True):
            assert assert_same("riscv", [(0, runs)], traced) > 0
