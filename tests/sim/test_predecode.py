"""Block predecode cache equivalence: cached replay is bit-identical to
the legacy trace path — RunResult, full stat dumps, and trace event logs
— across ISAs, CPU models, sampling, seeds, program shapes, I-cache line
sizes and call depths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu.o3 import (
    _BUSY_BY_CLASS,
    _LATENCY_BY_CLASS,
    _SERIALIZING_BY_CLASS,
)
from repro.sim.isa import ir, predecode
from repro.sim.isa.base import AssembledBlock, UnrolledRun
from repro.sim.isa.trace import _MAX_CALL_DEPTH
from repro.sim.mem.hierarchy import MemoryHierarchyConfig
from repro.sim.sampling import SamplingConfig
from repro.sim.system import SimulatedSystem

ISAS = ("riscv", "x86", "arm")
LINE_SIZES = (16, 32, 64, 128)


def build_program(name="p", seed=0, ialu=120, trips=20, loads=4, stores=2,
                  branches=16, taken_probability=0.7, random_pattern=False,
                  region_size=1 << 14):
    program = ir.Program(name, seed=seed)
    buf = program.space.alloc("buf", region_size)
    pattern = ir.RandomPattern() if random_pattern else None
    init = ir.straightline_block(160, data_region=buf)
    body = ir.Seq([
        ir.compute_block(ialu=ialu, imul=8, falu=6),
        ir.Loop(ir.touch_block(buf, loads=loads, stores=stores,
                               pattern=pattern), trips=trips),
        ir.Block([ir.IROp(ir.OP_BRANCH, count=branches,
                          taken_probability=taken_probability)]),
    ])
    program.add_routine(ir.Routine("helper", init))
    program.add_routine(
        ir.Routine("main", ir.Seq([init, ir.Call("helper"), body])),
        entry=True)
    return program


def unrolled_shapes(name="unrolled", seed=0, trips=6):
    """Unrolled ops that ``straightline_block`` never emits — random
    loads, hot/cold stores, FP compute, always-taken and probabilistic
    branches — between repeat instructions, replayed from a loop."""
    program = ir.Program(name, seed=seed)
    buf = program.space.alloc("buf", 1 << 14)
    block = ir.Block([
        ir.IROp(ir.OP_LOAD, count=90, region=buf,
                pattern=ir.RandomPattern(), unrolled=True),
        ir.IROp(ir.OP_IALU, count=40),
        ir.IROp(ir.OP_STORE, count=70, region=buf,
                pattern=ir.HotColdPattern(), unrolled=True),
        ir.IROp(ir.OP_FALU, count=60, unrolled=True),
        ir.IROp(ir.OP_FMUL, count=30, unrolled=True),
        ir.IROp(ir.OP_FDIV, count=12, unrolled=True),
        ir.IROp(ir.OP_BRANCH, count=50, taken_probability=1.0,
                unrolled=True),
        ir.IROp(ir.OP_BRANCH, count=50, taken_probability=0.4,
                unrolled=True),
        ir.IROp(ir.OP_LOAD, count=30, region=buf, unrolled=True),
    ], kind="stack", ilp=3)
    program.add_routine(ir.Routine("main", ir.Seq([
        block, ir.Loop(block, trips=trips)])), entry=True)
    return program


def straightline(name="straight", seed=0, instrs=600):
    """One boot-style block: unrolled compute, stride loads and stores,
    and p<1 branches, every segment an ``UnrolledRun``."""
    program = ir.Program(name, seed=seed)
    buf = program.space.alloc("buf", 1 << 14)
    program.add_routine(ir.Routine(
        "main", ir.straightline_block(instrs, data_region=buf)), entry=True)
    return program


def edge_runs(seed=0):
    """Count-1 unrolled runs of every kind, and unrolled runs right
    after a repeat instruction, whose first instance can share its line.
    ``app`` blocks lower each count-1 op to one instruction on riscv and
    x86 alike."""
    program = ir.Program("edges", seed=seed)
    buf = program.space.alloc("buf", 1 << 12)
    program.add_routine(ir.Routine("main", ir.Block([
        ir.IROp(ir.OP_IALU, count=1, unrolled=True),
        ir.IROp(ir.OP_IALU, count=3),
        ir.IROp(ir.OP_FALU, count=40, unrolled=True),
        ir.IROp(ir.OP_IMUL, count=2),
        ir.IROp(ir.OP_LOAD, count=1, region=buf, unrolled=True),
        ir.IROp(ir.OP_STORE, count=5, region=buf,
                pattern=ir.RandomPattern()),
        ir.IROp(ir.OP_STORE, count=1, region=buf,
                pattern=ir.HotColdPattern(), unrolled=True),
        ir.IROp(ir.OP_BRANCH, count=1, taken_probability=0.5,
                unrolled=True),
        ir.IROp(ir.OP_IALU, count=4),
        ir.IROp(ir.OP_BRANCH, count=30, taken_probability=0.5,
                unrolled=True),
        ir.IROp(ir.OP_LOAD, count=20, region=buf,
                pattern=ir.RandomPattern(), unrolled=True),
    ], kind="app", ilp=2)), entry=True)
    return program


def call_chain(depth):
    """``main`` -> ``r1`` -> ... -> ``r<depth>``: ``depth`` nested calls."""
    program = ir.Program("chain%d" % depth, seed=depth)
    buf = program.space.alloc("buf", 1 << 12)
    names = ["main"] + ["r%d" % level for level in range(1, depth + 1)]
    for caller, callee in zip(names, names[1:]):
        program.add_routine(ir.Routine(caller, ir.Seq([
            ir.compute_block(ialu=3), ir.Call(callee)])))
    program.add_routine(ir.Routine(names[-1],
                                   ir.touch_block(buf, loads=2, stores=1)))
    return program


def self_recursive():
    program = ir.Program("recurse", seed=1)
    program.add_routine(ir.Routine("main", ir.Seq([
        ir.compute_block(ialu=2), ir.Call("main")])), entry=True)
    return program


def system_for(isa, line_size=64, vector=None):
    return SimulatedSystem(
        "s", isa, vector=vector,
        mem_config=MemoryHierarchyConfig(line_size=line_size))


def run_with(enabled, program, isa, model, seed, sampling=None,
             vector=None, line_size=64):
    """One replay on a fresh system: its result and full stat dump.

    ``model`` is a CPU model, or ``"warm"`` for functional warming with
    an O3 branch predictor attached.  ``line_size`` is the cache line
    size in bytes, which sets the I-cache fetch granularity.
    """
    previous = predecode.set_enabled(enabled)
    try:
        system = system_for(isa, line_size, vector)
        if model == "warm":
            system.cpu(1, "o3")  # instantiate so warming trains bpred
            result = system.warm(1, program, seed=seed)
        else:
            run = system.run(1, program, model=model, seed=seed,
                             sampling=sampling)
            result = (run.cycles, run.instructions, run.loads,
                      run.stores, run.branches)
        return result, system.dump_stats()
    finally:
        predecode.set_enabled(previous)


def assert_equivalent(program, isa, model, seed=0, sampling=None,
                      vector=None, line_size=64):
    cached = run_with(True, program, isa, model, seed, sampling, vector,
                      line_size)
    legacy = run_with(False, program, isa, model, seed, sampling, vector,
                      line_size)
    assert cached == legacy


def memory_calls(enabled, program, isa, seed=0, line_size=64):
    """Every ``ifetch`` and ``data_access`` of one Atomic replay, with
    its arguments: PC, address, write flag and cycle."""
    previous = predecode.set_enabled(enabled)
    try:
        system = system_for(isa, line_size)
        mem = system.cores[1]
        ifetch = mem.ifetch
        data_access = mem.data_access
        calls = []

        def record_ifetch(pc, now):
            calls.append(("ifetch", pc, now))
            return ifetch(pc, now)

        def record_data_access(addr, write, now, pc):
            calls.append(("data", addr, write, now, pc))
            return data_access(addr, write, now, pc)

        mem.ifetch = record_ifetch
        mem.data_access = record_data_access
        system.run(1, program, model="atomic", seed=seed)
        return calls
    finally:
        predecode.set_enabled(previous)


class TestEquivalence:
    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("model", ["atomic", "o3"])
    def test_models_bit_identical(self, isa, model):
        assert_equivalent(build_program(seed=3), isa, model, seed=3)

    @pytest.mark.parametrize("isa", ISAS)
    def test_random_patterns_draw_identically(self, isa):
        program = build_program(seed=5, random_pattern=True)
        assert_equivalent(program, isa, "o3", seed=5)

    @pytest.mark.parametrize("isa", ISAS)
    def test_sampled_bit_identical(self, isa):
        """Sampled O3 (fast-forward, warm-up and detail windows) sees the
        same stream from both tiers."""
        program = build_program(seed=9, trips=40)
        config = SamplingConfig(interval=2048, detail=512, warmup=128,
                                jitter=True, min_insts=0)
        assert_equivalent(program, isa, "o3", seed=9, sampling=config)

    @pytest.mark.parametrize("isa", ISAS)
    def test_vector_lane_bit_identical(self, isa):
        """Lowered vector strips need no tier-specific replay code."""
        from repro.sim.isa.vector import VectorConfig
        from tests.sim.test_vector import build_vector_program

        assert_equivalent(build_vector_program(seed=6), isa, "o3", seed=6,
                          vector=VectorConfig.parse("rvv256"))

    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("model", ["atomic", "o3", "warm", "sampled"])
    def test_unrolled_shapes_bit_identical(self, isa, model):
        """Every unrolled op kind and pattern, in every replay mode."""
        sampling = None
        if model == "sampled":
            model = "o3"
            sampling = SamplingConfig(interval=1024, detail=256, warmup=256,
                                      jitter=True, min_insts=0)
        assert_equivalent(unrolled_shapes(seed=11), isa, model, seed=11,
                          sampling=sampling)

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("isa", ("riscv", "x86"))
    @pytest.mark.parametrize("model", ["atomic", "warm"])
    @pytest.mark.parametrize("shape", ["unrolled", "straightline"])
    def test_line_sizes_bit_identical(self, shape, model, isa, line_size):
        """Line splits of unrolled runs hold at every fetch granularity."""
        program = (unrolled_shapes(seed=13) if shape == "unrolled"
                   else straightline(seed=13))
        assert_equivalent(program, isa, model, seed=13, line_size=line_size)

    def test_warming_equivalent(self):
        program = build_program(seed=1)
        previous = predecode.set_enabled(True)
        try:
            cached_sys = SimulatedSystem("w", "riscv")
            cached_sys.warm(1, program, seed=1)
            predecode.set_enabled(False)
            legacy_sys = SimulatedSystem("w", "riscv")
            legacy_sys.warm(1, program, seed=1)
        finally:
            predecode.set_enabled(previous)
        assert cached_sys.dump_stats() == legacy_sys.dump_stats()

    def test_repeated_replays_reuse_decode(self):
        """A second replay (fresh system, reused decode) is identical."""
        program = build_program(seed=2)
        first_sys = SimulatedSystem("s", "riscv")
        first = first_sys.run(1, program, model="o3", seed=2)
        assembled = first_sys.assemble(program)
        assert getattr(assembled, "_predecode", None)
        again_sys = SimulatedSystem("s", "riscv")
        again = again_sys.run(1, program, model="o3", seed=2)
        assert (first.cycles, first.instructions) == (
            again.cycles, again.instructions)

    def test_program_length_matches_execution(self):
        program = build_program(seed=4)
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, program, model="o3", seed=4)
        assembled = system.assemble(program)
        assert predecode.program_length(assembled) == result.instructions


class TestO3Runs:
    """The shape of the O3 run stream."""

    @staticmethod
    def stream(assembled, seed=0):
        return list(predecode.o3_stream(
            assembled, seed, 6, _LATENCY_BY_CLASS, _BUSY_BY_CLASS,
            _SERIALIZING_BY_CLASS))

    @pytest.mark.parametrize("isa", ISAS)
    def test_unrolled_segment_is_one_run(self, isa):
        """A block of k unrolled ops decodes to k runs, one per segment,
        carrying the materialized instructions' PCs."""
        program = ir.Program("seg", seed=4)
        buf = program.space.alloc("buf", 1 << 12)
        program.add_routine(ir.Routine(
            "main", ir.straightline_block(400, data_region=buf)),
            entry=True)
        assembled = SimulatedSystem("s", isa).assemble(program)
        block, _ = assembled.routines[assembled.entry].body
        segments = block.segments
        assert all(type(segment) is UnrolledRun for segment in segments)
        runs = self.stream(assembled)
        # One run per segment, then the routine's return.
        assert len(runs) == len(segments) + 1 == 5
        assert runs[-1][4] is None
        for run, segment in zip(runs, segments):
            count, _, pc, line, pcs = run[:5]
            assert count == segment.count
            instrs = segment.materialize()
            assert list(pcs) == [instr.pc for instr in instrs]
            assert (pc, line) == (instrs[0].pc, instrs[0].pc >> 6)
        assert sum(run[0] for run in runs) == \
            predecode.program_length(assembled)

    def test_repeat_runs_share_one_pc(self):
        """Repeat instructions and loop/call edges carry no PC array."""
        program = build_program(seed=8)
        assembled = SimulatedSystem("s", "riscv").assemble(program)
        runs = self.stream(assembled, seed=8)
        unrolled = sum(
            1 for routine in assembled.routines.values()
            for node in routine.body if type(node) is AssembledBlock
            for segment in node.segments if type(segment) is UnrolledRun)
        assert unrolled
        with_pcs = [run for run in runs if run[4] is not None]
        # No unrolled segment sits in a loop: each replays exactly once.
        assert len(with_pcs) == unrolled
        assert all(len(run[4]) == run[0] for run in with_pcs)
        assert sum(run[0] for run in runs) == \
            predecode.program_length(assembled)


class TestAtomicSteps:
    """The shape of the Atomic step list: one step per unrolled segment,
    holding at most one entry per I-cache line."""

    @staticmethod
    def cached_steps(program, isa, line_size=64):
        """Replay once on Atomic; the entry block and its cached steps."""
        system = system_for(isa, line_size)
        system.run(1, program, model="atomic", seed=0)
        assembled = system.assemble(program)
        block = assembled.routines[assembled.entry].body[0]
        cache = assembled._predecode[("atomic", line_size.bit_length() - 1)]
        steps, _ = cache[id(block)]
        return block, steps

    @pytest.mark.parametrize("isa", ISAS)
    def test_unrolled_segment_is_one_step(self, isa):
        block, steps = self.cached_steps(straightline(seed=4), isa)
        assert all(type(segment) is UnrolledRun for segment in block.segments)
        assert len(steps) == len(block.segments) == 4

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("isa", ISAS)
    def test_at_most_one_entry_per_line(self, isa, line_size):
        """Besides each run's own ``sizes``, the steps hold no more
        entries than the lines the runs touch: nothing per instance."""
        block, steps = self.cached_steps(straightline(seed=4, instrs=3000),
                                         isa, line_size)
        shift = line_size.bit_length() - 1
        own = {id(run.sizes) for run in block.segments}
        lines = 0
        for run in block.segments:
            last_pc = run.base_pc + sum(run.sizes) - run.sizes[-1]
            lines += (last_pc >> shift) - (run.base_pc >> shift) + 1
        held = 0
        for step in steps:
            held += max((len(part) for part in step
                         if hasattr(part, "__len__") and id(part) not in own),
                        default=1)
        assert held <= lines
        # Instances outnumber lines, so per-instance data breaks the bound.
        assert sum(run.count for run in block.segments) > 2 * lines

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("isa", ("riscv", "x86"))
    def test_edge_runs_fetch_as_tier_1(self, isa, line_size):
        """Count-1 runs, and runs whose first instance shares a line with
        the repeat instruction before them: the same ifetch and
        data_access calls, with the same arguments, as the legacy walk."""
        program = edge_runs(seed=5)
        block = system_for(isa).assemble(program).routines["main"].body[0]
        runs = [segment for segment in block.segments
                if type(segment) is UnrolledRun]
        assert sum(run.count == 1 for run in runs) == 4
        shift = line_size.bit_length() - 1
        shared = 0
        for before, segment in zip(block.segments, block.segments[1:]):
            if type(segment) is UnrolledRun and type(before) is list:
                shared += (before[-1].pc >> shift) == (segment.base_pc >> shift)
        assert shared
        cached = memory_calls(True, program, isa, seed=5, line_size=line_size)
        legacy = memory_calls(False, program, isa, seed=5,
                              line_size=line_size)
        assert cached == legacy
        assert any(call[0] == "ifetch" for call in cached)


class TestCallDepth:
    """Both tiers stop at the same call depth, with the same error."""

    MODES = ("atomic", "o3", "warm")
    too_deep = pytest.mark.parametrize(
        "program", [call_chain(_MAX_CALL_DEPTH + 1), self_recursive()],
        ids=["chain65", "self"])

    @pytest.mark.parametrize("model", MODES)
    def test_deepest_allowed_chain_bit_identical(self, model):
        assert_equivalent(call_chain(_MAX_CALL_DEPTH), "riscv", model,
                          seed=2)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("model", MODES)
    @too_deep
    def test_too_deep_raises(self, program, model, enabled):
        with pytest.raises(RecursionError, match="call depth exceeded"):
            run_with(enabled, program, "riscv", model, seed=2)

    def test_program_length_at_the_limit(self):
        program = call_chain(_MAX_CALL_DEPTH)
        (_, instructions, _, _, _), _ = run_with(True, program, "riscv",
                                                 "o3", seed=2)
        assembled = SimulatedSystem("s", "riscv").assemble(program)
        assert predecode.program_length(assembled) == \
            assembled.dynamic_length() == instructions

    @too_deep
    def test_program_length_too_deep_raises(self, program):
        assembled = SimulatedSystem("s", "riscv").assemble(program)
        with pytest.raises(RecursionError, match="call depth exceeded"):
            predecode.program_length(assembled)
        with pytest.raises(RecursionError, match="call depth exceeded"):
            assembled.dynamic_length()


class TestTracedEquivalence:
    def test_trace_event_logs_identical(self):
        """The obs layer's frozen event log must not see the cache."""
        from repro.core.harness import ExperimentHarness
        from repro.core.scale import SimScale
        from repro.obs.tracer import Tracer
        from repro.workloads.catalog import STANDALONE_FUNCTIONS

        fn = STANDALONE_FUNCTIONS[0]
        scale = SimScale(512, 16)
        captures = {}
        for enabled in (True, False):
            previous = predecode.set_enabled(enabled)
            try:
                tracer = Tracer()
                harness = ExperimentHarness(isa="riscv", scale=scale,
                                            tracer=tracer)
                harness.measure_function(fn)
                captures[enabled] = tracer.freeze()
            finally:
                predecode.set_enabled(previous)
        assert captures[True] == captures[False]


@settings(max_examples=12, deadline=None)
@given(
    isa=st.sampled_from(ISAS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    trips=st.integers(min_value=1, max_value=40),
    taken_probability=st.floats(min_value=0.0, max_value=1.0),
    random_pattern=st.booleans(),
    model=st.sampled_from(["atomic", "o3"]),
)
def test_property_equivalence(isa, seed, trips, taken_probability,
                              random_pattern, model):
    program = build_program(seed=seed, trips=trips,
                            taken_probability=taken_probability,
                            random_pattern=random_pattern)
    assert_equivalent(program, isa, model, seed=seed)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=15), min_size=1,
                   max_size=300),
    pc=st.integers(min_value=0, max_value=2 ** 62),
    line_shift=st.integers(min_value=3, max_value=7),
)
def test_split_lines_matches_naive_grouping(sizes, pc, line_shift):
    """The bisecting line split equals grouping instances one by one."""
    naive = []
    start = pc
    for size in sizes:
        if naive and naive[-1][0] >> line_shift == start >> line_shift:
            naive[-1][1] += 1
        else:
            naive.append([start, 1])
        start += size
    pcs, ns = predecode._split_lines(pc, bytes(sizes), line_shift)
    assert [list(entry) for entry in zip(pcs, ns)] == naive


@settings(max_examples=200, deadline=None)
@given(
    stride=st.integers(min_value=-300, max_value=300).filter(bool),
    start=st.integers(min_value=-5000, max_value=5000),
    size=st.integers(min_value=1, max_value=4096),
    count=st.integers(min_value=0, max_value=200),
)
def test_stride_addrs_wrap_like_a_cursor(stride, start, size, count):
    """Decode-time stride addresses equal a cursor that steps by the
    stride and wraps at the region end, one access at a time."""
    region = ir.Region("buf", 0x10000, size)
    expected = []
    offset = start % size
    for _ in range(count):
        expected.append(region.base + offset)
        offset = (offset + stride) % size
    addrs = predecode._stride_addrs(
        region, ir.StridePattern(stride=stride, start=start), count)
    assert addrs == tuple(expected)
    assert predecode._stride_addrs(region, ir.RandomPattern(), count) is None
