"""Tests for the IR, the ISA lowerings, and the dynamic stream they
replay into."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import get_isa, ir
from repro.sim.isa.base import InstrClass
from repro.sim.isa.predecode import instructions, program_length
from repro.sim.isa.riscv import RiscvISA
from repro.sim.isa.x86 import X86ISA


def simple_program(seed=0, trips=10):
    program = ir.Program("unit", seed=seed)
    buf = program.space.alloc("buf", 4096)
    body = ir.Seq([
        ir.compute_block(ialu=20),
        ir.Loop(ir.touch_block(buf, loads=4, stores=1), trips=trips),
    ])
    program.add_routine(ir.Routine("main", body), entry=True)
    return program


class TestAddressSpace:
    def test_regions_do_not_overlap(self):
        space = ir.AddressSpace()
        first = space.alloc("a", 100)
        second = space.alloc("b", 100)
        assert first.end <= second.base

    def test_alignment(self):
        space = ir.AddressSpace()
        space.alloc("a", 10)
        second = space.alloc("b", 10, align=256)
        assert second.base % 256 == 0

    def test_segments_are_disjoint(self):
        space = ir.AddressSpace()
        heap = space.alloc("h", 64, segment="heap")
        stack = space.alloc("s", 64, segment="stack")
        assert heap.base != stack.base

    def test_find_by_name(self):
        space = ir.AddressSpace()
        region = space.alloc("target", 64)
        assert space.find("target") is region
        with pytest.raises(KeyError):
            space.find("missing")

    def test_bad_inputs(self):
        space = ir.AddressSpace()
        with pytest.raises(ValueError):
            space.alloc("x", 0)
        with pytest.raises(ValueError):
            space.alloc("x", 64, segment="nowhere")


class TestProgramValidation:
    def test_missing_call_target_detected(self):
        program = ir.Program("bad")
        program.add_routine(ir.Routine("main", ir.Call("ghost")), entry=True)
        with pytest.raises(ValueError):
            program.validate()

    def test_duplicate_routine_rejected(self):
        program = ir.Program("dup")
        program.add_routine(ir.Routine("main", ir.compute_block(ialu=1)))
        with pytest.raises(ValueError):
            program.add_routine(ir.Routine("main", ir.compute_block(ialu=1)))

    def test_entry_defaults_to_first(self):
        program = ir.Program("p")
        program.add_routine(ir.Routine("first", ir.compute_block(ialu=1)))
        program.add_routine(ir.Routine("second", ir.compute_block(ialu=1)))
        assert program.entry == "first"


class TestPatterns:
    def test_stride_wraps(self):
        region = ir.Region("r", 0, 128)
        pattern = ir.StridePattern(stride=64)
        import random
        offsets = list(pattern.offsets(region, 4, random.Random(0)))
        assert offsets == [0, 64, 0, 64]

    def test_random_pattern_in_bounds(self):
        import random
        region = ir.Region("r", 0, 256)
        pattern = ir.RandomPattern(align=8)
        for offset in pattern.offsets(region, 100, random.Random(1)):
            assert 0 <= offset < 256
            assert offset % 8 == 0

    def test_hot_cold_concentrates(self):
        import random
        region = ir.Region("r", 0, 10000)
        pattern = ir.HotColdPattern(hot_fraction=0.1, hot_probability=0.95)
        offsets = list(pattern.offsets(region, 500, random.Random(2)))
        hot = sum(1 for offset in offsets if offset < 1000)
        assert hot > 350  # overwhelmingly in the hot prefix


class TestLowering:
    def test_trace_deterministic(self):
        program = simple_program(seed=3)
        assembled = get_isa("riscv").assemble(program)
        first = list(instructions(assembled, seed=7))
        second = list(instructions(assembled, seed=7))
        assert first == second

    def test_trace_seed_changes_random_addresses(self):
        program = ir.Program("rand")
        buf = program.space.alloc("buf", 1 << 16)
        block = ir.touch_block(buf, loads=64, pattern=ir.RandomPattern())
        program.add_routine(ir.Routine("main", block), entry=True)
        assembled = get_isa("riscv").assemble(program)
        addrs_a = [addr for _pc, _c, addr, _t
                   in instructions(assembled, seed=1) if addr >= 0]
        addrs_b = [addr for _pc, _c, addr, _t
                   in instructions(assembled, seed=2) if addr >= 0]
        assert addrs_a != addrs_b

    def test_loop_reuses_pcs(self):
        program = simple_program(trips=3)
        assembled = get_isa("riscv").assemble(program)
        pcs_per_trip = {}
        for pc, _icls, _addr, _taken in instructions(assembled):
            pcs_per_trip.setdefault(pc, 0)
            pcs_per_trip[pc] += 1
        # Loop-body instructions execute 3 times at the same pc.
        assert max(pcs_per_trip.values()) >= 3

    def test_x86_executes_more_stack_instructions(self):
        program = ir.Program("init")
        buf = program.space.alloc("buf", 1 << 14)
        block = ir.straightline_block(2000, data_region=buf, kind="stack")
        program.add_routine(ir.Routine("main", block), entry=True)
        riscv_count = program_length(get_isa("riscv").assemble(program))
        x86_count = program_length(get_isa("x86").assemble(program))
        assert x86_count > riscv_count * 1.4

    def test_x86_app_compute_denser(self):
        program = ir.Program("hot")
        block = ir.compute_block(ialu=5000, kind="app")
        program.add_routine(ir.Routine("main", block), entry=True)
        riscv_count = program_length(get_isa("riscv").assemble(program))
        x86_count = program_length(get_isa("x86").assemble(program))
        assert x86_count < riscv_count

    def test_x86_code_footprint_larger_for_stack_code(self):
        program = ir.Program("footprint")
        block = ir.straightline_block(3000, kind="stack")
        program.add_routine(ir.Routine("main", block), entry=True)
        riscv_bytes = get_isa("riscv").assemble(program).code_bytes()
        x86_bytes = get_isa("x86").assemble(program).code_bytes()
        assert x86_bytes > riscv_bytes * 1.5

    def test_memory_addresses_inside_region(self):
        program = simple_program()
        buf = program.space.find("buf")
        assembled = get_isa("x86").assemble(program)
        for _pc, icls, addr, _taken in instructions(assembled):
            if icls in (InstrClass.LOAD, InstrClass.STORE):
                assert buf.base <= addr < buf.end

    def test_unrolled_ops_get_distinct_pcs(self):
        program = ir.Program("unroll")
        block = ir.Block([ir.IROp(ir.OP_IALU, count=50, unrolled=True)])
        program.add_routine(ir.Routine("main", block), entry=True)
        assembled = get_isa("riscv").assemble(program)
        pcs = [pc for pc, icls, _a, _t in instructions(assembled)
               if icls == InstrClass.IALU]
        assert len(pcs) == len(set(pcs)) == 50

    def test_loop_backedge_taken_except_last(self):
        program = ir.Program("loop")
        body = ir.Loop(ir.compute_block(ialu=1), trips=4)
        program.add_routine(ir.Routine("main", body), entry=True)
        assembled = get_isa("riscv").assemble(program)
        outcomes = [taken for _pc, icls, _a, taken in instructions(assembled)
                    if icls == InstrClass.BRANCH]
        assert outcomes == [True, True, True, False]

    def test_call_descends_into_callee(self):
        program = ir.Program("call")
        program.add_routine(ir.Routine("main", ir.Call("helper")), entry=True)
        program.add_routine(ir.Routine("helper", ir.compute_block(ialu=3)))
        assembled = get_isa("riscv").assemble(program)
        classes = [icls for _pc, icls, _a, _t in instructions(assembled)]
        assert InstrClass.CALL in classes
        assert classes.count(InstrClass.IALU) == 3

    def test_recursion_guard(self):
        program = ir.Program("recurse")
        program.add_routine(ir.Routine("main", ir.Call("main")), entry=True)
        assembled = get_isa("riscv").assemble(program)
        with pytest.raises(RecursionError):
            list(instructions(assembled))


class TestInstrSizes:
    def test_riscv_sizes_are_2_or_4(self):
        import random
        isa = RiscvISA()
        rng = random.Random(0)
        sizes = {isa.instr_size(rng) for _ in range(200)}
        assert sizes <= {2, 4}
        assert sizes == {2, 4}

    def test_x86_sizes_in_range(self):
        import random
        isa = X86ISA()
        rng = random.Random(0)
        for _ in range(200):
            assert 2 <= isa.instr_size(rng) <= 8

    @pytest.mark.parametrize("name", ["riscv", "x86", "arm"])
    def test_bulk_sizes_are_bytes_drawn_as_single_calls(self, name):
        """``instr_sizes`` draws exactly as repeated ``instr_size`` calls,
        one byte per instruction."""
        import random
        isa = get_isa(name)
        bulk_rng = random.Random(7)
        single_rng = random.Random(7)
        sizes = isa.instr_sizes(bulk_rng, 500)
        assert type(sizes) is bytes
        assert list(sizes) == [isa.instr_size(single_rng)
                               for _ in range(500)]
        assert bulk_rng.getstate() == single_rng.getstate()

    def test_get_isa_unknown(self):
        with pytest.raises(ValueError):
            get_isa("sparc")


@settings(max_examples=25, deadline=None)
@given(
    ialu=st.integers(min_value=1, max_value=500),
    loads=st.integers(min_value=1, max_value=200),
    trips=st.integers(min_value=1, max_value=20),
    isa_name=st.sampled_from(["riscv", "x86"]),
)
def test_property_dynamic_length_scales_with_trips(ialu, loads, trips, isa_name):
    def build(t):
        program = ir.Program("prop", seed=1)
        buf = program.space.alloc("buf", 4096)
        body = ir.Loop(
            ir.Block([
                ir.IROp(ir.OP_IALU, count=ialu),
                ir.IROp(ir.OP_LOAD, count=loads, region=buf),
            ]),
            trips=t,
        )
        program.add_routine(ir.Routine("main", body), entry=True)
        return program_length(get_isa(isa_name).assemble(program))

    single = build(1)
    many = build(trips)
    # Dynamic length grows linearly in trip count (modulo the fixed ret).
    assert many == single + (trips - 1) * (single - 1)
