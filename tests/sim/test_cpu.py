"""Tests for the CPU timing models: Atomic, O3, KVM, branch predictor."""

from heapq import heapreplace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu.bpred import TournamentPredictor, TwoBitCounterTable
from repro.sim.cpu.kvm import KvmInstabilityError
from repro.sim.cpu.o3 import O3Config, _fu_pools
from repro.sim.isa import ir
from repro.sim.isa.base import InstrClass
from repro.sim.system import SimulatedSystem


def build_program(name="p", seed=0, ialu=200, trips=50, loads=4, region_size=1 << 14):
    program = ir.Program(name, seed=seed)
    buf = program.space.alloc("buf", region_size)
    body = ir.Seq([
        ir.compute_block(ialu=ialu),
        ir.Loop(ir.touch_block(buf, loads=loads, stores=1), trips=trips),
    ])
    program.add_routine(ir.Routine("main", body), entry=True)
    return program


class TestAtomic:
    def test_cycles_at_least_instructions(self):
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, build_program(), model="atomic")
        assert result.cycles >= result.instructions

    def test_counts_loads_and_stores(self):
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, build_program(trips=10, loads=4), model="atomic")
        assert result.loads == 40
        assert result.stores == 10

    def test_stats_accumulate_into_tree(self):
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, build_program(), model="atomic")
        dump = system.dump_stats()
        assert dump["s.cpu1.atomic.committedInsts"] == result.instructions
        assert dump["s.cpu1.atomic.numCycles"] == result.cycles


class TestO3:
    def test_o3_faster_than_atomic(self):
        program = build_program()
        atomic_sys = SimulatedSystem("a", "riscv")
        o3_sys = SimulatedSystem("b", "riscv")
        atomic = atomic_sys.run(1, program, model="atomic")
        o3 = o3_sys.run(1, program, model="o3")
        assert o3.cycles < atomic.cycles
        assert o3.instructions == atomic.instructions

    def test_o3_exploits_ilp(self):
        # Same op count, different chain counts: more ILP -> fewer cycles.
        def run(ilp):
            program = ir.Program("ilp%d" % ilp)
            block = ir.Block([ir.IROp(ir.OP_IMUL, count=4000)], ilp=ilp)
            program.add_routine(ir.Routine("main", block), entry=True)
            system = SimulatedSystem("s", "riscv")
            return system.run(1, program, model="o3").cycles

        assert run(1) > run(3) * 1.5

    def test_cold_slower_than_warm_same_system(self):
        program = build_program(region_size=1 << 16)
        system = SimulatedSystem("s", "riscv")
        cold = system.run(1, program, model="o3")
        warm = system.run(1, program, model="o3")
        assert warm.cycles < cold.cycles

    def test_flush_restores_cold_behaviour(self):
        program = build_program(region_size=1 << 16)
        system = SimulatedSystem("s", "riscv")
        cold = system.run(1, program, model="o3")
        system.run(1, program, model="o3")
        system.flush_core(1)
        recold = system.run(1, program, model="o3")
        assert recold.cycles > cold.cycles * 0.5  # back in the cold regime

    def test_mispredict_penalty_visible(self):
        def run(probability):
            program = ir.Program("br%d" % int(probability * 100))
            block = ir.Block([ir.IROp(ir.OP_BRANCH, count=4000,
                                      taken_probability=probability)])
            program.add_routine(ir.Routine("main", block), entry=True)
            system = SimulatedSystem("s", "riscv")
            return system.run(1, program, model="o3").cycles

        predictable = run(1.0)
        coin_flip = run(0.5)
        assert coin_flip > predictable * 1.5

    def test_rob_limits_runahead_under_misses(self):
        # A long stream of dependent loads over a huge region: the ROB
        # should throttle but the run must still complete.
        program = ir.Program("mlp")
        buf = program.space.alloc("buf", 1 << 22)
        block = ir.touch_block(buf, loads=3000, pattern=ir.RandomPattern(align=64))
        program.add_routine(ir.Routine("main", block), entry=True)
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, program, model="o3")
        assert result.cycles > result.instructions  # memory bound
        dump = system.dump_stats()
        assert dump["s.core1.l1d.misses"] > 1000


class ArgminPool:
    """Reference pool: issue on the lowest-index earliest-free unit."""

    def __init__(self, count):
        self.free_at = [0] * count

    def acquire(self, earliest, busy_for):
        free = self.free_at
        best = min(range(len(free)), key=free.__getitem__)
        issue = max(earliest, free[best])
        free[best] = issue + busy_for
        return issue


#: Which ``O3Config`` unit count serves each instruction class.
POOL_OF_CLASS = {
    InstrClass.IALU: "int_alus", InstrClass.IMUL: "int_mult_units",
    InstrClass.IDIV: "int_div_units", InstrClass.FALU: "fp_units",
    InstrClass.FMUL: "fp_units", InstrClass.FDIV: "fp_units",
    InstrClass.LOAD: "mem_ports", InstrClass.STORE: "mem_ports",
}


class TestFunctionalUnits:
    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.fixed_dictionaries({
            name: st.integers(min_value=1, max_value=4)
            for name in set(POOL_OF_CLASS.values())}),
        stream=st.lists(st.tuples(
            st.integers(min_value=0, max_value=len(InstrClass.NAMES) - 1),
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=20)), max_size=80),
    )
    def test_heaps_issue_like_an_argmin_scan(self, sizes, stream):
        """The O3 loops' heap pools give the reference pools' cycles."""
        pools = _fu_pools(O3Config(**sizes))
        reference = {name: ArgminPool(count) for name, count in sizes.items()}
        for icls, ready, busy in stream:
            free = pools[icls]
            # The issue step of O3Cpu._pipeline.
            issue = free[0]
            if ready > issue:
                issue = ready
            heapreplace(free, issue + busy)
            pool = reference[POOL_OF_CLASS.get(icls, "int_alus")]
            assert issue == pool.acquire(ready, busy)

    @pytest.mark.parametrize("unrolled", [False, True])
    def test_dividers_are_unpipelined(self, unrolled):
        """Each IDIV holds its divider for its 20-cycle latency."""
        def run(dividers):
            program = ir.Program("div")
            block = ir.Block([ir.IROp(ir.OP_IDIV, count=64,
                                      unrolled=unrolled)], ilp=4)
            program.add_routine(ir.Routine("main", block), entry=True)
            system = SimulatedSystem(
                "s", "riscv", o3_config=O3Config(int_div_units=dividers))
            result = system.run(1, program, model="o3")
            divides = system.dump_stats()["s.cpu1.o3.instsByClass::idiv"]
            return result.cycles, divides

        one, divides = run(1)
        two, _ = run(2)
        assert divides >= 64
        assert one >= 20 * divides
        assert 10 * divides <= two < 0.6 * one


class TestWarmPath:
    def test_warm_program_fills_caches_without_cycles(self):
        program = build_program(region_size=1 << 14)
        system = SimulatedSystem("s", "riscv")
        touched = system.warm(1, program)
        assert touched > 0
        dump = system.dump_stats()
        assert dump["s.cpu1.atomic.numCycles"] == 0
        assert dump["s.core1.l1d.accesses"] > 0

    def test_warming_reduces_subsequent_misses(self):
        program = build_program(region_size=1 << 14)
        cold_system = SimulatedSystem("c", "riscv")
        warm_system = SimulatedSystem("w", "riscv")
        warm_system.warm(1, program)
        warm_system.reset_stats()
        cold = cold_system.run(1, program, model="o3")
        warm = warm_system.run(1, program, model="o3")
        assert warm.cycles < cold.cycles
        assert (
            warm_system.dump_stats()["w.core1.l1d.misses"]
            < cold_system.dump_stats()["c.core1.l1d.misses"]
        )


class TestKvm:
    def test_kvm_runs_functionally(self):
        system = SimulatedSystem("s", "riscv")
        result = system.run(1, build_program(), model="kvm")
        assert result.instructions > 0

    @pytest.mark.parametrize("isa", ["riscv", "x86", "arm"])
    def test_kvm_counts_atomic_instructions(self, isa):
        """KVM's count, taken from the program's structure, equals the
        Atomic replay's on every predecode program shape, at the deepest
        call chain allowed, and fails the same way one call deeper."""
        from tests.sim.test_predecode import (
            build_program as predecode_program,
            call_chain,
            edge_runs,
            straightline,
            unrolled_shapes,
        )
        from repro.sim.isa.predecode import _MAX_CALL_DEPTH

        programs = [predecode_program(seed=3),
                    predecode_program(seed=5, random_pattern=True),
                    unrolled_shapes(seed=11), straightline(seed=13),
                    edge_runs(seed=5), call_chain(_MAX_CALL_DEPTH)]
        for program in programs:
            atomic = SimulatedSystem("a", isa).run(1, program, model="atomic",
                                                   seed=4)
            kvm = SimulatedSystem("k", isa).run(1, program, model="kvm",
                                                seed=4)
            assert kvm.instructions == atomic.instructions
        too_deep = call_chain(_MAX_CALL_DEPTH + 1)
        for model in ("atomic", "kvm"):
            with pytest.raises(RecursionError, match="call depth exceeded"):
                SimulatedSystem("d", isa).run(1, too_deep, model=model)

    def test_kvm_m5_ops_eventually_freeze(self):
        system = SimulatedSystem("s", "riscv", seed=0)
        kvm = system.cpu(1, "kvm")
        with pytest.raises(KvmInstabilityError):
            for _ in range(200):
                kvm.execute_m5_op("checkpoint")

    def test_kvm_failure_deterministic_per_seed(self):
        def failures(seed):
            system = SimulatedSystem("s", "riscv", seed=seed)
            kvm = system.cpu(1, "kvm")
            count = 0
            for _ in range(50):
                try:
                    kvm.execute_m5_op("dumpstats")
                except KvmInstabilityError:
                    count += 1
            return count

        assert failures(1) == failures(1)


class TestBranchPredictor:
    def test_learns_biased_branch(self):
        bpred = TournamentPredictor()
        correct = 0
        for _ in range(500):
            if bpred.predict_and_update(0x400000, True):
                correct += 1
        assert correct > 450

    def test_alternating_pattern_learned_by_local_history(self):
        bpred = TournamentPredictor()
        outcomes = [True, False] * 400
        correct = sum(
            1 for taken in outcomes if bpred.predict_and_update(0x400100, taken)
        )
        # Much better than the 50% a static predictor would get.
        assert correct > len(outcomes) * 0.6

    def test_flush_forgets(self):
        bpred = TournamentPredictor()
        for _ in range(100):
            bpred.predict_and_update(0x400000, True)
        state = bpred.state_dict()
        bpred.flush()
        assert bpred.state_dict() != state

    def test_state_roundtrip(self):
        bpred = TournamentPredictor()
        for index in range(200):
            bpred.predict_and_update(0x400000 + index * 4, index % 3 == 0)
        clone = TournamentPredictor()
        clone.load_state(bpred.state_dict())
        assert clone.state_dict() == bpred.state_dict()

    def test_two_bit_counter_saturates(self):
        table = TwoBitCounterTable(16)
        for _ in range(10):
            table.update(3, True)
        assert table.predict(3) is True
        table.update(3, False)
        assert table.predict(3) is True  # still strongly taken after one not-taken
        with pytest.raises(ValueError):
            TwoBitCounterTable(3)


class TestSystemPlumbing:
    def test_cpu_switching_preserves_memory_state(self):
        program = build_program(region_size=1 << 14)
        system = SimulatedSystem("s", "riscv")
        system.run(1, program, model="atomic")
        misses_before = system.dump_stats()["s.core1.l1d.misses"]
        system.switch_cpu(1, "o3")
        system.run(1, program, model="o3")
        # Second run reuses warmed caches: few new data misses.
        misses_after = system.dump_stats()["s.core1.l1d.misses"]
        assert misses_after - misses_before < misses_before

    def test_unknown_model_rejected(self):
        system = SimulatedSystem("s", "riscv")
        with pytest.raises(ValueError):
            system.cpu(0, "minor")

    def test_checkpoint_roundtrip(self):
        from repro.sim.checkpoint import restore_checkpoint, take_checkpoint

        program = build_program(region_size=1 << 14)
        system = SimulatedSystem("s", "riscv")
        system.run(1, program, model="o3")
        checkpoint = take_checkpoint(system, payload={"phase": "after-boot"})

        # Disturb the state, then restore.
        system.flush_core(1)
        payload = restore_checkpoint(system, checkpoint)
        assert payload == {"phase": "after-boot"}
        system.reset_stats()
        rerun = system.run(1, program, model="o3")
        # Restored caches are warm: much faster than a cold run.
        cold_system = SimulatedSystem("cold", "riscv")
        cold = cold_system.run(1, program, model="o3")
        assert rerun.cycles < cold.cycles
