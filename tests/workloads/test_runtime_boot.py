"""Runtime models, boot programs, and the work builder."""

import pytest

from repro.core.scale import SimScale
from repro.db import CassandraStore, MongoStore
from repro.sim.isa import get_isa, ir
from repro.sim.isa.predecode import instructions, program_length
from repro.workloads.boot import build_boot_program, build_db_boot_program
from repro.workloads.builder import WorkBuilder
from repro.workloads.runtime import RUNTIMES, get_runtime

SCALE = SimScale(time=1024, space=16)


class TestRuntimeModels:
    def test_registry_complete(self):
        assert set(RUNTIMES) == {"go", "python", "nodejs"}

    def test_go_is_compiled(self):
        assert not get_runtime("go").interpreted

    def test_python_dispatch_cost_linear(self):
        python = get_runtime("python")
        assert python.dispatch_cost(100, jit_warm=False) == \
            2 * python.dispatch_cost(50, jit_warm=False)

    def test_nodejs_jit_collapses_dispatch(self):
        nodejs = get_runtime("nodejs")
        cold = nodejs.dispatch_cost(100, jit_warm=False)
        warm = nodejs.dispatch_cost(100, jit_warm=True)
        assert warm < cold / 5

    def test_python_cold_path_is_heaviest(self):
        # The import-everything story: python has the largest init budget.
        budgets = {name: model.init_instructions
                   for name, model in RUNTIMES.items()}
        assert max(budgets, key=budgets.get) == "python"

    def test_unknown_runtime(self):
        with pytest.raises(ValueError):
            get_runtime("rust")


class TestBootPrograms:
    def test_riscv_boot_includes_opensbi_stage(self):
        riscv = build_boot_program("riscv", SCALE)
        x86 = build_boot_program("x86", SCALE)
        riscv_length = program_length(get_isa("riscv").assemble(riscv))
        x86_length = program_length(get_isa("x86").assemble(x86))
        # Same stack except the extra SBI stage (stack-kind expansion on
        # x86 cancels only partially at this size; compare on riscv).
        riscv_no_sbi = build_boot_program("x86", SCALE)
        assert riscv_length > program_length(get_isa("riscv").assemble(
            riscv_no_sbi))
        assert x86_length > 0

    def test_container_engine_stage_optional(self):
        with_engine = build_boot_program("riscv", SCALE)
        without = build_boot_program("riscv", SCALE,
                                     with_container_engine=False)
        isa = get_isa("riscv")
        assert program_length(isa.assemble(with_engine)) > \
            program_length(isa.assemble(without))

    def test_db_boot_scales_with_store_profile(self):
        isa = get_isa("riscv")
        cassandra = build_db_boot_program(CassandraStore(), "riscv", SCALE)
        mongo = build_db_boot_program(MongoStore(), "riscv", SCALE)
        assert program_length(isa.assemble(cassandra)) > \
            2 * program_length(isa.assemble(mongo))

    def test_fidelity_trades_instructions(self):
        isa = get_isa("riscv")
        fine = build_db_boot_program(MongoStore(), "riscv", SCALE, fidelity=8)
        coarse = build_db_boot_program(MongoStore(), "riscv", SCALE,
                                       fidelity=128)
        assert program_length(isa.assemble(fine)) > \
            program_length(isa.assemble(coarse))


class TestWorkBuilder:
    def make_builder(self, cold=True, runtime="go", **kwargs):
        return WorkBuilder("unit-fn", get_runtime(runtime), SCALE,
                           cold=cold, **kwargs)

    def test_build_once_only(self):
        builder = self.make_builder()
        builder.compute(ialu=10)
        builder.build()
        with pytest.raises(RuntimeError):
            builder.build()

    def test_cold_program_has_init_routine(self):
        cold_builder = self.make_builder(cold=True)
        cold_builder.compute(ialu=10)
        assert "init" in cold_builder.build().routines
        warm_builder = self.make_builder(cold=False)
        warm_builder.compute(ialu=10)
        assert "init" not in warm_builder.build().routines

    def test_compute_requires_work(self):
        builder = self.make_builder()
        with pytest.raises(ValueError):
            builder.compute()

    def test_touch_requires_traffic(self):
        builder = self.make_builder()
        region = builder.region("r", 4096)
        with pytest.raises(ValueError):
            builder.touch(region)

    def test_touch_unallocated_named_region(self):
        builder = self.make_builder()
        with pytest.raises(ValueError):
            builder.touch("ghost", loads=10)
        builder.touch("fresh", loads=10, region_bytes=8192)  # auto-allocates

    def test_region_caching(self):
        builder = self.make_builder()
        assert builder.region("r", 4096) is builder.region("r", 9999)

    def test_loop_collects_structure(self):
        builder = self.make_builder()
        with builder.loop(trips=5):
            builder.compute(ialu=10, scaled=False)
        program = builder.build()
        isa = get_isa("riscv")
        assembled = isa.assemble(program)
        from repro.sim.isa.base import InstrClass

        backedges = sum(
            1 for _pc, icls, _a, taken in instructions(assembled)
            if icls == InstrClass.BRANCH and taken
        )
        assert backedges >= 4  # 5 trips -> 4 taken backedges

    def test_interpreted_runtime_adds_dispatch(self):
        # On the same runtime, interpreted work costs ~6x native work
        # (5 dispatch ops + 1 app op per unit for CPython).
        isa = get_isa("riscv")

        def length(native, units):
            builder = self.make_builder(runtime="python", cold=False)
            builder.compute(ialu=units, native=native)
            return program_length(isa.assemble(builder.build()))

        baseline = length(native=True, units=1)
        interpreted_delta = length(native=False, units=200_000) - baseline
        native_delta = length(native=True, units=200_000) - baseline
        assert interpreted_delta > 4 * native_delta

    def test_native_bypasses_dispatch(self):
        a = self.make_builder(runtime="python", cold=False)
        a.compute(ialu=10_000, native=True)
        b = self.make_builder(runtime="python", cold=False)
        b.compute(ialu=10_000, native=False)
        isa = get_isa("riscv")
        assert program_length(isa.assemble(a.build())) < \
            program_length(isa.assemble(b.build()))

    def test_cold_connect_only_affects_cold(self):
        cold_builder = self.make_builder(cold=True)
        cold_builder.cold_connect("database")
        cold_builder.compute(ialu=10)
        warm_builder = self.make_builder(cold=False)
        warm_builder.cold_connect("database")  # silently ignored
        warm_builder.compute(ialu=10)
        isa = get_isa("riscv")
        assert program_length(isa.assemble(cold_builder.build())) > \
            program_length(isa.assemble(warm_builder.build())) * 3

    def test_service_work_noop_on_idle_receipt(self):
        from repro.db.engine import WorkReceipt

        builder = self.make_builder(cold=False)
        builder.service_work("db", WorkReceipt(), 1 << 20)
        builder.compute(ialu=1)
        program = builder.build()
        assert "svc.db.data" not in [r.name for r in program.space.regions]
