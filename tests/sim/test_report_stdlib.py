"""Program reports, the stdlib board builders, and FaaS/loadgen additions."""

import pytest

from repro.sim.isa import get_isa, ir
from repro.sim.isa.predecode import program_length
from repro.sim.isa.report import report
from repro.sim.stdlib import (
    build_board,
    list_cache_hierarchies,
    list_processors,
)


def make_program():
    program = ir.Program("demo", seed=2)
    buf = program.space.alloc("buf", 16 * 1024)
    body = ir.Seq([
        ir.compute_block(ialu=100, imul=20),
        ir.Loop(ir.touch_block(buf, loads=8, stores=2), trips=10),
    ])
    program.add_routine(ir.Routine("main", body), entry=True)
    return program


class TestProgramReport:
    def test_counts_match_trace(self):
        assembled = get_isa("riscv").assemble(make_program())
        profile = report(assembled)
        assert profile.dynamic_instructions == program_length(assembled)
        assert profile.dynamic_by_class["load"] == 80
        assert profile.dynamic_by_class["store"] == 20

    def test_footprints_positive_and_bounded(self):
        assembled = get_isa("riscv").assemble(make_program())
        profile = report(assembled)
        assert 0 < profile.code_footprint_bytes <= profile.static_code_bytes + 64
        assert profile.data_footprint_bytes <= 16 * 1024 + 64

    def test_branch_taken_fraction(self):
        assembled = get_isa("riscv").assemble(make_program())
        profile = report(assembled)
        # Loop backedge: 9 taken of 10.
        assert profile.branch_count == 10
        assert profile.branch_taken_fraction == pytest.approx(0.9)

    def test_render_mentions_mix(self):
        assembled = get_isa("x86").assemble(make_program())
        text = report(assembled).render()
        assert "x86" in text
        assert "ialu" in text
        assert "memory-op fraction" in text

    def test_x86_code_footprint_larger(self):
        program = make_program()
        riscv_profile = report(get_isa("riscv").assemble(program))
        x86_profile = report(get_isa("x86").assemble(program))
        assert x86_profile.static_code_bytes > riscv_profile.static_code_bytes


class TestStdlibBoards:
    def test_default_board_matches_table_4_1(self):
        board = build_board()
        assert board.num_cores == 2
        assert board.mem_config.l2_size == 512 * 1024
        assert board.o3_config.rob_entries == 192

    def test_presets_listed(self):
        assert "private-l1-private-l2" in list_cache_hierarchies()
        assert "o3-2core" in list_processors()

    def test_wide_beats_narrow_on_ilp_code(self):
        program = ir.Program("ilp", seed=1)
        program.add_routine(
            ir.Routine("main", ir.Block([ir.IROp(ir.OP_IALU, count=20000)],
                                        ilp=8)),
            entry=True,
        )
        wide = build_board(processor="o3-wide", name="wide")
        narrow = build_board(processor="o3-narrow", name="narrow")
        assert wide.run(0, program, model="o3").cycles < \
            narrow.run(0, program, model="o3").cycles

    def test_space_scale_shrinks_caches(self):
        board = build_board(space_scale=16)
        assert board.mem_config.l2_size == 512 * 1024 // 16

    def test_unknown_presets_rejected(self):
        with pytest.raises(ValueError):
            build_board(processor="pentium")
        with pytest.raises(ValueError):
            build_board(cache_hierarchy="exotic")

    def test_big_server_outperforms_small_embedded(self):
        program = make_program()
        big = build_board(cache_hierarchy="big-server", name="big")
        small = build_board(cache_hierarchy="small-embedded", name="small")
        assert big.run(0, program, model="o3").cycles <= \
            small.run(0, program, model="o3").cycles


class TestFaasErrorSemantics:
    def make_platform(self):
        from repro.serverless.container import base_image
        from repro.serverless.engine import install_docker
        from repro.serverless.faas import FaasPlatform

        engine = install_docker("riscv")
        engine.registry.push(base_image("go", "riscv"))
        platform = FaasPlatform(engine)

        def flaky(payload, ctx):
            if payload.get("explode"):
                raise RuntimeError("handler crashed")
            return {"ok": True}

        platform.deploy("flaky", "go-default", "go", flaky)
        return platform

    def test_error_propagates_by_default(self):
        platform = self.make_platform()
        with pytest.raises(RuntimeError):
            platform.invoke("flaky", {"explode": True})

    def test_error_response_mode(self):
        platform = self.make_platform()
        record = platform.invoke("flaky", {"explode": True}, raise_errors=False)
        assert not record.ok
        assert "handler crashed" in record.error
        assert record.result["error"]

    def test_crashed_instance_recycled_to_dead(self):
        from repro.serverless.faas import FunctionState

        platform = self.make_platform()
        platform.invoke("flaky", {})  # warm it
        platform.invoke("flaky", {"explode": True}, raise_errors=False)
        assert platform.state_of("flaky") == FunctionState.DEAD
        # Next request is a cold start.
        assert platform.invoke("flaky", {}).cold


class TestOpenLoopLoadgen:
    def make_platform(self, idle_timeout):
        from repro.serverless.container import base_image
        from repro.serverless.engine import install_docker
        from repro.serverless.faas import FaasPlatform, KeepAlivePolicy

        engine = install_docker("riscv")
        engine.registry.push(base_image("go", "riscv"))
        platform = FaasPlatform(
            engine, policy=KeepAlivePolicy(idle_timeout=idle_timeout))
        platform.deploy("fn", "go-default", "go", lambda payload, ctx: {})
        return platform

    def test_sparse_traffic_causes_cold_storms(self):
        from repro.serverless.loadgen import LoadGenerator

        sparse = LoadGenerator(self.make_platform(idle_timeout=5)) \
            .open_loop_session("fn", requests=60, mean_interarrival=20, seed=1)
        dense = LoadGenerator(self.make_platform(idle_timeout=5)) \
            .open_loop_session("fn", requests=60, mean_interarrival=0.5, seed=1)
        assert sparse.cold_rate > 3 * dense.cold_rate
        assert dense.cold_rate < 0.2

    def test_gap_elapses_before_request(self):
        # One request after a huge gap must find a dead instance.
        from repro.serverless.loadgen import LoadGenerator

        platform = self.make_platform(idle_timeout=5)
        platform.invoke("fn", {})
        record = platform.invoke("fn", {}, advance_clock=100.0)
        assert record.cold

    def test_parameter_validation(self):
        from repro.serverless.loadgen import LoadGenerator

        generator = LoadGenerator(self.make_platform(idle_timeout=5))
        with pytest.raises(ValueError):
            generator.open_loop_session("fn", requests=0, mean_interarrival=1)
        with pytest.raises(ValueError):
            generator.open_loop_session("fn", requests=1, mean_interarrival=0)
