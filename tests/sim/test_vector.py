"""Vector-extension tests: config parsing, strip planning, the
scalar-fallback byte-identity anchors, identity/digest threading, and the
RVV-vs-fixed-width stream divergence."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import get_isa, ir
from repro.sim.isa.base import InstrClass
from repro.sim.isa.predecode import instructions
from repro.sim.isa.report import report
from repro.sim.isa.vector import VectorConfig, elements_per_instr, strip_plan
from repro.sim.system import SimulatedSystem

ISAS = ("riscv", "x86", "arm")


def build_vector_program(seed=0, elements=500, ewidth=4, gather=False,
                         scalarize=False):
    """A program around one vector kernel; ``scalarize=True`` builds the
    hand-written scalar twin (what the kernel must fall back to)."""
    program = ir.Program("vkernel", seed=seed)
    src = program.space.alloc("src", 1 << 14)
    dst = program.space.alloc("dst", 1 << 14)
    kernel = ir.vector_block(elements, ewidth=ewidth, load_region=src,
                             store_region=dst, fma_per_element=0.5,
                             alu_per_element=0.25, gather=gather)
    if scalarize:
        kernel = ir.Block([ir.scalar_equivalent(op) for op in kernel.ops],
                          kind=kernel.kind, ilp=kernel.ilp)
    program.add_routine(ir.Routine("main", ir.Seq([
        ir.straightline_block(64, data_region=src),
        kernel,
        ir.Block([ir.IROp(ir.OP_BRANCH, count=8, taken_probability=0.7)]),
    ])), entry=True)
    return program


class TestConfig:
    def test_presets_and_off(self):
        assert VectorConfig.parse(None) is None
        for name in ("off", "none", "scalar", ""):
            assert VectorConfig.parse(name) is None
        assert VectorConfig.parse("rvv128").vlen == 128
        assert VectorConfig.parse("rvv256").vlen == 256
        assert VectorConfig.parse("rvv512").lanes == 4

    def test_parse_key_value(self):
        config = VectorConfig.parse("vlen=192,lanes=3")
        assert (config.vlen, config.lanes) == (192, 3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            VectorConfig.parse("avx9000")
        with pytest.raises(ValueError):
            VectorConfig.parse("vlen=256,banana=2")

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorConfig(vlen=100)  # not a multiple of 64
        with pytest.raises(ValueError):
            VectorConfig(vlen=32)
        with pytest.raises(ValueError):
            VectorConfig(lanes=0)

    def test_fingerprint_equality_hash(self):
        assert VectorConfig(vlen=256, lanes=2).fingerprint() == "v256.l2"
        assert VectorConfig(vlen=256) == VectorConfig(vlen=256)
        assert VectorConfig(vlen=256) != VectorConfig(vlen=512)
        assert hash(VectorConfig(vlen=128)) == hash(VectorConfig(vlen=128))


class TestStripPlan:
    @given(count=st.integers(1, 5000),
           vlen=st.sampled_from((64, 128, 256, 512)),
           ewidth=st.sampled_from((1, 2, 4, 8)))
    @settings(max_examples=80, deadline=None)
    def test_strips_cover_exactly_the_elements(self, count, vlen, ewidth):
        """Stripmining is lossless: strip totals equal the element count
        the scalar-equivalent stream would issue one-by-one."""
        plan = strip_plan(count, vlen, ewidth)
        epi = elements_per_instr(vlen, ewidth)
        assert sum(plan) == count
        assert all(1 <= strip <= epi for strip in plan)
        assert len(plan) == (count + epi - 1) // epi

    @given(count=st.integers(1, 5000),
           ewidth=st.sampled_from((1, 2, 4, 8)))
    @settings(max_examples=40, deadline=None)
    def test_scalar_equivalent_preserves_counts(self, count, ewidth):
        src = ir.Region("r", 0x1000, 4096)
        op = ir.IROp(ir.OP_VLOAD, count=count, region=src, ewidth=ewidth)
        scalar = ir.scalar_equivalent(op)
        assert scalar.kind == ir.OP_LOAD
        assert scalar.count == count
        assert scalar.region is op.region


class TestScalarFallback:
    """Vector IR with no vector unit must be byte-identical to the
    hand-written scalar program — streams, timing, everything."""

    @pytest.mark.parametrize("isa_name", ISAS)
    def test_stream_identical_per_isa(self, isa_name):
        vector = build_vector_program()
        scalar = build_vector_program(scalarize=True)
        traced_v = list(instructions(get_isa(isa_name).assemble(vector), 3))
        traced_s = list(instructions(get_isa(isa_name).assemble(scalar), 3))
        assert traced_v == traced_s

    @pytest.mark.parametrize("isa_name", ISAS)
    @pytest.mark.parametrize("model", ("atomic", "o3"))
    def test_run_identical_per_isa_and_model(self, isa_name, model):
        runs = []
        for scalarize in (False, True):
            program = build_vector_program(scalarize=scalarize)
            result = SimulatedSystem("s", isa_name).run(
                1, program, model=model, seed=2)
            runs.append((result.cycles, result.instructions, result.loads,
                         result.stores, result.branches))
        assert runs[0] == runs[1]

    def test_gather_fallback_identical(self):
        vector = build_vector_program(gather=True, ewidth=1)
        scalar = build_vector_program(gather=True, ewidth=1, scalarize=True)
        a = SimulatedSystem("s", "riscv").run(1, vector, model="o3", seed=5)
        b = SimulatedSystem("s", "riscv").run(1, scalar, model="o3", seed=5)
        assert (a.cycles, a.instructions) == (b.cycles, b.instructions)


class TestVectorStreams:
    def mix(self, isa_name, config, **kwargs):
        program = build_vector_program(**kwargs)
        assembled = get_isa(isa_name, vector=config).assemble(program)
        return report(assembled)

    def test_rvv_emits_vsetvli_fixed_width_does_not(self):
        rvv = self.mix("riscv", VectorConfig.parse("rvv256"))
        sse = self.mix("x86", VectorConfig.parse("rvv256"))
        neon = self.mix("arm", VectorConfig.parse("rvv256"))
        assert rvv.dynamic_by_class["csr"] > 0
        assert sse.dynamic_by_class["csr"] == 0
        assert neon.dynamic_by_class["csr"] == 0

    def test_vector_shrinks_the_stream(self):
        scalar = self.mix("riscv", None)
        rvv = self.mix("riscv", VectorConfig.parse("rvv256"))
        assert rvv.dynamic_instructions < scalar.dynamic_instructions

    def test_vlen_changes_strip_count(self):
        narrow = self.mix("riscv", VectorConfig.parse("rvv128"))
        wide = self.mix("riscv", VectorConfig.parse("rvv512"))
        assert wide.dynamic_instructions < narrow.dynamic_instructions

    def test_rvv_and_sse_streams_differ(self):
        config = VectorConfig.parse("rvv256")
        rvv = self.mix("riscv", config)
        sse = self.mix("x86", config)
        assert rvv.dynamic_instructions != sse.dynamic_instructions

    def test_sse_width_is_fixed_regardless_of_vlen(self):
        """A fixed-width ISA ignores VLEN: same stream for any setting."""
        narrow = self.mix("x86", VectorConfig.parse("rvv128"))
        wide = self.mix("x86", VectorConfig.parse("rvv512"))
        assert narrow.dynamic_instructions == wide.dynamic_instructions

    @pytest.mark.parametrize("model", ("atomic", "o3"))
    def test_vector_run_deterministic(self, model):
        config = VectorConfig.parse("rvv256")
        results = []
        for _ in range(2):
            program = build_vector_program()
            system = SimulatedSystem("s", "riscv", vector=config)
            result = system.run(1, program, model=model, seed=4)
            results.append((result.cycles, result.instructions,
                            result.loads, result.stores))
        assert results[0] == results[1]

    def test_models_agree_on_vector_instruction_totals(self):
        config = VectorConfig.parse("rvv256")
        program = build_vector_program()
        atomic = SimulatedSystem("s", "riscv", vector=config).run(
            1, program, model="atomic", seed=4)
        o3 = SimulatedSystem("s", "riscv", vector=config).run(
            1, program, model="o3", seed=4)
        assert atomic.instructions == o3.instructions
        assert atomic.loads == o3.loads
        assert atomic.stores == o3.stores


class TestIdentity:
    def test_digest_unchanged_when_vector_none(self):
        """Digests minted before the vector layer existed must stay valid."""
        from repro.core.rescache import measurement_digest

        legacy = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",))
        explicit = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",),
                                      vector=None)
        assert legacy == explicit

    def test_digest_changes_with_vector(self):
        from repro.core.rescache import measurement_digest

        plain = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",))
        vectored = measurement_digest(
            "aes-go", "riscv", 2048, 32, 0, ("fp",),
            vector=VectorConfig.parse("rvv256").fingerprint())
        assert plain != vectored

    def test_spec_identity_tracks_vector(self):
        from repro.core.spec import MeasurementSpec

        plain = MeasurementSpec(function="aes-go", isa="riscv")
        vectored = plain.replace(vector=VectorConfig.parse("rvv256"))
        assert plain != vectored
        assert vectored.replace(vector=None) == plain
        assert hash(vectored.replace(vector=None)) == hash(plain)

    def test_spec_pickle_round_trip(self):
        from repro.core.spec import MeasurementSpec

        spec = MeasurementSpec(function="aes-go", isa="riscv",
                               vector=VectorConfig.parse("rvv512"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.vector == spec.vector

    def test_fingerprint_separates_vector_ops(self):
        """Program fingerprints must distinguish vector from scalar twins
        (they share the assembled-program cache keyed on fingerprints)."""
        vector = build_vector_program()
        scalar = build_vector_program(scalarize=True)
        assert vector.fingerprint() != scalar.fingerprint()

    def test_measurement_vector_vs_scalar_differ(self):
        from repro.core.parallel import execute_task
        from repro.core.scale import TEST
        from repro.core.spec import MeasurementSpec

        spec = MeasurementSpec(function="matmul-int8", isa="riscv",
                               scale=TEST, seed=0)
        plain = execute_task(spec)
        vectored = execute_task(
            spec.replace(vector=VectorConfig.parse("rvv256")))
        assert vectored.cold.instructions < plain.cold.instructions
