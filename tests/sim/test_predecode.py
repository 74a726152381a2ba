"""Block predecode cache equivalence: cached replay is bit-identical to
the legacy trace path — RunResult, full stat dumps, and trace event logs
— across ISAs, CPU models, sampling, seeds, program shapes and call
depths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import ir, predecode
from repro.sim.isa.trace import _MAX_CALL_DEPTH
from repro.sim.sampling import SamplingConfig
from repro.sim.system import SimulatedSystem

ISAS = ("riscv", "x86", "arm")


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


def run_with(enabled, program, isa, model, seed, sampling=None,
             vector=None):
    """One replay on a fresh system: its result and full stat dump.

    ``model`` is a CPU model, or ``"warm"`` for functional warming with
    an O3 branch predictor attached.
    """
    previous = predecode.set_enabled(enabled)
    try:
        system = SimulatedSystem("s", isa, vector=vector)
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
                      vector=None):
    cached = run_with(True, program, isa, model, seed, sampling, vector)
    legacy = run_with(False, program, isa, model, seed, sampling, vector)
    assert cached == legacy


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
