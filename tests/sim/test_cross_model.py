"""Cross-model invariants over randomly generated programs.

Whatever program the workload layer produces, the three CPU models must
agree on the architectural facts (instruction counts, memory-op counts)
and differ only in timing; checkpoints must replay identically; and both
ISAs must execute the same IR without error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import get_isa, ir
from repro.sim.isa.predecode import program_length
from repro.sim.system import SimulatedSystem


@st.composite
def ir_programs(draw):
    """Random small IR programs with loops, calls, and mixed blocks."""
    program = ir.Program("prop%d" % draw(st.integers(0, 10**6)),
                         seed=draw(st.integers(0, 1000)))
    buffer_region = program.space.alloc(
        "buf", draw(st.sampled_from([4096, 65536, 1 << 20])))

    def block():
        kind = draw(st.sampled_from(["app", "stack", "rtpath"]))
        ops = []
        if draw(st.booleans()):
            ops.append(ir.IROp(ir.OP_IALU, count=draw(st.integers(1, 200))))
        if draw(st.booleans()):
            pattern = draw(st.sampled_from([
                ir.StridePattern(stride=64),
                ir.RandomPattern(align=8),
                ir.HotColdPattern(),
            ]))
            ops.append(ir.IROp(ir.OP_LOAD, count=draw(st.integers(1, 100)),
                               region=buffer_region, pattern=pattern))
        if draw(st.booleans()):
            ops.append(ir.IROp(ir.OP_STORE, count=draw(st.integers(1, 50)),
                               region=buffer_region))
        if draw(st.booleans()):
            ops.append(ir.IROp(ir.OP_BRANCH, count=draw(st.integers(1, 30)),
                               taken_probability=draw(
                                   st.floats(0.0, 1.0))))
        if not ops:
            ops.append(ir.IROp(ir.OP_IALU, count=1))
        return ir.Block(ops, kind=kind, ilp=draw(st.integers(1, 8)))

    nodes = [block()]
    if draw(st.booleans()):
        nodes.append(ir.Loop(block(), trips=draw(st.integers(1, 10))))
    if draw(st.booleans()):
        program.add_routine(ir.Routine("helper", block()))
        nodes.append(ir.Call("helper"))
    program.add_routine(ir.Routine("main", ir.Seq(nodes)), entry=True)
    return program


@settings(max_examples=30, deadline=None)
@given(program=ir_programs(), isa_name=st.sampled_from(["riscv", "x86", "arm"]))
def test_property_models_agree_on_architectural_counts(program, isa_name):
    atomic_system = SimulatedSystem("a", isa_name)
    o3_system = SimulatedSystem("b", isa_name)
    kvm_system = SimulatedSystem("c", isa_name)
    atomic = atomic_system.run(1, program, model="atomic")
    o3 = o3_system.run(1, program, model="o3")
    kvm = kvm_system.run(1, program, model="kvm")
    assert atomic.instructions == o3.instructions == kvm.instructions
    assert atomic.loads == o3.loads
    assert atomic.stores == o3.stores
    # O3 never slower than the no-overlap in-order model, beyond the fixed
    # pipeline-fill cost and the mispredict squashes the Atomic model does
    # not charge at all.
    pipeline_fill_slack = 64
    mispredicts = o3_system.dump_stats().get("b.cpu1.o3.bpred.mispredicts", 0)
    squash_budget = mispredicts * (o3_system.o3_config.mispredict_penalty + 3)
    assert o3.cycles <= atomic.cycles + pipeline_fill_slack + squash_budget


@settings(max_examples=20, deadline=None)
@given(program=ir_programs())
def test_property_runs_are_deterministic(program):
    def run_once():
        system = SimulatedSystem("s", "riscv", seed=3)
        result = system.run(1, program, model="o3", seed=5)
        return (result.cycles, result.instructions,
                system.dump_stats()["s.core1.l1d.misses"])

    assert run_once() == run_once()


@settings(max_examples=200, deadline=None)
@given(program=ir_programs())
def test_property_checkpoint_restores_timing_exactly(program):
    from repro.sim.checkpoint import restore_checkpoint, take_checkpoint

    system = SimulatedSystem("s", "riscv")
    system.run(1, program, model="o3")
    checkpoint = take_checkpoint(system)
    baseline = system.run(1, program, model="o3").cycles
    system.flush_core(1)
    restore_checkpoint(system, checkpoint)
    assert system.run(1, program, model="o3").cycles == baseline


@settings(max_examples=20, deadline=None)
@given(program=ir_programs())
def test_property_warm_run_never_slower(program):
    system = SimulatedSystem("s", "riscv")
    cold = system.run(1, program, model="o3")
    warm = system.run(1, program, model="o3")
    assert warm.cycles <= cold.cycles


@settings(max_examples=20, deadline=None)
@given(program=ir_programs())
def test_property_isas_execute_same_ir(program):
    lengths = {}
    for isa_name in ("riscv", "x86", "arm"):
        assembled = get_isa(isa_name).assemble(program)
        lengths[isa_name] = program_length(assembled)
        assert lengths[isa_name] > 0
    # Fixed-width ISAs bracket the variable-length one only loosely; the
    # invariant worth holding is every ISA executes the full program.
    assert max(lengths.values()) < 4 * min(lengths.values())
