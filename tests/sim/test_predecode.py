"""Predecode replay pinned to literal goldens: RunResult, full stat
dumps, memory-call streams and trace event logs, across ISAs, CPU models,
sampling, the vector lane, seeds, program shapes, I-cache line sizes and
call depths.

Every golden was captured from the per-instruction trace walker that
was the reference replay until it was retired; predecode replay matched
it bit for bit.  A hypothesis property checks what needs no oracle.
"""

import hashlib
import json
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import ir, predecode
from repro.sim.isa.base import AssembledBlock, InstrClass, UnrolledRun
from repro.sim.isa.predecode import _MAX_CALL_DEPTH
from repro.sim.isa.vector import VectorConfig
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


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stat_digest(dump):
    """16 hex digits of SHA-256 over a stat dump's sorted items."""
    return text_digest("\n".join("%s=%r" % item
                                 for item in sorted(dump.items())))


def replay(program, isa, model, seed, sampling=None, vector=None,
           line_size=64):
    """One replay on a fresh system: its counters and stat-dump digest.

    ``model`` is a CPU model, whose counters are the ``RunResult``
    fields, or ``"warm"`` for functional warming with an O3 branch
    predictor attached, whose counter is the warmed instruction count.
    ``line_size`` is the cache line size in bytes, which sets the
    I-cache fetch granularity.
    """
    system = system_for(isa, line_size, vector)
    if model == "warm":
        system.cpu(1, "o3")  # instantiate so warming trains bpred
        counters = (system.warm(1, program, seed=seed),)
    else:
        run = system.run(1, program, model=model, seed=seed,
                         sampling=sampling)
        counters = (run.cycles, run.instructions, run.loads, run.stores,
                    run.branches)
    return counters + (stat_digest(system.dump_stats()),)


def assert_golden(key, observe, *args):
    """``observe(*args)`` gives the literal ``GOLDENS[key]``."""
    assert observe(*args) == GOLDENS[key]


def assert_replay(key, program, isa, model, seed=0, sampling=None,
                  vector=None, line_size=64):
    assert_golden(key, replay, program, isa, model, seed, sampling,
                  vector, line_size)


def memory_calls(program, isa, seed=0, line_size=64):
    """Every ``ifetch`` and ``data_access`` of one Atomic replay, with
    its arguments (PC, address, write flag and cycle): their number and
    digest."""
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
    assert any(call[0] == "ifetch" for call in calls)
    return len(calls), text_digest("\n".join(map(repr, calls)))


def traced_log():
    """The obs layer's frozen event log of one traced measurement, as
    the digest of its sorted JSON."""
    from repro.core.harness import ExperimentHarness
    from repro.core.scale import SimScale
    from repro.obs.tracer import Tracer
    from repro.workloads.catalog import STANDALONE_FUNCTIONS

    tracer = Tracer()
    harness = ExperimentHarness(isa="riscv", scale=SimScale(512, 16),
                                tracer=tracer)
    harness.measure_function(STANDALONE_FUNCTIONS[0])
    return text_digest(json.dumps(tracer.freeze(), sort_keys=True))


def warming(program, seed):
    """Functional warming on a fresh RISC-V system with no detailed
    core: the warmed count and the stat-dump digest."""
    system = SimulatedSystem("w", "riscv")
    count = system.warm(1, program, seed=seed)
    return count, stat_digest(system.dump_stats())


#: Sampling geometries of the sampled cases; the vector program runs
#: about 450 instructions, so its windows are smaller.
SAMPLED = SamplingConfig(interval=2048, detail=512, warmup=128,
                         jitter=True, min_insts=0)
UNROLLED_SAMPLED = SamplingConfig(interval=1024, detail=256, warmup=256,
                                  jitter=True, min_insts=0)
VECTOR_SAMPLED = SamplingConfig(interval=128, detail=48, warmup=16,
                                jitter=True, min_insts=0)
RVV256 = VectorConfig.parse("rvv256")

#: A fixed grid over ``build_program``'s knobs:
#: (isa, model, pattern, trips, taken probability, seed).
GRID = (
    ("riscv", "atomic", "stride", 1, 0.0, 0),
    ("riscv", "o3", "random", 40, 0.7, 17),
    ("riscv", "atomic", "random", 40, 1.0, 1234),
    ("riscv", "o3", "stride", 1, 1.0, 65535),
    ("riscv", "o3", "stride", 17, 0.35, 3),
    ("x86", "atomic", "stride", 40, 0.7, 3),
    ("x86", "o3", "random", 1, 0.0, 999),
    ("x86", "atomic", "random", 1, 0.7, 42),
    ("x86", "o3", "stride", 40, 1.0, 7),
    ("arm", "atomic", "stride", 40, 0.0, 31337),
    ("arm", "o3", "random", 40, 0.7, 8),
    ("arm", "atomic", "random", 1, 1.0, 2),
    ("arm", "o3", "stride", 1, 0.0, 500),
    ("arm", "atomic", "random", 17, 0.35, 65000),
)


def grid_id(case):
    isa, model, pattern, trips, probability, seed = case
    return "%s-%s-%s-t%d-p%s-s%d" % (isa, model, pattern, trips,
                                     probability, seed)


#: Case key -> the literal its observation gives: the RunResult fields
#: (or the warmed count) plus the stat-dump digest for replays, the
#: count and digest of the recorded calls for ``memory_calls``, and the
#: event-log digest for ``traced_log``.
GOLDENS = {
    ('chain', 'atomic'):
        (7056, 394, 2, 1, 0, 'ab8c2d75752dca16'),
    ('chain', 'o3'):
        (6202, 394, 2, 1, 0, '27f430af23914ab7'),
    ('chain', 'warm'):
        (394, '4e413c3220f3c4a7'),
    ('edges', 'riscv', 128):
        (30, 'b83bf3e20e91c4e6'),
    ('edges', 'riscv', 16):
        (47, '4808a106d90bc182'),
    ('edges', 'riscv', 32):
        (37, '103028aaece29840'),
    ('edges', 'riscv', 64):
        (32, '3345ddc9eddc7d83'),
    ('edges', 'x86', 128):
        (29, 'cedb3aef80729ffb'),
    ('edges', 'x86', 16):
        (53, 'de0ca3a228c04cfb'),
    ('edges', 'x86', 32):
        (39, '76b62b351073eebb'),
    ('edges', 'x86', 64):
        (32, 'bd90be84d09621f1'),
    ('grid', 'arm-atomic-random-t1-p1.0-s2'):
        (4976, 554, 100, 30, 41, '222fdad8a18a055e'),
    ('grid', 'arm-atomic-random-t17-p0.35-s65000'):
        (10138, 842, 164, 62, 57, '3dbefd8bb0628012'),
    ('grid', 'arm-atomic-stride-t40-p0.0-s31337'):
        (5506, 1256, 256, 108, 80, '45cbfce55eeea07e'),
    ('grid', 'arm-o3-random-t40-p0.7-s8'):
        (5916, 1256, 256, 108, 80, '3a2ec99e2dd0acf8'),
    ('grid', 'arm-o3-stride-t1-p0.0-s500'):
        (3078, 554, 100, 30, 41, 'd040e67c30923e52'),
    ('grid', 'riscv-atomic-random-t40-p1.0-s1234'):
        (11638, 1234, 240, 104, 72, 'ce0bbca587d29d87'),
    ('grid', 'riscv-atomic-stride-t1-p0.0-s0'):
        (3045, 493, 84, 26, 33, '30e1c1b0096c742c'),
    ('grid', 'riscv-o3-random-t40-p0.7-s17'):
        (5109, 1234, 240, 104, 72, '3750724285ff4334'),
    ('grid', 'riscv-o3-stride-t1-p1.0-s65535'):
        (2087, 493, 84, 26, 33, 'fe0e6582ab62ddd1'),
    ('grid', 'riscv-o3-stride-t17-p0.35-s3'):
        (2429, 797, 148, 58, 49, '751f758ef1dcf3b1'),
    ('grid', 'x86-atomic-random-t1-p0.7-s42'):
        (6800, 740, 148, 46, 61, '833395a6ce291d34'),
    ('grid', 'x86-atomic-stride-t40-p0.7-s3'):
        (7379, 1403, 304, 124, 100, '0921e459c40eb2d0'),
    ('grid', 'x86-o3-random-t1-p0.0-s999'):
        (4593, 740, 148, 46, 61, '9765a5ed05f9a907'),
    ('grid', 'x86-o3-stride-t40-p1.0-s7'):
        (4782, 1403, 304, 124, 100, 'b31def6a2819708d'),
    ('lines', 'straightline', 'atomic', 'riscv', 128):
        (4097, 601, 150, 48, 30, '06e50ac41a8282ed'),
    ('lines', 'straightline', 'atomic', 'riscv', 16):
        (22655, 601, 150, 48, 30, '8d1d50e864c3c967'),
    ('lines', 'straightline', 'atomic', 'riscv', 32):
        (12025, 601, 150, 48, 30, '4cc1a4c50ef57f4a'),
    ('lines', 'straightline', 'atomic', 'riscv', 64):
        (6799, 601, 150, 48, 30, '840fcce46791629e'),
    ('lines', 'straightline', 'atomic', 'x86', 128):
        (7886, 1100, 270, 86, 73, 'fc6b235f768f814b'),
    ('lines', 'straightline', 'atomic', 'x86', 16):
        (49230, 1100, 270, 86, 73, '8d5071d7b86ef1f5'),
    ('lines', 'straightline', 'atomic', 'x86', 32):
        (25640, 1100, 270, 86, 73, 'a281ba619b050f89'),
    ('lines', 'straightline', 'atomic', 'x86', 64):
        (13804, 1100, 270, 86, 73, '394122b4b2260422'),
    ('lines', 'straightline', 'warm', 'riscv', 128):
        (601, '4d9bea18cb4aeb38'),
    ('lines', 'straightline', 'warm', 'riscv', 16):
        (601, '84fc57c270990fbe'),
    ('lines', 'straightline', 'warm', 'riscv', 32):
        (601, '4f5f0a1be40ee692'),
    ('lines', 'straightline', 'warm', 'riscv', 64):
        (601, '2bc083ee67a10ffa'),
    ('lines', 'straightline', 'warm', 'x86', 128):
        (1100, 'af38c1d4b1f5cf86'),
    ('lines', 'straightline', 'warm', 'x86', 16):
        (1100, 'b724c4ba0c3bb266'),
    ('lines', 'straightline', 'warm', 'x86', 32):
        (1100, '4023f9066c9ad94b'),
    ('lines', 'straightline', 'warm', 'x86', 64):
        (1100, '763fa50692d3806b'),
    ('lines', 'unrolled', 'atomic', 'riscv', 128):
        (13905, 3031, 840, 490, 706, '32442ce2002b8b83'),
    ('lines', 'unrolled', 'atomic', 'riscv', 16):
        (57715, 3031, 840, 490, 706, '19b697fc35eb2201'),
    ('lines', 'unrolled', 'atomic', 'riscv', 32):
        (35047, 3031, 840, 490, 706, '9dc865613bfd674d'),
    ('lines', 'unrolled', 'atomic', 'riscv', 64):
        (20759, 3031, 840, 490, 706, '3a4d7e980315b734'),
    ('lines', 'unrolled', 'atomic', 'x86', 128):
        (21945, 5901, 1512, 882, 1714, '197a094109151618'),
    ('lines', 'unrolled', 'atomic', 'x86', 16):
        (97193, 5901, 1512, 882, 1714, '65f506f4c0c4584d'),
    ('lines', 'unrolled', 'atomic', 'x86', 32):
        (55333, 5901, 1512, 882, 1714, 'b9c651e2a8097572'),
    ('lines', 'unrolled', 'atomic', 'x86', 64):
        (32887, 5901, 1512, 882, 1714, '1ce380905a225eec'),
    ('lines', 'unrolled', 'warm', 'riscv', 128):
        (3031, 'bb439b006d18cccd'),
    ('lines', 'unrolled', 'warm', 'riscv', 16):
        (3031, 'b6ec88298523faef'),
    ('lines', 'unrolled', 'warm', 'riscv', 32):
        (3031, '8883eb75facd350e'),
    ('lines', 'unrolled', 'warm', 'riscv', 64):
        (3031, 'c5cbd509c2e71fb5'),
    ('lines', 'unrolled', 'warm', 'x86', 128):
        (5901, 'b32014b1b1ec7097'),
    ('lines', 'unrolled', 'warm', 'x86', 16):
        (5901, '8fc10c4aa853e5c7'),
    ('lines', 'unrolled', 'warm', 'x86', 32):
        (5901, 'aa56165845d8f8b0'),
    ('lines', 'unrolled', 'warm', 'x86', 64):
        (5901, '37ea457957c04dfb'),
    ('models', 'atomic', 'arm'):
        (4906, 896, 176, 68, 60, '840b3467b3f1dae7'),
    ('models', 'atomic', 'riscv'):
        (3894, 854, 160, 64, 52, 'a7a3f4c61be8f32c'),
    ('models', 'atomic', 'x86'):
        (6799, 1063, 224, 84, 80, '56e10daad49700c2'),
    ('models', 'o3', 'arm'):
        (3194, 896, 176, 68, 60, '5cd7b0320c10296b'),
    ('models', 'o3', 'riscv'):
        (2367, 854, 160, 64, 52, '51a19157c6b572df'),
    ('models', 'o3', 'x86'):
        (4667, 1063, 224, 84, 80, 'e0c25b1805d9ab7b'),
    ('random', 'arm'):
        (4731, 896, 176, 68, 60, '986dc73923bed682'),
    ('random', 'riscv'):
        (3862, 854, 160, 64, 52, '4d0ec1ad8e2777c7'),
    ('random', 'x86'):
        (6141, 1063, 224, 84, 80, '0f890204c7534bcd'),
    ('sampled', 'arm'):
        (7242, 1256, 256, 108, 80, '3bbcc62dcedfa547'),
    ('sampled', 'riscv'):
        (5160, 1234, 240, 104, 72, '3c1af4891854628e'),
    ('sampled', 'x86'):
        (10514, 1403, 304, 124, 100, '86705deeca26b8f7'),
    ('traced',):
        'cf9552d32ffae61c',
    ('unrolled', 'atomic', 'arm'):
        (25025, 3717, 1008, 588, 930, '34f1a7e750905806'),
    ('unrolled', 'atomic', 'riscv'):
        (21521, 3031, 840, 490, 706, '549174f0809bd8bf'),
    ('unrolled', 'atomic', 'x86'):
        (32651, 5901, 1512, 882, 1714, '412c96885f13e281'),
    ('unrolled', 'o3', 'arm'):
        (14031, 3717, 1008, 588, 930, '48c641d3636341eb'),
    ('unrolled', 'o3', 'riscv'):
        (10540, 3031, 840, 490, 706, '3bec17bace1375e3'),
    ('unrolled', 'o3', 'x86'):
        (22936, 5901, 1512, 882, 1714, '5e631a0fb3a9b86c'),
    ('unrolled', 'sampled', 'arm'):
        (24086, 3717, 1008, 588, 930, 'ed7bc193d99887f4'),
    ('unrolled', 'sampled', 'riscv'):
        (13442, 3031, 840, 490, 706, 'e8bae509b4585e3f'),
    ('unrolled', 'sampled', 'x86'):
        (35540, 5901, 1512, 882, 1714, '9f26d6fe60cda1ed'),
    ('unrolled', 'warm', 'arm'):
        (3717, 'efdc0e4f21dc94c7'),
    ('unrolled', 'warm', 'riscv'):
        (3031, '52b8846107a0f39b'),
    ('unrolled', 'warm', 'x86'):
        (5901, '18973aa85e7bf1a0'),
    ('vector', 'atomic', 'arm'):
        (3834, 432, 144, 131, 13, 'f209bbea5558599d'),
    ('vector', 'atomic', 'riscv'):
        (3487, 421, 79, 68, 11, '554f0b369e847940'),
    ('vector', 'atomic', 'x86'):
        (4334, 474, 154, 134, 18, '4aa4ed574d30b626'),
    ('vector', 'o3', 'arm'):
        (1710, 432, 144, 131, 13, 'fbee9d7074a6116c'),
    ('vector', 'o3', 'riscv'):
        (3740, 421, 79, 68, 11, '98d6e0367c878086'),
    ('vector', 'o3', 'x86'):
        (2024, 474, 154, 134, 18, 'ec53643789fcd881'),
    ('vector', 'sampled', 'arm'):
        (1416, 432, 144, 131, 13, 'c25aa1beb69c9d96'),
    ('vector', 'sampled', 'riscv'):
        (3637, 421, 79, 68, 11, '573e4be157bec927'),
    ('vector', 'sampled', 'x86'):
        (2316, 474, 154, 134, 18, '271640b2e5916fb6'),
    ('vector', 'warm', 'arm'):
        (432, '317d4a5f7c430976'),
    ('vector', 'warm', 'riscv'):
        (421, '06d1938a8ac90dc0'),
    ('vector', 'warm', 'x86'):
        (474, '9db2f0c5b549b0bb'),
    ('warm', 'arm'):
        (896, '626775d133198d89'),
    ('warm', 'riscv'):
        (854, '3b081e10e64a5bf2'),
    ('warm', 'x86'):
        (1063, 'b371ad015ac0e7bf'),
    ('warming',):
        (854, 'aa7eeaf52e96e9f8'),
}


class TestEquivalence:
    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("model", ["atomic", "o3"])
    def test_models_bit_identical(self, isa, model):
        assert_replay(("models", model, isa), build_program(seed=3), isa,
                      model, seed=3)

    @pytest.mark.parametrize("isa", ISAS)
    def test_warm_bit_identical(self, isa):
        """Functional warming, with the O3 branch predictor training."""
        assert_replay(("warm", isa), build_program(seed=3), isa, "warm",
                      seed=3)

    @pytest.mark.parametrize("isa", ISAS)
    def test_random_patterns_draw_identically(self, isa):
        program = build_program(seed=5, random_pattern=True)
        assert_replay(("random", isa), program, isa, "o3", seed=5)

    @pytest.mark.parametrize("isa", ISAS)
    def test_sampled_bit_identical(self, isa):
        """Sampled O3: fast-forward, warm-up and detail windows."""
        program = build_program(seed=9, trips=40)
        assert_replay(("sampled", isa), program, isa, "o3", seed=9,
                      sampling=SAMPLED)

    @pytest.mark.parametrize("isa", ISAS)
    def test_vector_lane_bit_identical(self, isa):
        """Lowered vector strips need no vector-specific replay code."""
        from tests.sim.test_vector import build_vector_program

        assert_replay(("vector", "o3", isa), build_vector_program(seed=6),
                      isa, "o3", seed=6, vector=RVV256)

    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("model", ["atomic", "warm", "sampled"])
    def test_vector_lane_every_mode(self, model, isa):
        """The rvv256 program under Atomic, warming and sampled O3."""
        from tests.sim.test_vector import build_vector_program

        sampling = None
        run_model = model
        if model == "sampled":
            run_model = "o3"
            sampling = VECTOR_SAMPLED
        assert_replay(("vector", model, isa), build_vector_program(seed=6),
                      isa, run_model, seed=6, sampling=sampling,
                      vector=RVV256)

    @pytest.mark.parametrize("isa", ISAS)
    @pytest.mark.parametrize("model", ["atomic", "o3", "warm", "sampled"])
    def test_unrolled_shapes_bit_identical(self, isa, model):
        """Every unrolled op kind and pattern, in every replay mode."""
        sampling = None
        run_model = model
        if model == "sampled":
            run_model = "o3"
            sampling = UNROLLED_SAMPLED
        assert_replay(("unrolled", model, isa), unrolled_shapes(seed=11),
                      isa, run_model, seed=11, sampling=sampling)

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("isa", ("riscv", "x86"))
    @pytest.mark.parametrize("model", ["atomic", "warm"])
    @pytest.mark.parametrize("shape", ["unrolled", "straightline"])
    def test_line_sizes_bit_identical(self, shape, model, isa, line_size):
        """Line splits of unrolled runs hold at every fetch granularity."""
        program = (unrolled_shapes(seed=13) if shape == "unrolled"
                   else straightline(seed=13))
        assert_replay(("lines", shape, model, isa, line_size), program,
                      isa, model, seed=13, line_size=line_size)

    def test_warming_equivalent(self):
        assert_golden(("warming",), warming, build_program(seed=1), 1)

    @pytest.mark.parametrize("case", GRID, ids=grid_id)
    def test_grid_matches_golden(self, case):
        """Atomic and O3 over ``build_program``'s knobs: three ISAs,
        stride and random patterns, 1-40 trips, taken probabilities
        0.0-1.0 and seeds up to 2**16."""
        isa, model, pattern, trips, probability, seed = case
        program = build_program(seed=seed, trips=trips,
                                taken_probability=probability,
                                random_pattern=pattern == "random")
        assert_replay(("grid", grid_id(case)), program, isa, model,
                      seed=seed)

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
        return list(predecode.o3_stream(assembled, seed, 6))

    @pytest.mark.parametrize("isa", ISAS)
    def test_unrolled_segment_is_one_run(self, isa):
        """A block of k unrolled ops decodes to k runs, one per segment,
        carrying its instances' PCs: instance i at base_pc +
        sum(sizes[:i])."""
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
            base = segment.base_pc
            assert list(pcs) == list(accumulate(segment.sizes[:-1],
                                                initial=base))
            assert (pc, line) == (base, base >> 6)
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
        the repeat instruction before them: the pinned ifetch and
        data_access calls, with their arguments."""
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
        assert_golden(("edges", isa, line_size), memory_calls, program, isa,
                      5, line_size)


class TestCallDepth:
    """Replay stops one call past the deepest allowed chain."""

    MODES = ("atomic", "o3", "warm")
    too_deep = pytest.mark.parametrize(
        "program", [call_chain(_MAX_CALL_DEPTH + 1), self_recursive()],
        ids=["chain65", "self"])

    @pytest.mark.parametrize("model", MODES)
    def test_deepest_allowed_chain_bit_identical(self, model):
        assert_replay(("chain", model), call_chain(_MAX_CALL_DEPTH),
                      "riscv", model, seed=2)

    # ``True`` in the ids names the predecode replay; the ids keep
    # that field, so the recorded test names stay stable.
    @pytest.mark.parametrize("predecoded", [True])
    @pytest.mark.parametrize("model", MODES)
    @too_deep
    def test_too_deep_raises(self, program, model, predecoded):
        with pytest.raises(RecursionError, match="call depth exceeded"):
            replay(program, "riscv", model, 2)

    def test_program_length_at_the_limit(self):
        program = call_chain(_MAX_CALL_DEPTH)
        instructions = replay(program, "riscv", "o3", 2)[1]
        assembled = SimulatedSystem("s", "riscv").assemble(program)
        assert predecode.program_length(assembled) == instructions

    @too_deep
    def test_program_length_too_deep_raises(self, program):
        assembled = SimulatedSystem("s", "riscv").assemble(program)
        with pytest.raises(RecursionError, match="call depth exceeded"):
            predecode.program_length(assembled)


@settings(max_examples=12, deadline=None)
@given(
    isa=st.sampled_from(ISAS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    trips=st.integers(min_value=1, max_value=40),
    taken_probability=st.floats(min_value=0.0, max_value=1.0),
    random_pattern=st.booleans(),
)
def test_property_replay_consistent(isa, seed, trips, taken_probability,
                                    random_pattern):
    """Checks that need no oracle: Atomic, O3 and warming execute the
    program's length, Atomic's class counts are the instruction
    stream's, and a second replay on a fresh system, reusing the cached
    decode, repeats the first."""
    program = build_program(seed=seed, trips=trips,
                            taken_probability=taken_probability,
                            random_pattern=random_pattern)
    system = system_for(isa)
    system.run(1, program, model="atomic", seed=seed)
    assembled = system.assemble(program)
    histogram = Counter(InstrClass.NAMES[icls] for _, icls, _, _ in
                        predecode.instructions(assembled, seed))
    dump = system.dump_stats()
    assert {name: dump["s.cpu1.atomic.instsByClass::" + name]
            for name in InstrClass.NAMES} == \
        {name: histogram[name] for name in InstrClass.NAMES}
    length = predecode.program_length(assembled)
    for model in ("atomic", "o3", "warm"):
        first = replay(program, isa, model, seed)
        assert first[0 if model == "warm" else 1] == length
        assert replay(program, isa, model, seed) == first


class TestTracedEquivalence:
    def test_trace_event_logs_identical(self):
        """The obs layer's frozen event log of a traced measurement."""
        assert_golden(("traced",), traced_log)



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
