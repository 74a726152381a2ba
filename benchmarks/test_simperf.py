"""Simulator-performance micro-benches: the memory hit path and
sampled simulation, timed in isolation so a regression in either shows
up here before it shows up in ``bench-smoke``.

Bounds are deliberately loose relative ratios (hit path vs DRAM path,
sampled vs full detail) so they hold on slow shared CI hosts; the
absolute timings are printed for the record.
"""

import time

from conftest import run_once

from repro.sim.isa import ir
from repro.sim.mem.dram import DramModel
from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.statistics import StatGroup
from repro.sim.system import SimulatedSystem


def _long_program(name="perf", seed=0, trips=600):
    program = ir.Program(name, seed=seed)
    buf = program.space.alloc("buf", 1 << 16)
    body = ir.Seq([
        ir.compute_block(ialu=200),
        ir.Loop(ir.touch_block(buf, loads=6, stores=2), trips=trips),
    ])
    program.add_routine(ir.Routine("main", body), entry=True)
    return program


def test_microbench_cache_hit_path(benchmark):
    """The per-instruction L1/TLB hit path: locals-hoisted lookups keep a
    hot hit far cheaper than a DRAM-bound miss."""
    stats = StatGroup("bench")
    mem = CoreMemSystem(0, MemoryHierarchyConfig(),
                        DramModel(stats_parent=stats), stats)
    line = mem.config.line_size
    hot = [index * line for index in range(16)]
    # Streaming footprint far beyond L2: every access misses to DRAM.
    cold_span = 1 << 26
    for addr in hot:
        mem.data_access(addr, False, 0, 0x1000)

    def timed():
        rounds = 20000
        start = time.perf_counter()
        cycle = 0
        for _ in range(rounds // len(hot)):
            for addr in hot:
                cycle += 1
                mem.data_access(addr, False, cycle, 0x1000)
        hit_wall = time.perf_counter() - start

        start = time.perf_counter()
        addr = 0
        for index in range(rounds):
            cycle += 1
            mem.data_access((addr + index * line * 9) % cold_span,
                            False, cycle, 0x1000)
        miss_wall = time.perf_counter() - start
        return hit_wall, miss_wall, rounds

    hit_wall, miss_wall, rounds = run_once(benchmark, timed)
    print("\n[simperf] L1 hit %8.1f ns/access, DRAM-path %8.1f ns/access"
          % (hit_wall / rounds * 1e9, miss_wall / rounds * 1e9))
    assert hit_wall < miss_wall  # the hit path must stay the cheap one


def test_microbench_sampled_o3(benchmark):
    """Sampled O3 vs full detail on a long program: the sampled loop must
    be faster, and its instruction stream must stay functionally exact."""
    from repro.sim.sampling import SamplingConfig

    program = _long_program(trips=2000)
    config = SamplingConfig(interval=4096, detail=512, warmup=256,
                            jitter=True, min_insts=0)

    def timed():
        full_system = SimulatedSystem("full", "riscv")
        sampled_system = SimulatedSystem("smp", "riscv")
        full_system.run(1, program, model="o3")  # decode once
        sampled_system.run(1, program, model="o3", sampling=config)
        start = time.perf_counter()
        full = full_system.run(1, program, model="o3")
        full_wall = time.perf_counter() - start
        start = time.perf_counter()
        sampled = sampled_system.run(1, program, model="o3",
                                     sampling=config)
        sampled_wall = time.perf_counter() - start
        return full, sampled, full_wall, sampled_wall

    full, sampled, full_wall, sampled_wall = run_once(benchmark, timed)
    print("\n[simperf] o3: full %.1f ms, sampled %.1f ms (%.1fx)"
          % (full_wall * 1e3, sampled_wall * 1e3, full_wall / sampled_wall))
    assert sampled.instructions == full.instructions
    assert sampled_wall < full_wall
