"""TLB, DRAM, hierarchy and prefetcher tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.mem.dram import DramModel
from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.mem.tlb import PAGE_SIZE, Tlb
from repro.sim.statistics import StatGroup


def make_core(space_scale=1, **overrides):
    config = MemoryHierarchyConfig(**overrides)
    if space_scale > 1:
        config = config.scaled(space_scale)
    stats = StatGroup("sys")
    return CoreMemSystem(1, config, DramModel(stats_parent=stats), stats)


class TestTlb:
    def test_hit_after_fill(self):
        tlb = Tlb("t", entries=4, stats_parent=StatGroup("s"))
        assert tlb.translate(0x1000) > 0   # miss
        assert tlb.translate(0x1000) == 0  # hit
        assert tlb.translate(0x1234) == 0  # same page

    def test_capacity_eviction_lru(self):
        tlb = Tlb("t", entries=2, stats_parent=StatGroup("s"))
        tlb.translate(0 * PAGE_SIZE)
        tlb.translate(1 * PAGE_SIZE)
        tlb.translate(0 * PAGE_SIZE)      # refresh page 0
        tlb.translate(2 * PAGE_SIZE)      # evicts page 1
        assert tlb.translate(0 * PAGE_SIZE) == 0
        assert tlb.translate(1 * PAGE_SIZE) > 0

    def test_walk_cache_softens_misses(self):
        tlb = Tlb("t", entries=1, stats_parent=StatGroup("s"))
        first = tlb.translate(0x0000)
        tlb.translate(PAGE_SIZE)            # evicts page 0, same directory
        revisit = tlb.translate(0x0000)     # walk cache hit
        assert revisit < first

    def test_flush(self):
        tlb = Tlb("t", stats_parent=StatGroup("s"))
        tlb.translate(0x5000)
        tlb.flush()
        assert tlb.translate(0x5000) > 0

    def test_state_roundtrip(self):
        tlb = Tlb("t", stats_parent=StatGroup("s"))
        for page in range(10):
            tlb.translate(page * PAGE_SIZE)
        clone = Tlb("t", stats_parent=StatGroup("s2"))
        clone.load_state(tlb.state_dict())
        assert clone.resident() == tlb.resident()

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            Tlb("t", entries=0)


class TestDram:
    def test_row_buffer_hit_cheaper(self):
        dram = DramModel(stats_parent=StatGroup("s"))
        first = dram.access(0, now_cycle=0)
        hit = dram.access(64, now_cycle=10**6)  # same row, quiet queue
        assert hit < first

    def test_row_conflict_costs_precharge(self):
        dram = DramModel(banks=1, row_bytes=4096, stats_parent=StatGroup("s"))
        dram.access(0, now_cycle=0)
        conflict = dram.access(8192, now_cycle=10**6)   # other row, same bank
        hit = dram.access(8192 + 64, now_cycle=2 * 10**6)
        assert conflict > hit

    def test_queue_pressure_under_bursts(self):
        dram = DramModel(stats_parent=StatGroup("s"))
        dram.access(0, now_cycle=0)
        burst = dram.access(64, now_cycle=1)           # clustered
        dram2 = DramModel(stats_parent=StatGroup("s2"))
        dram2.access(0, now_cycle=0)
        quiet = dram2.access(64, now_cycle=10**6)      # spread out
        assert burst > quiet

    def test_stats_split(self):
        dram = DramModel(stats_parent=StatGroup("s"))
        dram.access(0)
        dram.access(64, now_cycle=10**6)
        assert dram.stat_row_hits.value() == 1
        assert dram.stat_row_conflicts.value() == 1

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            DramModel(banks=0)


class TestHierarchy:
    def test_latency_ordering_l1_l2_dram(self):
        core = make_core()
        miss = core.data_access(0x10000)           # all the way to DRAM
        core.l1d.flush()
        l2_hit = core.data_access(0x10000)         # L1 miss, L2 hit
        l1_hit = core.data_access(0x10000)
        assert miss > l2_hit > l1_hit

    def test_ifetch_and_data_use_separate_l1s(self):
        core = make_core()
        core.ifetch(0x400000)
        assert core.l1i.stat_accesses.value() == 1
        assert core.l1d.stat_accesses.value() == 0
        core.data_access(0x400000)
        assert core.l1d.stat_accesses.value() == 1

    def test_flush_all_restores_cold(self):
        core = make_core()
        core.data_access(0x2000)
        warm = core.data_access(0x2000)
        core.flush_all()
        cold = core.data_access(0x2000)
        assert cold > warm

    def test_warm_touch_fills_without_latency_effects(self):
        core = make_core()
        core.warm_touch(0x3000, is_ifetch=False)
        assert core.data_access(0x3000) <= core.config.l1_latency + 50

    def test_state_roundtrip(self):
        core = make_core()
        for addr in range(0, 64 * 64, 64):
            core.data_access(addr)
            core.ifetch(0x400000 + addr)
        clone = make_core()
        clone.load_state(core.state_dict())
        # Warmed state restored: accesses hit.
        assert clone.data_access(0) <= clone.config.l1_latency + 10

    def test_scaled_config_shrinks_capacities_not_latency(self):
        full = MemoryHierarchyConfig()
        scaled = full.scaled(16)
        assert scaled.l1d_size == full.l1d_size // 16
        assert scaled.l2_size == full.l2_size // 16
        assert scaled.l1_latency == full.l1_latency
        assert scaled.l2_latency == full.l2_latency

    def test_scaled_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            MemoryHierarchyConfig().scaled(0)

    def test_scaled_names_the_scale_a_cache_cannot_take(self):
        # 32 KB / 24 is 1365 bytes: no whole number of 8-way 64-byte sets.
        with pytest.raises(ValueError,
                           match=r"space_scale 24 shrinks cache l1i .* 1365"):
            MemoryHierarchyConfig().scaled(24)

    def test_scaled_builds_every_scale_whose_caches_fit(self):
        """Powers of two, and scales big enough that every cache sits on
        its floor or on a power-of-two set count, build with each size
        divided by the scale (at least one set, two for the L2); every
        other scale is refused before a cache is built."""
        full = MemoryHierarchyConfig()
        built = 0
        for scale in range(1, 5000):
            try:
                config = full.scaled(scale)
            except ValueError as error:
                assert ("space_scale %d " % scale) in str(error)
                continue
            built += 1
            assert (config.l1i_size, config.l1d_size, config.l2_size) == (
                max(512, 32768 // scale), max(512, 32768 // scale),
                max(512, 524288 // scale))
            core = CoreMemSystem(1, config, DramModel(), StatGroup("sys"))
            assert core.l2.size_bytes == config.l2_size
        assert built == 3987


class TestPrefetchers:
    def test_iprefetch_covers_sequential_code(self):
        with_prefetch = make_core(prefetch_i_degree=4)
        without = make_core(prefetch_i_degree=0)
        for core in (with_prefetch, without):
            for addr in range(0x400000, 0x400000 + 64 * 128, 64):
                core.ifetch(addr)
        assert with_prefetch.l1i.stat_misses.value() < \
            without.l1i.stat_misses.value() / 2

    def test_dprefetch_covers_streaming_loads(self):
        with_prefetch = make_core(prefetch_d_degree=4)
        without = make_core(prefetch_d_degree=0)
        for core in (with_prefetch, without):
            for addr in range(0, 64 * 128, 64):
                core.data_access(addr)
        assert with_prefetch.l1d.stat_misses.value() < \
            without.l1d.stat_misses.value()

    def test_prefetch_fills_counted(self):
        core = make_core(prefetch_i_degree=2)
        core.ifetch(0x400000)
        assert core.stat_prefetches.value() == 2

    def test_prefetch_does_not_inflate_demand_stats(self):
        core = make_core(prefetch_i_degree=8)
        core.ifetch(0x400000)
        assert core.l1i.stat_accesses.value() == 1


@settings(max_examples=25, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 22),
                      min_size=1, max_size=200))
def test_property_latency_always_at_least_l1(addrs):
    core = make_core()
    for addr in addrs:
        assert core.data_access(addr) >= core.config.l1_latency
        assert core.ifetch(addr) >= core.config.l1_latency
