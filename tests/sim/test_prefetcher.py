"""Prefetcher model tests."""

import pytest

from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.mem.dram import DramModel
from repro.sim.mem.prefetcher import (
    NextLinePrefetcher,
    Prefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.sim.statistics import StatGroup


def make_core(**overrides):
    stats = StatGroup("sys")
    return CoreMemSystem(0, MemoryHierarchyConfig(**overrides),
                         DramModel(stats_parent=stats), stats)


class TestPrefetcherModels:
    def test_none_never_prefetches(self):
        assert Prefetcher().on_miss(0x400, 10) == []
        assert make_prefetcher("nextline", 0).on_miss(0x400, 10) == []
        assert make_prefetcher("none", 4).on_miss(0x400, 10) == []

    def test_nextline_degree(self):
        prefetcher = NextLinePrefetcher(3)
        assert list(prefetcher.on_miss(0x400, 10)) == [11, 12, 13]

    def test_stride_detects_constant_stride(self):
        prefetcher = StridePrefetcher(degree=2)
        assert prefetcher.on_miss(0x400, 10) == []      # first touch
        assert prefetcher.on_miss(0x400, 14) == []      # stride learned (4)
        assert prefetcher.on_miss(0x400, 18) == [22, 26]  # confirmed

    def test_stride_is_per_pc(self):
        prefetcher = StridePrefetcher(degree=1)
        prefetcher.on_miss(0x400, 10)
        prefetcher.on_miss(0x404, 100)  # different PC, no interference
        prefetcher.on_miss(0x400, 12)
        assert prefetcher.on_miss(0x400, 14) == [16]

    def test_stride_resets_on_break(self):
        prefetcher = StridePrefetcher(degree=1)
        prefetcher.on_miss(0x400, 10)
        prefetcher.on_miss(0x400, 12)
        assert prefetcher.on_miss(0x400, 14) == [16]
        assert prefetcher.on_miss(0x400, 99) == []   # pattern broken
        assert prefetcher.on_miss(0x400, 100) == []  # relearning
        assert prefetcher.on_miss(0x400, 101) == [102]

    def test_table_capacity_evicts(self):
        prefetcher = StridePrefetcher(degree=1, table_entries=2)
        prefetcher.on_miss(0x1, 10)
        prefetcher.on_miss(0x2, 20)
        prefetcher.on_miss(0x3, 30)  # evicts pc 0x1
        assert len(prefetcher._table) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            make_prefetcher("tagged", 2)
        with pytest.raises(ValueError):
            NextLinePrefetcher(0)
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestPrefetcherInHierarchy:
    def test_stride_prefetcher_covers_strided_scan(self):
        stride_core = make_core(prefetch_d_kind="stride", prefetch_d_degree=4)
        nextline_core = make_core(prefetch_d_kind="nextline",
                                  prefetch_d_degree=4)
        none_core = make_core(prefetch_d_degree=0)
        # Stride of 4 lines (256B): nextline's +1..+4 covers it too, but a
        # 8-line stride beats nextline's reach.
        for core in (stride_core, nextline_core, none_core):
            pc = 0x400000
            for step in range(120):
                core.data_access(step * 512, pc=pc)  # 8-line stride
        assert stride_core.l1d.stat_misses.value() < \
            none_core.l1d.stat_misses.value() / 2
        assert stride_core.l1d.stat_misses.value() < \
            nextline_core.l1d.stat_misses.value()

    def test_kind_none_matches_degree_zero(self):
        a = make_core(prefetch_d_kind="none", prefetch_d_degree=4)
        b = make_core(prefetch_d_degree=0)
        for core in (a, b):
            for step in range(50):
                core.data_access(step * 64)
        assert a.l1d.stat_misses.value() == b.l1d.stat_misses.value()

    def test_flush_resets_stride_state(self):
        core = make_core(prefetch_d_kind="stride", prefetch_d_degree=2)
        for step in range(10):
            core.data_access(step * 512, pc=0x400)
        core.flush_all()
        assert core._dprefetcher._table == {}

    def test_scaled_config_preserves_kinds(self):
        config = MemoryHierarchyConfig(prefetch_d_kind="stride").scaled(16)
        assert config.prefetch_d_kind == "stride"
