"""Unit and property tests for the cache model."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.attribution import CacheProfiler
from repro.sim.isa import ir
from repro.sim.isa.predecode import _split_lines
from repro.sim.mem.cache import Cache
from repro.sim.mem.dram import DramModel
from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.mem.tlb import PAGE_SIZE
from repro.sim.statistics import StatGroup


def make_cache(size=1024, assoc=2, line=64, policy="lru"):
    return Cache("test", size, assoc, line, policy, StatGroup("sys"))


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.num_sets == 8

    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            make_cache(line=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size=1000)

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", 3 * 128, 1, 64, stats_parent=StatGroup("s"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match=r"unknown replacement policy "
                           r"'plru'; have \['fifo', 'lru', 'random'\]"):
            make_cache(policy="plru")


#: Every MemoryHierarchyConfig count: the least value it accepts.
MEM_COUNTS = {"l1i_size": 1, "l1i_assoc": 1, "l1d_size": 1, "l1d_assoc": 1,
              "l2_size": 1, "l2_assoc": 1, "line_size": 1,
              "itlb_entries": 1, "dtlb_entries": 1, "l1_latency": 0,
              "l2_latency": 0, "prefetch_i_degree": 0,
              "prefetch_d_degree": 0}


class TestMemoryHierarchyConfig:
    @pytest.mark.parametrize("field", sorted(MEM_COUNTS))
    def test_count_below_its_least_names_the_field(self, field):
        least = MEM_COUNTS[field]
        with pytest.raises(ValueError, match=r"MemoryHierarchyConfig\.%s "
                           r"must be an integer >= %d, got %d$"
                           % (field, least, least - 1)):
            MemoryHierarchyConfig(**{field: least - 1})
        assert getattr(MemoryHierarchyConfig(**{field: least}),
                       field) == least

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match="l2_size"):
            MemoryHierarchyConfig(l2_size="512")

    @pytest.mark.parametrize("field", ["replacement", "prefetch_i_kind",
                                       "prefetch_d_kind"])
    def test_unknown_name_names_the_field(self, field):
        with pytest.raises(ValueError, match=r"MemoryHierarchyConfig\.%s "
                           r"must be one of .*, got 'bogus'$" % field):
            MemoryHierarchyConfig(**{field: "bogus"})

    def test_defaults_and_scaled_copies_are_valid(self):
        config = MemoryHierarchyConfig()
        assert config.scaled(32).l2_size == config.l2_size // 32


class TestAccessPath:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.access(0x1004) is True  # same line

    def test_distinct_lines_distinct_fills(self):
        cache = make_cache()
        cache.access(0)
        cache.access(64)
        assert cache.resident_lines() == 2

    def test_lru_eviction_order(self):
        # Direct-mapped equivalent set: assoc 2, force 3 lines into one set.
        cache = make_cache(size=128, assoc=2, line=64)  # 1 set
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)      # refresh line 0
        cache.access(2 * 64)      # evicts line 1 (LRU)
        assert cache.contains_line(0)
        assert not cache.contains_line(1)
        assert cache.contains_line(2)

    def test_writeback_counted_on_dirty_eviction(self):
        cache = make_cache(size=128, assoc=2, line=64)
        cache.access(0, write=True)
        cache.access(64)
        cache.access(128)  # evicts dirty line 0
        assert cache.stat_writebacks.value() == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=128, assoc=2, line=64)
        cache.access(0)
        cache.access(64)
        cache.access(128)
        assert cache.stat_writebacks.value() == 0

    def test_stats_accumulate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stat_accesses.value() == 3
        assert cache.stat_hits.value() == 1
        assert cache.stat_misses.value() == 2


class TestFlushAndState:
    def test_flush_empties_and_counts_dirty(self):
        cache = make_cache()
        cache.access(0, write=True)
        cache.access(64)
        flushed = cache.flush()
        assert flushed == 1
        assert cache.resident_lines() == 0

    def test_state_roundtrip_preserves_contents(self):
        cache = make_cache()
        for addr in (0, 64, 128, 4096):
            cache.access(addr, write=(addr == 64))
        state = cache.state_dict()
        other = make_cache()
        other.load_state(state)
        for addr in (0, 64, 128, 4096):
            assert other.contains_line(addr >> 6)

    def test_state_roundtrip_preserves_lru_order(self):
        cache = make_cache(size=128, assoc=2, line=64)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # 64 is now LRU
        other = make_cache(size=128, assoc=2, line=64)
        other.load_state(cache.state_dict())
        other.access(128)  # should evict line... recency order from state
        assert other.contains_line(0)

    def test_only_random_checkpoints_carry_rngs(self):
        assert set(make_cache(policy="lru").state_dict()) == \
            {"geometry", "sets", "dirty"}
        assert set(make_cache(policy="fifo").state_dict()) == \
            {"geometry", "sets", "dirty"}
        assert "rngs" in make_cache(policy="random").state_dict()

    def test_random_checkpoint_without_rngs_reseeds(self):
        # A checkpoint from before the rngs were saved still loads; each
        # set's rng starts over from its seed.
        cache = make_cache(policy="random")
        for line in range(100):
            cache.access_line(line, write=(line % 4 == 0))
        state = cache.state_dict()
        older = {key: value for key, value in state.items() if key != "rngs"}
        restored = make_cache(policy="random")
        restored.load_state(older)
        assert restored.state_dict() == dict(
            older, rngs=make_cache(policy="random").state_dict()["rngs"])


class TestPolicies:
    def test_fifo_ignores_touches(self):
        cache = make_cache(size=128, assoc=2, line=64, policy="fifo")
        cache.access(0)
        cache.access(64)
        cache.access(0)       # does not promote in FIFO
        cache.access(128)     # evicts 0 (first in)
        assert not cache.contains_line(0)
        assert cache.contains_line(1)

    def test_random_policy_deterministic_per_seed(self):
        def run():
            cache = make_cache(size=256, assoc=2, line=64, policy="random")
            for addr in range(0, 64 * 40, 64):
                cache.access(addr)
            return cache.state_dict()

        assert run() == run()


@settings(max_examples=60, deadline=None)
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300),
    assoc=st.sampled_from([1, 2, 4, 8]),
)
def test_property_occupancy_never_exceeds_capacity(addrs, assoc):
    cache = Cache("prop", 64 * assoc * 8, assoc, 64, "lru", StatGroup("s"))
    for addr in addrs:
        cache.access(addr)
    assert cache.resident_lines() <= cache.num_sets * assoc
    for index, resident in enumerate(cache.state_dict()["sets"]):
        assert len(resident) <= assoc
        for line in resident:
            assert line & cache._set_mask == index  # set indexing invariant


@settings(max_examples=60, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
def test_property_hits_plus_misses_equals_accesses(addrs):
    cache = make_cache()
    for addr in addrs:
        cache.access(addr)
    assert (
        cache.stat_hits.value() + cache.stat_misses.value()
        == cache.stat_accesses.value()
        == len(addrs)
    )


@settings(max_examples=40, deadline=None)
@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=150))
def test_property_immediate_reaccess_always_hits(addrs):
    cache = make_cache()
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr) is True


class _ReferenceCache:
    """List-per-set model of the three policies: the differential oracle.

    Each set is a list in replacement order (recency for lru, fill order
    for fifo and random) beside a set of dirty lines; random draws its
    victim from ``random.Random(index)`` over the list.  A checkpoint
    round trip lands on a fresh cache, so the counters restart at zero;
    the contents and the rngs carry over.
    """

    def __init__(self, num_sets, assoc, policy):
        self.num_sets, self.assoc, self.policy = num_sets, assoc, policy
        self.accesses = self.hits = self.misses = self.writebacks = 0
        self._clear()

    def _clear(self):
        self.order = [[] for _ in range(self.num_sets)]
        self.dirty = [set() for _ in range(self.num_sets)]
        self.rngs = [random.Random(index) for index in range(self.num_sets)]

    def _install(self, index, line):
        order, dirty = self.order[index], self.dirty[index]
        if len(order) >= self.assoc:
            if self.policy == "random":
                victim = order[self.rngs[index].randrange(len(order))]
            else:
                victim = order[0]
            order.remove(victim)
            if victim in dirty:
                dirty.remove(victim)
                self.writebacks += 1
        order.append(line)

    def access_line(self, line, write):
        index = line % self.num_sets
        order = self.order[index]
        self.accesses += 1
        hit = line in order
        if hit:
            self.hits += 1
            if self.policy == "lru":
                order.remove(line)
                order.append(line)
        else:
            self.misses += 1
            self._install(index, line)
        if write:
            self.dirty[index].add(line)
        return hit

    def fill_line(self, line):
        index = line % self.num_sets
        if line not in self.order[index]:
            self._install(index, line)

    def flush(self):
        flushed = sum(len(dirty) for dirty in self.dirty)
        self.writebacks += flushed
        self._clear()
        return flushed

    def round_trip(self):
        self.accesses = self.hits = self.misses = self.writebacks = 0

    def state(self):
        return {"sets": [list(order) for order in self.order],
                "dirty": [sorted(dirty) for dirty in self.dirty]}


#: Operation mix for the differential property: mostly demand accesses,
#: some prefetch fills, the occasional flush or checkpoint round trip.
_OP_KINDS = ("access",) * 16 + ("fill",) * 4 + ("flush", "checkpoint")


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
@settings(max_examples=150, deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 4, 8]),
    ops=st.lists(st.tuples(st.sampled_from(_OP_KINDS),
                           st.integers(min_value=0, max_value=63),
                           st.booleans()),
                 min_size=40, max_size=400),
)
def test_property_matches_reference_model(policy, assoc, ops):
    # 4 sets over 64 lines: 16 lines compete for each set, twice the
    # widest associativity, and long streams keep the sets full.
    num_sets = 4

    def build():
        return Cache("diff", num_sets * assoc * 64, assoc, 64, policy,
                     StatGroup("s"))

    cache = build()
    reference = _ReferenceCache(num_sets, assoc, policy)
    for kind, line, write in ops:
        if kind == "access":
            assert cache.access_line(line, write) == \
                reference.access_line(line, write)
        elif kind == "fill":
            cache.fill_line(line)
            reference.fill_line(line)
        elif kind == "flush":
            assert cache.flush() == reference.flush()
        else:
            state = cache.state_dict()
            cache = build()
            cache.load_state(state)
            reference.round_trip()
        assert (cache.accesses, cache.hits, cache.misses, cache.writebacks) \
            == (reference.accesses, reference.hits, reference.misses,
                reference.writebacks)
        state = cache.state_dict()
        assert {"sets": state["sets"], "dirty": state["dirty"]} \
            == reference.state()


def reference_run(mem, pc, sizes, base, offsets, write, cycles,
                  current_line):
    """The per-access loop ``CoreMemSystem.replay`` replaces for a memory
    run: fetch on an I-line change, one cycle, one ``data_access`` per
    instance."""
    for size, offset in zip(sizes, offsets):
        line = pc >> mem._line_shift
        if line != current_line:
            cycles += mem.ifetch(pc, cycles)
            current_line = line
        cycles += 1
        cycles += mem.data_access(base + offset, write, cycles, pc)
        pc += size
    return cycles, current_line


def reference_fetches(mem, pcs, ns, cycles, current_line):
    """The per-line loop ``CoreMemSystem.replay`` replaces for a compute
    run: fetch on an I-line change, then that line's cycles."""
    for pc, n in zip(pcs, ns):
        line = pc >> mem._line_shift
        if line != current_line:
            cycles += mem.ifetch(pc, cycles)
            current_line = line
        cycles += n
    return cycles, current_line


def _build_mem(config, state=None):
    stats = StatGroup("sys")
    mem = CoreMemSystem(1, config, DramModel(stats_parent=stats), stats)
    if state is not None:
        mem.load_state(state[0])
        mem.dram.load_state(state[1])
    return mem, stats


def _checkpoint(mem, config):
    return _build_mem(config, (mem.state_dict(), mem.dram.state_dict()))


_PATTERNS = st.one_of(
    st.builds(ir.StridePattern,
              stride=st.integers(-300, 300).filter(bool),
              start=st.integers(-5000, 30000)),
    st.builds(ir.RandomPattern, align=st.sampled_from([1, 8, 64])),
    st.builds(ir.HotColdPattern, hot_fraction=st.sampled_from([0.05, 0.5]),
              hot_probability=st.sampled_from([0.5, 0.95])),
)

#: One step of the replay property.  Code sits in twelve pages, so the
#: ITLB overflows.  A compute run is a list of ``(pc, n)`` lines drawn
#: from eight lines in each page, so runs revisit lines; a memory run
#: starts in a page's first kilobyte, so its fetches share lines with
#: the compute runs'.  Runs hold at least 10 lines or 30 accesses, since
#: an unbounded list averages a handful, too few to fill the caches.
#: The occasional flush or checkpoint round trip falls between runs.
_REPLAY_STEPS = st.one_of(
    st.tuples(st.just("compute"),
              st.lists(st.tuples(st.integers(0, 11),        # page
                                 st.integers(0, 7),         # line in page
                                 st.integers(0, 63),        # byte in line
                                 st.integers(1, 20)),       # instances
                       min_size=10, max_size=200)),
    st.tuples(st.just("memory"),
              st.integers(0, 11),                           # first PC page
              st.integers(0, 1023),                         # and byte
              st.lists(st.integers(1, 15), min_size=30, max_size=300),
              st.integers(0, 2),                            # region index
              _PATTERNS,
              st.booleans()),                               # write
    st.tuples(st.sampled_from(["flush", "checkpoint"])),
)

#: The cache a profiler is attached to, if any.
_PROFILED = (None, "l1i", "l1d", "l2")


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
@settings(max_examples=100, deadline=None)
# A 72-byte region read at stride 8 in a one-line L1D: eight accesses to
# line 0, one to line 1, which evicts line 0, then line 0 again.
@example(l1_assoc=1, l1_sets=1, l2_assoc=4, l2_sets=2, tlb_entries=8,
         profiled=None,
         iprefetch=("none", 0), dprefetch=("none", 0),
         regions=[(0, 0, 72)] * 3,
         steps=[("memory", 0, 0, [4] * 20, 0,
                 ir.StridePattern(stride=8, start=0), False)],
         seed=0)
# A store run at stride 64 through a one-line L1D with next-line
# prefetch: each store misses the L1D and hits the line its previous
# miss prefetched, clean, into the L2, which under fifo it makes dirty.
@example(l1_assoc=1, l1_sets=1, l2_assoc=2, l2_sets=2, tlb_entries=8,
         profiled=None, iprefetch=("none", 0), dprefetch=("nextline", 2),
         regions=[(0, 0, PAGE_SIZE)] * 3,
         steps=[("memory", 0, 0, [4] * 10, 0,
                 ir.StridePattern(stride=64, start=0), True)],
         seed=0)
# With the L2 profiled, L1 hits are taken in the frame and L1 misses go
# through ifetch/data_access.  Fetches on pages 0, 1, 0, 2, 0, 3 through
# a 2-entry ITLB: the second fetch on page 0 follows a call on page 2 and
# must refresh page 0, so that page 3's walk evicts page 2.
@example(l1_assoc=4, l1_sets=1, l2_assoc=4, l2_sets=4, tlb_entries=2,
         profiled="l2", iprefetch=("none", 0), dprefetch=("none", 0),
         regions=[(0, 0, 64)] * 3,
         steps=[("compute", [(0, 0, 0, 1), (1, 0, 0, 1), (0, 0, 0, 1),
                             (2, 0, 0, 1), (0, 0, 0, 1), (3, 0, 0, 1)])],
         seed=0)
# The same on the data side: hot lines on one page hit the L1D between
# cold misses on the region's other pages.
@example(l1_assoc=4, l1_sets=1, l2_assoc=4, l2_sets=4, tlb_entries=2,
         profiled="l2", iprefetch=("none", 0), dprefetch=("none", 0),
         regions=[(1, 0, 4 * PAGE_SIZE)] * 3,
         steps=[("memory", 0, 0, [4] * 40, 0,
                 ir.HotColdPattern(hot_fraction=0.05, hot_probability=0.95),
                 False)],
         seed=21)
@given(
    l1_assoc=st.sampled_from([1, 2, 4]),
    l1_sets=st.sampled_from([1, 2]),
    l2_assoc=st.sampled_from([1, 2, 4]),
    l2_sets=st.sampled_from([2, 4]),
    tlb_entries=st.sampled_from([2, 8]),
    profiled=st.sampled_from(_PROFILED),
    iprefetch=st.sampled_from([("nextline", 2), ("none", 0)]),
    dprefetch=st.sampled_from([("nextline", 2), ("stride", 2), ("none", 0)]),
    regions=st.lists(st.tuples(st.integers(0, 1 << 10),     # base page
                               st.integers(0, PAGE_SIZE - 1),
                               st.integers(1, 6 * PAGE_SIZE)),
                     min_size=3, max_size=3),
    steps=st.lists(_REPLAY_STEPS, min_size=2, max_size=8),
    seed=st.integers(0, 1 << 16),
)
def test_property_replay_matches_per_access_loops(
        policy, l1_assoc, l1_sets, l2_assoc, l2_sets, tlb_entries, profiled,
        iprefetch, dprefetch, regions, steps, seed):
    # L1s of at most 8 lines, an L2 of 2 to 16 and 2- or 8-entry TLBs
    # over data regions of up to six pages: misses at every level,
    # walks, prefetch fills, dirty writebacks and DRAM row hits and
    # conflicts all occur within a few runs, and an L1 miss often hits
    # the L2.  A 2-entry TLB evicts by recency on almost every page
    # change, so a wrong refresh order shows at the end of the run.
    # Both run kinds share the ITLB, the L2, DRAM and ``current_line``,
    # so one stream mixes them.
    config = MemoryHierarchyConfig(
        l1i_size=l1_sets * l1_assoc * 64, l1i_assoc=l1_assoc,
        l1d_size=l1_sets * l1_assoc * 64, l1d_assoc=l1_assoc,
        l2_size=l2_sets * l2_assoc * 64, l2_assoc=l2_assoc,
        replacement=policy, itlb_entries=tlb_entries,
        dtlb_entries=tlb_entries,
        prefetch_i_kind=iprefetch[0], prefetch_i_degree=iprefetch[1],
        prefetch_d_kind=dprefetch[0], prefetch_d_degree=dprefetch[1])
    regions = [ir.Region("r%d" % index, page * PAGE_SIZE + offset, size)
               for index, (page, offset, size) in enumerate(regions)]

    def attach(built):
        if profiled is not None:
            cache = getattr(built[0], profiled)
            cache.profiler = CacheProfiler.for_cache(cache)
        return built

    def profile(mem):
        return None if profiled is None else \
            getattr(mem, profiled).profiler.snapshot()

    (fast, fast_stats), (slow, slow_stats) = \
        attach(_build_mem(config)), attach(_build_mem(config))
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast_at = slow_at = (0, -1)
    for step in steps:
        if step[0] == "flush":
            fast.flush_all()
            slow.flush_all()
        elif step[0] == "checkpoint":
            fast, fast_stats = attach(_checkpoint(fast, config))
            slow, slow_stats = attach(_checkpoint(slow, config))
        elif step[0] == "compute":
            pcs = [page * PAGE_SIZE + slot * 64 + byte
                   for page, slot, byte, _ in step[1]]
            ns = [n for _, _, _, n in step[1]]
            fast_at = fast.replay(pcs, ns, *fast_at)
            slow_at = reference_fetches(slow, pcs, ns, *slow_at)
        else:
            _, page, byte, sizes, index, pattern, write = step
            pc = page * PAGE_SIZE + byte
            region = regions[index]
            pcs, ns = _split_lines(pc, sizes, fast._line_shift)
            fast_at = fast.replay(
                pcs, ns, *fast_at, sizes, region.base,
                pattern.offsets(region, len(sizes), fast_rng), write)
            slow_at = reference_run(
                slow, pc, sizes, region.base,
                pattern.offsets(region, len(sizes), slow_rng), write,
                *slow_at)
        assert fast_at == slow_at
        assert fast_stats.dump() == slow_stats.dump()
        assert fast.state_dict() == slow.state_dict()
        assert fast.dram.state_dict() == slow.dram.state_dict()
        assert profile(fast) == profile(slow)


#: One step of the memory-run property: mostly runs from any PC in the
#: first 64 KiB, as short as one access, with the occasional flush or
#: checkpoint round trip between them.
_RUN_STEPS = st.one_of(
    st.tuples(st.just("run"),
              st.integers(0, 1 << 16),                      # first PC
              st.lists(st.integers(1, 15), min_size=1, max_size=300),
              st.integers(0, 2),                            # region index
              _PATTERNS,
              st.booleans()),                               # write
    st.tuples(st.sampled_from(["flush", "checkpoint"])),
)


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
@settings(max_examples=60, deadline=None)
# A 72-byte region read at stride 8 in a one-line L1D: eight accesses to
# line 0, one to line 1, which evicts line 0, then line 0 again.
@example(l1d_assoc=1, l1d_sets=1, prefetch=("none", 0),
         regions=[(0, 0, 72)] * 3,
         steps=[("run", 0, [4] * 20, 0, ir.StridePattern(stride=8, start=0),
                 False)],
         seed=0)
@given(
    l1d_assoc=st.sampled_from([1, 2, 4, 8]),
    l1d_sets=st.sampled_from([1, 2, 4]),
    prefetch=st.sampled_from([("nextline", 2), ("stride", 2), ("none", 0)]),
    regions=st.lists(st.tuples(st.integers(0, 1 << 10),     # base page
                               st.integers(0, PAGE_SIZE - 1),
                               st.integers(1, 6 * PAGE_SIZE)),
                     min_size=3, max_size=3),
    steps=st.lists(_RUN_STEPS, min_size=1, max_size=6),
    seed=st.integers(0, 1 << 16),
)
def test_property_data_run_matches_per_access_loop(
        policy, l1d_assoc, l1d_sets, prefetch, regions, steps, seed):
    # Memory runs alone through ``replay``: L1Ds of up to 32 lines, larger
    # than the mixed property's, a 2-set L2 and an 8-entry DTLB over
    # regions of up to six pages, and runs that start at any byte of
    # sixteen pages and may hold a single access.
    config = MemoryHierarchyConfig(
        l1i_size=2 * 2 * 64, l1i_assoc=2,
        l1d_size=l1d_sets * l1d_assoc * 64, l1d_assoc=l1d_assoc,
        l2_size=2 * 4 * 64, l2_assoc=4, replacement=policy,
        itlb_entries=8, dtlb_entries=8,
        prefetch_d_kind=prefetch[0], prefetch_d_degree=prefetch[1])
    regions = [ir.Region("r%d" % index, page * PAGE_SIZE + offset, size)
               for index, (page, offset, size) in enumerate(regions)]

    (fast, fast_stats), (slow, slow_stats) = \
        _build_mem(config), _build_mem(config)
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    fast_at = slow_at = (0, -1)
    for step in steps:
        if step[0] == "flush":
            fast.flush_all()
            slow.flush_all()
        elif step[0] == "checkpoint":
            fast, fast_stats = _checkpoint(fast, config)
            slow, slow_stats = _checkpoint(slow, config)
        else:
            _, pc, sizes, index, pattern, write = step
            region = regions[index]
            pcs, ns = _split_lines(pc, sizes, fast._line_shift)
            fast_at = fast.replay(
                pcs, ns, *fast_at, sizes, region.base,
                pattern.offsets(region, len(sizes), fast_rng), write)
            slow_at = reference_run(
                slow, pc, sizes, region.base,
                pattern.offsets(region, len(sizes), slow_rng), write,
                *slow_at)
        assert fast_at == slow_at
        assert fast_stats.dump() == slow_stats.dump()
        assert fast.state_dict() == slow.state_dict()
        assert fast.dram.state_dict() == slow.dram.state_dict()


#: One step of the compute-run property: a run's ``(pc, n)`` lines, drawn
#: from eight lines in each of twelve pages so that runs revisit lines
#: and overflow the 8-entry ITLB, with the occasional flush or
#: checkpoint round trip between runs.
_FETCH_STEPS = st.one_of(
    st.lists(st.tuples(st.integers(0, 11),                  # page
                       st.integers(0, 7),                   # line in page
                       st.integers(0, 63),                  # byte in line
                       st.integers(1, 20)),                 # instances
             min_size=1, max_size=200),
    st.sampled_from(["flush", "checkpoint"]),
)


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
@settings(max_examples=60, deadline=None)
@given(
    l1i_assoc=st.sampled_from([1, 2, 4, 8]),
    l1i_sets=st.sampled_from([1, 2, 4]),
    prefetch=st.sampled_from([("nextline", 2), ("none", 0)]),
    steps=st.lists(_FETCH_STEPS, min_size=1, max_size=6),
)
def test_property_fetch_run_matches_per_line_loop(
        policy, l1i_assoc, l1i_sets, prefetch, steps):
    # Compute runs alone through ``replay``: L1Is of up to 32 lines,
    # larger than the mixed property's, a 2-set L2 and an 8-entry ITLB,
    # and runs that may hold a single line.
    config = MemoryHierarchyConfig(
        l1i_size=l1i_sets * l1i_assoc * 64, l1i_assoc=l1i_assoc,
        l1d_size=2 * 2 * 64, l1d_assoc=2,
        l2_size=2 * 4 * 64, l2_assoc=4, replacement=policy,
        itlb_entries=8, dtlb_entries=8,
        prefetch_i_kind=prefetch[0], prefetch_i_degree=prefetch[1])

    (fast, fast_stats), (slow, slow_stats) = \
        _build_mem(config), _build_mem(config)
    fast_at = slow_at = (0, -1)
    for step in steps:
        if step == "flush":
            fast.flush_all()
            slow.flush_all()
        elif step == "checkpoint":
            fast, fast_stats = _checkpoint(fast, config)
            slow, slow_stats = _checkpoint(slow, config)
        else:
            pcs = [page * PAGE_SIZE + slot * 64 + byte
                   for page, slot, byte, _ in step]
            ns = [n for _, _, _, n in step]
            fast_at = fast.replay(pcs, ns, *fast_at)
            slow_at = reference_fetches(slow, pcs, ns, *slow_at)
        assert fast_at == slow_at
        assert fast_stats.dump() == slow_stats.dump()
        assert fast.state_dict() == slow.state_dict()
        assert fast.dram.state_dict() == slow.dram.state_dict()
