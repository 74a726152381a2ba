"""Unit and property tests for the cache model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.mem.cache import Cache
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
