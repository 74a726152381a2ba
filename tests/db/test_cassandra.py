"""Cassandra LSM engine internals: memtable, SSTables, bloom, compaction."""

import pytest

from repro.db.cassandra import BloomFilter, CassandraStore, SSTable


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_keys=100)
        keys = ["key%d" % index for index in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_mostly_rejects_absent_keys(self):
        bloom = BloomFilter(expected_keys=200)
        for index in range(200):
            bloom.add("present%d" % index)
        false_positives = sum(
            1 for index in range(1000) if bloom.might_contain("absent%d" % index)
        )
        assert false_positives < 100  # well under 10%


class TestSSTable:
    def test_sorted_and_searchable(self):
        sstable = SSTable([("b", ({"v": 2}, 7)), ("a", ({"v": 1}, 7)),
                           ("c", ({"v": 3}, 7))])
        assert sstable.keys == ["a", "b", "c"]
        found, value = sstable.get("b")
        assert found and value == ({"v": 2}, 7)
        assert sstable.bytes == 21
        found, _value = sstable.get("zz")
        assert not found


class TestLsmBehaviour:
    def test_flush_at_threshold(self):
        store = CassandraStore(memtable_flush_threshold=8, compaction_threshold=100)
        for index in range(20):
            store.put("t", "k%02d" % index, {"v": index})
        assert store.flushes == 2
        assert store.sstable_count("t") == 2
        # All data still readable across memtable + sstables.
        for index in range(20):
            assert store.get("t", "k%02d" % index)["v"] == index

    def test_compaction_merges_runs(self):
        store = CassandraStore(memtable_flush_threshold=4, compaction_threshold=3)
        for index in range(24):
            store.put("t", "k%02d" % index, {"v": index})
        assert store.compactions >= 1
        assert store.sstable_count("t") < 3
        for index in range(24):
            assert store.get("t", "k%02d" % index)["v"] == index

    def test_newer_sstable_wins(self):
        store = CassandraStore(memtable_flush_threshold=2, compaction_threshold=100)
        store.put("t", "k", {"v": "old"})
        store.put("t", "pad1", {"v": 0})  # triggers flush
        store.put("t", "k", {"v": "new"})
        store.put("t", "pad2", {"v": 0})  # second flush
        assert store.get("t", "k")["v"] == "new"

    def test_tombstones_survive_flush(self):
        store = CassandraStore(memtable_flush_threshold=2, compaction_threshold=100)
        store.put("t", "k", {"v": 1})
        store.put("t", "pad", {"v": 0})
        store.delete("t", "k")
        store.put("t", "pad2", {"v": 0})
        assert store.get("t", "k") is None

    def test_compaction_drops_tombstones(self):
        store = CassandraStore(memtable_flush_threshold=2, compaction_threshold=2)
        store.put("t", "k", {"v": 1})
        store.put("t", "pad", {"v": 0})
        store.delete("t", "k")
        store.put("t", "pad2", {"v": 0})  # flush + compaction
        assert store.get("t", "k") is None
        assert store.count("t") == 2

    def test_flush_all(self):
        store = CassandraStore(memtable_flush_threshold=1000)
        store.put("t", "k", {"v": 1})
        store.flush_all()
        assert store.sstable_count("t") == 1
        assert store.get("t", "k")["v"] == 1

    def test_read_path_cost_grows_with_sstables(self):
        # A key buried under several runs costs more probes than a
        # memtable-resident key.
        store = CassandraStore(memtable_flush_threshold=2, compaction_threshold=100)
        store.put("t", "old", {"v": 1})
        store.put("t", "pad0", {"v": 0})
        for index in range(6):
            store.put("t", "pad%d" % (index + 1), {"v": 0})
        store.take_receipt()
        store.get("t", "old")
        buried = store.take_receipt()
        store.put("t", "fresh", {"v": 2})
        store.take_receipt()
        store.get("t", "fresh")
        fresh = store.take_receipt()
        assert buried.structure_misses + buried.index_probes > fresh.structure_misses

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CassandraStore(memtable_flush_threshold=0)
        with pytest.raises(ValueError):
            CassandraStore(compaction_threshold=1)

    def test_boot_profile_is_jvm_heavy(self):
        assert CassandraStore.boot_profile.jvm
        from repro.db.mongodb import MongoStore

        # "five times slower compared to the MongoDB boot time" (§3.3.3.2)
        assert CassandraStore.boot_profile.instructions >= 4 * MongoStore.boot_profile.instructions
