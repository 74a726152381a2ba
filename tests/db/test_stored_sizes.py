"""Stored sizes: every store sizes a row once, when the row is written.

Each store keeps a row's ``encoded_size`` beside the row, and reads,
scans, queries, compaction and ``data_bytes`` charge that stored size.
So a stored size must always equal a fresh encoding of the stored row:
a property drives each store through random operation sequences, and a
Hotel test runs every function's measurement protocol and then checks
that no handler changed a stored row without a write.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import make_datastore
from repro.db.cassandra import _TOMBSTONE, CassandraStore
from repro.db.engine import encoded_size
from repro.db.mariadb import MariaDbStore
from repro.db.memcached import MemcachedCache
from repro.db.mongodb import MongoStore
from repro.db.redis import RedisStore


def stored_entries(store):
    """Every ``(value, stored size)`` pair a store keeps."""
    if isinstance(store, CassandraStore):
        for family in store._families.values():
            runs = [list(family.memtable.values())]
            runs += [sstable.values for sstable in family.sstables]
            for run in runs:
                for entry in run:
                    if entry is not _TOMBSTONE:
                        yield entry
    elif isinstance(store, MongoStore):
        for collection in store._collections.values():
            yield from collection.documents.values()
    elif isinstance(store, MariaDbStore):
        for table in store._tables.values():
            yield from table.rows.values()
    elif isinstance(store, RedisStore):
        yield from store._strings.values()
        for mapping, size, field_sizes in store._hashes.values():
            assert field_sizes.keys() == mapping.keys()
            yield mapping, size
            for field, value in mapping.items():
                yield value, field_sizes[field]
    else:
        for slab in store._slabs.values():
            for value, _chunk, _expires_at, size in slab.values():
                yield value, size


def fresh_data_bytes(store):
    """``data_bytes`` with every stored value encoded again."""
    if isinstance(store, RedisStore):
        return (sum(encoded_size(value) for value, _ in store._strings.values())
                + sum(encoded_size(mapping)
                      for mapping, _size, _fields in store._hashes.values())
                + sum(16 * len(entries) for entries in store._zsets.values()))
    return sum(encoded_size(value) for value, _size in stored_entries(store))


def assert_sizes_fresh(store):
    """Each stored size equals a fresh encoding; returns the entry count."""
    entries = list(stored_entries(store))
    for value, size in entries:
        assert size == encoded_size(value), value
    if isinstance(store, CassandraStore):
        for family in store._families.values():
            for sstable in family.sstables:
                assert sstable.bytes == sum(
                    encoded_size(entry[0]) for entry in sstable.values
                    if entry is not _TOMBSTONE)
    if not isinstance(store, MemcachedCache):
        assert store.data_bytes() == fresh_data_bytes(store)
    return len(entries)


# -- the property -------------------------------------------------------------

KEYS = st.sampled_from("abcde")
HOTEL_IDS = st.sampled_from(["h1", "h2", "h3"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000),
                    st.floats(allow_nan=False), st.text(max_size=6))
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8)
ROWS = st.fixed_dictionaries({"hotel_id": HOTEL_IDS},
                             optional={"tags": VALUES, "room": VALUES,
                                       "n": VALUES})
COLUMNS = ["id", "hotel_id", "tags", "room", "n"]

RECORD_OPS = [
    st.tuples(st.just("put"), KEYS, ROWS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("scan")),
    st.tuples(st.just("query"), st.just("hotel_id"), HOTEL_IDS),
    st.tuples(st.just("query"), st.just("room"), VALUES),
    st.tuples(st.just("flush")),
]
HASH_KEYS = st.sampled_from(["t:a", "t:b", "u:a"])
REDIS_OPS = RECORD_OPS + [
    st.tuples(st.just("set_value"), KEYS, VALUES),
    st.tuples(st.just("get_value"), KEYS),
    st.tuples(st.just("hset"), HASH_KEYS, st.sampled_from(["room", "x"]),
              VALUES),
    st.tuples(st.just("hget"), HASH_KEYS, st.sampled_from(["room", "x"])),
    st.tuples(st.just("hgetall"), HASH_KEYS),
]
CACHE_OPS = [
    st.tuples(st.just("set"), KEYS, VALUES,
              st.sampled_from([None, 1, 3])),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("get_multi"), st.lists(KEYS, max_size=4)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("tick"), st.integers(1, 3)),
]


def mongo_store():
    store = MongoStore()
    store.create_index("t", "hotel_id")
    return store


def mariadb_store():
    store = MariaDbStore()
    store.create_table("t", COLUMNS)
    return store


STORES = {
    # Small thresholds, so sequences flush and compact often.
    "cassandra": lambda: CassandraStore(memtable_flush_threshold=3,
                                        compaction_threshold=2),
    "mongodb": mongo_store,
    "mariadb": mariadb_store,
    "redis": RedisStore,
}


def apply_record_op(store, model, op):
    """One operation on a primary store; reads are checked against the
    model of what the store holds (``{hash key: mapping}``)."""
    kind = op[0]
    if kind == "put":
        _, key, row = op
        store.put("t", key, row)
        model["t:" + key] = dict(row)
    elif kind == "delete":
        store.delete("t", op[1])
        model.pop("t:" + op[1], None)
    elif kind == "get":
        expected = model.get("t:" + op[1])
        if expected is not None and isinstance(store, MariaDbStore):
            expected = dict(expected, id=op[1])
        assert store.get("t", op[1]) == expected
    elif kind == "scan":
        list(store.scan("t"))
    elif kind == "query":
        store.query("t", **{op[1]: op[2]})
    elif kind == "flush":
        if isinstance(store, CassandraStore):
            store.flush_all()
    elif kind == "set_value":
        store.set_value(op[1], op[2])
    elif kind == "get_value":
        store.get_value(op[1])
    elif kind == "hset":
        _, key, field, value = op
        store.hset(key, field, value)
        model.setdefault(key, {})[field] = value
    elif kind == "hget":
        store.hget(op[1], op[2])
    else:
        assert store.hgetall(op[1]) == model.get(op[1], {})


@pytest.mark.parametrize("name", sorted(STORES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_stored_sizes_stay_fresh(name, data):
    store = STORES[name]()
    ops = st.one_of(REDIS_OPS if name == "redis" else RECORD_OPS)
    model = {}
    for op in data.draw(st.lists(ops, max_size=30)):
        apply_record_op(store, model, op)
        assert_sizes_fresh(store)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(CACHE_OPS), max_size=30))
def test_property_memcached_sizes_stay_fresh(ops):
    cache = MemcachedCache()
    for op in ops:
        kind = op[0]
        if kind == "set":
            cache.set(op[1], op[2], ttl=op[3])
        elif kind == "get":
            cache.get(op[1])
        elif kind == "get_multi":
            cache.get_multi(op[1])
        elif kind == "delete":
            cache.delete(op[1])
        else:
            cache.tick(op[1])
        assert_sizes_fresh(cache)


# -- the Hotel protocol writes rows only through the store ---------------------

@pytest.mark.parametrize("db", ["cassandra", "mongodb", "mariadb"])
def test_hotel_protocol_changes_rows_only_through_writes(db):
    from repro.core import ExperimentHarness
    from repro.core.scale import SimScale
    from repro.workloads.hotel import HotelSuite

    suite = HotelSuite(make_datastore(db))
    for function in suite.functions:
        harness = ExperimentHarness(isa="riscv", scale=SimScale(2048, 32))
        harness.measure_function(function,
                                 services=suite.services_for(function))
    assert assert_sizes_fresh(suite.db) > 900
    assert assert_sizes_fresh(suite.memcached) > 0
