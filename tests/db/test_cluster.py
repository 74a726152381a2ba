"""Cassandra cluster tests: partitioning, replication, failure handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.cassandra import CassandraStore
from repro.db.cluster import CassandraCluster, NodeDownError


class TestTopology:
    def test_replica_count_and_distinctness(self):
        cluster = CassandraCluster(nodes=4, replication=3)
        for index in range(50):
            owners = cluster.replicas_for("key%d" % index)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_keys_spread_across_nodes(self):
        cluster = CassandraCluster(nodes=4, replication=1, num_tokens=32)
        ownership = {node: 0 for node in range(4)}
        for index in range(400):
            ownership[cluster.replicas_for("key%d" % index)[0]] += 1
        # Virtual nodes balance the ring: nobody owns everything or nothing.
        assert min(ownership.values()) > 20
        assert max(ownership.values()) < 250

    def test_ring_is_deterministic(self):
        first = CassandraCluster(nodes=4, replication=2, num_tokens=16)
        second = CassandraCluster(nodes=4, replication=2, num_tokens=16)
        for index in range(40):
            key = "key%d" % index
            assert first.replicas_for(key) == second.replicas_for(key)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CassandraCluster(nodes=0)
        with pytest.raises(ValueError):
            CassandraCluster(nodes=2, replication=3)
        with pytest.raises(ValueError):
            CassandraCluster(consistency="TWO")


class TestReplication:
    def test_put_get_roundtrip(self):
        cluster = CassandraCluster(nodes=3, replication=2)
        cluster.put("t", "k", {"v": 1})
        assert cluster.get("t", "k") == {"v": 1}

    def test_data_on_exactly_replication_nodes(self):
        cluster = CassandraCluster(nodes=4, replication=2)
        cluster.put("t", "k", {"v": 1})
        holders = sum(
            1 for node in cluster.nodes if node.get("t", "k") is not None
        )
        assert holders == 2

    def test_read_survives_single_node_failure(self):
        cluster = CassandraCluster(nodes=3, replication=2, consistency="ONE")
        cluster.put("t", "k", {"v": "precious"})
        primary = cluster.replicas_for("k")[0]
        cluster.fail_node(primary)
        assert cluster.get("t", "k") == {"v": "precious"}

    def test_quorum_fails_when_majority_down(self):
        cluster = CassandraCluster(nodes=3, replication=3, consistency="QUORUM")
        cluster.put("t", "k", {"v": 1})
        cluster.fail_node(0)
        cluster.fail_node(1)
        with pytest.raises(NodeDownError):
            cluster.get("t", "k")

    def test_all_consistency_needs_every_replica(self):
        cluster = CassandraCluster(nodes=3, replication=2, consistency="ALL")
        cluster.put("t", "k", {"v": 1})
        cluster.fail_node(cluster.replicas_for("k")[0])
        with pytest.raises(NodeDownError):
            cluster.get("t", "k")

    def test_recovered_node_serves_again(self):
        cluster = CassandraCluster(nodes=3, replication=3, consistency="QUORUM")
        cluster.put("t", "k", {"v": 1})
        cluster.fail_node(0)
        cluster.fail_node(1)
        cluster.recover_node(0)
        assert cluster.get("t", "k") == {"v": 1}

    def test_scan_deduplicates_replicas(self):
        cluster = CassandraCluster(nodes=3, replication=3)
        for index in range(10):
            cluster.put("t", "k%d" % index, {"v": index})
        rows = list(cluster.scan("t"))
        assert len(rows) == 10

    def test_delete_across_replicas(self):
        cluster = CassandraCluster(nodes=3, replication=2)
        cluster.put("t", "k", {"v": 1})
        assert cluster.delete("t", "k")
        assert cluster.get("t", "k") is None

    def test_scan_keeps_equal_rows_under_distinct_keys(self):
        # Two bookings of one customer, hotel and stay: equal rows under
        # two keys are two rows, on a cluster as on one store.
        booking = {"hotel_id": "h0007", "customer": "user0001",
                   "in_date": "2015-04-02", "out_date": "2015-04-05"}
        cluster = CassandraCluster(nodes=3, replication=2)
        store = CassandraStore()
        for target in (cluster, store):
            target.put("reservations", "r-1", dict(booking))
            target.put("reservations", "r-2", dict(booking))
        assert len(store.query("reservations", hotel_id="h0007")) == 2
        assert len(cluster.query("reservations", hotel_id="h0007")) == 2
        assert list(cluster.scan("reservations")) == [booking, booking]

    def test_scan_yields_one_row_per_key_in_key_order(self):
        cluster = CassandraCluster(nodes=4, replication=3)
        for key in ("m", "c", "x", "a"):
            cluster.put("t", key, {"key": key})
        assert [row["key"] for row in cluster.scan("t")] == ["a", "c", "m", "x"]

    def test_diverged_replicas_highest_live_node_wins(self):
        cluster = CassandraCluster(nodes=2, replication=2)
        cluster.put("t", "k", {"v": "old"})
        cluster.fail_node(0)
        cluster.put("t", "k", {"v": "new"})  # node 0 misses this write
        cluster.recover_node(0)
        assert list(cluster.scan("t")) == [{"v": "new"}]
        cluster.fail_node(1)
        cluster.put("t", "k", {"v": "newest"})  # node 1 misses this one
        cluster.recover_node(1)
        assert list(cluster.scan("t")) == [{"v": "new"}]


class TestClusterAsDatastore:
    def test_receipts_accumulate_coordinator_work(self):
        cluster = CassandraCluster(nodes=3, replication=2)
        cluster.put("t", "k", {"v": "x" * 100})
        receipt = cluster.take_receipt()
        # Two replica writes, each with payload bytes.
        assert receipt.bytes_written > 200
        assert receipt.ops >= 3  # coordinator + 2 node ops

    def test_hotel_suite_runs_on_a_cluster(self):
        from repro.workloads.hotel import HotelSuite

        suite = HotelSuite(CassandraCluster(nodes=3, replication=2))
        function = suite.functions[2]  # user
        from repro.serverless.engine import install_docker
        from repro.serverless.faas import FaasPlatform

        platform = FaasPlatform(install_docker("riscv"))
        platform.engine.registry.push(function.image("riscv"))
        platform.deploy(function.name, function.name, "go", function.handler,
                        services=suite.services_for(function))
        record = platform.invoke(function.name,
                                 {"username": "user0005", "password": "pass0005"})
        assert record.result["authorized"]

    def test_query_filters(self):
        cluster = CassandraCluster(nodes=2, replication=2)
        cluster.put("t", "a", {"city": "athens"})
        cluster.put("t", "b", {"city": "zurich"})
        assert len(cluster.query("t", city="athens")) == 1


@settings(max_examples=20, deadline=None)
@given(
    entries=st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=5),
                            st.integers(), min_size=1, max_size=30),
    nodes=st.integers(min_value=1, max_value=5),
)
def test_property_cluster_behaves_like_dict(entries, nodes):
    cluster = CassandraCluster(nodes=nodes,
                               replication=min(2, nodes))
    for key, value in entries.items():
        cluster.put("t", key, {"v": value})
    for key, value in entries.items():
        assert cluster.get("t", key)["v"] == value
    assert list(cluster.scan("t")) == [{"v": entries[key]}
                                       for key in sorted(entries)]
