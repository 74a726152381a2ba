"""Platform-seam tests: cluster config, bit-identity, chaos, digests."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def fib_handler(payload, ctx):
    n = payload.get("n", 10)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    ctx.meter("app.work")
    return {"fib": a}


def make_router(seed=0, scaling=None):
    from repro.serverless.container import base_image
    from repro.serverless.engine import install_docker
    from repro.serverless.router import Router

    engine = install_docker("riscv")
    engine.registry.push(base_image("python", "riscv"))
    router = Router(engine, seed=seed)
    router.deploy("fn", "python-default", "python", fib_handler,
                  scaling=scaling)
    return router


def make_platform(cluster=None, seed=0, scaling=None):
    from repro.serverless.container import base_image
    from repro.serverless.platform import make_platform as build

    platform = build("riscv", cluster=cluster, seed=seed)
    platform.registry.push(base_image("python", "riscv"))
    platform.deploy("fn", "python-default", "python", fib_handler,
                    scaling=scaling)
    return platform


def burst(seed=0, requests=120, rps=80):
    from repro.serverless.loadgen import arrival_ticks

    return arrival_ticks("burst", rps=rps, requests=requests, seed=seed)


def run_signature(result):
    """Everything observable about a serve run, for byte-identity diffs."""
    return (result.event_log(),
            [record.as_dict() for record in result.records],
            list(result.samples),
            list(result.node_samples),
            result.summary())


class TestClusterConfig:
    def test_validation(self):
        from repro.serverless.platform import ClusterConfig

        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(placement="random")
        with pytest.raises(ValueError):
            ClusterConfig(node_capacity=0)
        with pytest.raises(ValueError):
            ClusterConfig(hop_ticks=-1)
        with pytest.raises(ValueError):
            ClusterConfig(node_fail_rate=1.5)
        with pytest.raises(ValueError):
            ClusterConfig(node_recover_ticks=0)

    def test_immutable_replace_and_roundtrip(self):
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=3, placement="spread")
        with pytest.raises(AttributeError):
            config.nodes = 5
        changed = dataclasses.replace(config, node_capacity=4)
        assert changed.nodes == 3
        assert changed.node_capacity == 4
        assert config.node_capacity is None  # original untouched
        with pytest.raises(TypeError):
            dataclasses.replace(config, machines=9)
        assert ClusterConfig(**dataclasses.asdict(config)) == config
        assert hash(changed) == hash(
            ClusterConfig(**dataclasses.asdict(changed)))

    def test_pickle_and_fingerprint(self):
        from repro.core.spec import key_form
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=4, placement="spread",
                               node_fail_rate=0.1)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        # The config's key form is its field tuple.
        assert key_form(clone) == key_form(config)
        assert key_form(config) != key_form(ClusterConfig(nodes=4))


class TestBitIdentity:
    def test_single_host_platform_matches_raw_router(self):
        from repro.serverless.platform import SingleHostPlatform

        router = make_router(seed=5)
        direct = router.serve("fn", burst(seed=5))
        platform = make_platform(seed=5)
        assert isinstance(platform, SingleHostPlatform)
        routed = platform.serve("fn", burst(seed=5))
        assert run_signature(direct) == run_signature(routed)

    def test_one_node_cluster_matches_single_host(self):
        from repro.serverless.platform import ClusterConfig, ClusterPlatform

        single = make_platform(seed=7).serve("fn", burst(seed=7))
        platform = make_platform(cluster=ClusterConfig(nodes=1), seed=7)
        assert isinstance(platform, ClusterPlatform)
        clustered = platform.serve("fn", burst(seed=7))
        assert run_signature(single) == run_signature(clustered)

    def test_factory_dispatch(self):
        from repro.serverless.platform import (
            ClusterConfig,
            ClusterPlatform,
            SingleHostPlatform,
            make_platform,
        )

        assert isinstance(make_platform("riscv"), SingleHostPlatform)
        cluster = make_platform("riscv", cluster=ClusterConfig(nodes=2))
        assert isinstance(cluster, ClusterPlatform)
        assert "2-node" in cluster.description


class TestClusterDeterminism:
    def test_same_seed_byte_identical_at_four_nodes(self):
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=4, placement="spread",
                               node_fail_rate=0.08)
        runs = []
        for _ in range(2):
            platform = make_platform(cluster=config, seed=11)
            runs.append(run_signature(
                platform.serve("fn", burst(seed=11, requests=150))))
        assert runs[0] == runs[1]

    def test_seed_changes_the_run(self):
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=3, placement="binpack")
        one = make_platform(cluster=config, seed=1).serve(
            "fn", burst(seed=1))
        two = make_platform(cluster=config, seed=2).serve(
            "fn", burst(seed=2))
        assert run_signature(one) != run_signature(two)


class TestClusterBehaviour:
    def test_cross_node_requests_pay_metered_hops(self):
        from repro.serverless.platform import ClusterConfig

        platform = make_platform(
            cluster=ClusterConfig(nodes=3, placement="spread"), seed=3)
        result = platform.serve("fn", burst(seed=3, requests=150))
        assert result.cross_node > 0
        crossed = [record for record in result.records
                   if "serve.cross_node" in record.metrics]
        assert len(crossed) == result.cross_node
        for record in crossed:
            assert record.metrics["serve.hop_ticks"] >= \
                2 * platform.cluster.hop_ticks
            assert "serve.node" in record.metrics
        # The ingress front-ends metered the forwarded wire bytes.
        assert sum(node.channel.bytes_out for node in platform.nodes) > 0

    def test_summary_reports_the_cluster(self):
        from repro.serverless.platform import ClusterConfig

        platform = make_platform(
            cluster=ClusterConfig(nodes=3, placement="spread"), seed=3)
        result = platform.serve("fn", burst(seed=3))
        assert "3 nodes (spread)" in result.summary()
        assert result.as_dict()["cluster"]["nodes"] == 3
        # Single-host results carry no cluster keys at all.
        single = make_platform(seed=3).serve("fn", burst(seed=3))
        assert "cluster" not in single.as_dict()
        assert "nodes" not in single.summary()

    def test_node_failure_kills_inflight_and_recovers(self):
        from repro.faults import NodeDownError
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=3, placement="spread",
                               node_fail_rate=0.15, node_recover_ticks=200)
        platform = make_platform(cluster=config, seed=0)
        result = platform.serve("fn", burst(seed=0, requests=300, rps=80))
        log = result.event_log()
        assert "node-down" in log
        assert "node-up" in log
        assert result.node_failures() > 0
        killed = [record for record in result.records
                  if record.error and NodeDownError.__name__ in record.error]
        assert killed, "a node died with work in flight"
        for record in killed:
            assert not record.ok
            assert record.metrics.get("faults.cluster.node_down") == 1

    def test_node_chaos_never_blacks_out_the_cluster(self):
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=2, node_fail_rate=1.0,
                               node_recover_ticks=5000)
        platform = make_platform(cluster=config, seed=0)
        result = platform.serve("fn", burst(seed=0, requests=60))
        # Rate 1.0 downs a node on the very first evaluation, but the
        # survivor must keep serving: the run completes, and at least
        # the non-killed requests succeed.
        assert len(result.records) == 60
        assert any(record.ok for record in result.records)
        assert sum(1 for node in platform.nodes if node.up) >= 1

    def test_binpack_consolidates_spread_spreads(self):
        from repro.serverless.platform import ClusterConfig
        from repro.serverless.scaler import ScalingConfig

        scaling = ScalingConfig(min_instances=4, max_instances=4)
        spread = make_platform(
            cluster=ClusterConfig(nodes=4, placement="spread"),
            seed=0, scaling=scaling)
        spread.serve("fn", burst(seed=0, requests=40))
        populations = sorted(node.population for node in spread.nodes)
        assert populations == [1, 1, 1, 1]
        binpack = make_platform(
            cluster=ClusterConfig(nodes=4, placement="binpack"),
            seed=0, scaling=scaling)
        binpack.serve("fn", burst(seed=0, requests=40))
        assert sorted(node.population
                      for node in binpack.nodes) == [0, 0, 0, 4]

    @settings(max_examples=20, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=4),
        capacity=st.integers(min_value=1, max_value=3),
        placement=st.sampled_from(("binpack", "spread")),
        seed=st.integers(min_value=0, max_value=40),
    )
    def test_placement_never_exceeds_node_capacity(self, nodes, capacity,
                                                   placement, seed):
        from repro.serverless.platform import ClusterConfig

        config = ClusterConfig(nodes=nodes, placement=placement,
                               node_capacity=capacity)
        platform = make_platform(cluster=config, seed=seed)
        result = platform.serve("fn", burst(seed=seed, requests=80))
        for _tick, counts in result.node_samples:
            assert all(count <= capacity for count in counts), (
                "capacity %d violated: %r" % (capacity, counts))
        assert all(node.population <= capacity for node in platform.nodes)


class TestClusterSpecIdentity:
    def test_cluster_extends_spec_identity_and_digest(self):
        from repro.core.spec import MeasurementSpec
        from repro.serverless.platform import ClusterConfig
        from tests.core.test_spec_identity import PINNED_DIGESTS

        plain = MeasurementSpec(function="fibonacci-go")
        clustered = dataclasses.replace(plain, cluster=ClusterConfig(nodes=3))
        assert plain != clustered
        assert plain.digest() != clustered.digest()
        # Specs minted before the cluster field existed hash the same:
        # a None cluster must not perturb any pre-existing digest.
        explicit = MeasurementSpec(function="fibonacci-go", cluster=None)
        assert explicit.digest() == PINNED_DIGESTS["default"]

    def test_spec_round_trips_with_cluster(self):
        from repro.core.spec import MeasurementSpec
        from repro.serverless.platform import ClusterConfig

        spec = MeasurementSpec(function="aes-go",
                               cluster=ClusterConfig(nodes=2))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cluster == ClusterConfig(nodes=2)


class TestDbClusterFaultSite:
    def test_one_error_taxonomy(self):
        import repro.db.cluster as db_cluster
        from repro.faults import NodeDownError
        from repro.faults.plan import FAULT_SITES

        assert db_cluster.NodeDownError is NodeDownError
        assert "cluster.node_down" in FAULT_SITES

    def test_armed_injector_downs_cassandra_nodes(self):
        from repro.db.cluster import CassandraCluster, NodeDownError
        from repro.faults import FaultPlan, FaultSpec

        cluster = CassandraCluster(nodes=2, replication=2,
                                   consistency="ALL")
        cluster.faults = FaultPlan(seed=0, specs=[
            FaultSpec("cluster.node_down", 1.0)]).arm()
        # Rate 1.0: the first operation's draw downs the highest-indexed
        # live node, and ALL consistency can no longer be met.
        with pytest.raises(NodeDownError):
            cluster.put("users", "alice", {"name": "Alice"})
        assert cluster.live_nodes() == 1
        # Deterministic: a fresh cluster with the same plan fails the
        # same way.
        again = CassandraCluster(nodes=2, replication=2, consistency="ALL")
        again.faults = FaultPlan(seed=0, specs=[
            FaultSpec("cluster.node_down", 1.0)]).arm()
        with pytest.raises(NodeDownError):
            again.put("users", "alice", {"name": "Alice"})

    def test_unarmed_cluster_never_draws(self):
        from repro.db.cluster import CassandraCluster

        cluster = CassandraCluster(nodes=2, replication=2,
                                   consistency="ALL")
        cluster.put("users", "alice", {"name": "Alice"})
        assert cluster.get("users", "alice")["name"] == "Alice"
        assert cluster.live_nodes() == 2
