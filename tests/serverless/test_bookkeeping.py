"""The serving layer's shortcuts, against the definitions they replace.

``FunctionPool.executing`` is a running total of its instances' ``busy``
counts, so ``in_flight`` reads no instance; ``KeepAlivePolicy.victims``
skips the overflow sort when no overflow is possible; ``RpcRequest`` can
take the payload's size from the caller instead of encoding the payload
again.  Each property drives the shortcut beside the definition it
replaces and requires equality.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st


def crashing_handler(crash_every):
    """Fibonacci that raises on every ``crash_every``-th ``n`` (so the
    pool recycles doomed instances), or never when ``crash_every`` is
    ``None``."""
    def handler(payload, ctx):
        n = payload.get("n", 10)
        if crash_every is not None and n % crash_every == 0:
            raise ValueError("handler crashed on n=%d" % n)
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return {"fib": a}
    return handler


def checked(base):
    """``base`` (a router or a cluster platform) that checks the pool's
    running count after every event it serves."""
    class Checked(base):
        checks = 0

        def _schedule_eval(self, pool, heap, order):
            busy = sum(instance.busy for instance in pool.instances)
            assert pool.executing == busy, (pool.executing, busy)
            assert pool.in_flight == busy + len(pool.queue)
            self.checks += 1
            super()._schedule_eval(pool, heap, order)
    return Checked


def build(scaling, cluster, seed, handler):
    from repro.serverless.container import base_image
    from repro.serverless.engine import install_docker
    from repro.serverless.platform import ClusterPlatform
    from repro.serverless.router import Router

    if cluster is None:
        engine = install_docker("riscv")
        server = checked(Router)(engine, seed=seed)
    else:
        server = checked(ClusterPlatform)(cluster, arch="riscv", seed=seed)
    server.engine.registry.push(base_image("python", "riscv"))
    server.deploy("fn", "python-default", "python", handler,
                  scaling=scaling)
    return server


@st.composite
def scaling_configs(draw):
    from repro.serverless.scaler import ScalingConfig

    max_instances = draw(st.integers(min_value=1, max_value=5))
    return ScalingConfig(
        target_concurrency=draw(st.integers(min_value=1, max_value=3)),
        max_instances=max_instances,
        # 0 is scale-to-zero; the short timeout below makes it happen.
        min_instances=draw(st.integers(min_value=0, max_value=max_instances)),
        queue_capacity=draw(st.integers(min_value=1, max_value=16)),
        scale_to_zero_after=draw(st.integers(min_value=20, max_value=200)),
        evaluate_every=draw(st.integers(min_value=5, max_value=40)))


@st.composite
def clusters(draw):
    """A single host (``None``) or three nodes that fail and recover."""
    from repro.serverless.platform import ClusterConfig

    if draw(st.booleans()):
        return None
    return ClusterConfig(
        nodes=3, placement=draw(st.sampled_from(("binpack", "spread"))),
        node_fail_rate=draw(st.sampled_from((0.1, 0.3))),
        node_recover_ticks=150)


class TestRunningInFlight:
    @settings(max_examples=30)
    @given(profile=st.sampled_from(("poisson", "burst", "diurnal")),
           rps=st.sampled_from((40.0, 150.0, 400.0)),
           count=st.integers(min_value=1, max_value=60),
           seed=st.integers(min_value=0, max_value=20),
           scaling=scaling_configs(),
           cluster=clusters(),
           crash_every=st.sampled_from((None, 2, 3, 5)))
    def test_running_count_equals_a_rescan_after_every_event(
            self, profile, rps, count, seed, scaling, cluster, crash_every):
        from repro.serverless.loadgen import arrival_ticks

        server = build(scaling, cluster, seed, crashing_handler(crash_every))
        arrivals = arrival_ticks(profile, rps=rps, requests=count, seed=seed)
        result = server.serve("fn", arrivals,
                              payload_factory=lambda index: {"n": index % 9})
        assert len(result.records) == count
        assert server.checks > count
        pool = server.pool("fn")
        assert pool.executing == 0
        assert not pool.queue

    def test_node_failure_takes_lost_work_off_the_count(self):
        from repro.serverless.loadgen import arrival_ticks
        from repro.serverless.platform import ClusterConfig
        from repro.serverless.scaler import ScalingConfig

        server = build(ScalingConfig(),
                       ClusterConfig(nodes=3, placement="spread",
                                     node_fail_rate=0.15,
                                     node_recover_ticks=200),
                       seed=0, handler=crashing_handler(None))
        arrivals = arrival_ticks("burst", rps=80, requests=300, seed=0)
        result = server.serve("fn", arrivals)
        # Node failures struck work in flight, and every check held.
        assert any(record.metrics.get("faults.cluster.node_down")
                   for record in result.records)
        assert server.pool("fn").executing == 0


def reference_victims(policy, instances, now):
    """``KeepAlivePolicy.victims`` without its no-overflow shortcut."""
    from repro.serverless.faas import FunctionState

    waiting = [instance for instance in instances
               if instance.state == FunctionState.WAITING]
    victims = [instance for instance in waiting
               if now - instance.last_used >= policy.idle_timeout]
    survivors = sorted((instance for instance in waiting
                        if instance not in victims),
                       key=lambda instance: instance.last_used)
    overflow = len(survivors) - policy.max_warm
    if overflow > 0:
        victims.extend(survivors[:overflow])
    return victims


class TestKeepAliveVictims:
    @given(pool=st.lists(st.tuples(st.sampled_from(("DEAD", "WAITING",
                                                    "RUNNING")),
                                   st.integers(min_value=0, max_value=50)),
                         max_size=8),
           now=st.integers(min_value=0, max_value=60),
           idle_timeout=st.integers(min_value=1, max_value=30),
           spare=st.integers(min_value=-8, max_value=2))
    def test_same_victims_in_the_same_order(self, pool, now, idle_timeout,
                                            spare):
        from repro.serverless.faas import (
            FunctionInstance, FunctionState, KeepAlivePolicy)

        instances = []
        for index, (state, last_used) in enumerate(pool):
            instance = FunctionInstance("f%d" % index, "image", "go",
                                        None, {})
            instance.state = getattr(FunctionState, state)
            instance.last_used = last_used
            instances.append(instance)
        # `spare` puts the warm cap below, at and above the pool's size.
        policy = KeepAlivePolicy(idle_timeout=idle_timeout,
                                 max_warm=max(0, len(instances) + spare))
        assert (policy.victims(instances, now)
                == reference_victims(policy, instances, now))


# JSON values as the serving layer sends them: nested dicts and lists,
# non-ASCII text, quotes and backslashes, floats (NaN and infinities
# included, which the encoder writes as bare words).
JSON_TEXT = st.text(alphabet=st.sampled_from(
    ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x7f', 'é',
     'ß', '→', '日', '\U0001f600']), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=20)


class TestRequestEnvelope:
    @given(method=JSON_TEXT,
           payload=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5)
           | JSON_VALUES)
    @example(method="invoke", payload={})
    @example(method="invoke", payload=None)
    @example(method='say "hi" \\ there', payload={"k": 'v"\\é'})
    def test_given_payload_size_gives_the_same_wire_bytes(self, method,
                                                          payload):
        from repro.db.engine import encoded_size
        from repro.serverless.rpc import RpcRequest

        sized = RpcRequest(method, payload, encoded_size(payload))
        encoded = RpcRequest(method, payload)
        assert sized.wire_bytes == encoded.wire_bytes

    def test_channel_meters_the_same_bytes_either_way(self):
        from repro.db.engine import encoded_size
        from repro.serverless.rpc import RpcChannel

        payload = {"lat": 37.97, "name": "Πλάκα \"old\" town"}
        plain, sized = RpcChannel("plain"), RpcChannel("sized")
        for channel in (plain, sized):
            channel.register("invoke", lambda body: {"echo": body})
        first = plain.call("invoke", payload)
        second = sized.call("invoke", payload, encoded_size(payload))
        assert plain.wire_stats() == sized.wire_stats()
        assert first.wire_bytes == second.wire_bytes
