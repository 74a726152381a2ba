"""Pluggable serving platforms: one host, or an N-node simulated cluster.

The measurement pipeline benchmarks RISC-V serverless stacks on single
hosts — the paper's protocol — but the related work (Vitamin-V, SeBS)
argues the *cloud-service* level is where RISC-V must ultimately be
evaluated: multiple machines behind a scheduler, node failures, traffic
crossing machine boundaries.  This module supplies that seam without
forking the serving engine:

* :class:`Platform` — the deployment-target interface ``python -m repro
  serve`` programs against (deploy / serve / pool / registry);
* :class:`SingleHostPlatform` — today's path: one
  :class:`~repro.serverless.router.Router` on one implicit host,
  bit-identical to driving the router directly;
* :class:`ClusterPlatform` — N :class:`Node`\\ s, each with its own
  container engine, fronted by a cluster-level scheduler that places
  instances under a :class:`ClusterConfig` placement policy (bin-pack
  vs spread), injects whole-node failures through the
  ``cluster.node_down`` fault site, and charges cross-node hops using
  the :mod:`~repro.serverless.rpc` wire model.

Determinism contract: everything a cluster adds is a pure function of
``(ClusterConfig, seed, arrival trace)``.  Two serves with the same seed
produce byte-identical event logs at any node count, and a one-node
cluster reduces every hook to the single-host behaviour — placement has
one choice, every request's ingress hosts every instance (hop cost 0),
and node chaos is gated on a second live node — so
``ClusterPlatform(nodes=1)`` is bit-identical to
:class:`SingleHostPlatform` (asserted by the platform test suite).
"""

from __future__ import annotations

import heapq
import random
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan, FaultSpec, NodeDownError
from repro.frozen import converted_fields
from repro.serverless.container import ImageRegistry
from repro.serverless.engine import ContainerEngine, install_docker
from repro.serverless.faas import FunctionState
from repro.serverless.router import Router, ServeResult
from repro.serverless.rpc import RpcChannel
from repro.serverless.scaler import ScalingEvent

#: Cluster scheduler policies: ``binpack`` fills the busiest node first
#: (consolidation — fewer machines touched, bigger blast radius);
#: ``spread`` fills the emptiest (failure isolation — the Kubernetes
#: default topology-spread instinct).
PLACEMENT_POLICIES = ("binpack", "spread")

@dataclass(frozen=True, kw_only=True, slots=True)
class ClusterConfig:
    """Cluster shape and chaos knobs, keyword-only and immutable.

    A frozen dataclass like
    :class:`~repro.serverless.scaler.ScalingConfig`, so a cluster
    configuration can ride on a
    :class:`~repro.core.spec.MeasurementSpec` and take part in result
    cache identity — ``cluster=None`` everywhere keeps every digest,
    stat and event log byte-identical to the single-host implementation.

    ``nodes``
        Machines in the simulated cluster (>= 1).
    ``placement``
        Scheduler policy from :data:`PLACEMENT_POLICIES`; ties break
        toward the lowest node index, so placement is deterministic.
    ``node_capacity``
        Instances one node can host (across functions); ``None`` means
        the only clamp is the pool's ``max_instances``.
    ``hop_ticks``
        Per-direction latency of a cross-node hop; a request served off
        its ingress node pays ``2 * hop_ticks`` plus a wire-size term.
    ``node_fail_rate``
        Per-evaluation probability a live node fails (drawn at the
        ``cluster.node_down`` fault site; 0 disables node chaos).  A
        failure is only injected while at least two nodes are up — the
        cluster never blacks itself out entirely.
    ``node_recover_ticks``
        Ticks a failed node stays down before rejoining (empty — its
        containers died with it).
    """

    nodes: int = 1
    placement: str = "binpack"
    node_capacity: Optional[int] = None
    hop_ticks: int = 6
    node_fail_rate: float = 0.0
    node_recover_ticks: int = 600

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError("placement must be one of %s, got %r"
                             % (", ".join(PLACEMENT_POLICIES), self.placement))
        if self.node_capacity is not None and self.node_capacity < 1:
            raise ValueError("node_capacity must be >= 1 (or None)")
        if self.hop_ticks < 0:
            raise ValueError("hop_ticks must be >= 0")
        if not 0.0 <= self.node_fail_rate <= 1.0:
            raise ValueError("node_fail_rate must be within [0, 1]")
        if self.node_recover_ticks < 1:
            raise ValueError("node_recover_ticks must be >= 1")
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return ("ClusterConfig(nodes=%d, placement=%r, capacity=%s, "
                "fail=%g)" % (self.nodes, self.placement,
                              self.node_capacity, self.node_fail_rate))


class Node:
    """One cluster machine: its own engine, population count, health.

    Every node provisions its own container engine through the same
    :func:`~repro.serverless.engine.install_docker` path a single host
    uses (RISC-V nodes carry the built-from-source provenance), against
    a registry shared cluster-wide — push once, pull everywhere.  The
    node's :class:`~repro.serverless.rpc.RpcChannel` meters the wire
    bytes of requests its front-end forwarded to other nodes.
    """

    def __init__(self, index: int, arch: str,
                 registry: Optional[ImageRegistry] = None):
        self.index = index
        self.name = "n%d" % index
        self.engine: ContainerEngine = install_docker(arch)
        if registry is not None:
            self.engine.registry = registry
        self.up = True
        #: Instances currently placed here (across all pools).
        self.population = 0
        #: Times this node has failed.
        self.downs = 0
        self.channel = RpcChannel("node:%s" % self.name)

    def __repr__(self) -> str:
        return "Node(%s, %s, %d instance(s))" % (
            self.name, "up" if self.up else "DOWN", self.population)


class Platform:
    """What ``python -m repro serve`` programs against.

    The deployment-target seam: a platform owns engines and instance
    pools and turns an arrival trace into a
    :class:`~repro.serverless.router.ServeResult`.  Single-host and
    cluster deployments implement the same four methods, so callers
    never ask how many machines are behind the API — the shape SeBS
    gives real clouds, applied to the simulated one.
    """

    def deploy(self, name, image_name, runtime, handler, services=None,
               scaling=None, keepalive=None):
        """Register a function; returns its pool."""
        raise NotImplementedError

    def serve(self, name, arrivals, payload=None, payload_factory=None):
        """Drive one open-loop arrival trace to completion."""
        raise NotImplementedError

    def pool(self, name):
        """The deployed function's pool."""
        raise NotImplementedError

    @property
    def registry(self) -> ImageRegistry:
        """Where function images are pushed (shared cluster-wide)."""
        raise NotImplementedError

    @property
    def description(self) -> str:
        """One operator-facing line: what is this running on?"""
        raise NotImplementedError


class SingleHostPlatform(Platform):
    """Today's path: one router on one implicit host, bit-identically.

    A thin delegate around :class:`~repro.serverless.router.Router` —
    it adds no state and draws nothing, so serving through it produces
    byte-identical records, events and samples to driving the router
    directly (asserted by the platform tests).
    """

    def __init__(self, engine: Optional[ContainerEngine] = None, *,
                 arch: str = "riscv", seed: int = 0, server_core: int = 1,
                 tracer=None, faults=None):
        self.router = Router(engine if engine is not None
                             else install_docker(arch),
                             seed=seed, server_core=server_core,
                             tracer=tracer, faults=faults)

    def deploy(self, name, image_name, runtime, handler, services=None,
               scaling=None, keepalive=None):
        return self.router.deploy(name, image_name, runtime, handler,
                                  services=services, scaling=scaling,
                                  keepalive=keepalive)

    def serve(self, name, arrivals, payload=None, payload_factory=None):
        return self.router.serve(name, arrivals, payload=payload,
                                 payload_factory=payload_factory)

    def pool(self, name):
        return self.router.pool(name)

    @property
    def registry(self) -> ImageRegistry:
        return self.router.engine.registry

    @property
    def description(self) -> str:
        return "single %s host" % self.router.engine.arch

    def __repr__(self) -> str:
        return "SingleHostPlatform(%r)" % self.router


class ClusterPlatform(Router, Platform):
    """N nodes behind the router's event loop, scheduled per config.

    Subclasses the router and overrides exactly its platform hook
    points, so the queueing/autoscaling engine is shared, not forked:

    * **placement** — a new instance boots on the node the policy
      picks (``binpack``: most-loaded live node with spare capacity;
      ``spread``: least-loaded; ties to the lowest index);
    * **ingress + hops** — arrivals enter round-robin across live
      nodes; a request dispatched to an instance on another node pays
      ``2 * hop_ticks`` plus a wire-size term, metered on the record
      (``serve.cross_node`` / ``serve.hop_ticks``) and on the ingress
      node's channel;
    * **node chaos** — each autoscaler evaluation draws at the
      ``cluster.node_down`` fault site; a fire crashes a live node
      (containers lost, in-flight requests fail with
      :class:`~repro.faults.NodeDownError`) and schedules its recovery
      ``node_recover_ticks`` later.
    """

    def __init__(self, cluster: ClusterConfig, *, arch: str = "riscv",
                 seed: int = 0, server_core: int = 1, tracer=None,
                 faults=None):
        self.cluster = cluster
        shared_registry = ImageRegistry()
        self.nodes = [Node(index, arch, registry=shared_registry)
                      for index in range(cluster.nodes)]
        super().__init__(self.nodes[0].engine, seed=seed,
                         server_core=server_core, tracer=tracer,
                         faults=faults)
        if faults is not None:
            for node in self.nodes:
                if node.engine.faults is None:
                    node.engine.faults = faults
        if cluster.node_fail_rate > 0.0:
            plan = FaultPlan(seed=seed, specs=[
                FaultSpec("cluster.node_down", cluster.node_fail_rate)])
            self._node_faults = plan.arm()
            # Victim selection has its own stream (crc32, not hash():
            # str hashing is salted per process) so arming chaos never
            # perturbs the pool's service-jitter draws.
            self._chaos_rng = random.Random(
                zlib.crc32(b"cluster.chaos") ^ (seed * 0x9E3779B1))
        else:
            self._node_faults = None
            self._chaos_rng = None

    # -- Platform surface --------------------------------------------------

    def deploy(self, name, image_name, runtime, handler, services=None,
               scaling=None, keepalive=None):
        pool = super().deploy(name, image_name, runtime, handler,
                              services=services, scaling=scaling,
                              keepalive=keepalive)
        # The base deploy pulled onto node 0; every other node pulls the
        # image too (same shared registry), so any node can host.
        for node in self.nodes[1:]:
            node.engine.pull(image_name)
        return pool

    @property
    def registry(self) -> ImageRegistry:
        return self.nodes[0].engine.registry

    @property
    def description(self) -> str:
        return "%d-node %s cluster (%s placement)" % (
            self.cluster.nodes, self.nodes[0].engine.arch,
            self.cluster.placement)

    # -- router hook points ------------------------------------------------

    def _make_result(self, pool) -> ServeResult:
        return ServeResult(pool.name, pool.scaling, cluster=self.cluster)

    def _place(self, pool):
        capacity = self.cluster.node_capacity
        binpack = self.cluster.placement == "binpack"
        best = None
        for node in self.nodes:
            if not node.up:
                continue
            if capacity is not None and node.population >= capacity:
                continue
            if best is None:
                best = node
            elif binpack and node.population > best.population:
                best = node
            elif not binpack and node.population < best.population:
                best = node
        if best is None:
            return None
        return (best.engine, best)

    def _note_boot(self, pool, instance, node) -> None:
        node.population += 1

    def _note_remove(self, pool, instance) -> None:
        node = instance.node
        if node is not None:
            node.population -= 1
            instance.node = None

    def _ingress_for(self, pool, record):
        # Round-robin front-end load balancing; a down front-end's
        # traffic shifts to the next live node (deterministically).
        start = (record.sequence - 1) % len(self.nodes)
        for offset in range(len(self.nodes)):
            node = self.nodes[(start + offset) % len(self.nodes)]
            if node.up:
                return node
        return self.nodes[start]

    def _candidate_for(self, pool, request):
        # Prefer an instance on the ingress node (no hop); fall back to
        # the first remote instance with spare concurrency.  At one node
        # this is exactly the base router's first-fit.
        target = pool.scaling.target_concurrency
        ingress = request.ingress
        fallback = None
        for instance in pool.instances:
            if instance.ready and instance.busy < target \
                    and not instance.doomed:
                if ingress is None or instance.node is ingress:
                    return instance
                if fallback is None:
                    fallback = instance
        return fallback

    def _hop_penalty(self, pool, instance, request) -> int:
        record = request.record
        node = instance.node
        if len(self.nodes) > 1:
            # Node attribution (only in real clusters, so one-node
            # records stay byte-identical to single-host ones).
            record.meter("serve.node", node.index)
        ingress = request.ingress
        if ingress is None or node is ingress:
            return 0
        # Forwarded across the machine boundary: the ingress front-end
        # proxies the request there and the response back, so the wire
        # cost follows the rpc channel model — a fixed per-direction
        # latency plus a size-proportional term over the same encoded
        # byte counts RpcChannel meters.
        ingress.channel.bytes_out += record.request_bytes
        ingress.channel.bytes_in += record.response_bytes
        wire_bytes = record.request_bytes + record.response_bytes
        penalty = 2 * self.cluster.hop_ticks + wire_bytes // 256
        record.meter("serve.cross_node")
        record.meter("serve.hop_ticks", penalty)
        return penalty

    def _on_depart(self, pool, heap, order, result, data) -> None:
        instance, _record = data
        if instance.lost:
            return  # failed with its node; nothing left to account
        super()._on_depart(pool, heap, order, result, data)

    def _on_eval(self, pool, heap, order, result) -> None:
        self._maybe_fail_node(pool, heap, order, result)
        super()._on_eval(pool, heap, order, result)

    def _on_extra(self, pool, heap, order, result, kind, data) -> None:
        if kind != "node-up":
            super()._on_extra(pool, heap, order, result, kind, data)
            return
        node = data
        node.up = True
        self._emit(result, pool, ScalingEvent.NODE_UP,
                   len(pool.instances), len(pool.instances),
                   "%s recovered after %d ticks"
                   % (node.name, self.cluster.node_recover_ticks))
        self._dispatch(pool, heap, order, result)
        self._observe(pool, result)

    def _sample(self, pool, result, in_flight: int) -> None:
        super()._sample(pool, result, in_flight)
        if len(self.nodes) <= 1:
            return
        counts = tuple(node.population for node in self.nodes)
        if result.node_samples and result.node_samples[-1][1] == counts:
            return
        result.node_samples.append((self.now, counts))

    # -- node chaos --------------------------------------------------------

    def _maybe_fail_node(self, pool, heap, order, result) -> None:
        injector = self._node_faults
        if injector is None:
            return
        live = [node for node in self.nodes if node.up]
        if len(live) <= 1:
            return  # never black out the whole cluster
        if not injector.should_fire("cluster.node_down"):
            return
        victim = live[self._chaos_rng.randrange(len(live))]
        self._fail_node(pool, heap, order, result, victim)

    def _fail_node(self, pool, heap, order, result, victim) -> None:
        """Crash ``victim`` now: containers die, in-flight work fails."""
        victim.up = False
        victim.downs += 1
        victim.engine.crash()
        lost = [instance for instance in list(pool.instances)
                if instance.node is victim]
        failure = NodeDownError("node %s went down mid-request"
                                % victim.name)
        for instance in lost:
            for record in instance.inflight:
                record.error = "%s: %s" % (type(failure).__name__, failure)
                record.result = {"error": record.error}
                record.meter("faults.cluster.node_down")
            instance.inflight = []
            pool.executing -= instance.busy
            instance.busy = 0
            instance.lost = True
            instance.state = FunctionState.DEAD
            instance.container_name = None
            pool.instances.remove(instance)
            self._note_remove(pool, instance)
        self._emit(result, pool, ScalingEvent.NODE_DOWN,
                   len(pool.instances) + len(lost), len(pool.instances),
                   "%s down, %d instance(s) lost"
                   % (victim.name, len(lost)))
        heapq.heappush(heap, (self.now + self.cluster.node_recover_ticks,
                              next(order), "node-up", victim))
        self._dispatch(pool, heap, order, result)
        self._observe(pool, result)

    def __repr__(self) -> str:
        return "ClusterPlatform(%d nodes, %d pools, now=%d)" % (
            len(self.nodes), len(self._pools), self.now)


def make_platform(arch: str, *, cluster: Optional[ClusterConfig] = None,
                  seed: int = 0, server_core: int = 1, tracer=None,
                  faults=None) -> Platform:
    """Build the platform a serve run targets.

    ``cluster=None`` (the default) is the single-host path, byte-
    identical to constructing a router directly; any
    :class:`ClusterConfig` — including ``nodes=1`` — builds a
    :class:`ClusterPlatform`.
    """
    if cluster is None:
        return SingleHostPlatform(arch=arch, seed=seed,
                                  server_core=server_core, tracer=tracer,
                                  faults=faults)
    return ClusterPlatform(cluster, arch=arch, seed=seed,
                           server_core=server_core, tracer=tracer,
                           faults=faults)
