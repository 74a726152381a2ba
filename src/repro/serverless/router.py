"""Multi-instance serving: a deterministic tick-clock router per function.

This is the serving layer the measurement pipeline deliberately lacks:
where :class:`~repro.serverless.faas.FaasPlatform` drives exactly one
instance per function (the paper's Fig 4.1 protocol), the router puts a
**pool** of :class:`~repro.serverless.faas.FunctionInstance`-derived
workers behind a bounded FIFO queue with admission control, and lets a
:class:`~repro.serverless.scaler.ConcurrencyAutoscaler` grow and shrink
the pool as open-loop traffic contends for it.  Bursts then produce what
the cold/warm dichotomy predicts at service level: queue build-up,
panic-mode scale-ups, cold-start storms, and sojourn-time tails.

Mechanics
---------
The router runs a discrete-event simulation on an integer tick clock:

* **arrival** — a request from the arrival trace reaches the function's
  queue; beyond ``queue_capacity`` it is rejected (admission control,
  metered ``serve.rejected``);
* **ready** — a booting instance finishes its cold start (container
  engine create+start costs plus ``cold_start_ticks`` runtime init,
  plus any injected ``faas.cold_start`` stall) and starts draining the
  queue; the first request it serves is its **cold** request;
* **depart** — a request completes after its service ticks; crashed
  instances are recycled (stop+remove through the real container
  engine), not kept warm;
* **eval** — the autoscaler compares windowed observed concurrency
  against per-instance target concurrency and scales the pool; idle
  instances are reaped through the existing
  :class:`~repro.serverless.faas.KeepAlivePolicy` (scale-to-zero).

Handlers execute *functionally* through a per-instance
:class:`~repro.serverless.rpc.RpcChannel` (real results, real receipts,
real wire-byte metering, per-instance ``rpc.*``/``faas.*``/``engine.*``
fault sites), while request *timing* comes from a deterministic
service-tick model — the cycle-accurate path remains the measurement
pipeline (`python -m repro measure`), which this layer leaves
bit-identical.  Every tick, queue decision and jitter draw derives from
the run's seed: two serves with the same seed produce byte-identical
records and scaling-event logs.
"""

from __future__ import annotations

import heapq
import itertools
import random
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.db.engine import encoded_size
from repro.obs.tracer import TRACK_SCALING
from repro.serverless.engine import ENGINE_OP_COSTS, ContainerEngine, EngineError
from repro.serverless.faas import (
    FunctionInstance,
    FunctionState,
    Handler,
    InvocationContext,
    InvocationRecord,
    KeepAlivePolicy,
    drain_service_meters,
    harvest_service_meters,
)
from repro.serverless.metrics import percentile
from repro.serverless.rpc import RpcChannel
from repro.serverless.scaler import (
    ConcurrencyAutoscaler,
    ScalingConfig,
    ScalingEvent,
)

#: Warm service ticks per runtime before payload/jitter terms — the same
#: interpreted-vs-compiled ordering the measured cycle numbers show
#: (Fig 4.4), collapsed to router granularity.  Serving-layer timing is a
#: queueing model, not a cycle model; see docs/METHODOLOGY.md.
SERVICE_BASE_TICKS = {"python": 48, "nodejs": 28, "go": 14}

#: Fallback for runtimes outside the table.
DEFAULT_SERVICE_TICKS = 32

#: Engine-side share of a cold start, from the deterministic op costs.
BOOT_ENGINE_TICKS = ENGINE_OP_COSTS["create"] + ENGINE_OP_COSTS["start"]


class QueuedRequest:
    """One admitted arrival waiting for (or holding) an instance."""

    __slots__ = ("sequence", "arrival", "payload", "record", "ingress")

    def __init__(self, sequence: int, arrival: int, payload: Dict[str, Any],
                 record: InvocationRecord):
        self.sequence = sequence
        self.arrival = arrival
        self.payload = payload
        self.record = record
        #: Front-end node the request entered through (cluster platforms
        #: only; ``None`` on a single host).
        self.ingress = None

    def __repr__(self) -> str:
        return "QueuedRequest(#%d @ %d)" % (self.sequence, self.arrival)


class PooledInstance(FunctionInstance):
    """A pool member: a FunctionInstance plus serving-side state.

    Adds what a single-instance lifecycle never needed: a stable pool
    ``index`` (container names stay unique and deterministic), a
    ``busy`` in-flight count bounded by the pool's target concurrency, a
    ``ready_at`` tick (cold start completes), and a per-instance
    :class:`~repro.serverless.rpc.RpcChannel` so RPC metering and fault
    sites fire per instance, not per function.
    """

    def __init__(self, name: str, image_name: str, runtime: str,
                 handler: Handler, services: Dict[str, Any], index: int):
        super().__init__(name, image_name, runtime, handler, services)
        self.index = index
        self.busy = 0
        self.ready_at = 0
        #: True until this instance serves its first request — that
        #: request is the pool's cold invocation for this instance.
        self.cold_pending = True
        #: Set when a handler crash dooms the container; it is recycled
        #: once its in-flight requests drain.
        self.doomed = False
        self.channel = RpcChannel("%s#i%d" % (name, index))
        self.channel.register("invoke", self._rpc_invoke)
        self._pending_context: Optional[InvocationContext] = None
        #: Engine the instance's container lives on (set at boot); a
        #: cluster platform points this at the chosen node's engine.
        self.host_engine = None
        #: Cluster node hosting the instance (``None`` on a single host).
        self.node = None
        #: Set when the hosting node died: the container is gone without
        #: an engine stop/remove, and pending departures are void.
        self.lost = False
        #: Records currently executing on this instance (so a node
        #: failure can fail exactly the in-flight work).
        self.inflight: List[InvocationRecord] = []

    def _rpc_invoke(self, payload: Dict[str, Any]) -> Any:
        return self.handler(payload, self._pending_context)

    @property
    def ready(self) -> bool:
        return self.state != FunctionState.DEAD

    def __repr__(self) -> str:
        return "PooledInstance(%s#i%d, %s, busy=%d)" % (
            self.name, self.index, self.state, self.busy,
        )


class FunctionPool:
    """Everything the router tracks for one deployed function."""

    def __init__(self, name: str, image_name: str, runtime: str,
                 handler: Handler, services: Dict[str, Any],
                 scaling: ScalingConfig, keepalive: KeepAlivePolicy,
                 seed: int):
        self.name = name
        self.image_name = image_name
        self.runtime = runtime
        self.handler = handler
        self.services = services
        self.scaling = scaling
        self.keepalive = keepalive
        self.autoscaler = ConcurrencyAutoscaler(scaling, name)
        self.instances: List[PooledInstance] = []
        self.queue: deque = deque()
        #: Monotone pool-index counter; never reused, so container names
        #: are unique across recycles.
        self.next_index = 0
        #: Per-function request sequence (admitted and rejected alike).
        self.sequence = 0
        self.last_active = 0
        #: Eval ticks already scheduled (dedup for the event heap).
        self.scheduled_evals: set = set()
        # zlib.crc32, NOT hash(): str hashing is salted per process, and
        # the pool's jitter stream must be identical across runs.
        self.rng = random.Random(
            zlib.crc32(name.encode("utf-8")) ^ (seed * 0x9E3779B1))

    @property
    def in_flight(self) -> int:
        """Demand signal the autoscaler watches: executing + queued."""
        return sum(inst.busy for inst in self.instances) + len(self.queue)

    @property
    def ready_count(self) -> int:
        return sum(1 for inst in self.instances if inst.ready)

    def __repr__(self) -> str:
        return "FunctionPool(%s: %d instances, %d queued)" % (
            self.name, len(self.instances), len(self.queue),
        )


class ServeResult:
    """Everything one serve run produced: records, events, timeline."""

    def __init__(self, function: str, scaling: ScalingConfig, cluster=None):
        self.function = function
        self.scaling = scaling
        #: Optional :class:`~repro.serverless.platform.ClusterConfig` the
        #: run was served under; ``None`` means a single host, and every
        #: rendering below then stays byte-identical to the pre-cluster
        #: implementation.
        self.cluster = cluster
        #: Invocation records in arrival order (rejections included).
        self.records: List[InvocationRecord] = []
        self.events: List[ScalingEvent] = []
        #: ``(tick, queue_depth, in_flight, instances)`` on every change.
        self.samples: List[Tuple[int, int, int, int]] = []
        #: ``(tick, (instances on node 0, node 1, ...))`` whenever the
        #: per-node placement changes — only populated by multi-node
        #: cluster platforms.
        self.node_samples: List[Tuple[int, Tuple[int, ...]]] = []
        #: Tick the last departure or scaling action happened at.
        self.finished_at = 0

    # -- outcome accessors -------------------------------------------------

    @property
    def admitted(self) -> List[InvocationRecord]:
        return [r for r in self.records if "serve.rejected" not in r.metrics]

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if "serve.rejected" in r.metrics)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.admitted if not r.ok)

    @property
    def cold_starts(self) -> int:
        return sum(1 for r in self.admitted if r.cold)

    @property
    def peak_instances(self) -> int:
        return max((s[3] for s in self.samples), default=0)

    @property
    def max_queue_depth(self) -> int:
        return max((s[1] for s in self.samples), default=0)

    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e.kind == ScalingEvent.UP)

    def scale_downs(self) -> int:
        return sum(1 for e in self.events
                   if e.kind in (ScalingEvent.DOWN, ScalingEvent.TO_ZERO))

    def node_failures(self) -> int:
        return sum(1 for e in self.events
                   if e.kind == ScalingEvent.NODE_DOWN)

    @property
    def cross_node(self) -> int:
        """Requests served on a node other than their ingress node."""
        return sum(1 for r in self.records
                   if "serve.cross_node" in r.metrics)

    def sojourns(self) -> List[int]:
        """Queue + service ticks per admitted request, arrival order."""
        return [int(r.metrics["timing.sojourn_ticks"]) for r in self.admitted]

    def queue_delays(self) -> List[int]:
        """Queueing ticks per admitted request, arrival order."""
        return [int(r.metrics["timing.queue_ticks"]) for r in self.admitted]

    def sojourn_percentile(self, fraction: float) -> float:
        return percentile(self.sojourns(), fraction)

    # -- rendering ---------------------------------------------------------

    def event_log(self) -> str:
        """The scaling decisions, one canonical line each.

        Byte-identical across runs with the same seed — the serve-smoke
        CI job and the determinism test diff exactly this text.
        """
        return "\n".join(event.format() for event in self.events)

    def summary(self) -> str:
        """The operator's report: admission, scaling, queueing, tails."""
        lines = []
        admitted = self.admitted
        lines.append(
            "served %d/%d requests (%d rejected, %d errors), "
            "%d cold start(s)" % (
                len(admitted), len(self.records), self.rejected,
                self.errors, self.cold_starts))
        lines.append(
            "instances: peak %d (clamp %d..%d), %d scale-up(s), "
            "%d scale-down(s)" % (
                self.peak_instances, self.scaling.min_instances,
                self.scaling.max_instances, self.scale_ups(),
                self.scale_downs()))
        delays = self.queue_delays()
        if delays:
            lines.append("queue: depth max %d, delay mean %.1f max %d ticks"
                         % (self.max_queue_depth,
                            sum(delays) / float(len(delays)), max(delays)))
        sojourns = self.sojourns()
        if sojourns:
            lines.append(
                "sojourn ticks: p50 %.0f  p95 %.0f  p99 %.0f  (max %d)" % (
                    percentile(sojourns, 0.50), percentile(sojourns, 0.95),
                    percentile(sojourns, 0.99), max(sojourns)))
        if self.cluster is not None and self.cluster.nodes > 1:
            lines.append(
                "cluster: %d nodes (%s), %d node failure(s), "
                "%d cross-node request(s)" % (
                    self.cluster.nodes, self.cluster.placement,
                    self.node_failures(), self.cross_node))
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready artifact (``python -m repro serve --out``).

        Cluster keys appear only when a cluster config is attached, so
        single-host artifacts stay byte-identical to pre-cluster ones.
        """
        data = {
            "function": self.function,
            "scaling": self.scaling.as_dict(),
            "records": [record.as_dict() for record in self.records],
            "events": [event.as_dict() for event in self.events],
            "samples": [list(sample) for sample in self.samples],
            "finished_at": self.finished_at,
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster.as_dict()
            data["node_samples"] = [[tick, list(counts)]
                                    for tick, counts in self.node_samples]
        return data

    def __repr__(self) -> str:
        return "ServeResult(%s: %d records, %d events)" % (
            self.function, len(self.records), len(self.events),
        )


class Router:
    """Routes open-loop arrivals onto autoscaled instance pools.

    One router fronts one container engine; each deployed function gets
    its own pool, queue and autoscaler.  The router owns the logical
    tick clock (``router.now``) — it never touches an attached tracer's
    clock, it stamps spans with its own ticks, so serving can be traced
    alongside other subsystems without perturbing them.
    """

    def __init__(self, engine: ContainerEngine, *, seed: int = 0,
                 server_core: int = 1, tracer=None, faults=None):
        self.engine = engine
        self.seed = seed
        self.server_core = server_core
        self.now = 0
        #: Optional :class:`repro.obs.Tracer`; scaling decisions, queue
        #: depth and per-request sojourns then land on ``TRACK_SCALING``.
        self.tracer = tracer
        #: Optional :class:`repro.faults.FaultInjector`; consulted at the
        #: per-instance ``engine.*``, ``faas.*`` and ``rpc.*`` sites.
        self.faults = faults
        if faults is not None and engine.faults is None:
            engine.faults = faults
        self._pools: Dict[str, FunctionPool] = {}

    # -- deployment --------------------------------------------------------

    def deploy(self, name: str, image_name: str, runtime: str,
               handler: Handler, services: Optional[Dict[str, Any]] = None,
               scaling: Optional[ScalingConfig] = None,
               keepalive: Optional[KeepAlivePolicy] = None) -> FunctionPool:
        """Register a function as an (initially empty) instance pool."""
        if name in self._pools:
            raise ValueError("function %r already deployed" % name)
        scaling = scaling or ScalingConfig()
        if keepalive is None:
            keepalive = KeepAlivePolicy(
                idle_timeout=scaling.scale_to_zero_after,
                max_warm=scaling.max_instances)
        self.engine.pull(image_name)
        pool = FunctionPool(name, image_name, runtime, handler,
                            services or {}, scaling, keepalive, self.seed)
        self._pools[name] = pool
        return pool

    def pool(self, name: str) -> FunctionPool:
        try:
            return self._pools[name]
        except KeyError:
            raise KeyError("no function %r deployed (have %s)"
                           % (name, sorted(self._pools))) from None

    # -- the serve loop ----------------------------------------------------

    def serve(self, name: str, arrivals: List[int],
              payload: Optional[Dict[str, Any]] = None,
              payload_factory: Optional[Callable[[int], Dict[str, Any]]] = None,
              ) -> ServeResult:
        """Drive one open-loop arrival trace to completion.

        ``arrivals`` is a non-decreasing list of integer ticks (see
        :func:`repro.serverless.loadgen.arrival_ticks`).  The event loop
        runs until every admitted request departs and the pool has
        settled back to its floor — so the result includes the tail:
        drain, idle-timeout reaping and scale-to-zero.  The router's
        clock never goes backwards, so a second trace on the same router
        must start at or after the previous one's ``finished_at``.
        """
        if payload is not None and payload_factory is not None:
            raise ValueError("pass payload or payload_factory, not both")
        pool = self.pool(name)
        result = self._make_result(pool)
        heap: List[Tuple[int, int, str, Any]] = []
        order = itertools.count()
        previous = None
        for index, tick in enumerate(arrivals):
            tick = int(tick)
            if previous is None:
                if tick < self.now:
                    raise ValueError(
                        "trace starts at tick %d, before the router's "
                        "clock at tick %d; ticks must never go backwards"
                        % (tick, self.now))
            elif tick < previous:
                raise ValueError("arrival ticks must be non-decreasing")
            previous = tick
            heapq.heappush(heap, (tick, next(order), "arrival", index))

        while heap:
            tick, _, kind, data = heapq.heappop(heap)
            self.now = tick
            if kind == "arrival":
                self._on_arrival(pool, heap, order, result,
                                 data, payload, payload_factory)
            elif kind == "ready":
                self._on_ready(pool, heap, order, result, data)
            elif kind == "depart":
                self._on_depart(pool, heap, order, result, data)
            elif kind == "eval":
                pool.scheduled_evals.discard(tick)
                self._on_eval(pool, heap, order, result)
            else:
                # Platform-specific events (e.g. a cluster node's
                # recovery); the base router knows none.
                self._on_extra(pool, heap, order, result, kind, data)
            self._schedule_eval(pool, heap, order)
        result.finished_at = self.now
        return result

    def _make_result(self, pool) -> ServeResult:
        """Build the result object (platforms attach their config here)."""
        return ServeResult(pool.name, pool.scaling)

    def _on_extra(self, pool, heap, order, result, kind, data) -> None:
        raise ValueError("unknown serve event kind %r" % kind)

    # -- event handlers ----------------------------------------------------

    def _on_arrival(self, pool, heap, order, result, index, payload,
                    payload_factory) -> None:
        body = payload_factory(index) if payload_factory else (payload or {})
        pool.sequence += 1
        pool.last_active = self.now
        record = InvocationRecord(
            function=pool.name, runtime=pool.runtime, cold=False,
            request_bytes=encoded_size(body), sequence=pool.sequence)
        result.records.append(record)
        if len(pool.queue) >= pool.scaling.queue_capacity:
            # Admission control: the queue is full, shed the request.
            record.error = ("rejected: queue full (capacity %d)"
                            % pool.scaling.queue_capacity)
            record.result = {"error": record.error}
            record.meter("serve.rejected")
            self._trace_instant("rejected", {"sequence": record.sequence})
            self._sample(pool, result)
            return
        request = QueuedRequest(pool.sequence, self.now, body, record)
        request.ingress = self._ingress_for(pool, record)
        pool.queue.append(request)
        if not pool.instances:
            # Scale from zero immediately (the activator path): the
            # periodic evaluation would add avoidable queueing delay.
            self._on_eval(pool, heap, order, result)
        self._dispatch(pool, heap, order, result)
        self._observe(pool, result)

    def _on_ready(self, pool, heap, order, result, instance) -> None:
        if instance not in pool.instances:
            return  # recycled while booting
        instance.state = FunctionState.WAITING
        instance.last_used = self.now
        self._dispatch(pool, heap, order, result)
        self._observe(pool, result)

    def _on_depart(self, pool, heap, order, result, data) -> None:
        instance, record = data
        if instance.lost:
            # The hosting node died mid-flight: the record was already
            # failed at death time and the instance reclaimed.
            return
        if record in instance.inflight:
            instance.inflight.remove(record)
        instance.busy -= 1
        instance.invocations += 1
        instance.last_used = self.now
        pool.last_active = self.now
        if instance.busy == 0:
            instance.state = FunctionState.WAITING
        if instance.doomed and instance.busy == 0:
            # A crashed container is recycled, not kept warm — same
            # policy as FaasPlatform.kill, but per pool member.
            self._remove_instance(pool, instance)
            self._emit(result, pool, ScalingEvent.RECYCLE,
                       len(pool.instances) + 1, len(pool.instances),
                       "instance i%d crashed" % instance.index)
        self._dispatch(pool, heap, order, result)
        self._observe(pool, result)

    def _on_eval(self, pool, heap, order, result) -> None:
        scaling = pool.scaling
        total = len(pool.instances)
        want, transition = pool.autoscaler.desired(self.now, pool.ready_count)
        if transition is not None:
            kind = (ScalingEvent.PANIC_ENTER
                    if transition == "panic-enter" else ScalingEvent.PANIC_EXIT)
            self._emit(result, pool, kind, total, total,
                       "window avg crossed %.1fx capacity"
                       % scaling.panic_threshold
                       if transition == "panic-enter" else "demand subsided")
        if want > total:
            booted = 0
            for _ in range(want - total):
                if len(pool.instances) >= scaling.max_instances:
                    break
                if self._boot_instance(pool, heap, order, result):
                    booted += 1
            if booted:
                self._emit(result, pool, ScalingEvent.UP, total,
                           len(pool.instances),
                           "%s demand, in-flight %d" % (
                               "panic" if pool.autoscaler.panicking
                               else "stable", pool.in_flight))
        elif want < total and not pool.autoscaler.panicking:
            removed = self._remove_idle(pool, total - want,
                                        floor=scaling.min_instances)
            if removed:
                self._emit(result, pool, ScalingEvent.DOWN, total,
                           len(pool.instances),
                           "stable window wants %d" % want)
        # Scale-to-zero: the keep-alive policy reaps instances idle past
        # the timeout, down to the configured floor.
        before = len(pool.instances)
        victims = pool.keepalive.victims(pool.instances, self.now)
        for victim in victims:
            if len(pool.instances) <= pool.scaling.min_instances:
                break
            if victim.busy == 0:
                self._remove_instance(pool, victim)
        if len(pool.instances) < before:
            kind = (ScalingEvent.TO_ZERO if not pool.instances
                    else ScalingEvent.DOWN)
            self._emit(result, pool, kind, before, len(pool.instances),
                       "idle %d ticks" % pool.keepalive.idle_timeout)
        self._observe(pool, result)

    # -- pool mechanics ----------------------------------------------------

    def _boot_instance(self, pool, heap, order, result) -> bool:
        """Start one cold instance; False when the boot itself failed."""
        placement = self._place(pool)
        if placement is None:
            # A cluster with every live node at capacity; a single host
            # never refuses (its only clamp is max_instances, applied by
            # the caller).
            self._emit(result, pool, ScalingEvent.BOOT_FAILED,
                       len(pool.instances), len(pool.instances),
                       "no node with spare capacity")
            return False
        engine, node = placement
        index = pool.next_index
        pool.next_index += 1
        instance = PooledInstance(pool.name, pool.image_name, pool.runtime,
                                  pool.handler, pool.services, index)
        container_name = "%s-i%d" % (pool.name, index)
        try:
            engine.create(pool.image_name, name=container_name,
                          cpu_pin=self.server_core)
        except EngineError as failure:
            self._emit(result, pool, ScalingEvent.BOOT_FAILED,
                       len(pool.instances), len(pool.instances),
                       "create i%d: %s" % (index, failure))
            return False
        try:
            engine.start(container_name)
        except EngineError as failure:
            try:  # never leave a created-but-dead container behind
                engine.remove(container_name)
            except EngineError:
                pass
            self._emit(result, pool, ScalingEvent.BOOT_FAILED,
                       len(pool.instances), len(pool.instances),
                       "start i%d: %s" % (index, failure))
            return False
        boot_ticks = BOOT_ENGINE_TICKS + pool.scaling.cold_start_ticks
        faults = self.faults
        if faults is not None and faults.should_fire("faas.cold_start"):
            # Injected provisioning stall (scheduler delay, image-layer
            # fetch hiccup): elapses boot time, does not fail the boot.
            boot_ticks += faults.ticks_for("faas.cold_start")
        instance.container_name = container_name
        instance.host_engine = engine
        instance.node = node
        instance.cold_starts = 1
        instance.ready_at = self.now + boot_ticks
        instance.local = {}
        pool.instances.append(instance)
        self._note_boot(pool, instance, node)
        heapq.heappush(heap, (instance.ready_at, next(order), "ready",
                              instance))
        self._trace_span("cold-boot:i%d" % index, self.now, boot_ticks,
                         {"function": pool.name, "container": container_name})
        return True

    # -- platform hook points ----------------------------------------------
    #
    # A single host is the degenerate cluster: one engine, no placement
    # choice, no ingress hop.  Cluster platforms override exactly these
    # hooks; at one node every override reduces to the base behaviour, so
    # the two paths stay bit-identical (asserted by the platform tests).

    def _place(self, pool):
        """Choose where a new instance boots: ``(engine, node)`` or None."""
        return (self.engine, None)

    def _note_boot(self, pool, instance, node) -> None:
        """Placement bookkeeping after a successful boot."""

    def _note_remove(self, pool, instance) -> None:
        """Placement bookkeeping after an instance leaves the pool."""

    def _ingress_for(self, pool, record):
        """Front-end node an arrival enters through (None = single host)."""
        return None

    def _candidate_for(self, pool, request):
        """First instance with spare concurrency for ``request``."""
        target = pool.scaling.target_concurrency
        for instance in pool.instances:
            if instance.ready and instance.busy < target \
                    and not instance.doomed:
                return instance
        return None

    def _hop_penalty(self, pool, instance, request) -> int:
        """Extra service ticks when serving off the ingress node."""
        return 0

    def _remove_idle(self, pool, count: int, floor: int) -> int:
        """Remove up to ``count`` idle instances, oldest-idle first."""
        removed = 0
        idle = sorted(
            (inst for inst in pool.instances
             if inst.busy == 0 and inst.state == FunctionState.WAITING),
            key=lambda inst: (inst.last_used, inst.index))
        for victim in idle:
            if removed >= count or len(pool.instances) <= floor:
                break
            self._remove_instance(pool, victim)
            removed += 1
        return removed

    def _remove_instance(self, pool, instance) -> None:
        """Reclaim one instance through the engine (stop/remove guarded
        separately — a stop failure must never leak the container)."""
        if instance.container_name is not None:
            engine = instance.host_engine or self.engine
            try:
                engine.stop(instance.container_name)
            except EngineError:
                pass
            try:
                engine.remove(instance.container_name)
            except EngineError:
                pass
            instance.container_name = None
        instance.state = FunctionState.DEAD
        if instance in pool.instances:
            pool.instances.remove(instance)
        self._note_remove(pool, instance)

    def _dispatch(self, pool, heap, order, result) -> None:
        """Drain the queue onto every instance with spare concurrency."""
        target = pool.scaling.target_concurrency
        while pool.queue:
            candidate = self._candidate_for(pool, pool.queue[0])
            if candidate is None:
                return
            request = pool.queue.popleft()
            record = request.record
            record.cold = candidate.cold_pending
            candidate.cold_pending = False
            candidate.busy += 1
            candidate.state = FunctionState.RUNNING
            candidate.inflight.append(record)
            assert candidate.busy <= target, \
                "instance concurrency bound violated"
            queue_ticks = self.now - request.arrival
            service_ticks = self._execute(pool, candidate, request)
            service_ticks += self._hop_penalty(pool, candidate, request)
            record.meter("timing.queue_ticks", queue_ticks)
            record.meter("timing.service_ticks", service_ticks)
            record.meter("timing.sojourn_ticks", queue_ticks + service_ticks)
            heapq.heappush(heap, (self.now + service_ticks, next(order),
                                  "depart", (candidate, record)))
            self._trace_span(
                "serve:%s#%d" % (pool.name, record.sequence),
                request.arrival, queue_ticks + service_ticks,
                {"cold": record.cold, "ok": record.ok,
                 "queue_ticks": queue_ticks, "instance": candidate.index})

    def _execute(self, pool, instance, request) -> int:
        """Run the handler functionally; returns the service ticks.

        Functional execution (results, receipts, RPC wire bytes, error
        surfaces) is real; timing is the deterministic service model
        plus any injected RPC latency.
        """
        record = request.record
        service_ticks = self._service_ticks(pool, record)
        drain_service_meters(pool.services)
        context = InvocationContext(record, pool.services, instance.local)
        instance._pending_context = context
        faults = self.faults
        channel = instance.channel
        if channel.faults is None and faults is not None:
            channel.faults = faults
        if faults is not None and faults.should_fire("faas.handler"):
            record.error = "InjectedFault: injected fault at faas.handler"
            record.result = {"error": record.error}
            record.meter("faults.faas.handler")
            instance.doomed = True
        else:
            latency_before = channel.latency_ticks
            try:
                response = channel.call("invoke", request.payload)
            except Exception as failure:  # noqa: BLE001 - FaaS error surface
                record.error = "%s: %s" % (type(failure).__name__, failure)
                record.result = {"error": record.error}
                instance.doomed = True
                response = None
            if response is not None:
                service_ticks += channel.latency_ticks - latency_before
                if response.ok:
                    record.result = response.payload
                else:
                    message = response.payload.get("error", response.status) \
                        if isinstance(response.payload, dict) \
                        else response.status
                    record.error = "%s: %s" % (response.status, message)
                    record.result = response.payload
                    if response.status == "INTERNAL":
                        instance.doomed = True
                record.response_bytes = response.wire_bytes
        harvest_service_meters(record, pool.services)
        instance._pending_context = None
        return max(1, service_ticks)

    def _service_ticks(self, pool, record) -> int:
        """Deterministic service-time draw for one request."""
        base = SERVICE_BASE_TICKS.get(pool.runtime, DEFAULT_SERVICE_TICKS)
        base += record.request_bytes // 64
        if record.cold:
            # First-request residue beyond the boot: imports, JIT warmup.
            base += pool.scaling.cold_start_ticks // 2
        return base + pool.rng.randrange(base // 2 + 1)

    # -- bookkeeping -------------------------------------------------------

    def _observe(self, pool, result) -> None:
        pool.autoscaler.observe(self.now, pool.in_flight)
        self._sample(pool, result)

    def _sample(self, pool, result) -> None:
        sample = (self.now, len(pool.queue), pool.in_flight,
                  len(pool.instances))
        if result.samples and result.samples[-1] == sample:
            return
        result.samples.append(sample)
        tracer = self.tracer
        if tracer is not None:
            tracer.counter("serve.%s" % pool.name, self.now,
                           {"queue": sample[1], "in_flight": sample[2],
                            "instances": sample[3]}, TRACK_SCALING)

    def _emit(self, result, pool, kind: str, from_instances: int,
              to_instances: int, reason: str) -> None:
        event = ScalingEvent(self.now, pool.name, kind, from_instances,
                             to_instances, reason)
        result.events.append(event)
        self._trace_instant(kind, {"function": pool.name,
                                   "from": from_instances,
                                   "to": to_instances, "reason": reason})

    def _schedule_eval(self, pool, heap, order) -> None:
        """Keep evaluations coming while there is anything to decide."""
        busy = pool.in_flight > 0 or any(
            not inst.ready for inst in pool.instances)
        if busy:
            tick = self.now + pool.scaling.evaluate_every
        elif len(pool.instances) > pool.scaling.min_instances:
            # Idle drain: next decision is the idle-timeout reap (or an
            # earlier stable-window scale-down).
            tick = self.now + pool.scaling.evaluate_every
        else:
            return
        if tick in pool.scheduled_evals:
            return
        pool.scheduled_evals.add(tick)
        heapq.heappush(heap, (tick, next(order), "eval", pool.name))

    # -- tracing (never advances the tracer clock) -------------------------

    def _trace_span(self, name: str, start: int, dur: int,
                    args: Dict[str, Any]) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(name, "serving", start, max(1, dur),
                            TRACK_SCALING, args=args)

    def _trace_instant(self, name: str, args: Dict[str, Any]) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(name, "scaling", self.now, TRACK_SCALING,
                           args=args)

    def __repr__(self) -> str:
        return "Router(%d pools, now=%d)" % (len(self._pools), self.now)
