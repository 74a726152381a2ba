"""Function-as-a-Service lifecycle: dead / waiting / running (§2.1).

A deployed function's instance moves between the three states the thesis
describes: *dead* (no container, no memory — the next invocation is a
**cold** execution paying the full initialisation path), *waiting*
(container resident — the next invocation is **warm**), and *running*.
A keep-alive policy decides when waiting instances are reaped, exactly
the provider-side trade-off §2.1 discusses.

Invocations return an :class:`InvocationRecord` carrying everything the
workload trace builders need: whether the run was cold, the request and
response wire sizes, and the metered :class:`~repro.db.engine.WorkReceipt`
of every backing service the handler touched.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.db.engine import WorkReceipt, encoded_size
from repro.faults.policy import RetryBudgetExceeded
from repro.obs.tracer import TRACK_FAULTS, TRACK_INVOCATION
from repro.serverless.engine import ContainerEngine, EngineError


class FunctionState:
    """The three lifecycle states of §2.1."""

    DEAD = "dead"
    WAITING = "waiting"
    RUNNING = "running"


class InvocationRecord:
    """Everything observed about one function invocation."""

    def __init__(self, function: str, runtime: str, cold: bool,
                 request_bytes: int, sequence: int):
        self.function = function
        self.runtime = runtime
        self.cold = cold
        self.sequence = sequence
        self.request_bytes = request_bytes
        self.response_bytes = 0
        self.result: Any = None
        self.receipts: Dict[str, WorkReceipt] = {}
        self.metrics: Dict[str, float] = {}
        #: Invocation records of downstream functions this handler called
        #: (chained / multi-function benchmarks).
        self.children: List["InvocationRecord"] = []
        #: Set when the handler raised: the platform returns an error
        #: response instead of crashing (real FaaS returns a 500).
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def attach_receipt(self, service: str, receipt: WorkReceipt) -> None:
        existing = self.receipts.get(service)
        if existing is None:
            self.receipts[service] = receipt
        else:
            existing.merge(receipt)

    def meter(self, key: str, amount: float = 1) -> None:
        self.metrics[key] = self.metrics.get(key, 0) + amount

    def total_receipt(self) -> WorkReceipt:
        combined = WorkReceipt()
        for receipt in self.receipts.values():
            combined.merge(receipt)
        return combined

    def as_dict(self) -> Dict[str, Any]:
        """Round-trippable view (see :meth:`from_dict`); used by the
        result cache and the JSON exporters."""
        return {
            "function": self.function,
            "runtime": self.runtime,
            "cold": self.cold,
            "sequence": self.sequence,
            "request_bytes": self.request_bytes,
            "response_bytes": self.response_bytes,
            "result": self.result,
            "receipts": {name: receipt.as_dict()
                         for name, receipt in self.receipts.items()},
            "metrics": dict(self.metrics),
            "children": [child.as_dict() for child in self.children],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InvocationRecord":
        record = cls(
            function=data["function"],
            runtime=data["runtime"],
            cold=data["cold"],
            request_bytes=data["request_bytes"],
            sequence=data["sequence"],
        )
        record.response_bytes = data.get("response_bytes", 0)
        record.result = data.get("result")
        record.receipts = {
            name: WorkReceipt.from_dict(receipt)
            for name, receipt in data.get("receipts", {}).items()
        }
        record.metrics = dict(data.get("metrics", {}))
        record.children = [cls.from_dict(child)
                           for child in data.get("children", [])]
        record.error = data.get("error")
        return record

    def __repr__(self) -> str:
        return "InvocationRecord(%s #%d, %s)" % (
            self.function, self.sequence, "cold" if self.cold else "warm",
        )


class InvocationContext:
    """Passed to handlers so they can meter their work.

    ``local`` is the instance's in-process state: it survives warm
    invocations and is wiped on cold starts, exactly like module-level
    globals in a real function container.  Handlers use it for in-process
    caches, whose emptiness is part of what makes cold requests expensive.
    """

    def __init__(self, record: InvocationRecord, services: Dict[str, Any],
                 local: Optional[Dict[str, Any]] = None):
        self.record = record
        self._services = services
        self.local = local if local is not None else {}

    def service(self, name: str):
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(
                "function %r has no bound service %r (have %s)"
                % (self.record.function, name, sorted(self._services))
            ) from None

    def meter(self, key: str, amount: float = 1) -> None:
        self.record.meter(key, amount)


Handler = Callable[[Dict[str, Any], InvocationContext], Any]


def drain_service_meters(services: Dict[str, Any]) -> None:
    """Discard stale service metering so a record sees only its request.

    Shared between :class:`FaasPlatform` and the serving router
    (:mod:`repro.serverless.router`): both must reset every bound
    service's receipt and fault counters immediately before running a
    handler, or metering from a previous invocation leaks into this one.
    """
    for service in services.values():
        if hasattr(service, "take_receipt"):
            service.take_receipt()
        if hasattr(service, "take_fault_metrics"):
            service.take_fault_metrics()


def harvest_service_meters(record: InvocationRecord,
                           services: Dict[str, Any]) -> None:
    """Attach each service's receipt and fault counters to ``record``."""
    for service_name, service in services.items():
        if hasattr(service, "take_receipt"):
            record.attach_receipt(service_name, service.take_receipt())
        if hasattr(service, "take_fault_metrics"):
            for key, amount in service.take_fault_metrics().items():
                record.meter("resilience.%s.%s" % (service_name, key),
                             amount)


class KeepAlivePolicy:
    """Evicts waiting instances: idle timeout plus a warm-pool cap."""

    def __init__(self, idle_timeout: float = 600.0, max_warm: int = 32):
        if idle_timeout <= 0 or max_warm < 0:
            raise ValueError("idle_timeout must be > 0 and max_warm >= 0")
        self.idle_timeout = idle_timeout
        self.max_warm = max_warm

    def victims(self, instances: List["FunctionInstance"], now: float) -> List["FunctionInstance"]:
        if len(instances) <= self.max_warm:
            # No warm-pool overflow is possible: only the idle timeout
            # reaps, in pool order.
            return [
                instance for instance in instances
                if instance.state == FunctionState.WAITING
                and now - instance.last_used >= self.idle_timeout
            ]
        waiting = [
            instance for instance in instances
            if instance.state == FunctionState.WAITING
        ]
        victims = [
            instance for instance in waiting
            if now - instance.last_used >= self.idle_timeout
        ]
        survivors = sorted(
            (instance for instance in waiting if instance not in victims),
            key=lambda instance: instance.last_used,
        )
        overflow = len(survivors) - self.max_warm
        if overflow > 0:
            victims.extend(survivors[:overflow])
        return victims


class FunctionInstance:
    """A deployed function and its (possibly absent) container."""

    def __init__(self, name: str, image_name: str, runtime: str,
                 handler: Handler, services: Dict[str, Any]):
        self.name = name
        self.image_name = image_name
        self.runtime = runtime
        self.handler = handler
        self.services = services
        self.state = FunctionState.DEAD
        self.container_name: Optional[str] = None
        self.last_used = 0.0
        self.invocations = 0
        self.cold_starts = 0
        self.local: Dict[str, Any] = {}

    def __repr__(self) -> str:
        return "FunctionInstance(%s, %s)" % (self.name, self.state)


class FaasPlatform:
    """The serverless provider: deploys functions, routes invocations."""

    def __init__(self, engine: ContainerEngine,
                 policy: Optional[KeepAlivePolicy] = None,
                 server_core: int = 1, tracer=None, faults=None,
                 retry_policy=None):
        self.engine = engine
        self.policy = policy or KeepAlivePolicy()
        self.server_core = server_core
        self.clock = 0.0
        self._functions: Dict[str, FunctionInstance] = {}
        #: Optional :class:`repro.obs.Tracer`; invocations then record
        #: the queue → cold-boot → exec → respond lifecycle as spans.
        self.tracer = tracer
        if tracer is not None and engine.tracer is None:
            engine.tracer = tracer
        #: Optional :class:`repro.faults.FaultInjector`; cold starts and
        #: handler execution then consult the ``faas.*`` hook sites, and
        #: recovery is governed by ``retry_policy``.  ``None`` (the
        #: default) keeps every invocation on the exact pre-fault path.
        self.faults = faults
        if faults is not None and engine.faults is None:
            engine.faults = faults
        if retry_policy is None and faults is not None:
            from repro.faults.policy import RetryPolicy

            retry_policy = RetryPolicy.from_plan(faults.plan)
        self.retry_policy = retry_policy

    # -- deployment -------------------------------------------------------------

    def deploy(self, name: str, image_name: str, runtime: str, handler: Handler,
               services: Optional[Dict[str, Any]] = None) -> FunctionInstance:
        if name in self._functions:
            raise ValueError("function %r already deployed" % name)
        self.engine.pull(image_name)
        instance = FunctionInstance(name, image_name, runtime, handler, services or {})
        self._functions[name] = instance
        return instance

    def function(self, name: str) -> FunctionInstance:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError("no function %r deployed (have %s)"
                           % (name, sorted(self._functions))) from None

    def functions(self) -> List[FunctionInstance]:
        return list(self._functions.values())

    # -- invocation --------------------------------------------------------------

    def invoke(self, name: str, payload: Optional[Dict[str, Any]] = None,
               advance_clock: float = 1.0,
               raise_errors: bool = True) -> InvocationRecord:
        """Route one request; cold-starts the instance if it is dead.

        With ``raise_errors=False`` a handler exception becomes an error
        response on the record (``record.error`` set, ``result`` carrying
        the message) instead of propagating — the production-FaaS
        behaviour, where a crashing function returns a 500 and the
        instance is recycled to the dead state.
        """
        instance = self.function(name)
        payload = payload or {}
        # ``advance_clock`` is the logical time since the previous platform
        # activity: it elapses *before* this request arrives, so idle
        # instances can be reaped first and this invocation correctly
        # observes a dead instance after a long gap.
        self.clock += advance_clock
        self._reap()
        tracer = self.tracer
        faults = self.faults
        fired_before = faults.snapshot() if faults is not None else None
        if tracer is not None:
            invoke_start = tracer.now
            tracer.advance(1)  # routing/queueing delay, one logical tick
            tracer.complete("queue", "invocation", invoke_start, 1,
                            TRACK_INVOCATION, args={"function": name})
        cold = instance.state == FunctionState.DEAD
        cold_metrics: Dict[str, float] = {}
        cold_failure: Optional[BaseException] = None
        if cold:
            instance.local = {}  # in-process state dies with the container
            try:
                if tracer is not None:
                    boot_start = tracer.now
                    cold_metrics = self._cold_start(instance)
                    boot_ticks = tracer.now - boot_start
                    tracer.complete("cold-boot", "invocation", boot_start,
                                    boot_ticks if boot_ticks > 0 else 1,
                                    TRACK_INVOCATION,
                                    args={"function": name,
                                          "container": instance.container_name})
                else:
                    cold_metrics = self._cold_start(instance)
            except (EngineError, RetryBudgetExceeded) as failure:
                if raise_errors:
                    raise
                cold_failure = failure
        instance.state = FunctionState.RUNNING
        if tracer is not None:
            exec_start = tracer.now

        record = InvocationRecord(
            function=name,
            runtime=instance.runtime,
            cold=cold,
            request_bytes=encoded_size(payload),
            sequence=instance.invocations + 1,
        )
        for key, amount in cold_metrics.items():
            record.meter(key, amount)
        context = InvocationContext(record, instance.services, instance.local)
        drain_service_meters(instance.services)
        if cold_failure is not None:
            record.error = "%s: %s" % (type(cold_failure).__name__, cold_failure)
            record.result = {"error": record.error}
        else:
            try:
                record.result = self._run_handler(instance, payload, context)
            except Exception as failure:  # noqa: BLE001 - FaaS error surface
                if raise_errors:
                    raise
                record.error = "%s: %s" % (type(failure).__name__, failure)
                record.result = {"error": record.error}
        harvest_service_meters(record, instance.services)
        if fired_before is not None:
            for site, count in faults.snapshot().items():
                delta = count - fired_before.get(site, 0)
                if delta:
                    record.meter("faults.%s" % site, delta)
        record.response_bytes = encoded_size(record.result)
        if tracer is not None:
            # The handler ran functionally; detailed cycle attribution
            # comes from the harness's timing run that follows.  Charge a
            # fixed tick so the lifecycle phases stay visibly ordered.
            tracer.advance(1)
            tracer.complete("exec", "invocation", exec_start,
                            tracer.now - exec_start, TRACK_INVOCATION,
                            args={"sequence": record.sequence,
                                  "cold": cold, "ok": record.ok})
            respond_start = tracer.now
            tracer.advance(1)
            tracer.complete("respond", "invocation", respond_start, 1,
                            TRACK_INVOCATION,
                            args={"bytes": record.response_bytes})

        instance.invocations += 1
        if cold:
            instance.cold_starts += 1
        instance.last_used = self.clock
        if record.ok:
            instance.state = FunctionState.WAITING
        else:
            # A crashed container is recycled, not kept warm.
            self.kill(name)
        self._reap()  # enforce the warm-pool cap immediately
        if tracer is not None:
            total = tracer.now - invoke_start
            tracer.complete("invoke:%s" % name, "invocation", invoke_start,
                            total if total > 0 else 1, TRACK_INVOCATION,
                            args={"cold": cold,
                                  "sequence": record.sequence})
        return record

    def _advance_backoff(self, ticks: int) -> None:
        """Let retry backoff elapse on the platform (and tracer) clock."""
        self.clock += ticks
        tracer = self.tracer
        if tracer is not None:
            start = tracer.now
            tracer.advance(ticks)
            tracer.complete("backoff", "fault", start, ticks, TRACK_FAULTS)

    def _run_handler(self, instance: FunctionInstance,
                     payload: Dict[str, Any],
                     context: InvocationContext) -> Any:
        faults = self.faults
        if faults is None:
            # Zero-overhead disabled path: the exact pre-fault call.
            return instance.handler(payload, context)

        def attempt() -> Any:
            faults.maybe_raise("faas.handler")
            return instance.handler(payload, context)

        if self.retry_policy is None:
            return attempt()
        result, attempts, backoff = self.retry_policy.call(
            attempt, "handler|%s" % instance.name,
            retry_on=(Exception,), advance=self._advance_backoff,
        )
        if attempts > 1:
            context.meter("retries.handler", attempts - 1)
            context.meter("retries.backoff_ticks", backoff)
        return result

    def _boot_container(self, instance: FunctionInstance,
                        container_name: str) -> None:
        """create + start, never leaving a half-made container behind."""
        try:
            self.engine.create(instance.image_name, name=container_name,
                               cpu_pin=self.server_core)
        except EngineError:
            # Image evicted or engine rebuilt: pull again and retry once.
            self.engine.pull(instance.image_name)
            self.engine.create(instance.image_name, name=container_name,
                               cpu_pin=self.server_core)
        try:
            self.engine.start(container_name)
        except EngineError:
            # Created but never started: remove the orphan so the engine's
            # container table stays bounded and the next attempt starts
            # from scratch.
            try:
                self.engine.remove(container_name)
            except EngineError:
                pass
            raise

    def _cold_start(self, instance: FunctionInstance) -> Dict[str, float]:
        """Boot a container; returns cold-start metering for the record.

        On failure (retry budget exhausted, or an unretried engine error)
        the instance is left cleanly dead — no container name, nothing in
        the engine's table — so the next invocation retries from scratch.
        """
        faults = self.faults
        metrics: Dict[str, float] = {}
        if faults is not None and faults.should_fire("faas.cold_start"):
            # Injected provisioning stall: scheduler delay, image-layer
            # fetch hiccup.  Elapses logical time, does not fail the boot.
            stall = faults.ticks_for("faas.cold_start")
            if stall:
                self.clock += stall
                tracer = self.tracer
                if tracer is not None:
                    start = tracer.now
                    tracer.advance(stall)
                    tracer.complete("cold-start-stall", "fault", start,
                                    stall, TRACK_FAULTS,
                                    args={"function": instance.name})
                metrics["faults.stall_ticks"] = stall
        container_name = "%s-run%d" % (instance.name, instance.cold_starts + 1)
        if faults is not None and self.retry_policy is not None:
            try:
                _, attempts, backoff = self.retry_policy.call(
                    lambda: self._boot_container(instance, container_name),
                    "cold-start|%s" % instance.name,
                    retry_on=(EngineError,), advance=self._advance_backoff,
                )
            except RetryBudgetExceeded:
                instance.container_name = None
                instance.state = FunctionState.DEAD
                raise
            if attempts > 1:
                metrics["retries.cold_start"] = attempts - 1
                metrics["retries.backoff_ticks"] = backoff
        else:
            self._boot_container(instance, container_name)
        instance.container_name = container_name
        return metrics

    def _reap(self) -> None:
        for victim in self.policy.victims(list(self._functions.values()), self.clock):
            self.kill(victim.name)

    def kill(self, name: str) -> None:
        """Force an instance to the dead state (provider reclaim).

        Stop and remove are guarded *separately*: a stop failure (already
        stopped, injected fault) must not skip the remove, or the engine's
        container table grows one dead entry per recycle.
        """
        instance = self.function(name)
        if instance.container_name is not None:
            try:
                self.engine.stop(instance.container_name)
            except EngineError:
                pass  # already stopped
            try:
                self.engine.remove(instance.container_name)
            except EngineError:
                pass  # already removed
            instance.container_name = None
        instance.state = FunctionState.DEAD

    def state_of(self, name: str) -> str:
        return self.function(name).state

    def __repr__(self) -> str:
        return "FaasPlatform(%d functions, clock=%.1f)" % (
            len(self._functions), self.clock,
        )
