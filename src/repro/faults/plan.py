"""Fault plans: what fails, where, how often — deterministically.

A :class:`FaultPlan` is configuration, not state: a frozen dataclass,
hashable and picklable, so it can ride on a
:class:`~repro.core.spec.MeasurementSpec` across process boundaries (a
faulted spec never reaches the result cache).  Arming a plan
(:meth:`FaultPlan.arm`) produces the mutable :class:`FaultInjector`
that hook sites actually consult.

Determinism contract
--------------------
The ``k``-th draw at hook site ``s`` fires iff

    ``sha256(seed, s, k) / 2**64 < rate(s)``

independent of every other site's draws and of wall clock.  Two armed
injectors from equal plans make identical decisions at every site
regardless of process, thread or interleaving with other sites.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.frozen import converted_fields

#: The named hook sites components consult, one per failure mode the
#: serverless substrate must survive (see DESIGN.md for the inventory).
FAULT_SITES = (
    "engine.create",     # container create fails (EngineError)
    "engine.start",      # container start fails (EngineError)
    "engine.stop",       # container stop fails (EngineError)
    "engine.remove",     # container remove fails (EngineError)
    "faas.cold_start",   # cold start stalls for `ticks` logical ticks
    "faas.handler",      # handler crashes mid-request
    "rpc.drop",          # RPC request dropped (UNAVAILABLE)
    "rpc.latency",       # RPC latency spike of `ticks`
    "db.timeout",        # datastore / cache operation times out
    "emu.disk",          # transient disk error inside the emulated VM
    "cluster.node_down",  # a whole cluster node fails (NodeDownError)
)

_TWO_64 = float(1 << 64)


class InjectedFault(RuntimeError):
    """An injected failure, carrying the hook site that produced it."""

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or "injected fault at %s" % site)
        self.site = site


class NodeDownError(RuntimeError):
    """A cluster node is unavailable.

    The one error type for node loss everywhere in the stack: the
    serverless cluster platform raises it for requests in flight on a
    failed node, and :class:`~repro.db.cluster.CassandraCluster` raises
    it when live replicas cannot satisfy the consistency level — both
    driven by the same ``cluster.node_down`` fault site.
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One site's failure behaviour: probability, budget, magnitude."""

    site: str
    rate: float
    max_fires: Optional[int] = None
    ticks: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError("unknown fault site %r; have %s"
                             % (self.site, FAULT_SITES))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1], got %r" % self.rate)
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be >= 0")
        if self.ticks < 0:
            raise ValueError("ticks must be >= 0")
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        parts = ["%s@%g" % (self.site, self.rate)]
        if self.max_fires is not None:
            parts.append("max=%d" % self.max_fires)
        if self.ticks:
            parts.append("ticks=%d" % self.ticks)
        return "FaultSpec(%s)" % ", ".join(parts)


@dataclass(frozen=True, kw_only=True, slots=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` under one seed.

    ``retry_attempts`` / ``retry_backoff`` / ``retry_deadline`` configure
    the :class:`~repro.faults.policy.RetryPolicy` recovering components
    build when this plan is armed, so one object fully describes a chaos
    experiment — the CLI's ``--fault-seed`` maps straight onto it.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    retry_attempts: int = 3
    retry_backoff: int = 4
    retry_deadline: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        sites = [spec.site for spec in self.specs]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate fault site in plan: %s" % sites)
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    @classmethod
    def chaos(cls, seed: int = 0, rate: float = 0.1,
              stall_ticks: int = 32) -> "FaultPlan":
        """The stock chaos mix the CLI verb uses: every failure mode armed
        at ``rate``, stalls and latency spikes of ``stall_ticks``."""
        return cls(seed=seed, specs=[
            FaultSpec("engine.create", rate),
            FaultSpec("engine.start", rate),
            FaultSpec("faas.cold_start", rate, ticks=stall_ticks),
            FaultSpec("faas.handler", rate),
            FaultSpec("rpc.drop", rate),
            FaultSpec("rpc.latency", rate, ticks=stall_ticks),
            FaultSpec("db.timeout", rate),
            FaultSpec("emu.disk", rate),
        ])

    def spec_for(self, site: str) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def arm(self) -> "FaultInjector":
        """Build the runtime injector for one experiment run."""
        return FaultInjector(self)

    def __repr__(self) -> str:
        return "FaultPlan(seed=%d, %d sites)" % (self.seed, len(self.specs))


def _draw(seed: int, site: str, index: int) -> float:
    """Uniform [0, 1) from a pure hash of (seed, site, index)."""
    digest = hashlib.sha256(
        b"repro-fault|%d|%s|%d" % (seed, site.encode("ascii"), index)
    ).digest()
    return struct.unpack(">Q", digest[:8])[0] / _TWO_64


class FaultInjector:
    """The armed runtime consulted by hook sites.

    Mutable (per-site draw counters, fire counters) and therefore never
    shared across runs: arm a fresh injector per measurement.  The
    ``fired`` counters are the metering source — the platform snapshots
    them around each invocation and emits deltas onto
    ``InvocationRecord.metrics``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._draws: Dict[str, int] = {}
        #: site -> times the site actually fired.
        self.fired: Dict[str, int] = {}
        #: Optional :class:`repro.obs.Tracer`; fires then appear as
        #: instants on TRACK_FAULTS.
        self.tracer = None

    def should_fire(self, site: str) -> bool:
        """One deterministic draw at ``site``; True means inject."""
        spec = self.plan.spec_for(site)
        if spec is None or spec.rate == 0.0:
            return False
        if spec.max_fires is not None and self.fired.get(site, 0) >= spec.max_fires:
            return False
        index = self._draws.get(site, 0)
        self._draws[site] = index + 1
        if _draw(self.plan.seed, site, index) >= spec.rate:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        tracer = self.tracer
        if tracer is not None:
            from repro.obs.tracer import TRACK_FAULTS

            tracer.instant("fault:%s" % site, "fault", tracer.now,
                           TRACK_FAULTS, args={"fire": self.fired[site]})
        return True

    def ticks_for(self, site: str) -> int:
        """Magnitude (stall/latency ticks) configured for ``site``."""
        spec = self.plan.spec_for(site)
        return spec.ticks if spec is not None else 0

    def maybe_raise(self, site: str, exception=InjectedFault) -> None:
        """Draw at ``site`` and raise ``exception`` on fire.

        ``exception`` may be an exception *class* taking one message
        argument (e.g. ``EngineError``) — used where callers already
        handle a domain error type — or the default
        :class:`InjectedFault`.
        """
        if self.should_fire(site):
            if exception is InjectedFault:
                raise InjectedFault(site)
            raise exception("injected fault at %s" % site)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the fire counters (for before/after metering deltas)."""
        return dict(self.fired)

    def total_fired(self) -> int:
        return sum(self.fired.values())

    def __repr__(self) -> str:
        return "FaultInjector(seed=%d, %d fired)" % (
            self.plan.seed, self.total_fired(),
        )
