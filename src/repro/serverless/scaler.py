"""Concurrency autoscaling: the Knative-KPA analog for instance pools.

The single-instance measurement path (``FaasPlatform.invoke``) shows the
paper's cold/warm dichotomy one request at a time.  What it cannot show
is the *service-level* behaviour the related work (Serv-Drishti,
Vitamin-V) argues actually dominates production serverless: requests
contending for instances, queues building during bursts, and the
cold-start storms a concurrency-driven autoscaler triggers when it
reacts to that contention.  This module supplies the scaling half of
that story; :mod:`repro.serverless.router` supplies the queueing half.

The model follows Knative's KPA (pod autoscaler) shape:

* **target concurrency** — each instance serves at most
  ``target_concurrency`` requests at once (Knative's
  ``containerConcurrency``); desired instances =
  ``ceil(observed_concurrency / target_concurrency)``;
* **stable vs panic window** — observed concurrency is a time-weighted
  average over a long *stable* window, but when the short *panic*
  window's average crosses ``panic_threshold`` × current capacity the
  autoscaler enters panic mode: it scales on the short window and never
  scales down until the panic expires;
* **scale to zero** — idle instances are reaped through the existing
  :class:`~repro.serverless.faas.KeepAlivePolicy`, so a pool that sees
  no traffic for ``scale_to_zero_after`` ticks shrinks back to
  ``min_instances`` (and the next burst pays cold starts again — the
  amplification loop the paper's cold/warm numbers predict).

Each window is answered from a running integral, as Knative's KPA
aggregates into buckets rather than rescanning its history.  Beside
every kept sample the autoscaler stores the exact integer area under the
step signal up to that sample's tick; the area up to any tick is then
one ``bisect_right`` lookup plus one product, and a window's average is
``(I(now) - I(start)) / float(now - start)``.  The result is bit for bit
what :func:`windowed_average` (kept as the test oracle) computes by
walking the samples: that walk adds integer terms into a float, which is
exact below 2**53, and dividing the same exact integer by the same float
gives the same double.  The integral only accumulates forwards, so ticks
must never go backwards: ``observe`` rejects an earlier tick, and
``Router.serve`` rejects a trace that starts before the router's clock.

Everything is deterministic: decisions depend only on the logical tick
clock and the observed sample history, never on wall clock, so two serve
runs with the same seed produce byte-identical scaling-event logs
(asserted by ``tests/serverless/test_router.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.frozen import converted_fields

@dataclass(frozen=True, kw_only=True, slots=True)
class ScalingConfig:
    """Autoscaler + router knobs, keyword-only and immutable.

    A frozen dataclass, so it can ride on a
    :class:`~repro.core.spec.MeasurementSpec` and take part in result
    cache identity through its field tuple — two serve experiments with
    different scaling knobs must never share a content address.

    ``target_concurrency``
        Requests one instance serves concurrently (Knative's
        ``containerConcurrency``).  The router enforces this as a hard
        bound; a property test asserts it is never exceeded.
    ``max_instances`` / ``min_instances``
        Pool size clamp.  ``min_instances=0`` enables scale-to-zero.
    ``queue_capacity``
        Bounded per-function queue; arrivals beyond it are rejected
        (admission control — the 429/overflow path, metered as
        ``serve.rejected`` on the record).
    ``stable_window`` / ``panic_window`` / ``panic_threshold``
        KPA windowing (ticks).  Panic triggers when the panic-window
        average demands ``panic_threshold`` × current ready capacity.
    ``scale_to_zero_after``
        Idle ticks before the keep-alive policy reaps instances.
    ``evaluate_every``
        Autoscaler evaluation period in ticks.
    ``cold_start_ticks``
        Runtime-initialisation ticks a new instance pays on top of the
        container engine's create+start costs before it can serve.
    """

    target_concurrency: int = 1
    max_instances: int = 8
    min_instances: int = 0
    queue_capacity: int = 64
    stable_window: int = 600
    panic_window: int = 60
    panic_threshold: float = 2.0
    scale_to_zero_after: int = 1200
    evaluate_every: int = 20
    cold_start_ticks: int = 64

    def __post_init__(self) -> None:
        if self.target_concurrency < 1:
            raise ValueError("target_concurrency must be >= 1")
        if self.max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        if not 0 <= self.min_instances <= self.max_instances:
            raise ValueError("need 0 <= min_instances <= max_instances")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if (self.stable_window < 1 or self.panic_window < 1
                or self.evaluate_every < 1):
            raise ValueError("windows and evaluate_every must be >= 1 tick")
        if self.panic_window > self.stable_window:
            raise ValueError("panic_window must not exceed stable_window")
        if self.panic_threshold <= 1.0:
            raise ValueError("panic_threshold must be > 1.0")
        if self.scale_to_zero_after < 1:
            raise ValueError("scale_to_zero_after must be >= 1 tick")
        if self.cold_start_ticks < 0:
            raise ValueError("cold_start_ticks must be >= 0")
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    @classmethod
    def pinned(cls, instances: int = 1, **overrides) -> "ScalingConfig":
        """Autoscaling effectively off: a fixed pool of ``instances``.

        ``min_instances == max_instances`` means the evaluator can never
        add or remove capacity, so the router degenerates to a static
        pool — with ``instances=1`` that is the single-instance world of
        the measurement pipeline, just with an explicit queue.
        """
        overrides.setdefault("target_concurrency", 1)
        return cls(min_instances=instances, max_instances=instances,
                   **overrides)

    def __repr__(self) -> str:
        return "ScalingConfig(target=%d, instances=%d..%d, queue=%d)" % (
            self.target_concurrency, self.min_instances, self.max_instances,
            self.queue_capacity,
        )


class ScalingEvent:
    """One autoscaler decision, stamped with the logical tick it fired.

    The serve report prints these via :meth:`format`; the determinism
    smoke test diffs the whole formatted log between two runs.
    """

    __slots__ = ("tick", "function", "kind", "from_instances",
                 "to_instances", "reason")

    #: Event kinds, in the vocabulary the report prints.
    UP = "scale-up"
    DOWN = "scale-down"
    TO_ZERO = "to-zero"
    PANIC_ENTER = "panic-enter"
    PANIC_EXIT = "panic-exit"
    BOOT_FAILED = "boot-failed"
    RECYCLE = "recycle"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"

    def __init__(self, tick: int, function: str, kind: str,
                 from_instances: int, to_instances: int, reason: str):
        self.tick = tick
        self.function = function
        self.kind = kind
        self.from_instances = from_instances
        self.to_instances = to_instances
        self.reason = reason

    def format(self) -> str:
        """Canonical single-line rendering (byte-stable across runs)."""
        return "[tick %8d] %-12s %-28s %d -> %d  (%s)" % (
            self.tick, self.kind, self.function,
            self.from_instances, self.to_instances, self.reason,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view for the ``serve --out`` artifact."""
        return {"tick": self.tick, "function": self.function,
                "kind": self.kind, "from": self.from_instances,
                "to": self.to_instances, "reason": self.reason}

    def __repr__(self) -> str:
        return "ScalingEvent(%s @ %d: %d -> %d)" % (
            self.kind, self.tick, self.from_instances, self.to_instances,
        )


def windowed_average(samples: List[Tuple[int, int]], now: int,
                     window: int) -> float:
    """Time-weighted average of a step signal over ``[now - window, now]``.

    ``samples`` is an ordered list of ``(tick, value)`` pairs: the signal
    holds ``value`` from ``tick`` until the next sample.  Ticks before
    the first sample count as zero — a pool that has only just seen
    traffic is mostly-idle over a long window, which is exactly the
    damping the stable window exists to provide.
    """
    if not samples:
        return 0.0
    start = now - window
    if start < 0:
        start = 0
    if now <= start:
        return float(samples[-1][1])
    total = 0.0
    # Walk the step function across the window.  Segment i spans
    # [tick_i, tick_{i+1}); the last segment extends to `now`.
    for index, (tick, value) in enumerate(samples):
        seg_start = tick
        seg_end = samples[index + 1][0] if index + 1 < len(samples) else now
        lo = seg_start if seg_start > start else start
        hi = seg_end if seg_end < now else now
        if hi > lo:
            total += value * (hi - lo)
    return total / float(now - start)


class ConcurrencyAutoscaler:
    """KPA-style desired-instance calculator over observed concurrency.

    The router feeds it ``observe(tick, in_flight)`` on every state
    change (``in_flight`` = requests executing + requests queued) and
    asks :meth:`desired` at each evaluation tick.  Pure arithmetic over
    the sample history — no randomness, no wall clock — so the decision
    stream is a deterministic function of the arrival trace.
    """

    def __init__(self, config: ScalingConfig, function: str):
        self.config = config
        self.function = function
        #: Step-signal samples of in-flight demand: ``(tick, value)``.
        self.samples: List[Tuple[int, int]] = []
        #: Beside ``samples[i]``: its tick, and the exact integer area
        #: under the signal from the first sample ever observed up to
        #: that tick.  Only differences of areas are ever used.
        self._ticks: List[int] = []
        self._area: List[int] = []
        #: Tick until which panic mode holds (0 = not panicking).
        self.panic_until = 0

    def observe(self, tick: int, in_flight: int) -> None:
        """Record the demand signal at ``tick`` (monotone non-decreasing)."""
        samples = self.samples
        ticks = self._ticks
        area = self._area
        if ticks:
            last = ticks[-1]
            if tick == last:
                # The area up to `tick` does not depend on the value
                # held from it, and the trim below already ran for it.
                samples[-1] = (tick, in_flight)
                return
            if tick < last:
                raise ValueError(
                    "%s: observed tick %d after tick %d; ticks must "
                    "never go backwards" % (self.function, tick, last))
            area.append(area[-1] + samples[-1][1] * (tick - last))
        else:
            area.append(0)
        samples.append((tick, in_flight))
        ticks.append(tick)
        # Keep just enough history to cover the stable window: drop
        # every sample whose successor is at or before the horizon, but
        # never below two samples.
        horizon = tick - self.config.stable_window
        if len(ticks) > 2 and ticks[1] <= horizon:
            drop = min(bisect_right(ticks, horizon) - 1, len(ticks) - 2)
            del samples[:drop]
            del ticks[:drop]
            del area[:drop]

    def _integral(self, tick: int) -> int:
        """Area under the kept signal up to ``tick``, offset by ``_area[0]``.

        No area accrues before the first kept sample, so ticks before it
        count as zero, as in :func:`windowed_average`.
        """
        index = bisect_right(self._ticks, tick) - 1
        if index < 0:
            return self._area[0]
        return (self._area[index]
                + self.samples[index][1] * (tick - self._ticks[index]))

    def _average(self, now: int, window: int,
                 area: Optional[int] = None) -> float:
        """``windowed_average(self.samples, now, window)``, bit for bit.

        ``area`` is ``self._integral(now)`` when the caller has it already.
        """
        if not self.samples:
            return 0.0
        start = now - window
        if start < 0:
            start = 0
        if now <= start:
            return float(self.samples[-1][1])
        if area is None:
            area = self._integral(now)
        return (area - self._integral(start)) / float(now - start)

    @property
    def panicking(self) -> bool:
        return self.panic_until > 0

    def desired(self, now: int, ready: int) -> Tuple[int, Optional[str]]:
        """Desired instance count at ``now`` given ``ready`` capacity.

        Returns ``(count, transition)`` where ``transition`` is
        ``"panic-enter"`` / ``"panic-exit"`` when this evaluation crossed
        a panic boundary (the router turns those into scaling events).
        """
        config = self.config
        # Both windows end at `now`: take the area up to it once.
        area = self._integral(now) if self.samples else None
        stable_avg = self._average(now, config.stable_window, area)
        panic_avg = self._average(now, config.panic_window, area)
        want_stable = int(math.ceil(stable_avg / config.target_concurrency))
        want_panic = int(math.ceil(panic_avg / config.target_concurrency))

        transition: Optional[str] = None
        capacity = ready * config.target_concurrency
        if ready > 0 and panic_avg >= config.panic_threshold * capacity:
            if not self.panicking:
                transition = "panic-enter"
            self.panic_until = now + config.stable_window
        elif self.panicking and now >= self.panic_until:
            self.panic_until = 0
            transition = "panic-exit"

        if self.panicking:
            # Panic mode: scale on the short window, never down.
            want = max(want_panic, ready)
        else:
            want = want_stable
        if want < config.min_instances:
            want = config.min_instances
        if want > config.max_instances:
            want = config.max_instances
        return want, transition

    def __repr__(self) -> str:
        return "ConcurrencyAutoscaler(%s, %d samples%s)" % (
            self.function, len(self.samples),
            ", PANIC" if self.panicking else "",
        )
