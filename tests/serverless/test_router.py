"""Serving-layer tests: router, autoscaler, determinism, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def make_router(seed=0, scaling=None, tracer=None, faults=None,
                runtime="python"):
    from repro.serverless.container import base_image
    from repro.serverless.engine import install_docker
    from repro.serverless.router import Router

    engine = install_docker("riscv")
    engine.registry.push(base_image(runtime, "riscv"))

    def handler(payload, ctx):
        n = payload.get("n", 10)
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        ctx.meter("app.work")
        return {"fib": a}

    router = Router(engine, seed=seed, tracer=tracer, faults=faults)
    router.deploy("fn", "%s-default" % runtime, runtime, handler,
                  scaling=scaling)
    return router


class TestScalingConfig:
    def test_validation(self):
        from repro.serverless.scaler import ScalingConfig

        with pytest.raises(ValueError):
            ScalingConfig(target_concurrency=0)
        with pytest.raises(ValueError):
            ScalingConfig(min_instances=5, max_instances=2)
        with pytest.raises(ValueError):
            ScalingConfig(panic_window=700, stable_window=600)
        with pytest.raises(ValueError):
            ScalingConfig(panic_threshold=1.0)
        with pytest.raises(ValueError):
            ScalingConfig(queue_capacity=0)

    def test_immutable_replace_and_roundtrip(self):
        from repro.serverless.scaler import ScalingConfig

        config = ScalingConfig(target_concurrency=3)
        with pytest.raises(AttributeError):
            config.target_concurrency = 5
        changed = config.replace(max_instances=2, min_instances=1)
        assert changed.target_concurrency == 3
        assert changed.max_instances == 2
        assert config.max_instances == 8  # original untouched
        assert ScalingConfig.from_dict(config.as_dict()) == config
        assert hash(changed) == hash(ScalingConfig.from_dict(changed.as_dict()))

    def test_pinned_disables_autoscaling(self):
        from repro.serverless.scaler import ScalingConfig

        pinned = ScalingConfig.pinned(instances=2)
        assert pinned.min_instances == pinned.max_instances == 2

    def test_fingerprint_distinguishes_knobs(self):
        from repro.serverless.scaler import ScalingConfig

        assert (ScalingConfig().fingerprint()
                != ScalingConfig(queue_capacity=32).fingerprint())


class TestWindowedAverage:
    def test_step_signal_weighting(self):
        from repro.serverless.scaler import windowed_average

        # Value 4 holds for ticks [10, 20), value 0 after: over the
        # window [0, 20] that is 10 ticks of 0 and 10 ticks of 4.
        samples = [(10, 4), (20, 0)]
        assert windowed_average(samples, now=20, window=20) == pytest.approx(2.0)

    def test_empty_and_point_windows(self):
        from repro.serverless.scaler import windowed_average

        assert windowed_average([], now=100, window=10) == 0.0
        # A sample landing exactly at `now` has held for zero ticks: the
        # window saw only the implicit leading zeros.
        assert windowed_average([(5, 7)], now=5, window=10) == 0.0
        # Once the value has held across the whole window it dominates.
        assert windowed_average([(5, 7)], now=15, window=10) == 7.0


class TestServeDeterminism:
    def run_once(self, seed):
        from repro.serverless.loadgen import arrival_ticks
        from repro.serverless.scaler import ScalingConfig

        router = make_router(seed=seed, scaling=ScalingConfig(
            target_concurrency=2, max_instances=6))
        arrivals = arrival_ticks("burst", rps=150, requests=120, seed=seed)
        return router.serve("fn", arrivals,
                            payload_factory=lambda i: {"n": 8 + i % 4})

    def test_same_seed_byte_identical(self):
        first = self.run_once(seed=7)
        second = self.run_once(seed=7)
        assert first.event_log() == second.event_log()
        assert first.summary() == second.summary()
        assert ([r.as_dict() for r in first.records]
                == [r.as_dict() for r in second.records])
        assert first.samples == second.samples

    def test_different_seed_differs(self):
        assert (self.run_once(seed=1).event_log()
                != self.run_once(seed=2).event_log())

    def test_burst_triggers_scale_up_and_tail_metrics(self):
        from repro.serverless.metrics import MetricsCollector
        from repro.serverless.scaler import ScalingEvent

        result = self.run_once(seed=7)
        assert result.scale_ups() >= 1
        assert result.peak_instances > 1
        assert result.max_queue_depth > 0
        assert result.sojourn_percentile(0.99) >= result.sojourn_percentile(0.50)
        kinds = {event.kind for event in result.events}
        assert ScalingEvent.UP in kinds
        collector = MetricsCollector()
        collector.observe_all(result.records)
        rendering = collector.render_serving()
        assert "qdelay" in rendering and "p99" in rendering


class TestRouterMechanics:
    def test_cold_then_warm_and_scale_to_zero(self):
        from repro.serverless.scaler import ScalingConfig

        router = make_router(scaling=ScalingConfig(
            max_instances=2, scale_to_zero_after=200, evaluate_every=20))
        result = router.serve("fn", [0, 5, 10])
        admitted = result.admitted
        assert admitted[0].cold
        assert not admitted[-1].cold
        # After the drain + idle timeout the pool is empty and the engine
        # holds no containers — scale-to-zero reclaimed everything.
        assert not router.pool("fn").instances
        assert router.engine.ps(all_states=True) == []

    def test_admission_control_rejects_overflow(self):
        from repro.serverless.scaler import ScalingConfig

        router = make_router(scaling=ScalingConfig(
            target_concurrency=1, max_instances=1, min_instances=1,
            queue_capacity=2, cold_start_ticks=64))
        result = router.serve("fn", [0] * 10)
        assert result.rejected > 0
        assert result.rejected + len(result.admitted) == 10
        for record in result.records:
            if "serve.rejected" in record.metrics:
                assert not record.ok
                assert "queue full" in record.error
            else:
                assert record.metrics["timing.sojourn_ticks"] == (
                    record.metrics["timing.queue_ticks"]
                    + record.metrics["timing.service_ticks"])

    def test_arrivals_must_be_sorted(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.serve("fn", [10, 5])

    def test_second_trace_may_not_rewind_the_clock(self):
        from repro.serverless.loadgen import arrival_ticks
        from repro.serverless.scaler import ScalingConfig

        router = make_router(scaling=ScalingConfig(
            target_concurrency=2, max_instances=4))
        arrivals = arrival_ticks("burst", rps=150, requests=40, seed=3)
        first = router.serve("fn", arrivals)
        assert first.finished_at == router.now > arrivals[0]
        with pytest.raises(ValueError, match="tick %d, .* tick %d;" % (
                arrivals[0], first.finished_at)):
            router.serve("fn", arrivals)
        assert router.now == first.finished_at
        # The same trace shifted to start where the first one finished.
        shifted = [tick - arrivals[0] + first.finished_at
                   for tick in arrivals]
        second = router.serve("fn", shifted)
        assert len(second.records) == len(arrivals)
        assert second.finished_at > first.finished_at

    def test_deploy_duplicate_and_unknown_function(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.deploy("fn", "python-default", "python",
                          lambda payload, ctx: {})
        with pytest.raises(KeyError):
            router.serve("ghost", [0])

    def test_handler_crash_recycles_instance(self):
        from repro.serverless.container import base_image
        from repro.serverless.engine import install_docker
        from repro.serverless.router import Router
        from repro.serverless.scaler import ScalingConfig, ScalingEvent

        engine = install_docker("riscv")
        engine.registry.push(base_image("python", "riscv"))

        def handler(payload, ctx):
            if payload.get("explode"):
                raise RuntimeError("boom")
            return {}

        router = Router(engine)
        router.deploy("flaky", "python-default", "python", handler,
                      scaling=ScalingConfig(max_instances=1, min_instances=1))
        result = router.serve("flaky", [0, 200, 400],
                              payload_factory=lambda i: {"explode": i == 1})
        admitted = result.admitted
        assert admitted[1].error is not None
        assert any(event.kind == ScalingEvent.RECYCLE
                   for event in result.events)
        # The replacement instance serves the third request cold.
        assert admitted[2].ok and admitted[2].cold

    def test_scaling_events_on_tracer_lane(self):
        from repro.obs import TRACK_SCALING, Tracer
        from repro.serverless.loadgen import arrival_ticks
        from repro.serverless.scaler import ScalingConfig

        tracer = Tracer()
        router = make_router(tracer=tracer, scaling=ScalingConfig(
            target_concurrency=2, max_instances=4))
        arrivals = arrival_ticks("burst", rps=150, requests=60, seed=3)
        router.serve("fn", arrivals)
        tracks = {event[3] for event in tracer.events}
        assert tracks == {TRACK_SCALING}
        cats = {event[2] for event in tracer.events}
        assert "serving" in cats and "scaling" in cats
        # The router stamps spans with its own ticks and never advances
        # the shared tracer clock.
        assert tracer.now == 0

    def test_chaos_serve_is_deterministic(self):
        from repro.faults import FaultInjector, FaultPlan
        from repro.serverless.loadgen import arrival_ticks
        from repro.serverless.scaler import ScalingConfig

        def run():
            plan = FaultPlan.chaos(seed=11, rate=0.2)
            router = make_router(
                seed=5, faults=FaultInjector(plan),
                scaling=ScalingConfig(target_concurrency=2, max_instances=4))
            arrivals = arrival_ticks("poisson", rps=80, requests=60, seed=5)
            return router.serve("fn", arrivals)

        first, second = run(), run()
        assert first.event_log() == second.event_log()
        assert ([r.as_dict() for r in first.records]
                == [r.as_dict() for r in second.records])
        injected = sum(amount for record in first.records
                       for key, amount in record.metrics.items()
                       if key.startswith("faults."))
        assert injected > 0


def busy_intervals_by_instance(tracer):
    """Reconstruct per-instance service intervals from serve spans."""
    intervals = {}
    for ph, name, cat, _track, ts, dur, args in tracer.events:
        if ph != "X" or cat != "serving" or not name.startswith("serve:"):
            continue
        start = ts + args["queue_ticks"]
        intervals.setdefault(args["instance"], []).append((start, ts + dur))
    return intervals


class TestConcurrencyInvariant:
    @settings(max_examples=25)
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=1, max_size=40),
        target=st.integers(min_value=1, max_value=3),
        max_instances=st.integers(min_value=1, max_value=4),
        queue_capacity=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_busy_never_exceeds_target_concurrency(
            self, gaps, target, max_instances, queue_capacity, seed):
        """The router's hard bound: per-instance concurrency <= target.

        Verified externally: the serve spans on the scaling track carry
        (instance, queue delay, sojourn), which reconstructs every
        instance's busy intervals; no tick may be covered more than
        ``target_concurrency`` times.
        """
        from repro.obs import Tracer
        from repro.serverless.scaler import ScalingConfig

        tracer = Tracer()
        router = make_router(seed=seed, tracer=tracer, scaling=ScalingConfig(
            target_concurrency=target, max_instances=max_instances,
            queue_capacity=queue_capacity))
        arrivals = []
        tick = 0
        for gap in gaps:
            tick += gap
            arrivals.append(tick)
        result = router.serve("fn", arrivals)
        assert len(result.records) == len(arrivals)
        for instance, intervals in busy_intervals_by_instance(tracer).items():
            points = sorted(
                {edge for interval in intervals for edge in interval})
            for point in points:
                overlap = sum(1 for lo, hi in intervals if lo <= point < hi)
                assert overlap <= target, (
                    "instance %s served %d concurrent requests (target %d)"
                    % (instance, overlap, target))


class TestPipelineBitIdentity:
    def test_measurement_unchanged_by_serving(self):
        """The cycle-accurate pipeline must not notice the serving layer.

        A measurement taken before any serving, and the same spec
        measured again after a full autoscaled serve run in the same
        process, must be bit-identical — the serving layer shares the
        engine/faas machinery but may not leak state into measurements.
        """
        from repro.core.parallel import execute_task
        from repro.core.spec import MeasurementSpec
        from repro.serverless.loadgen import arrival_ticks

        spec = MeasurementSpec(function="fibonacci-python", isa="riscv",
                               time=2048, space=32)
        # Warm the process-local boot-checkpoint cache first: the very
        # first in-process measurement carries zero-valued atomic-CPU
        # stat keys in raw_dump that checkpoint-restored runs don't — a
        # pre-existing quirk this test is not about.
        execute_task(spec)
        before = execute_task(spec).as_dict(full=True)
        router = make_router(seed=3)
        router.serve("fn", arrival_ticks("burst", rps=100, requests=40,
                                         seed=3))
        after = execute_task(spec).as_dict(full=True)
        assert before == after

    def test_scaling_extends_spec_identity_and_digest(self):
        from repro.core.parallel import task_digest
        from repro.core.rescache import measurement_digest
        from repro.core.spec import MeasurementSpec
        from repro.serverless.scaler import ScalingConfig

        plain = MeasurementSpec(function="fibonacci-python")
        scaled = plain.replace(scaling=ScalingConfig())
        assert plain != scaled
        assert task_digest(plain) != task_digest(scaled)
        # Specs minted before the scaling field existed hash the same:
        # a None scaling must not perturb any pre-existing digest.
        legacy = measurement_digest(
            "fibonacci-python", "riscv", 2048, 32, 0, ("fp",))
        explicit = measurement_digest(
            "fibonacci-python", "riscv", 2048, 32, 0, ("fp",), scaling=None)
        assert legacy == explicit
