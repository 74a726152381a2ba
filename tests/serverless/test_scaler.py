"""The autoscaler's running integral against the ``windowed_average`` oracle.

``ConcurrencyAutoscaler`` answers each window from an exact integer
integral kept beside its samples.  These tests drive it and a plain
re-statement of the original history rule (append or overwrite, then
``pop(0)`` while the second sample is at or before the horizon) with
the same streams, and require bit-equal averages — ``==``, never
``approx`` — and the same sample list after every call.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st


def reference_observe(samples, tick, value, stable_window):
    """The sample history rule as it stood before the integral."""
    if samples and samples[-1][0] == tick:
        samples[-1] = (tick, value)
    else:
        samples.append((tick, value))
    horizon = tick - stable_window
    while len(samples) > 2 and samples[1][0] <= horizon:
        samples.pop(0)


def make_autoscaler(stable_window, panic_window, **knobs):
    from repro.serverless.scaler import ConcurrencyAutoscaler, ScalingConfig

    config = ScalingConfig(stable_window=stable_window,
                           panic_window=panic_window, **knobs)
    return ConcurrencyAutoscaler(config, "fn")


def oracle_autoscaler(stable_window, panic_window, **knobs):
    """The same decision logic with every window rescanned by the oracle."""
    from repro.serverless.scaler import (
        ConcurrencyAutoscaler, ScalingConfig, windowed_average)

    class Rescanning(ConcurrencyAutoscaler):
        def _average(self, now, window):
            return windowed_average(self.samples, now, window)

    config = ScalingConfig(stable_window=stable_window,
                           panic_window=panic_window, **knobs)
    return Rescanning(config, "fn")


# One step of a stream: advance the clock by `gap` ticks (0 gives a
# same-tick overwrite, or an evaluation at the last sample's tick), then
# observe `value` and evaluate, or with value None only evaluate, which
# after a gap puts `now` past the last sample.
STEP = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
)


@st.composite
def windows(draw):
    stable = draw(st.integers(min_value=1, max_value=120))
    panic = draw(st.integers(min_value=1, max_value=stable))
    return stable, panic


class TestIntegralMatchesOracle:
    @given(windows=windows(),
           steps=st.lists(STEP, max_size=80),
           ready=st.integers(min_value=0, max_value=4))
    def test_stream_equals_windowed_average(self, windows, steps, ready):
        from repro.serverless.scaler import windowed_average

        stable, panic = windows
        scaler = make_autoscaler(stable, panic, target_concurrency=2,
                                 max_instances=6)
        oracle = oracle_autoscaler(stable, panic, target_concurrency=2,
                                   max_instances=6)
        reference = []
        # The first evaluation comes before any sample, at now == 0.
        now = 0
        for gap, value in [(0, None)] + steps:
            now += gap
            if value is not None:
                scaler.observe(now, value)
                oracle.observe(now, value)
                reference_observe(reference, now, value, stable)
                assert scaler.samples == reference
            # Windows longer than the kept history, and far past it.
            for window in (stable, panic, stable + 1000, now + 1):
                assert (scaler._average(now, window)
                        == windowed_average(reference, now, window))
            assert scaler.desired(now, ready) == oracle.desired(now, ready)
            assert scaler.panic_until == oracle.panic_until
            assert scaler.samples == reference

    @given(windows=windows(),
           steps=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                                    st.integers(min_value=0, max_value=10**3)),
                          min_size=1, max_size=40))
    def test_large_ticks_and_values_stay_exact(self, windows, steps):
        from repro.serverless.scaler import windowed_average

        stable, panic = windows
        scaler = make_autoscaler(stable, panic)
        reference = []
        tick = 0
        for gap, value in steps:
            tick += gap
            scaler.observe(tick, value)
            reference_observe(reference, tick, value, stable)
            for now in (tick, tick + panic, tick + stable, tick + 10**6):
                for window in (stable, panic, 10**7):
                    assert (scaler._average(now, window)
                            == windowed_average(reference, now, window))
        assert scaler.samples == reference


class TestEdgeCases:
    def test_no_samples_is_zero(self):
        scaler = make_autoscaler(600, 60)
        assert scaler._average(0, 600) == 0.0
        assert scaler._average(500, 60) == 0.0
        assert scaler.desired(500, 0) == (0, None)

    def test_now_at_or_before_zero_is_the_last_value(self):
        scaler = make_autoscaler(600, 60)
        scaler.observe(0, 3)
        scaler.observe(0, 5)
        assert scaler._average(0, 600) == 5.0

    def test_ticks_before_the_first_sample_count_as_zero(self):
        scaler = make_autoscaler(20, 20)
        scaler.observe(10, 4)
        scaler.observe(20, 0)
        assert scaler._average(20, 20) == 2.0

    def test_same_tick_overwrite_changes_no_area(self):
        scaler = make_autoscaler(600, 60)
        scaler.observe(10, 4)
        scaler.observe(30, 9)
        before = scaler._integral(30)
        scaler.observe(30, 1)
        assert scaler.samples == [(10, 4), (30, 1)]
        assert scaler._integral(30) == before
        # From tick 30 on the overwritten value is what accrues.
        assert scaler._integral(40) == before + 10

    def test_trim_keeps_two_samples(self):
        scaler = make_autoscaler(5, 5)
        scaler.observe(0, 1)
        scaler.observe(100, 2)
        scaler.observe(200, 3)
        assert scaler.samples == [(100, 2), (200, 3)]
        scaler.observe(1000, 4)
        assert scaler.samples == [(200, 3), (1000, 4)]

    def test_trim_drops_several_samples_at_once(self):
        scaler = make_autoscaler(10, 5)
        for tick in range(0, 10):
            scaler.observe(tick, tick)
        scaler.observe(30, 7)
        assert scaler.samples == [(9, 9), (30, 7)]

    def test_rewinding_tick_raises(self):
        scaler = make_autoscaler(600, 60)
        scaler.observe(50, 2)
        with pytest.raises(ValueError, match="tick 40 after tick 50"):
            scaler.observe(40, 1)
        assert scaler.samples == [(50, 2)]
