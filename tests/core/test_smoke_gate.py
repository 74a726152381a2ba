"""Phase-gate semantics for the bench-smoke trajectory: the gate must
fail closed on broken baselines and surface (not hide) brand-new phases."""

import pytest

from repro.core.smoke import (
    GATED_PHASES,
    phase_gate_skips,
    phase_regressions,
    wall_regression,
)


def entry(**phases):
    """A minimal trajectory entry with the given phase wall-clocks."""
    data = {"wall_s": 10.0}
    for name, wall in phases.items():
        data[name] = {"wall_s": wall}
    return data


class TestPhaseRegressions:
    def test_normal_ratio(self):
        previous = entry(sampled=2.0, ml_infer=1.0)
        current = entry(sampled=3.0, ml_infer=1.0)
        changes = phase_regressions(previous, current)
        assert changes["sampled"] == pytest.approx(0.5)
        assert changes["ml_infer"] == pytest.approx(0.0)

    def test_new_phase_is_skipped_not_gated(self):
        """First append after a phase lands: no baseline, no gate — the
        canonical case is ml_infer's first appearance."""
        previous = entry(sampled=2.0)
        current = entry(sampled=2.0, ml_infer=1.0)
        changes = phase_regressions(previous, current)
        assert "ml_infer" not in changes
        assert phase_gate_skips(previous, current) == ["ml_infer"]

    def test_no_previous_entry_gates_nothing(self):
        current = entry(sampled=2.0, ml_infer=1.0)
        assert phase_regressions(None, current) == {}
        assert set(phase_gate_skips(None, current)) == {"sampled", "ml_infer"}

    def test_zero_baseline_wall_fails_closed(self):
        previous = entry(sampled=0.0)
        current = entry(sampled=2.0)
        with pytest.raises(ValueError, match="baseline wall_s"):
            phase_regressions(previous, current)

    def test_missing_baseline_wall_fails_closed(self):
        previous = {"wall_s": 10.0, "sampled": {"note": "no wall recorded"}}
        current = entry(sampled=2.0)
        with pytest.raises(ValueError, match="baseline wall_s"):
            phase_regressions(previous, current)

    def test_vanished_phase_fails_closed(self):
        previous = entry(ml_infer=1.0)
        current = entry()
        with pytest.raises(ValueError, match="vanished"):
            phase_regressions(previous, current)

    def test_zero_current_wall_fails_closed(self):
        previous = entry(sampled=1.0)
        current = entry(sampled=0.0)
        with pytest.raises(ValueError, match="failing closed"):
            phase_regressions(previous, current)

    def test_retired_jit_phase_is_not_gated(self):
        """Trajectory entries recorded before the block JIT was deleted
        carry a ``jit`` phase that no run records any more; the gate
        compares the remaining phases instead of failing closed."""
        previous = entry(sampled=2.0, cluster_serve=1.0, jit=0.6,
                         ml_infer=0.5)
        current = entry(sampled=2.0, cluster_serve=1.0, ml_infer=0.5)
        changes = phase_regressions(previous, current)
        assert set(changes) == {"sampled", "cluster_serve", "ml_infer"}

    def test_ml_infer_is_gated(self):
        assert "ml_infer" in GATED_PHASES


class TestWallRegression:
    def test_missing_walls_are_uncomparable(self):
        assert wall_regression(None, {"wall_s": 1.0}) is None
        assert wall_regression({"wall_s": 0.0}, {"wall_s": 1.0}) is None

    def test_ratio(self):
        assert wall_regression({"wall_s": 2.0},
                               {"wall_s": 3.0}) == pytest.approx(0.5)
