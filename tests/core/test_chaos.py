"""Chaos measurements through the core: spec identity, determinism,
cache bypass, and the zero-overhead disabled path."""

import pickle
from dataclasses import replace

import pytest

from repro.core.harness import clear_boot_checkpoint_cache
from repro.core.parallel import execute_task, run_measurement_matrix
from repro.core.rescache import ResultCache
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.faults import FaultPlan, FaultSpec

SCALE = SimScale(time=4096, space=32)


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


def chaos_spec(**overrides):
    fields = dict(function="fibonacci-go", isa="riscv", scale=SCALE,
                  faults=FaultPlan.chaos(seed=7))
    fields.update(overrides)
    return MeasurementSpec(**fields)


class TestSpecWithFaults:
    def test_identity_includes_the_fault_plan(self):
        assert chaos_spec() == chaos_spec()
        assert chaos_spec() != chaos_spec(faults=FaultPlan.chaos(seed=8))
        assert chaos_spec() != chaos_spec(faults=None)
        assert hash(chaos_spec()) == hash(chaos_spec())

    def test_replace_swaps_the_plan(self):
        spec = chaos_spec()
        plain = replace(spec, faults=None)
        assert plain.faults is None
        assert plain.function == spec.function

    def test_pickles_with_the_plan(self):
        spec = chaos_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.faults == spec.faults

    def test_repr_mentions_faults(self):
        assert "faults=" in repr(chaos_spec())
        assert "faults=" not in repr(chaos_spec(faults=None))


class TestChaosDeterminism:
    def test_two_chaos_runs_bit_identical(self):
        """The acceptance property: same plan, same seed, bit-identical
        measurement — records, metrics and raw stat dumps included."""
        first = execute_task(chaos_spec())
        clear_boot_checkpoint_cache()
        second = execute_task(chaos_spec())
        assert first.as_dict(full=True) == second.as_dict(full=True)

    def test_chaos_actually_injects(self):
        plan = FaultPlan.chaos(seed=7, rate=0.3)
        measurement = execute_task(chaos_spec(faults=plan))
        injected = sum(
            amount for record in measurement.records
            for key, amount in record.metrics.items()
            if key.startswith("faults."))
        assert injected > 0

    def test_different_fault_seeds_diverge(self):
        rate = 0.3
        low = execute_task(chaos_spec(faults=FaultPlan.chaos(seed=1, rate=rate)))
        clear_boot_checkpoint_cache()
        high = execute_task(chaos_spec(faults=FaultPlan.chaos(seed=2, rate=rate)))

        def fault_profile(measurement):
            return [sorted(record.metrics.items())
                    for record in measurement.records]

        assert fault_profile(low) != fault_profile(high)


class TestZeroOverheadDisabledPath:
    def test_no_plan_bit_identical_to_plain_measurement(self):
        """With faults=None the measurement must equal the pre-fault
        pipeline's output exactly — the fault layer adds nothing."""
        plain_spec = chaos_spec(faults=None)
        first = execute_task(plain_spec)
        clear_boot_checkpoint_cache()
        second = execute_task(plain_spec)
        assert first.as_dict(full=True) == second.as_dict(full=True)
        for record in first.records:
            assert not any(key.startswith(("faults.", "retries.",
                                           "resilience."))
                           for key in record.metrics)

    def test_empty_plan_equals_no_plan(self):
        """A plan with no armed sites must not perturb the measurement:
        the hook plumbing itself is behaviourally invisible."""
        plain = execute_task(chaos_spec(faults=None))
        clear_boot_checkpoint_cache()
        empty = execute_task(chaos_spec(faults=FaultPlan(seed=7, specs=())))
        plain_dict = plain.as_dict(full=True)
        empty_dict = empty.as_dict(full=True)
        assert plain_dict == empty_dict


class TestCacheBypass:
    def test_faulted_specs_bypass_the_result_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = chaos_spec()
        run_measurement_matrix([spec], jobs=1, cache=cache)
        assert cache.stats()["entries"] == 0  # not written...
        plain = replace(spec, faults=None)
        run_measurement_matrix([plain], jobs=1, cache=cache)
        assert cache.stats()["entries"] == 1  # ...while plain specs are

    def test_chaos_result_not_served_from_plain_entry(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        plain = chaos_spec(faults=None)
        run_measurement_matrix([plain], jobs=1, cache=cache)
        clear_boot_checkpoint_cache()
        chaotic = chaos_spec(faults=FaultPlan.chaos(seed=7, rate=0.3))
        [measurement] = run_measurement_matrix([chaotic], jobs=1, cache=cache)
        injected = sum(
            amount for record in measurement.records
            for key, amount in record.metrics.items()
            if key.startswith("faults."))
        assert injected > 0  # freshly simulated, not the cached plain run
