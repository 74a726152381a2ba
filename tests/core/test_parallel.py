"""Determinism of the parallel measurement engine.

The tentpole guarantee: worker count never changes a result.  The serial
path (jobs=1) and the process pool (jobs=2) must produce bit-identical
stats — every counter in the raw dump, not just headline cycles — for
both standalone and database-backed (hotel) samples.
"""

import pytest

from repro.core.harness import ExperimentHarness, clear_boot_checkpoint_cache
from repro.core.parallel import (
    execute_task,
    resolve_jobs,
    run_measurement_matrix,
)
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.workloads.catalog import HOTEL_FUNCTIONS, get_function

SCALE = SimScale(time=4096, space=32)


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


def sample_tasks():
    return [
        MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE),
        MeasurementSpec(function="fibonacci-python", isa="riscv",
                        scale=SCALE),
        MeasurementSpec(function=HOTEL_FUNCTIONS[0].name, isa="riscv",
                        scale=SCALE, db="redis"),
        MeasurementSpec(function=HOTEL_FUNCTIONS[5].name, isa="x86",
                        scale=SCALE, db="redis"),
    ]


def assert_identical(left, right):
    """Full-stat equality: every counter of cold and warm must match.

    The raw dumps are compared on their nonzero entries: a harness that
    reuses a cached boot checkpoint never instantiates the atomic setup
    core, so its zero-valued stat names are legitimately absent from the
    dump while every measured counter must still agree exactly.
    """
    assert left.function == right.function
    assert left.isa == right.isa
    for phase in ("cold", "warm"):
        left_stats = getattr(left, phase)
        right_stats = getattr(right, phase)
        assert left_stats.as_dict() == right_stats.as_dict(), phase
        left_dump = {k: v for k, v in left_stats.raw_dump.items() if v}
        right_dump = {k: v for k, v in right_stats.raw_dump.items() if v}
        assert left_dump == right_dump, phase
    assert len(left.records) == len(right.records)


class TestSerialParallelEquality:
    def test_parallel_matches_serial_bit_for_bit(self):
        tasks = sample_tasks()
        serial = run_measurement_matrix(tasks, jobs=1, cache=False)
        clear_boot_checkpoint_cache()
        parallel = run_measurement_matrix(tasks, jobs=2, cache=False)
        for left, right in zip(serial, parallel):
            assert_identical(left, right)

    def test_matrix_order_is_task_order(self):
        tasks = sample_tasks()
        results = run_measurement_matrix(tasks, jobs=2, cache=False)
        assert [m.function for m in results] == [t.function for t in tasks]
        assert [m.isa for m in results] == [t.isa for t in tasks]

    def test_execute_task_equals_direct_harness(self):
        # The scheduler's unit of work is exactly the serial protocol.
        task = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        scheduled = execute_task(task)
        clear_boot_checkpoint_cache()
        harness = ExperimentHarness(isa="riscv", scale=SCALE, seed=0)
        direct = harness.measure_function(get_function("aes-go"))
        assert_identical(scheduled, direct)


class TestCacheIdentity:
    def test_cache_hit_returns_identical_measurement(self, tmp_path):
        from repro.core.rescache import ResultCache

        tasks = sample_tasks()[:2]
        cache = ResultCache(tmp_path / "rescache")
        cold = run_measurement_matrix(tasks, jobs=1, cache=cache)
        assert cache.hits == 0 and cache.misses == len(tasks)

        clear_boot_checkpoint_cache()
        warm = run_measurement_matrix(tasks, jobs=1, cache=cache)
        assert cache.hits == len(tasks)
        for left, right in zip(cold, warm):
            assert_identical(left, right)

    def test_hotel_tasks_cache_too(self, tmp_path):
        from repro.core.rescache import ResultCache

        task = MeasurementSpec(function=HOTEL_FUNCTIONS[1].name, isa="riscv",
                               scale=SCALE, db="redis")
        cache = ResultCache(tmp_path / "rescache")
        (cold,) = run_measurement_matrix([task], jobs=1, cache=cache)
        (warm,) = run_measurement_matrix([task], jobs=1, cache=cache)
        assert cache.hits == 1
        assert_identical(cold, warm)


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestDigests:
    def test_digest_distinguishes_every_key_component(self):
        base = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        variants = [
            MeasurementSpec(function="auth-go", isa="riscv", scale=SCALE),
            MeasurementSpec(function="aes-go", isa="x86", scale=SCALE),
            MeasurementSpec(function="aes-go", isa="riscv",
                            scale=SimScale(time=SCALE.time * 2,
                                           space=SCALE.space)),
            MeasurementSpec(function="aes-go", isa="riscv",
                            scale=SimScale(time=SCALE.time,
                                           space=SCALE.space * 2)),
            MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE,
                            seed=1),
            MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE,
                            db="redis"),
            MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE,
                            requests=4),
        ]
        digests = {task.digest() for task in variants}
        digests.add(base.digest())
        assert len(digests) == len(variants) + 1

    def test_digest_sees_platform_config(self):
        from repro.core.config import platform_for
        from repro.core.dse import DesignSpace

        base = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        space = DesignSpace(isa="riscv", scale=SCALE)
        tweaked = MeasurementSpec(
            function="aes-go", isa="riscv", scale=SCALE,
            platform=space._platform_for({"l2_size": 64 * 1024}))
        stock = MeasurementSpec(
            function="aes-go", isa="riscv", scale=SCALE,
            platform=platform_for("riscv"))
        assert base.digest() == stock.digest()
        assert base.digest() != tweaked.digest()
