"""MeasurementSpec and measure() dispatcher tests."""

import pickle
from dataclasses import replace

import pytest

from repro.core import reproduce
from repro.core.harness import clear_boot_checkpoint_cache
from repro.core.parallel import run_measurement_matrix
from repro.core.rescache import ResultCache
from repro.core.scale import BENCH, SimScale
from repro.core.spec import MeasurementSpec

SCALE = SimScale(time=4096, space=32)


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


class TestSpecSemantics:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            MeasurementSpec("fibonacci-python")

    def test_defaults(self):
        spec = MeasurementSpec(function="aes-go")
        assert spec.isa == "riscv"
        assert spec.scale == BENCH
        assert spec.seed == 0
        assert spec.requests == 10
        assert spec.db is None
        assert spec.trace is False

    def test_scale_and_explicit_axes_conflict(self):
        with pytest.raises(TypeError):
            MeasurementSpec(function="aes-go", scale=SCALE, time=512)

    def test_function_objects_reduce_to_names(self):
        from repro.workloads.catalog import get_function

        spec = MeasurementSpec(function=get_function("aes-go"))
        assert spec.function == "aes-go"

    def test_immutable(self):
        spec = MeasurementSpec(function="aes-go")
        with pytest.raises(AttributeError):
            spec.isa = "x86"

    def test_replace(self):
        spec = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        other = replace(spec, isa="x86")
        assert other.isa == "x86"
        assert other.function == "aes-go"
        assert other.scale == SCALE
        assert spec.isa == "riscv"

    def test_equality_and_hash(self):
        one = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        two = MeasurementSpec(function="aes-go", isa="riscv", scale=SCALE)
        assert one == two
        assert hash(one) == hash(two)
        assert one != replace(two, seed=1)

    def test_pickle_round_trip(self):
        spec = MeasurementSpec(function="aes-go", scale=SCALE, trace=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.trace is True


class TestMeasureDispatcher:
    def test_single_function(self):
        batch = reproduce.measure(
            MeasurementSpec(function="fibonacci-python", isa="riscv",
                            scale=SCALE), jobs=1, cache=False)
        assert sorted(batch) == ["fibonacci-python"]
        assert batch["fibonacci-python"].cold.cycles > 0

    def test_suite_alias_expansion(self):
        specs = reproduce._expand_spec(
            MeasurementSpec(function="hotel", isa="riscv", scale=SCALE))
        assert len(specs) == 6
        assert all(point.db == "cassandra" for point in specs)
        specs = reproduce._expand_spec(
            MeasurementSpec(function="standalone+shop", isa="riscv",
                            scale=SCALE))
        assert len(specs) == 15
        assert all(point.db is None for point in specs)

    def test_db_only_reaches_hotel_functions(self):
        specs = reproduce._expand_spec(
            MeasurementSpec(function="fibonacci-python", db="redis"))
        assert specs[0].db is None
        specs = reproduce._expand_spec(
            MeasurementSpec(function="hotel-geo-go", db="redis"))
        assert specs[0].db == "redis"

    def test_removed_shims_never_warn_they_raise(self):
        # The PR-2 deprecation shims are gone: any call is a hard error
        # naming the replacement, not a DeprecationWarning + forward.
        from repro.workloads.catalog import get_function

        function = get_function("fibonacci-python")
        with pytest.raises(RuntimeError, match=r"measure_functions\(\) was "
                                               r"removed"):
            reproduce.measure_functions([function], "riscv", SCALE,
                                        jobs=1, cache=False)
        with pytest.raises(RuntimeError, match=r"measure_hotel\(\) was "
                                               r"removed"):
            reproduce.measure_hotel("riscv", SCALE, db="redis",
                                    jobs=1, cache=False)
        with pytest.raises(RuntimeError,
                           match=r"measure_standalone_shop\(\) was removed"):
            reproduce.measure_standalone_shop("riscv", SCALE)


class TestTracedSpecCacheBypass:
    def test_traced_points_never_touch_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        spec = MeasurementSpec(function="fibonacci-python", isa="riscv",
                               scale=SCALE, trace=True)
        [first] = run_measurement_matrix([spec], jobs=1, cache=cache)
        assert first.trace is not None
        assert cache.stats()["entries"] == 0

        untraced = replace(spec, trace=False)
        run_measurement_matrix([untraced], jobs=1, cache=cache)
        assert cache.stats()["entries"] == 1
        # and a cache hit never satisfies a traced request
        clear_boot_checkpoint_cache()
        [again] = run_measurement_matrix([spec], jobs=1, cache=cache)
        assert again.trace is not None
