"""Harness protocol tests: setup/evaluation modes, checkpoints, results."""

import copy

import pytest

from repro.core.config import PlatformConfig, platform_for
from repro.core.harness import (
    ExperimentHarness,
    clear_boot_checkpoint_cache,
)
from repro.core.results import (
    MeasurementTable,
    cold_warm_table,
    geometric_mean,
    isa_comparison_table,
)
from repro.core.scale import SimScale
from repro.workloads.catalog import get_function

SCALE = SimScale(time=2048, space=32)


@pytest.fixture(autouse=True)
def _isolated_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


class TestProtocol:
    def test_measure_returns_cold_and_warm(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_function(get_function("fibonacci-go"))
        assert measurement.cold.cycles > measurement.warm.cycles
        assert measurement.cold.instructions > measurement.warm.instructions
        assert len(measurement.records) == 10
        assert measurement.records[0].cold
        assert not any(record.cold for record in measurement.records[1:])

    def test_requests_parameter(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_function(get_function("aes-go"), requests=4)
        assert len(measurement.records) == 4
        with pytest.raises(ValueError):
            harness.measure_function(get_function("aes-go"), requests=1)

    def test_deterministic_across_harnesses(self):
        def run():
            clear_boot_checkpoint_cache()
            harness = ExperimentHarness(isa="riscv", scale=SCALE, seed=7)
            measurement = harness.measure_function(get_function("auth-go"))
            return (measurement.cold.cycles, measurement.warm.cycles,
                    measurement.cold.l1i_misses)

        assert run() == run()

    def test_stats_come_from_server_core(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_function(get_function("fibonacci-go"))
        assert "sys.core1.l1d.misses" in measurement.cold.raw_dump

    def test_payload_factory_threads_through(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_function(
            get_function("fibonacci-go"),
            payload_factory=lambda sequence: {"n": 50 + sequence},
        )
        assert measurement.records[0].result["n"] == 50
        assert measurement.records[9].result["n"] == 59

    def test_boot_checkpoint_cached_across_harnesses(self):
        first = ExperimentHarness(isa="riscv", scale=SCALE)
        first.measure_function(get_function("fibonacci-go"))
        second = ExperimentHarness(isa="riscv", scale=SCALE)
        second.prepare()
        # Same object: served from the cache, not re-booted.
        assert second._boot_checkpoint is first._boot_checkpoint

    def test_layered_boot_reuses_shared_prefix(self, monkeypatch):
        """Two service sets sharing a prefix boot the shared services
        once: the second prepare restores the cached layer and runs only
        the new service's boot program."""
        from repro.db.cassandra import CassandraStore
        from repro.workloads.hotel import HotelSuite

        runs = []
        original = ExperimentHarness._run_setup_program

        def counting(self, program):
            runs.append(program.name)
            return original(self, program)

        monkeypatch.setattr(ExperimentHarness, "_run_setup_program",
                            counting)
        suite = HotelSuite(CassandraStore())
        functions = {fn.short_name: fn for fn in suite.functions}
        first = ExperimentHarness(isa="riscv", scale=SCALE)
        first.prepare(service_stores=ExperimentHarness._stores_of(
            suite.services_for(functions["geo"])))
        booted = len(runs)
        assert booted == 2  # base boot + cassandra
        second = ExperimentHarness(isa="riscv", scale=SCALE)
        second.prepare(service_stores=ExperimentHarness._stores_of(
            suite.services_for(functions["rate"])))
        # Only memcached's boot ran; base + cassandra came from layers.
        assert len(runs) == booted + 1

    def test_layered_boot_measures_like_straight_through(self):
        """Continuing from a restored layer is state-identical to booting
        straight through: measuring in either prepare order gives the
        same counters.  (Stat *group* presence can differ — a harness
        that restored every layer never instantiates the setup CPU's
        stat group — so zero-valued keys are normalised out.)"""
        from repro.db.cassandra import CassandraStore
        from repro.workloads.hotel import HotelSuite

        def measure(order):
            clear_boot_checkpoint_cache()
            suite = HotelSuite(CassandraStore())
            functions = {fn.short_name: fn for fn in suite.functions}
            out = {}
            for name in order:
                harness = ExperimentHarness(isa="riscv", scale=SCALE)
                out[name] = harness.measure_function(
                    functions[name],
                    services=suite.services_for(functions[name]))
            return out

        def nonzero(dump):
            return {key: value for key, value in dump.items() if value}

        forward = measure(["geo", "rate"])
        reverse = measure(["rate", "geo"])
        for name in ("geo", "rate"):
            for phase in ("cold", "warm"):
                a = getattr(forward[name], phase)
                b = getattr(reverse[name], phase)
                for field in type(a).FIELDS:
                    assert getattr(a, field) == getattr(b, field), (
                        name, phase, field)
                assert nonzero(a.raw_dump) == nonzero(b.raw_dump)

    @pytest.mark.parametrize("replacement", ["lru", "random"])
    def test_layered_boot_checkpoint_equals_straight_through(self,
                                                             replacement):
        """Booting cassandra, then memcached on top of the restored
        cassandra layer, ends in the same boot checkpoint as booting both
        straight through.  Under the random policy this needs the
        per-set rngs to travel with the checkpoint."""
        from repro.db.cassandra import CassandraStore
        from repro.workloads.hotel import HotelSuite

        config = copy.copy(platform_for("riscv"))
        config.mem_config = copy.copy(config.mem_config)
        config.mem_config.replacement = replacement
        suite = HotelSuite(CassandraStore())
        functions = {fn.short_name: fn for fn in suite.functions}
        cassandra = ExperimentHarness._stores_of(
            suite.services_for(functions["geo"]))
        both = ExperimentHarness._stores_of(
            suite.services_for(functions["rate"]))

        def boot(*service_sets):
            clear_boot_checkpoint_cache()
            for stores in service_sets:
                harness = ExperimentHarness(isa="riscv", scale=SCALE,
                                            platform_config=config)
                checkpoint = harness.prepare(service_stores=stores)
            return checkpoint.system_state

        assert boot(cassandra, both) == boot(both)

    def test_kvm_setup_falls_back_on_instability(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE, setup_cpu="kvm",
                                    seed=0)
        harness.prepare()
        # With seed 0 the KVM checkpoint op freezes and the harness
        # falls back, recording the workaround.
        assert harness.setup_cpu in ("kvm", "atomic")
        measurement = harness.measure_function(get_function("fibonacci-go"))
        if harness.setup_cpu == "atomic":
            assert any("KVM froze" in note for note in measurement.setup_notes)


class TestPlatformConfig:
    def test_common_parameters_identical_across_isas(self):
        assert platform_for("riscv").common_parameters() == \
            platform_for("x86").common_parameters()

    def test_specifics_differ(self):
        assert platform_for("riscv").specific_parameters() != \
            platform_for("x86").specific_parameters()

    def test_unknown_isa(self):
        with pytest.raises(ValueError):
            platform_for("mips")

    def test_custom_config_flows_into_system(self):
        from repro.sim.mem.hierarchy import MemoryHierarchyConfig

        config = PlatformConfig(
            isa="riscv", os_name="Ubuntu",
            mem_config=MemoryHierarchyConfig(l2_size=256 * 1024),
        )
        harness = ExperimentHarness(isa="riscv", scale=SCALE,
                                    platform_config=config)
        assert harness.system.mem_config.l2_size == 256 * 1024 // SCALE.space


class TestResults:
    def make_measurements(self):
        harness = ExperimentHarness(isa="riscv", scale=SCALE)
        return {"fibonacci-go": harness.measure_function(get_function("fibonacci-go"))}

    def test_cold_warm_table(self):
        table = cold_warm_table("t", self.make_measurements(),
                                metric=lambda stats: stats.cycles,
                                metric_name="cycles")
        assert table.labels() == ["fibonacci-go"]
        cold, warm = table.rows[0][1], table.rows[0][2]
        assert cold > warm
        assert "fibonacci-go" in table.render()

    def test_isa_comparison_table_intersects(self):
        measurements = self.make_measurements()
        table = isa_comparison_table("t", measurements, measurements,
                                     metric=lambda stats: stats.cycles)
        assert len(table.rows) == 1
        assert len(table.columns) == 4

    def test_table_row_arity_checked(self):
        table = MeasurementTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("x", 1)

    def test_column_accessor(self):
        table = MeasurementTable("t", ["a"])
        table.add_row("r1", 10)
        table.add_row("r2", 20)
        assert table.column("a") == [10, 20]

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0, 5]) == 5.0  # zeros skipped
