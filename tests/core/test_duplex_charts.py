"""Duplex (two-core) harness and ASCII chart tests."""

import pytest

from repro.analysis.charts import grouped_hbar_chart, sparkline
from repro.core.duplex import DuplexHarness, build_client_program
from repro.core.harness import clear_boot_checkpoint_cache
from repro.core.results import MeasurementTable
from repro.core.scale import SimScale
from repro.sim.isa.predecode import program_length
from repro.workloads.catalog import get_function

SCALE = SimScale(time=2048, space=32)


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


class TestDuplex:
    def test_end_to_end_decomposition(self):
        harness = DuplexHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_duplex(get_function("fibonacci-go"))
        cold = measurement.cold_sample
        assert cold.cold
        assert cold.response_time == \
            cold.client_cycles + cold.network_cycles + cold.server_cycles
        assert cold.client_cycles > 0
        assert cold.network_cycles > 0

    def test_server_dominates_response_time(self):
        # The thesis measures the server core because that is where the
        # request's time goes.
        harness = DuplexHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_duplex(get_function("fibonacci-python"))
        assert measurement.cold_sample.server_share > 0.7
        assert measurement.warm_sample.server_share > 0.5

    def test_warm_end_to_end_faster(self):
        harness = DuplexHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_duplex(get_function("aes-go"))
        assert measurement.warm_sample.response_time < \
            measurement.cold_sample.response_time

    def test_server_stats_match_basic_harness_shape(self):
        harness = DuplexHarness(isa="riscv", scale=SCALE)
        measurement = harness.measure_duplex(get_function("auth-go"))
        assert measurement.cold.cycles > measurement.warm.cycles
        assert measurement.cold.l2_misses >= measurement.warm.l2_misses

    def test_network_latency_knob(self):
        harness = DuplexHarness(isa="riscv", scale=SCALE)
        slow = harness.measure_duplex(get_function("fibonacci-go"),
                                      network_oneway_cycles=2_000_000)
        clear_boot_checkpoint_cache()
        harness2 = DuplexHarness(isa="riscv", scale=SCALE)
        fast = harness2.measure_duplex(get_function("fibonacci-go"),
                                       network_oneway_cycles=2_000)
        assert slow.warm_sample.response_time > fast.warm_sample.response_time

    def test_client_program_scales_with_payload(self):
        small = build_client_program("f", 64, 64, SCALE)
        large = build_client_program("f", 64 * 1024, 64 * 1024, SCALE)
        from repro.sim.isa import get_isa

        isa = get_isa("riscv")
        assert program_length(isa.assemble(large)) > \
            program_length(isa.assemble(small))


class TestCharts:
    def test_bars_scale_to_maximum(self):
        chart = grouped_hbar_chart("t", ["a", "b"],
                                   {"v": [10, 20]}, width=10)
        lines = [line for line in chart.splitlines() if "█" in line]
        assert lines[1].count("█") == 10          # the max fills the width
        assert 4 <= lines[0].count("█") <= 6      # half-scale bar

    def test_value_formatting(self):
        chart = grouped_hbar_chart("t", ["a"], {"v": [1_500_000]})
        assert "1.50M" in chart

    def test_series_length_checked(self):
        with pytest.raises(ValueError):
            grouped_hbar_chart("t", ["a", "b"], {"v": [1]})

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            grouped_hbar_chart("t", [], {})

    def test_sparkline_levels(self):
        line = sparkline([0, 10])
        assert line[0] == "▁" and line[1] == "█"
        assert sparkline([5, 5, 5]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_measurement_table_chart(self):
        table = MeasurementTable("demo", ["cold", "warm"])
        table.add_row("fn-a", 100, 10)
        table.add_row("fn-b", 50, 20)
        chart = table.render_chart(width=20)
        assert "fn-a" in chart and "cold" in chart

    def test_table_chart_requires_numeric_columns(self):
        table = MeasurementTable("demo", ["note"])
        table.add_row("fn", "text")
        with pytest.raises(ValueError):
            table.render_chart()
