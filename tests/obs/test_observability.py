"""End-to-end observability tests: overhead, determinism, exports, CLI.

These run real traced measurements through the harness, so they use the
small test scale and the shared boot-checkpoint hygiene fixture.
"""

import hashlib
import json

import pytest

import repro.obs.tracer as tracer_module
from repro.cli import main
from repro.core.harness import clear_boot_checkpoint_cache
from repro.core.parallel import execute_task
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.obs import dumps_chrome_trace, profile_table

SCALE = SimScale(time=4096, space=32)

#: (function, isa) -> SHA-256 prefix of ``trace --report`` stdout (the
#: program report and the validation lines) at SCALE.
REPORT_DIGESTS = {
    ("fibonacci-python", "riscv"): "d4a7a6998471d5dd",
    ("fibonacci-python", "x86"): "1b450f9b48bd098b",
    ("fibonacci-python", "arm"): "e03f44175646597e",
    ("hotel-geo-go", "riscv"): "ad5b8254d159dc79",
    ("hotel-geo-go", "x86"): "e8084315c1446941",
    ("hotel-geo-go", "arm"): "6121ea55bd8965aa",
}

#: ``trace`` arguments -> (SHA-256 prefix of its stdout, the stdout's
#: ``pipeline`` rows), on real programs whose compute runs are long:
#: the stall rows are the only output that sees the five stall sums.
TRACE_GOLDENS = {
    ("fibonacci", "--isa", "riscv64", "--time-scale", "2048",
     "--space-scale", "32"): ("4582cc1e03719b0a", (
         "pipeline       operand-wait                                 2"
         "        22545  226.9%",
         "pipeline       o3.run                                       2"
         "         7702   77.5%",
         "pipeline       commit-stall                                 2"
         "         7659   77.1%",
         "pipeline       fetch-stall                                  1"
         "         5998   60.4%",
         "pipeline       fu-wait                                      2"
         "         3639   36.6%",
         "pipeline       dispatch-stall                               2"
         "         1416   14.3%",
     )),
    ("hotel-profile-go", "--time-scale", "256", "--space-scale", "16"): (
        "483ad6109ad7c62c", (
            "pipeline       operand-wait                                 2"
            "      9229416 1332.0%",
            "pipeline       o3.run                                       2"
            "       660218   95.3%",
            "pipeline       commit-stall                                 2"
            "       659976   95.3%",
            "pipeline       fetch-stall                                  2"
            "       580998   83.9%",
            "pipeline       fu-wait                                      2"
            "        80945   11.7%",
            "pipeline       dispatch-stall                               2"
            "        66814    9.6%",
        )),
}


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


def _spec(**overrides):
    base = dict(function="fibonacci-python", isa="riscv", scale=SCALE,
                seed=0, trace=True)
    base.update(overrides)
    return MeasurementSpec(**base)


class TestZeroOverhead:
    def test_untraced_measurement_records_no_events(self):
        before = tracer_module.EVENTS_RECORDED
        execute_task(_spec(trace=False))
        assert tracer_module.EVENTS_RECORDED == before

    def test_traced_measurement_leaves_stats_untouched(self):
        plain = execute_task(_spec(trace=False))
        traced = execute_task(_spec())
        assert plain.cold.as_dict() == traced.cold.as_dict()
        assert plain.warm.as_dict() == traced.warm.as_dict()
        assert traced.trace is not None
        assert plain.trace is None


class TestDeterminism:
    def test_two_captures_serialize_byte_identical(self):
        first = execute_task(_spec())
        clear_boot_checkpoint_cache()
        second = execute_task(_spec())
        assert dumps_chrome_trace(first.trace) == dumps_chrome_trace(
            second.trace)

    def test_capture_is_tick_stamped_not_wall_clock(self):
        capture = execute_task(_spec()).trace
        assert capture["clock"] > 0
        # every event timestamp is an integer tick within the capture
        for event in capture["events"]:
            assert isinstance(event[4], int)
            assert 0 <= event[4] <= capture["clock"]


class TestChromeExport:
    def test_trace_parses_and_covers_the_stack(self):
        capture = execute_task(_spec()).trace
        document = json.loads(dumps_chrome_trace(capture))
        events = document["traceEvents"]
        cats = {event.get("cat") for event in events}
        assert {"pipeline", "cache", "tlb", "invocation", "engine",
                "protocol"} <= cats
        names = {event["name"] for event in events}
        assert "o3.run" in names
        assert any(name.startswith("invoke:") for name in names)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all("dur" in e for e in complete)

    def test_profile_table_lists_phases(self):
        capture = execute_task(_spec()).trace
        table = profile_table(capture)
        assert "pipeline" in table
        assert "o3.run" in table
        assert "%" in table


class TestTraceCli:
    def test_trace_verb_writes_deterministic_json(self, tmp_path, capsys):
        argv = ["trace", "fibonacci", "--isa", "riscv64",
                "--time-scale", str(SCALE.time),
                "--space-scale", str(SCALE.space)]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        clear_boot_checkpoint_cache()
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        assert document["otherData"]["schema"].startswith("repro-trace/")
        out = capsys.readouterr().out
        assert "fibonacci-python" in out
        assert "pipeline" in out

    def test_trace_verb_report_mode_still_works(self, capsys):
        assert main(["trace", "fibonacci-python", "--report",
                     "--time-scale", str(SCALE.time),
                     "--space-scale", str(SCALE.space)]) == 0
        assert "validation" in capsys.readouterr().out

    @pytest.mark.parametrize("isa", ("riscv", "x86", "arm"))
    @pytest.mark.parametrize("function", ("fibonacci-python", "hotel-geo-go"))
    def test_trace_report_output_pinned(self, capsys, function, isa):
        assert main(["trace", function, "--report", "--isa", isa,
                     "--time-scale", str(SCALE.time),
                     "--space-scale", str(SCALE.space)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == \
            REPORT_DIGESTS[function, isa]

    @pytest.mark.parametrize("argv", sorted(TRACE_GOLDENS))
    def test_trace_output_pinned(self, capsys, argv):
        """The traced run's stdout, its stall rows included."""
        assert main(["trace"] + list(argv)) == 0
        out = capsys.readouterr().out
        digest, rows = TRACE_GOLDENS[argv]
        assert tuple(line for line in out.splitlines()
                     if line.startswith("pipeline ")) == rows
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_unknown_function_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["trace", "no-such-function"])
