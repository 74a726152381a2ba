"""Tests for the DSE API, the lukewarm protocol, and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.dse import DesignSpace, KNOWN_AXES
from repro.core.harness import ExperimentHarness, clear_boot_checkpoint_cache
from repro.core.scale import SimScale
from repro.workloads.catalog import get_function

SCALE = SimScale(time=2048, space=32)
FAST = ["--time-scale", "2048", "--space-scale", "32"]

#: Every verb that takes ``--isa``: its argv before the flag, the fast
#: options that let it run in a test, and a vendor spelling with the ISA
#: it names.
ISA_VERBS = {
    "measure": (["measure", "fibonacci-go"], FAST, "riscv64", "riscv"),
    "suite": (["suite", "standalone"], FAST + ["--jobs", "1"],
              "rv64", "riscv"),
    "dse": (["dse", "fibonacci-go"],
            FAST + ["--axis", "prefetch_i_degree=0,4", "--jobs", "1"],
            "aarch64", "arm"),
    "trace": (["trace", "fibonacci-go"], FAST, "RV64GC", "riscv"),
    "chaos": (["chaos", "fibonacci-go"], FAST, "amd64", "x86"),
    "serve": (["serve", "fibonacci-go"], ["--requests", "20"],
              "arm64", "arm"),
    "lukewarm": (["lukewarm", "fibonacci-go"], FAST, "riscv64", "riscv"),
    "pipeline": (["pipeline"], FAST, "x86_64", "x86"),
    "calibrate": (["calibrate"], ["--sampling", "fast"], "amd64", "x86"),
}


@pytest.fixture(autouse=True)
def _isolated_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


class TestDesignSpace:
    def test_cartesian_product_size(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("l2_size", [128 * 1024, 512 * 1024])
        space.axis("rob_entries", [64, 192])
        result = space.sweep(get_function("fibonacci-go"))
        assert len(result) == 4
        settings = {tuple(sorted(point.settings.items())) for point in result.points}
        assert len(settings) == 4

    def test_bigger_l2_never_slower_cold(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("l2_size", [64 * 1024, 1024 * 1024])
        result = space.sweep(get_function("fibonacci-python"))
        small, big = result.points
        assert big.cold_cycles <= small.cold_cycles

    def test_prefetcher_helps_cold_start(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("prefetch_i_degree", [0, 4])
        result = space.sweep(get_function("fibonacci-python"))
        off, on = result.points
        assert on.cold_cycles < off.cold_cycles

    def test_sensitivity_identifies_the_live_knob(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("prefetch_i_degree", [0, 4])
        space.axis("sq_entries", [32, 33])  # inert for this workload
        result = space.sweep(get_function("fibonacci-python"))
        sensitivity = result.sensitivity()
        assert sensitivity["prefetch_i_degree"] > sensitivity["sq_entries"]

    def test_best_and_worst(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("l2_size", [64 * 1024, 512 * 1024])
        result = space.sweep(get_function("aes-go"))
        assert result.best().cold_cycles <= result.worst().cold_cycles

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace().axis("btb_rainbows", [1])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace().axis("l2_size", [])

    def test_memory_axis_checked_when_added(self):
        with pytest.raises(ValueError, match="l2_assoc"):
            DesignSpace().axis("l2_assoc", [4, 0])

    def test_sweep_without_axes_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace().sweep(get_function("aes-go"))

    def test_render_mentions_axes(self):
        space = DesignSpace(isa="riscv", scale=SCALE)
        space.axis("replacement", ["lru", "fifo"])
        result = space.sweep(get_function("aes-go"))
        text = result.render()
        assert "replacement" in text and "lru" in text

    def test_axes_cover_caches_pipeline_and_prefetchers(self):
        # The §6 wishlist: caches, branch predictors (penalty), prefetchers.
        assert "l2_size" in KNOWN_AXES
        assert "mispredict_penalty" in KNOWN_AXES
        assert "prefetch_i_degree" in KNOWN_AXES


class TestLukewarm:
    def test_lukewarm_between_warm_and_cold(self):
        harness = ExperimentHarness(isa="riscv", scale=SimScale(time=512, space=16))
        measurement = harness.measure_lukewarm(
            function=get_function("aes-go"),
            intruder=get_function("fibonacci-python"),
        )
        assert measurement.warm.cycles < measurement.lukewarm.cycles
        assert measurement.lukewarm.cycles < measurement.cold.cycles
        assert measurement.lukewarm_slowdown > 1.2

    def test_lukewarm_instruction_count_matches_warm(self):
        # Lukewarm is a microarchitectural effect: same software work.
        harness = ExperimentHarness(isa="riscv", scale=SimScale(time=512, space=16))
        measurement = harness.measure_lukewarm(
            function=get_function("auth-go"),
            intruder=get_function("fibonacci-nodejs"),
        )
        assert measurement.lukewarm.instructions == measurement.warm.instructions


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fibonacci-go" in out
        assert "hotel-profile-go" in out

    def test_measure(self, capsys):
        assert main(["measure", "fibonacci-go", "--time-scale", "2048",
                     "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "cold (request 1)" in out
        assert "cold/warm cycle ratio" in out

    def test_compare_two_isas(self, capsys):
        assert main(["compare", "aes-go", "--isas", "riscv,x86",
                     "--time-scale", "2048", "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "riscv_cold_cyc" in out

    def test_sizes_all_arches(self, capsys):
        assert main(["sizes"]) == 0
        out = capsys.readouterr().out
        assert "n/a" not in out.split("\n")[1]  # fibonacci-go exists everywhere

    def test_sizes_single_arch(self, capsys):
        assert main(["sizes", "--arch", "riscv"]) == 0
        out = capsys.readouterr().out
        assert "132.62MB" in out

    def test_dse(self, capsys):
        assert main(["dse", "fibonacci-go", "--axis",
                     "prefetch_i_degree=0,4", "--time-scale", "2048",
                     "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out
        assert "best point" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--time-scale", "0", "argument --time-scale: must be at least 1, "
                              "got 0"),
        ("--time-scale", "x", "argument --time-scale: invalid int value: "
                              "'x'"),
        ("--space-scale", "0", "argument --space-scale: must be at least 1, "
                               "got 0"),
        ("--space-scale", "24", "argument --space-scale: space_scale 24 "
                                "shrinks cache l1i from 32768 to 1365 bytes"),
    ])
    def test_bad_scale_names_its_flag(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exited:
            main(["measure", "fibonacci-go", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", sorted(ISA_VERBS))
    def test_vendor_isa_spelling_runs(self, verb, capsys):
        head, options, spelled, isa = ISA_VERBS[verb]
        argv = head + ["--isa", spelled] + options
        assert build_parser().parse_args(argv).isa == isa
        assert main(argv) == 0

    @pytest.mark.parametrize("verb", sorted(ISA_VERBS))
    def test_bad_isa_names_its_flag(self, verb, capsys):
        head, options, _spelled, _isa = ISA_VERBS[verb]
        with pytest.raises(SystemExit) as exited:
            main(head + ["--isa", "sparc"] + options)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "argument --isa: unknown ISA 'sparc'" in err
        assert "Traceback" not in err

    def test_compare_folds_each_vendor_isa(self, capsys):
        argv = ["compare", "fibonacci-go", "--isas", "riscv64,x86_64"] + FAST
        assert build_parser().parse_args(argv).isas == ["riscv", "x86"]
        assert main(argv) == 0
        assert "fibonacci-go: riscv vs x86" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exited:
            main(["compare", "fibonacci-go", "--isas", "riscv,sparc"] + FAST)
        assert exited.value.code == 2
        assert ("argument --isas: unknown ISA 'sparc'"
                in capsys.readouterr().err)

    def test_dse_bad_axis_spec(self):
        with pytest.raises(SystemExit):
            main(["dse", "fibonacci-go", "--axis", "l2_size"])

    @pytest.mark.parametrize("axis", ["rob_entries=192,0",
                                      "dispatch_width=0"])
    def test_dse_rejects_an_empty_pipeline_before_running(self, axis):
        with pytest.raises(SystemExit) as exited:
            main(["dse", "fibonacci-go", "--axis", axis])
        field = axis.partition("=")[0]
        assert str(exited.value.code) == (
            "--axis %s: O3Config.%s must be an integer >= 1, got 0"
            % (axis, field))

    @pytest.mark.parametrize("axis, message", [
        ("l2_assoc=0", "MemoryHierarchyConfig.l2_assoc must be an integer "
                       ">= 1, got 0"),
        ("prefetch_d_degree=-1", "MemoryHierarchyConfig.prefetch_d_degree "
                                 "must be an integer >= 0, got -1"),
        ("replacement=bogus", "MemoryHierarchyConfig.replacement must be "
                              "one of fifo, lru, random, got 'bogus'"),
    ])
    def test_dse_rejects_a_bad_memory_axis_before_running(self, axis,
                                                          message):
        with pytest.raises(SystemExit) as exited:
            main(["dse", "fibonacci-go", "--axis", axis,
                  "--time-scale", "2048", "--space-scale", "32"])
        assert str(exited.value.code) == "--axis %s: %s" % (axis, message)

    def test_unknown_function_errors(self):
        with pytest.raises(KeyError):
            main(["measure", "no-such-function"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
