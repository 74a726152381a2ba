"""Self-tests of the benchmark's own machinery (no simulation runs).

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import outcheck  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
from benchloads import Plan  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


def _plan_for(references):
    return Plan([(name, None) for name in references], 0, observe=None)


def test_changing_one_counter_in_a_reference_fails_the_check():
    with open(outcheck.reference_path("paper-measure"),
              encoding="utf-8") as handle:
        references = json.load(handle)["points"]
    observed = copy.deepcopy(references)
    plan = _plan_for(references)
    assert outcheck.compare(plan, observed, {}, references) == []

    tampered = copy.deepcopy(references)
    tampered["riscv/aes-go"]["summary"]["warm"]["l2_misses"] += 1
    failed = outcheck.compare(plan, observed, {}, tampered)
    assert [name for name, _ in failed] == ["riscv/aes-go"]
    assert "warm.l2_misses" in failed[0][1]


def test_a_differing_digest_or_a_raised_step_fails_the_check():
    with open(outcheck.reference_path("serve-mix"),
              encoding="utf-8") as handle:
        references = json.load(handle)["points"]
    plan = _plan_for(references)
    observed = copy.deepcopy(references)
    observed["poisson/hotel-geo-go"]["sha256"] = "0" * 64
    errors = {"diurnal/fibonacci-go": "Traceback ...\nValueError: boom\n"}
    del observed["diurnal/fibonacci-go"]
    failed = dict(outcheck.compare(plan, observed, errors, references))
    assert set(failed) == {"poisson/hotel-geo-go", "diurnal/fibonacci-go"}
    assert failed["diurnal/fibonacci-go"] == "raised: ValueError: boom"


def test_references_exist_for_every_referenced_workload():
    for workload in ("paper-measure", "serve-mix"):
        assert os.path.isfile(outcheck.reference_path(workload))


def _synthetic_recorder():
    """body [0, 10] holding o3 [1, 6] (with isa [2, 3] and db [4, 5]
    inside) and rpc [7, 9]; a setup root [-2, 0] holding boot [-2, -1]."""
    recorder = spantrace.Recorder()
    layout = [
        ("setup", None, -1, -2.0, 0.0, None),
        ("boot", "boot", 0, -2.0, -1.0, 500),
        ("body", None, -1, 0.0, 10.0, None),
        ("o3", "o3", 2, 1.0, 6.0, 1000),
        ("isa.assemble", "isa", 3, 2.0, 3.0, None),
        ("db.get", "db", 3, 4.0, 5.0, True),
        ("rpc.call", "rpc", 2, 7.0, 9.0, None),
    ]
    recorder.spans = [list(span) for span in layout]
    return recorder


def test_nested_spans_give_self_times():
    recorder = _synthetic_recorder()
    split = spantrace.layer_split(recorder, lambda t: t, body_root=2)
    assert split == {"uncovered": 3.0, "o3": 3.0, "isa": 1.0, "db": 1.0,
                     "rpc": 2.0}
    assert sum(split.values()) == 10.0

    jit = {"predecode.decoded_blocks": 0, "jit.compile_s": 0.0,
           "jit.compiled_units": 0, "jit.declined": 0,
           "jit.compiled_calls": 3, "jit.interpreted_calls": 1}
    metrics = spantrace.layer_metrics(recorder, lambda t: t, 0, 2, jit, jit)
    assert metrics["o3.self_s"] == 3.0
    assert metrics["o3.ns_per_inst"] == 3.0e9 / 1000
    assert metrics["db.read_ops"] == 1
    assert metrics["setup.boot_s"] == 1.0
    assert metrics["trace.body_s"] == 10.0
    layer_self = sum(value for name, value in metrics.items()
                     if name in ("o3.self_s", "isa.assemble_s", "db.self_s",
                                 "rpc.self_s"))
    assert layer_self + metrics["trace.uncovered_s"] == metrics["trace.body_s"]


def test_correction_rescales_by_reference_speed_and_skips_passes():
    nominal = hostclock.NOMINAL_REFERENCE_S
    # A host at half speed: every pass takes twice the nominal time.
    passes = [(k * 0.02, k * 0.02 + 2 * nominal) for k in range(10)]
    correct = hostclock.Correction(passes)
    work = passes[9][0] - passes[1][1] - 7 * 2 * nominal
    assert correct.interval(passes[1][1], passes[9][0]) == pytest.approx(
        work / 2)
    assert correct.interval(*passes[4]) == 0.0


def test_salt_rule_is_fixed_and_knobs_are_unset(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    first = run.hermetic_env("/cache", 30)
    assert first == run.hermetic_env("/cache", 30)
    assert first["PYTHONHASHSEED"] == "30" == run.salt_for(30)
    assert first["REPRO_JOBS"] == "1"
    assert first["REPRO_CACHE_DIR"] == "/cache"
    assert not set(run.UNSET_KNOBS) & set(first)


def _fake_sample(traced):
    recorder = _synthetic_recorder()
    jit = dict.fromkeys(("predecode.decoded_blocks", "jit.compile_s",
                         "jit.compiled_units", "jit.declined",
                         "jit.compiled_calls", "jit.interpreted_calls"), 0)
    sample = {
        "setup": {"corrected_s": 1.0, "raw_s": 1.2},
        "body": {"corrected_s": 4.0, "raw_s": 5.0, "points": 36,
                 "requests": 360},
        "peak_rss_mb": 500.0,
        "check": {"attempted": 36, "failed": []},
    }
    if traced:
        sample["layers"] = spantrace.layer_metrics(
            recorder, lambda t: t, 0, 2, jit, jit)
        sample["split"] = spantrace.layer_split(recorder, lambda t: t, 2)
    return sample


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_last_line_parses_and_names_every_metric(monkeypatch, capsys,
                                                 tmp_path, trace, section):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "run_sample",
                        lambda *args, **_: _fake_sample(traced=args[3]))
    assert run.main(["--workload", "paper-measure", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 36 * (run.MIN_SAMPLES + trace)
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in
            last["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""
