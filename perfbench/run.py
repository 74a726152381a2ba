"""The repository benchmark: one command, every metric, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-measure --seed 1 --seconds 10 --trace 0

Each sample is a fresh ``child.py`` process with a hermetic environment
(``REPRO_JOBS=1``, an empty result-cache directory, the ``REPRO_*``
tuning knobs unset, ``PYTHONHASHSEED`` equal to ``--seed``).  The
program's own inputs are fixed; the seed sets the string-hash salt.
Samples run one after another until ``--seconds`` of corrected body
time have been measured; the end-to-end metrics are their medians.
With ``--trace 1`` one more traced sample follows and the per-layer
metrics are printed instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full run record (every sample, raw and corrected times, the host speed
of every interval) goes to ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from benchloads import PROGRAM_SEED, WORKLOADS  # noqa: E402

#: Timed samples per run: at least this many, more while ``--seconds``
#: of corrected body time have not been measured (so the count does not
#: drop when the host is slow), never more than the maximum.
MIN_SAMPLES = 2
MAX_SAMPLES = 6

#: A run still going after this long kills its sample and fails, so it
#: always ends within three minutes.
RUN_DEADLINE_S = 170

#: No further untraced sample starts after this much wall time, so a
#: run on a slow host still ends well inside three minutes.
RUN_BUDGET_S = 75

#: Knobs that would change what is measured; every sample runs without.
UNSET_KNOBS = ("REPRO_JIT", "REPRO_PREDECODE", "REPRO_JIT_THRESHOLD",
               "REPRO_JIT_MAX_STMTS", "REPRO_RESULT_CACHE")

#: The end-to-end metrics: name -> (unit, how to read one sample).
END_TO_END = {
    "setup_s": ("s", lambda s: s["setup"]["corrected_s"]),
    "points_per_s": ("points/s",
                     lambda s: s["body"]["points"] / s["body"]["corrected_s"]),
    "requests_per_s": ("requests/s",
                       lambda s: s["body"]["requests"]
                       / s["body"]["corrected_s"]),
    "peak_rss_mb": ("MB", lambda s: s["peak_rss_mb"]),
}

#: Companions printed and recorded beside the above: the raw
#: (uncorrected) times and the corrected body time they derive from.
DETAIL = {
    "setup_raw_s": ("s", lambda s: s["setup"]["raw_s"]),
    "body_raw_s": ("s", lambda s: s["body"]["raw_s"]),
    "body_corrected_s": ("s", lambda s: s["body"]["corrected_s"]),
    "points_per_raw_s": ("points/s",
                         lambda s: s["body"]["points"] / s["body"]["raw_s"]),
}


def salt_for(seed: int) -> str:
    """The string-hash salt a run uses: fixed up front as the seed itself."""
    return str(seed)


def hermetic_env(cache_dir: str, seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONHASHSEED"}
    env.update({
        "REPRO_JOBS": "1",
        "REPRO_CACHE_DIR": cache_dir,
        "PYTHONHASHSEED": salt_for(seed),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PERFBENCH_ROOT": ROOT,
    })
    return env


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run_sample(workload: str, seed: int, tag: str, traced: bool,
               capture: bool = False,
               timeout: float = RUN_DEADLINE_S) -> dict:
    """One fresh child process; returns its result document."""
    cache_dir = os.path.join(OUT_DIR, "cache-%s" % tag)
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    out = os.path.join(OUT_DIR, "sample-%s.json" % tag)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--out", out,
               "--traced", str(int(traced)), "--capture", str(int(capture))]
    if traced:
        command += ["--trace-file", trace_path(workload, seed)]
    try:
        spawned_at = time.perf_counter()
        child = subprocess.run(command + ["--spawned-at", repr(spawned_at)],
                               cwd=ROOT, env=hermetic_env(cache_dir, seed),
                               stdout=subprocess.PIPE, text=True,
                               timeout=max(timeout, 1.0))
        if child.returncode != 0:
            raise RuntimeError("sample %s exited with %d" % (
                tag, child.returncode))
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


def trace_path(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))


def spread(values) -> dict:
    """Median, quartile spread (IQR over median), range and count."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "min": values[0], "max": values[-1]}


def per_layer_units() -> dict:
    """The per-layer metric names and units, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {entry["name"]: entry["unit"]
                for entry in json.load(f)["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="corrected body time to measure (whole "
                        "samples)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so a running sample is killed and
    # reaped instead of outliving the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at %s; run from the root of a "
              "full checkout" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if not 0 <= args.seed <= 4294967295:
        print("perfbench: --seed must be in 0..4294967295 (it is also the "
              "PYTHONHASHSEED)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    run_id = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                       os.getpid())
    host = host_fingerprint()
    environment = {"PYTHONHASHSEED": salt_for(args.seed), "REPRO_JOBS": "1",
                   "REPRO_CACHE_DIR": "fresh empty directory per sample",
                   "PYTHONDONTWRITEBYTECODE": "1",
                   "unset": list(UNSET_KNOBS)}
    print("perfbench %s: seed %d (PYTHONHASHSEED; program inputs use seed "
          "%d), %gs of body, trace %d" % (args.workload, args.seed,
                                          PROGRAM_SEED, args.seconds,
                                          args.trace))
    print("environment: %s" % json.dumps(environment, sort_keys=True))
    print("host: %s" % json.dumps(host, sort_keys=True))

    samples = []
    measured = 0.0
    started = time.monotonic()

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - started)

    try:
        while len(samples) < MIN_SAMPLES or (
                len(samples) < MAX_SAMPLES and measured < args.seconds
                and time.monotonic() - started < RUN_BUDGET_S):
            sample = run_sample(args.workload, args.seed,
                                "%s-%d" % (run_id, len(samples)), False,
                                timeout=remaining())
            samples.append(sample)
            measured += sample["body"]["corrected_s"]
            print("sample %d: setup %.3fs, body %.3fs raw / %.3fs corrected,"
                  " %d/%d steps failed" % (
                      len(samples), sample["setup"]["corrected_s"],
                      sample["body"]["raw_s"], sample["body"]["corrected_s"],
                      len(sample["check"]["failed"]),
                      sample["check"]["attempted"]), flush=True)
        traced = None
        if args.trace:
            traced = run_sample(args.workload, args.seed,
                                "%s-traced" % run_id, True,
                                timeout=remaining())
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1

    checked = samples + ([traced] if traced else [])
    attempted = sum(s["check"]["attempted"] for s in checked)
    failures = [(i, name, reason) for i, s in enumerate(checked)
                for name, reason in s["check"]["failed"]]
    summary = {name: dict(spread([read(s) for s in samples]), unit=unit)
               for name, (unit, read) in list(END_TO_END.items())
               + list(DETAIL.items())}
    for name, stats in summary.items():
        print("%-18s %14.6g %-10s median of %d, IQR %.1f%%, range %.6g-%.6g"
              % (name, stats["median"], stats["unit"], stats["n"],
                 100 * stats["iqr_share"], stats["min"], stats["max"]))

    if traced:
        layers = dict(traced["layers"])
        untraced_body = summary["body_corrected_s"]["median"]
        layers["trace.overhead_pct"] = 100.0 * (
            traced["body"]["corrected_s"] - untraced_body) / untraced_body
        units = per_layer_units()
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
        for name, entry in metrics.items():
            print("%-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
        split = sorted(traced["split"].items(), key=lambda kv: -kv[1])
        print("traced body split (self s): " + ", ".join(
            "%s %.3f" % item for item in split))
        print("chrome trace: %s" % os.path.relpath(
            trace_path(args.workload, args.seed), ROOT))
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, (unit, _read) in END_TO_END.items()}

    for index, name, reason in failures:
        print("FAILED sample %d (seed %d, PYTHONHASHSEED %s) %s: %s" % (
            index + 1, args.seed, salt_for(args.seed), name, reason))
    print("output check: %s, %d attempted, %d failed"
          % ("correct" if not failures else "INCORRECT", attempted,
             len(failures)))
    record = {"run": run_id, "args": vars(args), "environment": environment,
              "host": host, "samples": samples, "traced": traced,
              "summary": summary, "metrics": metrics}
    record_path = os.path.join(OUT_DIR, "record-%s.json" % run_id)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("run record: %s" % os.path.relpath(record_path, ROOT))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
