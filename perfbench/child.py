"""One timed process: set-up, one body, the output check.

``run.py`` starts this script once per sample, in a fresh interpreter
with the hermetic environment, and reads back the JSON it writes to
``--out``.  The host clock starts before anything from the program is
imported, so set-up time covers imports and the workload's set-up.
With ``--traced 1`` the layer wrappers are installed before set-up and
the per-layer split and a Chrome trace are written as well; with
``--capture 1`` the outputs become the references instead of being
checked against them.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the start time is taken first
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# None of these imports anything from the program.
import benchloads  # noqa: E402
import hostclock  # noqa: E402
import outcheck  # noqa: E402
import spantrace  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before spawning")
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--capture", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "")
    if not os.path.isdir(cache_dir) or os.listdir(cache_dir):
        print("perfbench child: REPRO_CACHE_DIR must name an existing, "
              "empty directory (got %r)" % cache_dir, file=sys.stderr)
        return 2
    clock = hostclock.HostClock()
    clock.start()
    setup_begin = clock.samples[0][1]

    recorder = None
    if args.traced:
        recorder = spantrace.Recorder()
        setup_root = recorder.open("setup", None)
        spantrace.install(recorder)
    plan = benchloads.SETUPS[args.workload]()
    ready = time.perf_counter()
    if recorder is not None:
        recorder.close(setup_root)

    jit_before = spantrace.jit_counters()
    outputs, errors = {}, {}
    if recorder is not None:
        body_root = recorder.open("body", None)
    body_start = time.perf_counter()
    cpu_start = time.process_time()
    for name, step in plan.steps:
        try:
            outputs[name] = step()
        except Exception:  # noqa: BLE001 - a failed step is a result
            errors[name] = traceback.format_exc()
    body_end = time.perf_counter()
    cpu_s = time.process_time() - cpu_start
    if recorder is not None:
        recorder.close(body_root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jit_after = spantrace.jit_counters()
    clock.stop()
    correct = clock.correction()

    observed = outcheck.observe_all(plan, outputs)
    if args.capture:
        if errors:
            for name, text in errors.items():
                print("capture: %s raised\n%s" % (name, text),
                      file=sys.stderr)
            return 1
        print(outcheck.write_references(
            args.workload, os.environ.get("PYTHONHASHSEED", ""), observed))
    references = outcheck.load_references(plan, args.workload)
    failed = outcheck.compare(plan, observed, errors, references)
    for name, text in errors.items():
        print("step %s raised:\n%s" % (name, text), file=sys.stderr)

    result = {
        "workload": args.workload,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "traced": bool(args.traced),
        # Interpreter start-up precedes the clock; it is corrected with
        # the speed the first reference pass measured.
        "setup": {
            "interpreter_raw_s": STARTED - args.spawned_at,
            "raw_s": ready - args.spawned_at,
            "corrected_s": (STARTED - args.spawned_at) * correct.speeds[0]
                           + correct.interval(setup_begin, ready),
        },
        "body": {
            "raw_s": body_end - body_start,
            "corrected_s": correct.interval(body_start, body_end),
            "cpu_s": cpu_s,
            "points": len(plan.steps),
            "requests": plan.requests,
        },
        "peak_rss_mb": peak_rss_mb,
        "check": {"attempted": len(plan.steps), "failed": failed},
        # Raw readings are relative to the spawn, in seconds.
        "host": {
            "passes": [[begin - args.spawned_at, end - args.spawned_at]
                       for begin, end in clock.samples],
            "interval_speed": correct.interval_speeds(),
            "setup_window": [setup_begin - args.spawned_at,
                             ready - args.spawned_at],
            "body_window": [body_start - args.spawned_at,
                            body_end - args.spawned_at],
        },
    }
    if recorder is not None:
        result["layers"] = spantrace.layer_metrics(
            recorder, correct, setup_root, body_root, jit_before, jit_after)
        result["split"] = spantrace.layer_split(recorder, correct, body_root)
        if args.trace_file:
            spantrace.write_chrome_trace(args.trace_file, recorder, correct)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
