"""Command-line interface: drive experiments without writing code.

::

    python -m repro list
    python -m repro measure fibonacci-go --isa riscv
    python -m repro compare aes-python --isas riscv,x86
    python -m repro suite hotel --isa riscv --db cassandra
    python -m repro trace fibonacci --isa riscv64 --out trace.json
    python -m repro chaos fibonacci-go --isa riscv --fault-seed 7
    python -m repro serve fibonacci --profile burst --rps 100
    python -m repro sizes --arch riscv
    python -m repro dse fibonacci-python --axis l2_size=131072,524288
    python -m repro dbcompare
    python -m repro experiment run perf-cost
    python -m repro cache stats
    python -m repro bench-smoke --json

Batch commands (suite, dse, reproduce, bench-smoke) schedule through the
parallel measurement engine: ``--jobs``/``REPRO_JOBS`` picks the worker
count and the persistent result cache (``REPRO_CACHE_DIR``) skips
already-measured points unless ``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.core.dse import DesignSpace
from repro.core.harness import ExperimentHarness
from repro.core.results import cold_warm_table, isa_comparison_table
from repro.core.scale import SimScale
from repro.workloads.catalog import (
    HOTEL_FUNCTIONS,
    ONLINESHOP_FUNCTIONS,
    STANDALONE_FUNCTIONS,
    all_functions,
    get_function,
)

SUITES = {
    "standalone": STANDALONE_FUNCTIONS,
    "onlineshop": ONLINESHOP_FUNCTIONS,
    "hotel": HOTEL_FUNCTIONS,
}


#: Common vendor spellings accepted anywhere an ISA is taken.
_ISA_SPELLINGS = {
    "riscv": "riscv", "riscv64": "riscv", "rv64": "riscv", "rv64gc": "riscv",
    "x86": "x86", "x86_64": "x86", "amd64": "x86",
    "arm": "arm", "arm64": "arm", "aarch64": "arm",
}


def _normalize_isa(value: str) -> str:
    """argparse type: fold riscv64/rv64, x86_64/amd64, aarch64 spellings."""
    try:
        return _ISA_SPELLINGS[value.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            "unknown ISA %r (try riscv, x86 or arm)" % value) from None


def _resolve_function(name: str):
    """Catalog lookup that also accepts runtime-less names: ``fibonacci``
    resolves to ``fibonacci-python`` (python, then go, then nodejs)."""
    try:
        return get_function(name)
    except KeyError:
        for suffix in ("-python", "-go", "-nodejs"):
            try:
                return get_function(name + suffix)
            except KeyError:
                continue
        raise SystemExit("no benchmark function %r (see `python -m repro list`)"
                         % name)


def _scale_from(args) -> SimScale:
    return SimScale(time=args.time_scale, space=args.space_scale)


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time-scale", type=int, default=512,
                        help="dynamic-work divisor (default 512)")
    parser.add_argument("--space-scale", type=int, default=16,
                        help="capacity divisor (default 16)")


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="measurement workers (default REPRO_JOBS or all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent result cache")


def _cache_from(args):
    # False disables caching; None lets the engine honour the environment.
    return False if getattr(args, "no_cache", False) else None


def _add_sampling_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sampling", default=None, metavar="SPEC",
        help="sampled O3 simulation: a preset (fast/balanced/accurate), "
             "key=value pairs (interval=8192,detail=1024,warmup=256,"
             "jitter=1), or off (default: off, full detail)")


def _sampling_from(args):
    from repro.sim.sampling import SamplingConfig

    try:
        return SamplingConfig.parse(getattr(args, "sampling", None))
    except ValueError as error:
        raise SystemExit(str(error))


def _add_vector_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vector", default=None, metavar="SPEC",
        help="vector unit: a preset (rvv128/rvv256/rvv512), key=value "
             "pairs (vlen=256,lanes=2), or off (default: off — vector IR "
             "lowers to scalar instructions)")


def _vector_from(args):
    from repro.sim.isa.vector import VectorConfig

    try:
        return VectorConfig.parse(getattr(args, "vector", None))
    except ValueError as error:
        raise SystemExit(str(error))


def _hotel_services(db_name: str):
    from repro.db import make_datastore
    from repro.workloads.hotel import HotelSuite

    suite = HotelSuite(make_datastore(db_name))
    return suite


def _services_for(function, hotel_suite) -> Dict[str, Any]:
    if function.suite == "hotel":
        if hotel_suite is None:
            raise SystemExit(
                "%s needs a database; pass --db (cassandra/mongodb/...)"
                % function.name
            )
        return hotel_suite.services_for(function)
    return {}


def _format_stats(label: str, stats) -> str:
    return (
        "%-18s %10d cycles  %9d insts  CPI %.2f  "
        "L1I %5d  L1D %5d  L2 %5d" % (
            label, stats.cycles, stats.instructions, stats.cpi,
            stats.l1i_misses, stats.l1d_misses, stats.l2_misses,
        )
    )


def cmd_list(args) -> int:
    """Print the benchmark catalog."""
    from repro.workloads.catalog import ML_FUNCTIONS

    print("%-30s %-8s %-12s" % ("function", "runtime", "suite"))
    for function in all_functions() + ML_FUNCTIONS:
        print("%-30s %-8s %-12s" % (function.name, function.runtime_name,
                                    function.suite))
    return 0


def cmd_measure(args) -> int:
    """Run the 10-request protocol for one function."""
    function = get_function(args.function)
    hotel_suite = _hotel_services(args.db) if function.suite == "hotel" else None
    harness = ExperimentHarness(isa=args.isa, scale=_scale_from(args),
                                seed=args.seed,
                                sampling=_sampling_from(args),
                                vector=_vector_from(args))
    measurement = harness.measure_function(
        function, services=_services_for(function, hotel_suite))
    print("%s on simulated %s (%r)" % (function.name, args.isa, harness.config.os_name))
    print(_format_stats("cold (request 1)", measurement.cold))
    print(_format_stats("warm (request 10)", measurement.warm))
    print("cold/warm cycle ratio: %.1fx" % measurement.cold_warm_cycle_ratio)
    return 0


def cmd_compare(args) -> int:
    """Compare one function across ISAs."""
    function = get_function(args.function)
    isas = args.isas.split(",")
    measurements: Dict[str, Dict] = {}
    for isa in isas:
        hotel_suite = _hotel_services(args.db) if function.suite == "hotel" else None
        harness = ExperimentHarness(isa=isa, scale=_scale_from(args), seed=args.seed)
        measurements[isa] = {function.name: harness.measure_function(
            function, services=_services_for(function, hotel_suite))}
    if len(isas) == 2:
        table = isa_comparison_table(
            "%s: %s vs %s (cycles)" % (function.name, *isas),
            measurements[isas[0]], measurements[isas[1]],
            metric=lambda stats: stats.cycles, metric_name="cyc",
        )
        print(table.render())
    else:
        for isa in isas:
            m = measurements[isa][function.name]
            print("%-8s cold=%d warm=%d" % (isa, m.cold.cycles, m.warm.cycles))
    return 0


def cmd_suite(args) -> int:
    """Measure a whole suite on one platform."""
    from repro.core.reproduce import measure
    from repro.core.spec import MeasurementSpec

    functions = SUITES[args.suite]
    spec = MeasurementSpec(
        function=args.suite, isa=args.isa, scale=_scale_from(args),
        seed=args.seed, db=args.db if args.suite == "hotel" else None,
        sampling=_sampling_from(args), vector=_vector_from(args))
    measurements = measure(
        spec, jobs=args.jobs, cache=_cache_from(args),
        progress=lambda message: print(message, file=sys.stderr),
    )
    table = cold_warm_table(
        "%s suite on %s (cycles)" % (args.suite, args.isa), measurements,
        metric=lambda stats: stats.cycles,
        order=[function.name for function in functions],
        metric_name="cycles",
    )
    print(table.render())
    return 0


def cmd_sizes(args) -> int:
    """Print the container compressed-size table."""
    arches = [args.arch] if args.arch else ["x86", "riscv", "arm"]
    print("%-30s %s" % ("function", "  ".join("%10s" % a for a in arches)))
    for function in all_functions():
        sizes = []
        for arch in arches:
            try:
                sizes.append("%8.2fMB" % function.image(arch).compressed_size_mb)
            except (KeyError, LookupError):
                sizes.append("%10s" % "n/a")
        print("%-30s %s" % (function.name, "  ".join(sizes)))
    return 0


def cmd_dse(args) -> int:
    """Run a design-space sweep over --axis specs."""
    function = get_function(args.function)
    space = DesignSpace(isa=args.isa, scale=_scale_from(args))
    for axis_spec in args.axis:
        name, _sep, values_text = axis_spec.partition("=")
        if not values_text:
            raise SystemExit("--axis needs name=v1,v2,... got %r" % axis_spec)
        values: List = []
        for token in values_text.split(","):
            try:
                values.append(int(token))
            except ValueError:
                values.append(token)
        space.axis(name, values)
    result = space.sweep(function, jobs=args.jobs, cache=_cache_from(args))
    print(result.render())
    print()
    print("sensitivity (max/min cold-cycle swing per axis):")
    for axis, ratio in sorted(result.sensitivity().items(),
                              key=lambda item: -item[1]):
        print("  %-20s %.2fx" % (axis, ratio))
    print("best point: %s" % result.best().settings)
    return 0


def cmd_trace(args) -> int:
    """Capture a traced measurement; print the profile, optionally export.

    The default mode runs the full cold/warm protocol with the tracer
    attached and prints the per-phase profile table; ``--out`` also
    writes the capture as Chrome ``trace_event`` JSON for Perfetto.
    ``--report`` keeps the old behaviour (static instruction-mix report
    plus program validation, no simulation).
    """
    if args.report:
        return _trace_report(args)

    from repro.core.parallel import execute_task
    from repro.core.spec import MeasurementSpec
    from repro.obs import profile_table, write_chrome_trace

    function = _resolve_function(args.function)
    spec = MeasurementSpec(
        function=function.name, isa=args.isa, scale=_scale_from(args),
        seed=args.seed, db=args.db if function.suite == "hotel" else None,
        trace=True, vector=_vector_from(args))
    measurement = execute_task(spec)
    print("%s on simulated %s (traced, %d requests)" % (
        function.name, args.isa, len(measurement.records)))
    print(_format_stats("cold (request 1)", measurement.cold))
    print(_format_stats("warm (request 10)", measurement.warm))
    print()
    print(profile_table(measurement.trace))
    if args.out:
        path = write_chrome_trace(measurement.trace, args.out)
        print()
        print("chrome trace written to %s (open in https://ui.perfetto.dev)"
              % path)
    return 0


def _trace_report(args) -> int:
    """Report mode: instruction-mix report + program validation."""
    from repro.serverless.engine import install_docker
    from repro.serverless.faas import FaasPlatform
    from repro.sim.isa import get_isa
    from repro.sim.isa.report import report
    from repro.sim.isa.validate import validate_assembled

    function = _resolve_function(args.function)
    hotel_suite = _hotel_services(args.db) if function.suite == "hotel" else None
    services = _services_for(function, hotel_suite)
    engine = install_docker(args.isa)
    engine.registry.push(function.image(args.isa))
    platform = FaasPlatform(engine)
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler, services=services)
    record = platform.invoke(function.name, function.default_payload())
    program = function.invocation_program(record, services, _scale_from(args))
    assembled = get_isa(args.isa, vector=_vector_from(args)).assemble(program)
    print(report(assembled).render())
    issues = validate_assembled(assembled)
    if issues:
        print()
        print("validation findings:")
        for issue in issues:
            print("  %s" % issue)
    else:
        print()
        print("validation: clean")
    return 0


def cmd_chaos(args) -> int:
    """Run one measurement under a seeded fault plan; print the damage.

    The stock chaos mix arms every failure mode at ``--rate``; the seed
    makes the whole run deterministic — same seed, same faults, same
    retries, same fallbacks, bit-identical records.
    """
    from repro.core.parallel import execute_task
    from repro.core.spec import MeasurementSpec
    from repro.faults import FaultPlan
    from repro.serverless.metrics import MetricsCollector

    function = _resolve_function(args.function)
    plan = FaultPlan.chaos(seed=args.fault_seed, rate=args.rate,
                           stall_ticks=args.stall_ticks)
    spec = MeasurementSpec(
        function=function.name, isa=args.isa, scale=_scale_from(args),
        seed=args.seed, db=args.db if function.suite == "hotel" else None,
        faults=plan, sampling=_sampling_from(args),
        vector=_vector_from(args))
    measurement = execute_task(spec)
    print("%s on simulated %s under chaos (fault seed %d, rate %g)" % (
        function.name, args.isa, args.fault_seed, args.rate))
    print(_format_stats("cold (request 1)", measurement.cold))
    print(_format_stats("warm (request 10)", measurement.warm))
    errors = sum(1 for record in measurement.records if not record.ok)
    injected = sum(
        amount for record in measurement.records
        for key, amount in record.metrics.items() if key.startswith("faults."))
    print("requests: %d ok, %d failed; %d fault(s) injected" % (
        len(measurement.records) - errors, errors, int(injected)))
    collector = MetricsCollector()
    collector.observe_all(measurement.records)
    print()
    print(collector.render_resilience())
    return 0


def cmd_serve(args) -> int:
    """Serve a trace-driven open-loop workload on an autoscaled pool.

    Unlike ``measure`` (one instance, ten requests, cycle-accurate), this
    drives a seeded arrival trace through the multi-instance router so
    the service-level behaviour shows: queueing, admission control,
    panic-mode scale-ups, cold-start storms, sojourn-time tails.  Fully
    deterministic — two runs with the same seed print identical reports.
    """
    import json

    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.metrics import MetricsCollector
    from repro.serverless.platform import ClusterConfig, make_platform
    from repro.serverless.scaler import ScalingConfig

    function = _resolve_function(args.function)
    if _sampling_from(args) is not None:
        # The serve verb drives the router's service-tick model, not the
        # cycle-accurate pipeline; accept the flag for interface
        # uniformity but say plainly that nothing is sampled.
        print("note: serve runs no detailed simulation; --sampling has "
              "no effect here", file=sys.stderr)
    if _vector_from(args) is not None:
        # Same story for the vector unit: serve never assembles IR.
        print("note: serve runs no detailed simulation; --vector has "
              "no effect here", file=sys.stderr)
    services: Dict[str, Any] = {}
    if function.suite == "hotel":
        if not args.db:
            raise SystemExit(
                "%s needs a database; pass --db (cassandra/mongodb/...)"
                % function.name)
        services = _hotel_services(args.db).services_for(function)
    cluster = None
    if args.nodes:
        cluster = ClusterConfig(nodes=args.nodes, placement=args.placement,
                                node_capacity=args.node_capacity,
                                node_fail_rate=args.node_fail)
    platform = make_platform(args.isa, cluster=cluster, seed=args.seed)
    platform.registry.push(function.image(args.isa))
    scaling = ScalingConfig(
        target_concurrency=args.target_concurrency,
        min_instances=args.min_instances,
        max_instances=args.max_instances,
        queue_capacity=args.queue_capacity,
    )
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler, services=services, scaling=scaling)
    arrivals = arrival_ticks(args.profile, rps=args.rps,
                             requests=args.requests, seed=args.seed)
    result = platform.serve(function.name, arrivals,
                            payload_factory=function.default_payload)

    print("%s on simulated %s: %s arrivals, %g rps, %d requests (seed %d)" % (
        function.name, args.isa, args.profile, args.rps, args.requests,
        args.seed))
    if cluster is not None:
        # Only clustered serves print the platform line: with --nodes
        # unset the output stays byte-identical to the single-host CLI.
        print("platform: %s" % platform.description)
    print(result.summary())
    print()
    print("scaling events:")
    print(result.event_log() or "  (none)")
    collector = MetricsCollector()
    collector.observe_all(result.records)
    print()
    print(collector.render_serving())
    if result.samples:
        from repro.analysis.charts import serving_timeline

        print()
        print(serving_timeline(result.samples))
    if result.node_samples:
        from repro.analysis.charts import cluster_timeline

        print()
        print("per-node instances:")
        print(cluster_timeline(result.node_samples))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        print()
        print("serve artifact written to %s" % args.out)
    return 0


def cmd_lukewarm(args) -> int:
    """Print the cold/warm/lukewarm triple for a function."""
    harness = ExperimentHarness(isa=args.isa, scale=_scale_from(args),
                                seed=args.seed)
    measurement = harness.measure_lukewarm(
        function=get_function(args.function),
        intruder=get_function(args.intruder),
    )
    print("%-12s %10s" % ("state", "cycles"))
    print("%-12s %10d" % ("cold", measurement.cold.cycles))
    print("%-12s %10d" % ("warm", measurement.warm.cycles))
    print("%-12s %10d  (%.1fx warm)" % ("lukewarm", measurement.lukewarm.cycles,
                                        measurement.lukewarm_slowdown))
    return 0


def cmd_pipeline(args) -> int:
    """Measure the chained video-analytics pipeline."""
    from repro.workloads.extras import deploy_video_pipeline

    harness = ExperimentHarness(isa=args.isa, scale=_scale_from(args),
                                seed=args.seed)
    measurement = harness.measure_pipeline(deploy_video_pipeline)
    print("video-analytics pipeline on %s" % args.isa)
    print(_format_stats("cold (chain cold)", measurement.cold))
    print(_format_stats("warm (chain warm)", measurement.warm))
    children = measurement.records[0].children
    print("cold request drove %d downstream invocations (%d cold)" % (
        len(children), sum(1 for child in children if child.cold)))
    return 0


def cmd_reproduce(args) -> int:
    """Regenerate every evaluation figure's data into --out."""
    from repro.core.reproduce import reproduce_all

    reproduce_all(
        scale=_scale_from(args),
        output_dir=args.out,
        db=args.db,
        seed=args.seed,
        progress=lambda message: print(message, file=sys.stderr),
        jobs=args.jobs,
        cache=_cache_from(args),
        sampling=_sampling_from(args),
    )
    print("figure data written to %s" % args.out)
    return 0


def cmd_cache(args) -> int:
    """Inspect or clear the persistent result cache."""
    from repro.core.rescache import ResultCache

    cache = ResultCache()
    if args.action == "clear":
        removed = cache.clear()
        print("removed %d cached measurement(s) from %s" % (removed, cache.root))
        return 0
    stats = cache.stats()
    print("result cache at %s" % stats["root"])
    print("  entries: %d" % stats["entries"])
    print("  size:    %.1f KiB" % (stats["bytes"] / 1024.0))
    return 0


#: Where ``experiment run`` writes (and ``experiment render`` reads)
#: result artifacts unless ``--out`` says otherwise.
DEFAULT_EXPERIMENT_DIR = "benchmarks/output/experiments"


def _experiment_spec_from(args):
    """Resolve the study to run: a catalog name or a ``--spec`` file."""
    from repro.experiments import ExperimentSpec, get_experiment

    if getattr(args, "spec", None):
        from pathlib import Path

        text = Path(args.spec).read_text()
        if args.spec.endswith((".yaml", ".yml")):
            spec = ExperimentSpec.from_yaml(text)
        else:
            import json

            spec = ExperimentSpec.from_dict(json.loads(text))
    elif args.name:
        try:
            spec = get_experiment(args.name)
        except KeyError as error:
            raise SystemExit(str(error.args[0]))
    else:
        raise SystemExit("experiment run needs a catalog name or --spec FILE "
                         "(see `python -m repro experiment list`)")
    if getattr(args, "seed", None) is not None:
        spec = spec.with_base(seed=args.seed)
    return spec


def cmd_experiment_list(_args) -> int:
    """Print the experiment catalog, one line per named study."""
    from repro.experiments import iter_experiments

    print("%-22s %-8s %7s  %s" % ("name", "kind", "points", "title"))
    for spec in iter_experiments():
        print("%-22s %-8s %7d  %s" % (spec.name, spec.kind,
                                      spec.point_count(), spec.title))
    return 0


def cmd_experiment_run(args) -> int:
    """Run a study and write its versioned result artifact."""
    from repro.experiments import run_experiment

    spec = _experiment_spec_from(args)
    print("experiment %s (%s): %d point(s), spec fingerprint %s"
          % (spec.name, spec.kind, spec.point_count(), spec.fingerprint()))
    try:
        result = run_experiment(spec, jobs=args.jobs, cache=_cache_from(args),
                                progress=lambda line: print("  " + line))
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error))
    print()
    print(result.render_markdown())
    json_path, md_path = result.write(args.out)
    print("wrote %s and %s" % (json_path, md_path))
    return 0


def cmd_experiment_render(args) -> int:
    """Re-render a previously written artifact as a markdown table."""
    from pathlib import Path

    from repro.experiments import load_result, render_markdown

    target = Path(args.name)
    if not target.is_file():
        target = Path(args.out) / ("%s.json" % args.name)
    if not target.is_file():
        raise SystemExit(
            "no result artifact for %r (looked for %s); run "
            "`python -m repro experiment run %s` first"
            % (args.name, target, args.name))
    try:
        document = load_result(target)
    except ValueError as error:
        raise SystemExit(str(error))
    print(render_markdown(document))
    return 0


def cmd_bench_smoke(args) -> int:
    """Time the pinned perf-smoke batch; optionally emit JSON."""
    from repro.core.smoke import (
        append_entry,
        phase_gate_skips,
        phase_regressions,
        render_smoke,
        run_smoke,
        wall_regression,
    )

    report = run_smoke(jobs=args.jobs,
                       cache=None if args.use_cache else False,
                       sampling=getattr(args, "sampling", None))
    print(render_smoke(report, as_json=args.json))
    if not args.append:
        return 0
    entry, previous = append_entry(report, path=args.trajectory)
    print("appended entry %s to %s"
          % (entry.get("sha") or "(no sha)", args.trajectory))
    failed = []
    change = wall_regression(previous, entry)
    if change is not None:
        print("wall-clock vs previous entry (%s): %+.1f%%"
              % (previous.get("sha") or "(no sha)", change * 100))
        if args.max_regress is not None and change > args.max_regress:
            failed.append(("wall_s", change))
    for phase in phase_gate_skips(previous, entry):
        print("  %s: new phase, no baseline yet — gated from the next "
              "entry on" % phase)
    try:
        gated = phase_regressions(previous, entry)
    except ValueError as error:
        # Fail closed: an ungateable baseline (zero/missing wall, vanished
        # phase) is a broken trajectory, not a pass.
        print("FAIL: %s" % error)
        return 1
    for phase, phase_change in sorted(gated.items()):
        print("  %s wall-clock: %+.1f%%" % (phase, phase_change * 100))
        if args.max_regress is not None and phase_change > args.max_regress:
            failed.append((phase, phase_change))
    for name, value in failed:
        print("FAIL: %s regression %+.1f%% exceeds %.0f%% threshold"
              % (name, value * 100, args.max_regress * 100))
    return 1 if failed else 0


def cmd_calibrate(args) -> int:
    """Bound sampled-vs-full-detail error over the function catalog."""
    from repro.core.calibration import calibrate
    from repro.sim.sampling import SamplingConfig

    try:
        sampling = SamplingConfig.parse(args.sampling)
    except ValueError as error:
        raise SystemExit(str(error))
    if sampling is None:
        raise SystemExit("calibrate needs a sampling spec "
                         "(e.g. --sampling accurate)")
    report = calibrate(sampling, isa=args.isa, db=args.db)
    print(report.render())
    if args.bound is not None:
        try:
            report.assert_bounded(args.bound)
        except AssertionError as error:
            print("FAIL: %s" % error)
            return 1
        print("OK: worst CPI error %.2f%% within bound %.2f%%"
              % (report.worst_cpi_error * 100, args.bound * 100))
    return 0


def cmd_dbcompare(args) -> int:
    """Fig 4.20: MongoDB vs Cassandra request times under QEMU."""
    from repro.db import CassandraStore, MongoStore
    from repro.emu import make_dev_vm
    from repro.workloads.hotel import HotelSuite

    print("%-16s %12s %12s %12s %12s" % ("function", "cass_cold", "cass_warm",
                                         "mongo_cold", "mongo_warm"))
    rows: Dict[str, Dict[str, tuple]] = {}
    for store_cls in (CassandraStore, MongoStore):
        suite = HotelSuite(store_cls())
        vm = make_dev_vm("x86")
        vm.boot()
        vm.boot_database_container(suite.db)
        for function in suite.functions:
            services = suite.services_for(function)
            cold = vm.time_request(function, services=services, cold=True)
            for sequence in range(2, 10):
                vm.time_request(function, services=services, sequence=sequence)
            warm = vm.time_request(function, services=services, sequence=10)
            rows.setdefault(function.short_name, {})[suite.db.name] = (cold, warm)
    for short, by_db in rows.items():
        print("%-16s %12.0f %12.0f %12.0f %12.0f" % (
            short, *by_db["cassandra"], *by_db["mongodb"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro argument parser (one subcommand per task)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benchmarking support for RISC-V CPUs in serverless computing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark functions").set_defaults(
        func=cmd_list)

    measure = sub.add_parser("measure", help="run the 10-request protocol")
    measure.add_argument("function")
    measure.add_argument("--isa", default="riscv", choices=["riscv", "x86", "arm"])
    measure.add_argument("--db", default="cassandra")
    measure.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(measure)
    _add_sampling_argument(measure)
    _add_vector_argument(measure)
    measure.set_defaults(func=cmd_measure)

    compare = sub.add_parser("compare", help="compare ISAs for one function")
    compare.add_argument("function")
    compare.add_argument("--isas", default="riscv,x86")
    compare.add_argument("--db", default="cassandra")
    compare.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(compare)
    compare.set_defaults(func=cmd_compare)

    suite = sub.add_parser("suite", help="measure a whole suite")
    suite.add_argument("suite", choices=sorted(SUITES))
    suite.add_argument("--isa", default="riscv", choices=["riscv", "x86", "arm"])
    suite.add_argument("--db", default="cassandra")
    suite.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(suite)
    _add_parallel_arguments(suite)
    _add_sampling_argument(suite)
    _add_vector_argument(suite)
    suite.set_defaults(func=cmd_suite)

    sizes = sub.add_parser("sizes", help="container size table")
    sizes.add_argument("--arch", choices=["x86", "riscv", "arm"])
    sizes.set_defaults(func=cmd_sizes)

    dse = sub.add_parser("dse", help="design-space exploration sweep")
    dse.add_argument("function")
    dse.add_argument("--isa", default="riscv", choices=["riscv", "x86", "arm"])
    dse.add_argument("--axis", action="append", required=True,
                     metavar="NAME=V1,V2,...")
    _add_scale_arguments(dse)
    _add_parallel_arguments(dse)
    dse.set_defaults(func=cmd_dse)

    trace = sub.add_parser(
        "trace", help="traced measurement: profile table + Chrome JSON")
    trace.add_argument("function")
    trace.add_argument("--isa", default="riscv", type=_normalize_isa,
                       help="riscv/x86/arm (vendor spellings like riscv64, "
                            "x86_64, aarch64 accepted)")
    trace.add_argument("--db", default="cassandra")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None, metavar="TRACE_JSON",
                       help="write the capture as Chrome trace_event JSON "
                            "(load in https://ui.perfetto.dev)")
    trace.add_argument("--report", action="store_true",
                       help="static instruction-mix report + program "
                            "validation instead of a traced run")
    _add_scale_arguments(trace)
    _add_vector_argument(trace)
    trace.set_defaults(func=cmd_trace)

    chaos = sub.add_parser(
        "chaos", help="measurement under a seeded, deterministic fault plan")
    chaos.add_argument("function")
    chaos.add_argument("--isa", default="riscv", type=_normalize_isa,
                       help="riscv/x86/arm (vendor spellings accepted)")
    chaos.add_argument("--db", default="cassandra")
    chaos.add_argument("--seed", type=int, default=0,
                       help="measurement seed (simulator determinism)")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="fault-plan seed: same seed, same faults")
    chaos.add_argument("--rate", type=float, default=0.1,
                       help="per-site fault probability (default 0.1)")
    chaos.add_argument("--stall-ticks", type=int, default=32,
                       help="cold-start stall / RPC latency-spike magnitude")
    _add_scale_arguments(chaos)
    _add_sampling_argument(chaos)
    _add_vector_argument(chaos)
    chaos.set_defaults(func=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="autoscaled multi-instance serving under open-loop load")
    serve.add_argument("function")
    serve.add_argument("--isa", default="riscv", type=_normalize_isa,
                       help="riscv/x86/arm (vendor spellings accepted)")
    serve.add_argument("--profile", default="poisson",
                       choices=("poisson", "burst", "diurnal"),
                       help="arrival-trace shape (default poisson)")
    serve.add_argument("--rps", type=float, default=100.0,
                       help="mean request rate per 1000 ticks (default 100)")
    serve.add_argument("--requests", type=int, default=200,
                       help="arrivals to generate (default 200)")
    serve.add_argument("--seed", type=int, default=0,
                       help="trace + service-jitter seed: same seed, "
                            "byte-identical run")
    serve.add_argument("--target-concurrency", type=int, default=2,
                       help="requests one instance serves at once (default 2)")
    serve.add_argument("--min-instances", type=int, default=0,
                       help="pool floor; 0 enables scale-to-zero (default 0)")
    serve.add_argument("--max-instances", type=int, default=8,
                       help="pool ceiling (default 8)")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="bounded queue; overflow is rejected (default 64)")
    serve.add_argument("--nodes", type=int, default=0,
                       help="serve on an N-node simulated cluster "
                            "(default 0: the classic single host)")
    serve.add_argument("--placement", default="binpack",
                       choices=("binpack", "spread"),
                       help="cluster scheduler policy (default binpack; "
                            "only with --nodes)")
    serve.add_argument("--node-capacity", type=int, default=None,
                       help="instances one node can host (default "
                            "unbounded; only with --nodes)")
    serve.add_argument("--node-fail", type=float, default=0.0,
                       help="per-evaluation node-failure probability "
                            "(default 0; only with --nodes)")
    serve.add_argument("--db", default=None,
                       help="datastore for hotel-suite functions")
    serve.add_argument("--out", default=None,
                       help="write records/events/samples as JSON")
    _add_sampling_argument(serve)
    _add_vector_argument(serve)
    serve.set_defaults(func=cmd_serve)

    lukewarm = sub.add_parser("lukewarm",
                              help="cold/warm/lukewarm triple for a function")
    lukewarm.add_argument("function")
    lukewarm.add_argument("--intruder", default="fibonacci-python")
    lukewarm.add_argument("--isa", default="riscv",
                          choices=["riscv", "x86", "arm"])
    lukewarm.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(lukewarm)
    lukewarm.set_defaults(func=cmd_lukewarm)

    pipeline = sub.add_parser("pipeline",
                              help="measure the chained video-analytics pipeline")
    pipeline.add_argument("--isa", default="riscv",
                          choices=["riscv", "x86", "arm"])
    pipeline.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(pipeline)
    pipeline.set_defaults(func=cmd_pipeline)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every evaluation figure's data")
    reproduce.add_argument("--out", default="reproduction-output")
    reproduce.add_argument("--db", default="cassandra")
    reproduce.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(reproduce)
    _add_parallel_arguments(reproduce)
    _add_sampling_argument(reproduce)
    reproduce.set_defaults(func=cmd_reproduce)

    calibrate = sub.add_parser(
        "calibrate",
        help="bound sampled-simulation error vs full detail")
    calibrate.add_argument("--isa", default="riscv",
                           choices=["riscv", "x86", "arm"])
    calibrate.add_argument("--db", default="cassandra")
    calibrate.add_argument("--bound", type=float, default=None,
                           help="fail (exit 1) when worst CPI error "
                                "exceeds this fraction (e.g. 0.05)")
    _add_sampling_argument(calibrate)
    calibrate.set_defaults(func=cmd_calibrate)

    dbcompare = sub.add_parser("dbcompare",
                               help="MongoDB vs Cassandra under QEMU (Fig 4.20)")
    dbcompare.set_defaults(func=cmd_dbcompare)

    cache = sub.add_parser("cache", help="persistent result cache maintenance")
    cache.add_argument("action", choices=["stats", "clear"])
    cache.set_defaults(func=cmd_cache)

    experiment = sub.add_parser(
        "experiment",
        help="named studies with a $-cost model (see docs/EXPERIMENT_CATALOG.md)")
    esub = experiment.add_subparsers(dest="action", metavar="action",
                                     required=True)
    elist = esub.add_parser("list", help="list the experiment catalog")
    elist.set_defaults(func=cmd_experiment_list)
    erun = esub.add_parser(
        "run", help="run a study, write <name>.json + <name>.md")
    erun.add_argument("name", nargs="?", default=None,
                      help="catalog entry (see `experiment list`)")
    erun.add_argument("--spec", default=None, metavar="FILE",
                      help="run a spec file instead (JSON always; YAML when "
                           "PyYAML is installed)")
    erun.add_argument("--seed", type=int, default=None,
                      help="override the spec's base seed")
    erun.add_argument("--out", default=DEFAULT_EXPERIMENT_DIR,
                      help="artifact directory (default %s)"
                           % DEFAULT_EXPERIMENT_DIR)
    _add_parallel_arguments(erun)
    erun.set_defaults(func=cmd_experiment_run)
    erender = esub.add_parser(
        "render", help="re-render a written artifact as markdown")
    erender.add_argument("name",
                         help="catalog entry name or a path to a result JSON")
    erender.add_argument("--out", default=DEFAULT_EXPERIMENT_DIR,
                         help="artifact directory to look in (default %s)"
                              % DEFAULT_EXPERIMENT_DIR)
    erender.set_defaults(func=cmd_experiment_render)

    smoke = sub.add_parser("bench-smoke",
                           help="time the pinned perf-smoke batch")
    smoke.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
    smoke.add_argument("--use-cache", action="store_true",
                       help="allow result-cache hits (timing is then not "
                            "a simulator benchmark)")
    smoke.add_argument("--jobs", type=int, default=None,
                       help="measurement workers (default REPRO_JOBS or all cores)")
    smoke.add_argument("--append", action="store_true",
                       help="append this run to the trajectory file")
    smoke.add_argument("--trajectory", default="BENCH_SMOKE.json",
                       help="trajectory file for --append")
    smoke.add_argument("--max-regress", type=float, default=None,
                       help="with --append: fail (exit 1) when wall-clock "
                            "regresses more than this fraction vs the "
                            "previous entry (e.g. 0.25)")
    smoke.add_argument("--sampling", default="accurate", metavar="SPEC",
                       help="config for the sampled phase (default: "
                            "accurate; 'off' skips the phase)")
    smoke.set_defaults(func=cmd_bench_smoke)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The stdout reader went away (`repro ... | head`); exit quietly
        # with the conventional SIGPIPE status instead of a traceback.
        # Point stdout at devnull so interpreter teardown's flush of the
        # dead pipe cannot raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    raise SystemExit(main())
