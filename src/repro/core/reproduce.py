"""One-call reproduction of the paper's full evaluation.

The benchmark suite (``pytest benchmarks/``) asserts the paper's shapes;
this module provides the same measurement batches as a library — for the
benches, the CLI (``python -m repro reproduce``), and downstream scripts
that want the data without pytest.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.harness import ExperimentHarness, FunctionMeasurement
from repro.core.parallel import run_measurement_matrix
from repro.core.results import cold_warm_table, isa_comparison_table
from repro.core.scale import BENCH, SimScale
from repro.core.spec import MeasurementSpec

#: ``MeasurementSpec.function`` values naming a whole batch instead of a
#: single catalog function.
SUITE_ALIASES = ("standalone", "onlineshop", "standalone+shop", "hotel")


def _expand_spec(spec: MeasurementSpec,
                 functions: Optional[Iterable] = None) -> List[MeasurementSpec]:
    """One spec per matrix point: suite aliases fan out, ``db`` lands on
    hotel functions only (``spec.db`` or cassandra), everything else is
    copied from the prototype spec."""
    from repro.workloads.catalog import (
        HOTEL_FUNCTIONS,
        ONLINESHOP_FUNCTIONS,
        STANDALONE_FUNCTIONS,
    )

    hotel_names = {fn.name for fn in HOTEL_FUNCTIONS}
    if functions is not None:
        names = [getattr(fn, "name", fn) for fn in functions]
    else:
        target = spec.function
        if target == "standalone":
            names = [fn.name for fn in STANDALONE_FUNCTIONS]
        elif target == "onlineshop":
            names = [fn.name for fn in ONLINESHOP_FUNCTIONS]
        elif target == "standalone+shop":
            names = [fn.name for fn in
                     STANDALONE_FUNCTIONS + ONLINESHOP_FUNCTIONS]
        elif target == "hotel":
            names = [fn.name for fn in HOTEL_FUNCTIONS]
        else:
            names = [target]
    specs = []
    for name in names:
        db = (spec.db or "cassandra") if name in hotel_names else None
        specs.append(dataclasses.replace(spec, function=name, db=db))
    return specs


def measure(
    spec: MeasurementSpec,
    *,
    jobs: Optional[int] = None,
    cache=None,
    progress=None,
    functions: Optional[Iterable] = None,
    services_for=None,
) -> Dict[str, FunctionMeasurement]:
    """The one measurement entry point: run the protocol for a spec.

    ``spec.function`` may name a single catalog function or one of
    :data:`SUITE_ALIASES` (``"standalone"``, ``"onlineshop"``,
    ``"standalone+shop"``, ``"hotel"``); either way the result is a dict
    of measurements keyed by function name.  Hotel functions get
    ``spec.db`` (default cassandra) and build their own pristine suite
    per point; other functions never see a database.  Batches are
    scheduled through :mod:`repro.core.parallel` — cache hits skip
    simulation, the rest fans out over ``jobs`` workers in deterministic
    matrix order, and traced specs come back with ``measurement.trace``
    set.

    ``functions`` (an iterable of function objects or names) overrides
    the spec's fan-out.  ``services_for`` (legacy) binds arbitrary live
    service objects and forces the in-process serial path, since live
    services cannot cross a process boundary.
    """
    if services_for is not None:
        if functions is None:
            raise ValueError("services_for needs explicit function objects")
        measurements: Dict[str, FunctionMeasurement] = {}
        for function in functions:
            tracer = None
            if spec.trace:
                from repro.obs.tracer import Tracer

                tracer = Tracer()
            injector = spec.faults.arm() if spec.faults is not None else None
            harness = ExperimentHarness(isa=spec.isa, scale=spec.scale,
                                        platform_config=spec.platform,
                                        seed=spec.seed, tracer=tracer,
                                        faults=injector,
                                        sampling=spec.sampling,
                                        vector=getattr(spec, "vector", None))
            measurement = harness.measure_function(
                function, services=services_for(function),
                requests=spec.requests)
            if tracer is not None:
                measurement.trace = tracer.freeze()
            measurements[function.name] = measurement
            if progress is not None:
                progress("measured %s on %s" % (function.name, spec.isa))
        return measurements

    specs = _expand_spec(spec, functions)
    measured = run_measurement_matrix(specs, jobs=jobs, cache=cache)
    measurements = {}
    for point, measurement in zip(specs, measured):
        measurements[point.function] = measurement
        if progress is not None:
            progress("measured %s on %s" % (point.function, point.isa))
    return measurements


def _removed(old: str, example: str) -> "RuntimeError":
    return RuntimeError(
        "%s() was removed: build a MeasurementSpec and call measure() "
        "instead, e.g. measure(MeasurementSpec(%s)) — see "
        "docs/METHODOLOGY.md" % (old, example))


def measure_functions(*_args, **_kwargs):
    """Removed (was a PR-2 deprecation shim): use
    :class:`~repro.core.spec.MeasurementSpec` + :func:`measure`."""
    raise _removed("measure_functions",
                   'function="fibonacci-python", isa="riscv"')


def measure_standalone_shop(*_args, **_kwargs):
    """Removed (was a PR-2 deprecation shim): use
    :class:`~repro.core.spec.MeasurementSpec` + :func:`measure` with the
    ``standalone+shop`` suite alias."""
    raise _removed("measure_standalone_shop",
                   'function="standalone+shop", isa="riscv"')


def measure_hotel(*_args, **_kwargs):
    """Removed (was a PR-2 deprecation shim): use
    :class:`~repro.core.spec.MeasurementSpec` + :func:`measure` with the
    ``hotel`` suite alias."""
    raise _removed("measure_hotel",
                   'function="hotel", isa="riscv", db="cassandra"')


def qemu_database_comparison(progress=None) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Fig 4.20's data: request ns under QEMU/x86 per database."""
    from repro.db import CassandraStore, MongoStore
    from repro.emu import make_dev_vm
    from repro.workloads.hotel import HotelSuite

    results: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for store_cls in (MongoStore, CassandraStore):
        suite = HotelSuite(store_cls())
        vm = make_dev_vm("x86")
        vm.boot()
        vm.boot_database_container(suite.db)
        for function in suite.functions:
            services = suite.services_for(function)
            cold = vm.time_request(function, services=services, cold=True,
                                   sequence=1)
            for sequence in range(2, 10):
                vm.time_request(function, services=services, sequence=sequence)
            warm = vm.time_request(function, services=services, sequence=10)
            results[(suite.db.name, function.short_name)] = (cold, warm)
        if progress is not None:
            progress("timed hotel suite on %s" % suite.db.name)
    return results


#: The evaluation's figure inventory: id -> (title, metric attribute).
CYCLE_FIGURES = {
    "fig4_04": ("Fig 4.4: cycles, standalone + online shop (RISC-V)", "cycles"),
    "fig4_12": ("Fig 4.12: cycles, standalone + online shop (x86)", "cycles"),
}
COMPARISON_FIGURES = {
    "fig4_15": ("Fig 4.15: cycles, RISC-V vs x86", "cycles"),
    "fig4_16": ("Fig 4.16: instructions, RISC-V vs x86", "instructions"),
    "fig4_17": ("Fig 4.17: L1I misses, RISC-V vs x86", "l1i_misses"),
    "fig4_18": ("Fig 4.18: L2 misses, RISC-V vs x86", "l2_misses"),
}


def reproduce_all(
    scale: SimScale = BENCH,
    output_dir: Optional[str] = None,
    db: str = "cassandra",
    seed: int = 0,
    progress=None,
    jobs: Optional[int] = None,
    cache=None,
    sampling=None,
) -> Dict[str, Any]:
    """Regenerate every evaluation figure's data; optionally write files.

    Returns the raw measurement batches keyed by batch name; when
    ``output_dir`` is given, also renders the figure tables+charts there
    (the same artifacts the bench suite produces).  ``sampling`` — an
    optional :class:`~repro.sim.sampling.SamplingConfig` — runs every
    detailed measurement sampled, trading bounded CPI error for speed;
    the result cache keys sampled batches separately.
    """
    from repro.workloads.catalog import (
        HOTEL_FUNCTIONS,
        ONLINESHOP_FUNCTIONS,
        STANDALONE_FUNCTIONS,
    )

    order = [fn.name for fn in STANDALONE_FUNCTIONS + ONLINESHOP_FUNCTIONS]
    hotel_order = [fn.name for fn in HOTEL_FUNCTIONS]

    def batch(function: str, isa: str, batch_db: Optional[str] = None):
        spec = MeasurementSpec(function=function, isa=isa, scale=scale,
                               seed=seed, db=batch_db, sampling=sampling)
        return measure(spec, jobs=jobs, cache=cache, progress=progress)

    batches: Dict[str, Any] = {
        "riscv_standalone_shop": batch("standalone+shop", "riscv"),
        "x86_standalone_shop": batch("standalone+shop", "x86"),
        "riscv_hotel": batch("hotel", "riscv", db),
        "x86_hotel": batch("hotel", "x86", db),
        "qemu_db_comparison": qemu_database_comparison(progress),
    }

    if output_dir is not None:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)

        def emit(name: str, table) -> None:
            (target / ("%s.txt" % name)).write_text(
                table.render() + "\n\n" + table.render_chart() + "\n")

        emit("fig4_04", cold_warm_table(
            CYCLE_FIGURES["fig4_04"][0], batches["riscv_standalone_shop"],
            metric=lambda stats: stats.cycles, order=order,
            metric_name="cycles"))
        emit("fig4_05", cold_warm_table(
            "Fig 4.5: cycles, hotel application (RISC-V)",
            batches["riscv_hotel"], metric=lambda stats: stats.cycles,
            order=hotel_order, metric_name="cycles"))
        emit("fig4_12", cold_warm_table(
            CYCLE_FIGURES["fig4_12"][0], batches["x86_standalone_shop"],
            metric=lambda stats: stats.cycles, order=order,
            metric_name="cycles"))
        emit("fig4_14", cold_warm_table(
            "Fig 4.14: cycles, hotel application (x86)", batches["x86_hotel"],
            metric=lambda stats: stats.cycles, order=hotel_order,
            metric_name="cycles"))
        for figure_id, (title, metric_name) in COMPARISON_FIGURES.items():
            emit(figure_id, isa_comparison_table(
                title, batches["riscv_standalone_shop"],
                batches["x86_standalone_shop"],
                metric=lambda stats, m=metric_name: getattr(stats, m),
                order=order, metric_name=metric_name))
        emit("fig4_19", isa_comparison_table(
            "Fig 4.19: cycles, hotel application, RISC-V vs x86",
            batches["riscv_hotel"], batches["x86_hotel"],
            metric=lambda stats: stats.cycles, order=hotel_order,
            metric_name="cycles"))
    return batches
