"""Parallel measurement engine: fan the experiment matrix over processes.

The evaluation batches (Fig 4.4-4.19) are a (function × ISA × scale ×
seed) matrix of measurements that share no simulator state — each point
boots its own platform, restores its own checkpoint and runs its own
request protocol.  That makes them embarrassingly parallel, the same
observation FireSim-scale studies exploit by running many simulator
instances instead of accelerating one.  This module schedules the matrix
over a :class:`concurrent.futures.ProcessPoolExecutor`:

* every matrix point is a picklable :class:`~repro.core.spec.MeasurementSpec`
  (names and scalars only — workers rebuild functions, suites and
  harnesses themselves, so no live simulator object ever crosses a
  process);
* results come back in deterministic matrix order, bit-identical to the
  serial path (the serial fallback runs the exact same
  :func:`execute_task` per point);
* worker count comes from ``REPRO_JOBS`` (default ``os.cpu_count()``);
  ``REPRO_JOBS=1`` runs serially in-process;
* a :class:`repro.core.rescache.ResultCache` layer short-circuits points
  whose digest has been measured before, so warm re-runs skip simulation
  entirely.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Sequence

from repro.core.harness import ExperimentHarness, FunctionMeasurement
from repro.core.rescache import ResultCache, resolve_cache
from repro.core.spec import MeasurementSpec
from repro.envknobs import env_int


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else all cores.

    A malformed ``REPRO_JOBS`` (e.g. ``REPRO_JOBS=many``) warns and falls
    back to the all-cores default rather than aborting the run.
    """
    if jobs is not None:
        return max(1, int(jobs))
    env = env_int("REPRO_JOBS", 0)
    if env:
        return max(1, env)
    return os.cpu_count() or 1


def execute_task(task: MeasurementSpec) -> FunctionMeasurement:
    """Measure one matrix point from scratch.

    Runs identically in-process and in a pool worker: a fresh harness, a
    fresh suite for database-backed functions, and the process-local boot
    checkpoint cache (boot is deterministic per key, so a worker's cold
    checkpoint equals the serial path's cached one).  Traced specs run
    with a fresh :class:`~repro.obs.Tracer` and return the frozen
    capture on ``measurement.trace`` — captures are plain dicts, so they
    cross the process boundary like any other result.
    """
    if task.db:
        from repro.db import make_datastore
        from repro.workloads.hotel import HotelSuite

        suite = HotelSuite(make_datastore(task.db))
        matches = [fn for fn in suite.functions if fn.name == task.function]
        if not matches:
            raise KeyError("no hotel function %r (have %s)" % (
                task.function, sorted(fn.name for fn in suite.functions)))
        function = matches[0]
        services = suite.services_for(function)
    else:
        from repro.workloads.catalog import get_function

        function = get_function(task.function)
        services = {}
    tracer = None
    if task.trace:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
    injector = task.faults.arm() if task.faults is not None else None
    harness = ExperimentHarness(isa=task.isa, scale=task.scale,
                                platform_config=task.platform, seed=task.seed,
                                tracer=tracer, faults=injector,
                                sampling=task.sampling, vector=task.vector)
    measurement = harness.measure_function(function, services=services,
                                           requests=task.requests)
    if tracer is not None:
        measurement.trace = tracer.freeze()
    return measurement


def _pool_context():
    # fork keeps workers cheap and inherits the warmed import state; fall
    # back to the platform default where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_measurement_matrix(
    tasks: Iterable[MeasurementSpec],
    jobs: Optional[int] = None,
    cache=None,
) -> List[FunctionMeasurement]:
    """Measure every spec, returning results in the specs' order.

    Cache hits are filled in first; only the remaining points are
    simulated, serially for ``jobs <= 1`` and over a process pool
    otherwise.  The output is positionally aligned with ``tasks`` and
    independent of worker count.  A spec whose
    :meth:`~repro.core.spec.MeasurementSpec.digest` is ``None`` (traced
    or faulted) bypasses the cache in both directions.
    """
    tasks = list(tasks)
    resolved_cache: Optional[ResultCache] = resolve_cache(cache)
    results: List[Optional[FunctionMeasurement]] = [None] * len(tasks)
    digests: List[Optional[str]] = [
        task.digest() if resolved_cache is not None else None
        for task in tasks]

    pending: List[int] = []
    for index, digest in enumerate(digests):
        hit = resolved_cache.get(digest) if digest is not None else None
        if hit is None:
            pending.append(index)
        else:
            results[index] = hit

    if pending:
        workers = min(resolve_jobs(jobs), len(pending))
        if workers <= 1:
            fresh: Sequence[FunctionMeasurement] = [
                execute_task(tasks[index]) for index in pending
            ]
        else:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=_pool_context()) as pool:
                fresh = list(pool.map(execute_task,
                                      [tasks[index] for index in pending]))
        for index, measurement in zip(pending, fresh):
            results[index] = measurement
            if digests[index] is not None:
                resolved_cache.put(digests[index], measurement)

    return results  # type: ignore[return-value]
