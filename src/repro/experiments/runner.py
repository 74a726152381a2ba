"""Execute an :class:`~repro.experiments.spec.ExperimentSpec`.

One entry point, :func:`run_experiment`, for both study kinds:

* **measure** — every point lowers to a
  :class:`~repro.core.spec.MeasurementSpec` and the whole matrix is
  scheduled through :func:`repro.core.parallel.run_measurement_matrix`,
  so points fan out over workers and the result cache short-circuits
  anything already measured.  Latency columns come from the protocol's
  proxy distribution — one cold request followed by ``requests - 1``
  warm ones, each projected to native milliseconds on the point's CPU
  share — which is the documented p50/p99 assumption on this path (the
  cycle-accurate protocol measures requests 1 and 10, not a trace).
* **serve** — every point drives a seeded arrival trace through the
  autoscaled router; latency percentiles are *real* sojourn-time tails
  over the admitted requests, and cost is billed on provisioned
  instance uptime (see :meth:`repro.experiments.cost.CostModel.serving_cost`).

Everything is deterministic per seed: same spec + same seed produce a
byte-identical result artifact, warm cache or cold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.parallel import run_measurement_matrix
from repro.experiments.artifact import ExperimentResult
from repro.experiments.cost import SECONDS_PER_TICK, CostModel
from repro.experiments.spec import ExperimentPoint, ExperimentSpec
from repro.sim.statistics import percentile

#: Metric columns every measure-kind row carries (after the axis columns).
MEASURE_COLUMNS = ("cold_ms", "warm_ms", "p50_ms", "p99_ms", "energy_mj",
                   "usd_per_1m")

#: Metric columns every serve-kind row carries (after the axis columns).
SERVE_COLUMNS = ("served", "rejected", "cold_starts", "p50_ms", "p99_ms",
                 "instance_gb_s", "usd_per_1m")

#: Extra serve columns appended when any point runs a multi-node cluster.
CLUSTER_COLUMNS = ("node_failures", "cross_node")


def instance_ticks(result) -> int:
    """∫ instances dt over a serve run's sampled timeline, in ticks.

    ``result.samples`` records ``(tick, queue, in_flight, instances)``
    on every change; each instance count holds until the next sample,
    and the final count holds until ``finished_at``.  This is the
    provisioned-uptime integral the serving cost model bills on.
    """
    samples = result.samples
    if not samples:
        return 0
    total = 0
    for current, following in zip(samples, samples[1:]):
        total += current[3] * max(0, following[0] - current[0])
    last = samples[-1]
    total += last[3] * max(0, result.finished_at - last[0])
    return total


def _measure_rows(points: List[ExperimentPoint], cost_model: CostModel,
                  jobs: Optional[int], cache, progress) -> List[Dict[str, Any]]:
    """Run the matrix through the parallel engine; one row per point."""
    tasks = [point.measurement_spec() for point in points]
    measured = run_measurement_matrix(tasks, jobs=jobs, cache=cache)
    rows = []
    for point, measurement in zip(points, measured):
        knobs = point.knobs
        cold = cost_model.invocation_cost(measurement.cold,
                                          memory_mb=knobs["memory_mb"],
                                          time_scale=knobs["time_scale"])
        warm = cost_model.invocation_cost(measurement.warm,
                                          memory_mb=knobs["memory_mb"],
                                          time_scale=knobs["time_scale"])
        requests = knobs["requests"]
        durations = [cold.duration_s] + [warm.duration_s] * (requests - 1)
        mean_usd = (cold.total_usd
                    + warm.total_usd * (requests - 1)) / requests
        energy_mj = (cost_model.energy_model.estimate(measurement.warm).joules
                     * knobs["time_scale"] * 1e3)
        row: Dict[str, Any] = dict(point.settings)
        row.update({
            "cold_ms": cold.duration_s * 1e3,
            "warm_ms": warm.duration_s * 1e3,
            "p50_ms": percentile(durations, 0.50) * 1e3,
            "p99_ms": percentile(durations, 0.99) * 1e3,
            "energy_mj": energy_mj,
            "usd_per_1m": mean_usd * 1e6,
            "detail": {
                "cold_cycles": measurement.cold.cycles,
                "warm_cycles": measurement.warm.cycles,
                "cold_cost": cold.as_dict(),
                "warm_cost": warm.as_dict(),
            },
        })
        rows.append(row)
        if progress is not None:
            progress("measured %s" % point.label())
    return rows


def _serve_point(point: ExperimentPoint):
    """One deterministic serve run, mirroring ``python -m repro serve``."""
    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.platform import make_platform
    from repro.workloads.catalog import get_function

    knobs = point.knobs
    function = get_function(knobs["function"])
    services: Dict[str, Any] = {}
    db = point.resolved_db()
    if db is not None:
        from repro.db import make_datastore
        from repro.workloads.hotel import HotelSuite

        services = HotelSuite(make_datastore(db)).services_for(function)
    platform = make_platform(knobs["isa"], cluster=point.cluster_config(),
                             seed=knobs["seed"])
    platform.registry.push(function.image(knobs["isa"]))
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler, services=services,
                    scaling=point.scaling_config())
    arrivals = arrival_ticks(knobs["profile"], rps=knobs["rps"],
                             requests=knobs["arrivals"], seed=knobs["seed"])
    return platform.serve(function.name, arrivals,
                          payload_factory=function.default_payload)


def _serve_rows(points: List[ExperimentPoint], cost_model: CostModel,
                progress) -> List[Dict[str, Any]]:
    """Serve every point in declared order; one row per point."""
    rows = []
    for point in points:
        result = _serve_point(point)
        admitted = len(result.admitted)
        ticks = instance_ticks(result)
        row: Dict[str, Any] = dict(point.settings)
        row.update({
            "served": admitted,
            "rejected": result.rejected,
            "cold_starts": result.cold_starts,
            "p50_ms": result.sojourn_percentile(0.50),
            "p99_ms": result.sojourn_percentile(0.99),
            "instance_gb_s": (point.knobs["memory_mb"] / 1024.0)
                             * ticks * SECONDS_PER_TICK,
        })
        if admitted:
            share = cost_model.serving_cost(
                instance_ticks=ticks, admitted=admitted,
                memory_mb=point.knobs["memory_mb"])
            row["usd_per_1m"] = share.total_usd * 1e6
            row["detail"] = {"per_request_cost": share.as_dict()}
        else:
            row["usd_per_1m"] = None
            row["detail"] = {}
        row["detail"].update({
            "instance_ticks": ticks,
            "node_failures": result.node_failures(),
            "cross_node": result.cross_node,
        })
        if point.knobs["nodes"] and point.knobs["nodes"] > 1:
            row["node_failures"] = result.node_failures()
            row["cross_node"] = result.cross_node
        rows.append(row)
        if progress is not None:
            progress("served %s" % point.label())
    return rows


def run_experiment(spec: ExperimentSpec, *, jobs: Optional[int] = None,
                   cache=None, progress=None) -> ExperimentResult:
    """Expand, execute, and price a study; returns the result artifact.

    ``jobs``/``cache`` flow to the parallel measurement engine
    (measure kind only — serve runs are single-process event loops and
    are never cached, matching the ``serve`` CLI verb).  ``progress``
    is an optional callable taking one human-readable line per
    completed point.
    """
    points = spec.expand()
    cost_model = CostModel.from_overrides(spec.cost_overrides)
    axis_columns = [name for name, _ in spec.axes]
    if spec.kind == "measure":
        rows = _measure_rows(points, cost_model, jobs, cache, progress)
        columns = axis_columns + list(MEASURE_COLUMNS)
    else:
        rows = _serve_rows(points, cost_model, progress)
        columns = axis_columns + list(SERVE_COLUMNS)
        if any(point.knobs["nodes"] and point.knobs["nodes"] > 1
               for point in points):
            columns += list(CLUSTER_COLUMNS)
    return ExperimentResult(spec=spec, cost_model=cost_model,
                            columns=columns, rows=rows)
