"""The benchmark's three workloads: set-up, timed steps, checked outputs.

Each workload's :func:`setup` returns a :class:`Plan`: an ordered list
of named steps that the timed body runs back to back (a closed loop in
host time), plus how to turn each step's return value into the object
the output check compares.  Everything goes through the program's
public API; nothing here reaches into ``src/``.

* ``paper-measure`` — the Fig 4.1 cold/warm protocol over 36 points at
  BENCH scale, boot checkpoints taken in set-up, result cache off.
* ``serve-mix`` — five open-loop (in simulated ticks) arrival traces
  served through ``make_platform(...).serve``: three on one
  Cassandra-backed Hotel suite, one bursty trace on a failing 3-node
  cluster, one diurnal trace with scale-to-zero.
* ``catalog-cold`` — the catalog's measure studies ``perf-cost`` and
  ``db-shootout`` through ``run_experiment`` from a fresh process with
  an empty result cache, at their committed scale and seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The seed the workloads give the program.  Inputs are fixed so that
#: the work does not change between runs (arrival traces drawn from
#: different seeds differ by up to 5% in serving work); ``--seed`` sets
#: the string-hash salt, the one input the program does not control.
PROGRAM_SEED = 0

#: Measure-protocol requests per point (1 cold + 8 warming + 1 warm).
PROTOCOL_REQUESTS = 10

#: The two catalog studies ``catalog-cold`` runs, in order.
CATALOG_STUDIES = ("perf-cost", "db-shootout")

HOTEL_DB = "cassandra"


def canonical(obj: Any) -> str:
    """The exact serialisation outputs are compared in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Plan:
    """Set-up output: the timed steps and how to check what they return.

    ``steps`` is a list of ``(name, callable)``; ``requests`` the
    simulated requests all steps together drive to completion; ``observe``
    turns a step's return value into ``(exact text, summary)``, where
    the text is what the check hashes and the summary is a handful of
    headline counters it also compares (and prints on a mismatch).
    """

    def __init__(self, steps: List[Tuple[str, Callable[[], Any]]],
                 requests: int,
                 observe: Callable[[str, Any], Tuple[str, Dict[str, Any]]],
                 reference_source: Optional[Callable[[str], str]] = None):
        self.steps = steps
        self.requests = requests
        self.observe = observe
        #: For ``catalog-cold``: maps a step to the exact text of its
        #: committed artifact; ``None`` means references live in
        #: ``perfbench/refs``.
        self.reference_source = reference_source


# -- paper-measure -------------------------------------------------------

def _stores(services: Dict[str, Any]) -> List[Any]:
    """The services that boot as containers (carry a boot profile)."""
    return [service for service in services.values()
            if hasattr(service, "boot_profile")]


def setup_paper_measure() -> Plan:
    from repro.core import BENCH, ExperimentHarness, MeasurementSpec
    from repro.core import parallel
    from repro.db import make_datastore
    from repro.workloads.catalog import (
        ONLINESHOP_FUNCTIONS,
        STANDALONE_FUNCTIONS,
    )
    from repro.workloads.hotel import HotelSuite

    specs = []
    for isa in ("riscv", "x86"):
        for function in STANDALONE_FUNCTIONS + ONLINESHOP_FUNCTIONS:
            specs.append(MeasurementSpec(function=function.name, isa=isa,
                                         scale=BENCH, seed=PROGRAM_SEED))
    suite = HotelSuite(make_datastore(HOTEL_DB))
    for function in suite.functions:
        specs.append(MeasurementSpec(function=function.name, isa="riscv",
                                     scale=BENCH, seed=PROGRAM_SEED,
                                     db=HOTEL_DB))
    # Take every boot checkpoint the points will restore, so the body
    # measures the protocol and not the boots.
    for isa in ("riscv", "x86"):
        ExperimentHarness(isa=isa, scale=BENCH, seed=PROGRAM_SEED).prepare()
    for function in suite.functions:
        ExperimentHarness(isa="riscv", scale=BENCH, seed=PROGRAM_SEED).prepare(
            service_stores=_stores(suite.services_for(function)))

    def step(spec):
        # Looked up at call time, so a traced run sees the wrapper.
        return lambda: parallel.execute_task(spec)

    steps = [("%s/%s" % (spec.isa, spec.function), step(spec))
             for spec in specs]

    def observe(_name, measurement):
        full = {"cold": measurement.cold.as_dict(full=True),
                "warm": measurement.warm.as_dict(full=True)}
        summary = {"cold": measurement.cold.as_dict(),
                   "warm": measurement.warm.as_dict()}
        return canonical(full), summary

    return Plan(steps, PROTOCOL_REQUESTS * len(steps), observe)


# -- serve-mix -----------------------------------------------------------

#: (function, arrival profile, mean rps, arrivals, scaling, cluster).
#: Scaling and cluster are keyword dicts for ScalingConfig/ClusterConfig.
SERVE_TRACES = (
    ("hotel-reservation-go", "poisson", 300.0, 700,
     {"target_concurrency": 2, "max_instances": 8}, None),
    ("hotel-geo-go", "poisson", 300.0, 700,
     {"target_concurrency": 2, "max_instances": 8}, None),
    ("hotel-profile-go", "poisson", 300.0, 400,
     {"target_concurrency": 2, "max_instances": 8}, None),
    ("fibonacci-python", "burst", 200.0, 500,
     {"target_concurrency": 2, "max_instances": 9},
     {"nodes": 3, "placement": "spread", "node_fail_rate": 0.2}),
    ("fibonacci-go", "diurnal", 60.0, 500,
     {"target_concurrency": 2, "scale_to_zero_after": 120}, None),
)


def setup_serve_mix() -> Plan:
    from repro.db import make_datastore
    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.platform import ClusterConfig, make_platform
    from repro.serverless.scaler import ScalingConfig
    from repro.workloads.catalog import get_function
    from repro.workloads.hotel import HotelSuite

    suite = HotelSuite(make_datastore(HOTEL_DB))
    hotel = {function.name: function for function in suite.functions}

    def step(name, profile, rps, count, scaling, cluster):
        function = hotel.get(name) or get_function(name)
        services = (suite.services_for(function) if name in hotel else {})
        arrivals = arrival_ticks(profile, rps=rps, requests=count,
                                 seed=PROGRAM_SEED)
        config = ScalingConfig(**scaling)
        nodes = ClusterConfig(**cluster) if cluster else None

        def run():
            platform = make_platform("riscv", cluster=nodes,
                                     seed=PROGRAM_SEED)
            platform.registry.push(function.image("riscv"))
            platform.deploy(function.name, function.name,
                            function.runtime_name, function.handler,
                            services=services, scaling=config)
            return platform.serve(function.name, arrivals,
                                  payload_factory=function.default_payload)
        return run

    steps = [("%s/%s" % (profile, name),
              step(name, profile, rps, count, scaling, cluster))
             for name, profile, rps, count, scaling, cluster in SERVE_TRACES]
    requests = sum(trace[3] for trace in SERVE_TRACES)

    def observe(_name, result):
        summary = {
            "records": len(result.records),
            "admitted": len(result.admitted),
            "rejected": result.rejected,
            "errors": result.errors,
            "cold_starts": result.cold_starts,
            "events": len(result.events),
            "node_failures": result.node_failures(),
            "finished_at": result.finished_at,
        }
        return canonical(result.as_dict()), summary

    return Plan(steps, requests, observe)


# -- catalog-cold --------------------------------------------------------

def setup_catalog_cold() -> Plan:
    from repro.experiments import catalog, runner

    def step(name):
        # The studies run at their committed seeds, with the default
        # result cache: REPRO_CACHE_DIR, which the runner starts empty.
        return lambda: runner.run_experiment(catalog.get_experiment(name),
                                             jobs=1)

    steps = [(name, step(name)) for name in CATALOG_STUDIES]
    requests = sum(point.knobs["requests"] for name in CATALOG_STUDIES
                   for point in catalog.get_experiment(name).expand())

    def observe(_name, result):
        text = result.to_json()
        return text, {"bytes": len(text.encode("utf-8")),
                      "rows": len(result.rows)}

    root = os.environ["PERFBENCH_ROOT"]

    def committed(name):
        path = os.path.join(root, "benchmarks", "output", "experiments",
                            "%s.json" % name)
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    return Plan(steps, requests, observe, reference_source=committed)


SETUPS = {
    "paper-measure": setup_paper_measure,
    "serve-mix": setup_serve_mix,
    "catalog-cold": setup_catalog_cold,
}

WORKLOADS = tuple(SETUPS)
