"""Layer spans for the traced run: wrappers, self times, Chrome trace.

:func:`install` wraps the public entry point of every layer (the table
in ``perfbench/README.md``) so each call records a span — name, layer,
parent, raw start and end — in memory.  Nothing is wrapped in an
untraced run.  Per-instruction and per-access functions are left alone,
so memory-model time stays inside the ``o3``/``warm``/``boot`` spans.

A span's self time is its corrected duration minus its direct
children's; a layer's self time is the sum over its spans.  The
``setup`` and ``body`` root spans have no layer, and the body root's
self time is the part of the body no layer covered, so the body's layer
self times plus ``trace.uncovered_s`` add up to ``trace.body_s``.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter

#: Span fields: name, layer (None for a root), parent index (-1 for a
#: root), raw start, raw end, value (instructions, hit flag, samples).
NAME, LAYER, PARENT, START, END, VALUE = range(6)

DB_READS = ("get", "scan", "query", "count")
DB_WRITES = ("put", "delete")


class Recorder:
    """Open/close spans on a stack; spans stay in memory until the end."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []

    def open(self, name: str, layer: Optional[str]) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, _now(), 0.0, None])
        self.stack.append(index)
        return index

    def close(self, index: int, value: Any = None) -> None:
        span = self.spans[index]
        span[END] = _now()
        span[VALUE] = value
        if self.stack.pop() != index:
            raise RuntimeError("span %r closed out of order" % span[NAME])

    def parent_layer(self) -> Optional[str]:
        return self.spans[self.stack[-1]][LAYER] if self.stack else None


def _wrap(owner, attr: str, recorder: Recorder, name: str, layer: str,
          value: Optional[Callable[[tuple, Any], Any]] = None) -> None:
    original = vars(owner)[attr]

    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            recorder.close(index, value(args, result) if value else None)

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)


def _wrap_run(system_cls, recorder: Recorder) -> None:
    """``SimulatedSystem.run``: O3 runs are layer ``o3``, the rest boot."""
    original = system_cls.run
    signature = inspect.signature(original)

    def run(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        model = bound.arguments.get("model")
        if model is None:
            model = bound.arguments["self"].active_model(
                bound.arguments["core_id"])
        layer = "o3" if model == "o3" else "boot"
        index = recorder.open(layer, layer)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            recorder.close(index, result.instructions if result else None)

    run.__wrapped__ = original
    system_cls.run = run


def _wrap_store(cls, attr: str, recorder: Recorder) -> None:
    """A datastore operation; ``scan`` also times each ``next()``.

    ``scan`` is a generator, so calling it does no work: the rows are
    read as the caller iterates.  Each ``next()`` is therefore its own
    ``db.scan.next`` span, a child of whatever the caller is in.
    """
    original = vars(cls)[attr]
    name = "db." + attr

    def operation(*args, **kwargs):
        outer = recorder.parent_layer() != "db"
        index = recorder.open(name, "db")
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index, outer)

    def scan(*args, **kwargs):
        outer = recorder.parent_layer() != "db"
        index = recorder.open(name, "db")
        try:
            rows = iter(original(*args, **kwargs))
        finally:
            recorder.close(index, outer)
        return _timed_rows(rows)

    def _timed_rows(rows):
        while True:
            index = recorder.open("db.scan.next", "db")
            try:
                row = next(rows)
            except StopIteration:
                recorder.close(index)
                return
            except BaseException:
                recorder.close(index)
                raise
            recorder.close(index)
            yield row

    wrapper = scan if attr == "scan" else operation
    wrapper.__wrapped__ = original
    setattr(cls, attr, wrapper)


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary so its calls record spans in ``recorder``."""
    from repro.core import harness, parallel
    from repro.core.rescache import ResultCache
    from repro.db.engine import Datastore
    from repro.experiments import runner
    from repro.serverless.engine import ContainerEngine
    from repro.serverless.faas import FaasPlatform
    from repro.serverless.router import Router
    from repro.serverless.rpc import RpcChannel
    from repro.serverless.scaler import ConcurrencyAutoscaler
    from repro.sim.isa.base import ISA
    from repro.sim.system import SimulatedSystem
    from repro.workloads.function import VSwarmFunction
    import repro.db  # noqa: F401 - imports every store class

    _wrap_run(SimulatedSystem, recorder)
    _wrap(SimulatedSystem, "warm", recorder, "warm", "warm",
          value=lambda _args, insts: insts)
    _wrap(harness.ExperimentHarness, "prepare", recorder, "boot.prepare",
          "boot")
    _wrap(SimulatedSystem, "assemble", recorder, "isa.system_assemble", "isa")
    _wrap(ISA, "assemble", recorder, "isa.assemble", "isa")
    _wrap(harness, "take_checkpoint", recorder, "checkpoint.take",
          "checkpoint")
    _wrap(harness, "restore_checkpoint", recorder, "checkpoint.restore",
          "checkpoint")
    _wrap(VSwarmFunction, "invocation_program", recorder,
          "workloads.program", "workloads")
    _wrap(FaasPlatform, "invoke", recorder, "faas.invoke", "faas")
    for cls in _subclasses(Datastore):
        for attr in DB_READS + DB_WRITES:
            if attr in vars(cls):
                _wrap_store(cls, attr, recorder)
    _wrap(ResultCache, "get", recorder, "rescache.get", "rescache",
          value=lambda _args, hit: hit is not None)
    _wrap(ResultCache, "put", recorder, "rescache.put", "rescache")
    _wrap(ConcurrencyAutoscaler, "desired", recorder, "scaler.desired",
          "scaler", value=lambda args, _result: len(args[0].samples))
    _wrap(ConcurrencyAutoscaler, "observe", recorder, "scaler.observe",
          "scaler")
    _wrap(Router, "serve", recorder, "router.serve", "router")
    _wrap(RpcChannel, "call", recorder, "rpc.call", "rpc")
    for attr in ("create", "start", "stop", "remove"):
        _wrap(ContainerEngine, attr, recorder, "engine." + attr, "engine")
    _wrap(runner, "run_experiment", recorder, "experiments.run", "experiments")
    _wrap(parallel, "execute_task", recorder, "point.execute", "point")


def jit_counters() -> Dict[str, float]:
    """The predecode and block-JIT counters, read from the program."""
    from repro.sim.isa import blockjit, predecode

    counters = {"predecode." + key: value
                for key, value in predecode.STATS.items()}
    counters.update(("jit." + key, value)
                    for key, value in blockjit.STATS.items())
    return counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class SpanTimes:
    """Corrected durations and self times for every recorded span."""

    def __init__(self, spans: List[list], correct: Callable[[float], float]):
        self.spans = spans
        count = len(spans)
        self.duration = [correct(span[END]) - correct(span[START])
                         for span in spans]
        child = [0.0] * count
        self.top = list(range(count))
        for index, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child[parent] += self.duration[index]
                self.top[index] = self.top[parent]
        self.self_time = [self.duration[i] - child[i] for i in range(count)]
        self.children_names: List[set] = [set() for _ in range(count)]
        for span in spans:
            if span[PARENT] >= 0:
                self.children_names[span[PARENT]].add(span[NAME])

    def under(self, root: int) -> List[int]:
        return [i for i in range(len(self.spans))
                if self.top[i] == root and i != root]


def layer_metrics(recorder: Recorder, correct: Callable[[float], float],
                  setup_root: int, body_root: int,
                  jit_before: Dict[str, float],
                  jit_after: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of the traced body (and its set-up)."""
    times = SpanTimes(recorder.spans, correct)
    spans = recorder.spans
    body = times.under(body_root)

    def self_of(indices, layer=None, name=None):
        return sum(times.self_time[i] for i in indices
                   if (layer is None or spans[i][LAYER] == layer)
                   and (name is None or spans[i][NAME] == name))

    def named(indices, name):
        return [i for i in indices if spans[i][NAME] == name]

    def insts(indices, name):
        return sum(spans[i][VALUE] or 0 for i in named(indices, name))

    metrics: Dict[str, float] = {}
    for layer in ("o3", "warm", "boot"):
        seconds = self_of(body, layer=layer)
        count = insts(body, layer)
        metrics[layer + ".self_s"] = seconds
        metrics[layer + ".insts"] = count
        metrics[layer + ".ns_per_inst"] = _ratio(seconds * 1e9, count)
    prepares = named(body, "boot.prepare")
    metrics["boot.prepares"] = len(prepares)
    metrics["boot.reuse_ratio"] = _ratio(
        sum(1 for i in prepares if "boot" not in times.children_names[i]),
        len(prepares))
    setup = times.under(setup_root)
    metrics["setup.boot_s"] = self_of(setup, layer="boot")
    metrics["setup.checkpoint_s"] = self_of(setup, layer="checkpoint")

    system_assembles = named(body, "isa.system_assemble")
    metrics["isa.assemble_s"] = self_of(body, layer="isa")
    metrics["isa.assembles"] = len(named(body, "isa.assemble"))
    metrics["isa.shared_hit_ratio"] = _ratio(
        sum(1 for i in system_assembles
            if "isa.assemble" not in times.children_names[i]),
        len(system_assembles))

    delta = {key: jit_after[key] - jit_before.get(key, 0)
             for key in jit_after}
    calls = delta["jit.compiled_calls"] + delta["jit.interpreted_calls"]
    metrics["predecode.decoded_blocks"] = delta["predecode.decoded_blocks"]
    metrics["jit.compile_s"] = delta["jit.compile_s"]
    metrics["jit.compiled_units"] = delta["jit.compiled_units"]
    metrics["jit.declined"] = delta["jit.declined"]
    metrics["jit.compiled_share"] = _ratio(delta["jit.compiled_calls"], calls)

    metrics["checkpoint.take_s"] = self_of(body, name="checkpoint.take")
    metrics["checkpoint.restore_s"] = self_of(body, name="checkpoint.restore")
    metrics["checkpoint.restores"] = len(named(body, "checkpoint.restore"))

    metrics["workloads.program_s"] = self_of(body, layer="workloads")
    metrics["workloads.programs"] = len(named(body, "workloads.program"))
    metrics["faas.invoke_s"] = self_of(body, layer="faas")
    metrics["faas.invokes"] = len(named(body, "faas.invoke"))

    outer_db = [i for i in body if spans[i][LAYER] == "db" and spans[i][VALUE]]
    metrics["db.read_ops"] = sum(1 for i in outer_db
                                 if spans[i][NAME][3:] in DB_READS)
    metrics["db.write_ops"] = sum(1 for i in outer_db
                                  if spans[i][NAME][3:] in DB_WRITES)
    metrics["db.self_s"] = self_of(body, layer="db")

    gets = named(body, "rescache.get")
    metrics["rescache.gets"] = len(gets)
    metrics["rescache.hit_ratio"] = _ratio(
        sum(1 for i in gets if spans[i][VALUE]), len(gets))
    metrics["rescache.puts"] = len(named(body, "rescache.put"))
    metrics["rescache.self_s"] = self_of(body, layer="rescache")

    evals = named(body, "scaler.desired")
    metrics["scaler.evals"] = len(evals)
    metrics["scaler.desired_s"] = self_of(body, name="scaler.desired")
    metrics["scaler.observe_s"] = self_of(body, name="scaler.observe")
    metrics["scaler.samples_per_eval"] = _ratio(
        sum(spans[i][VALUE] for i in evals), len(evals))

    metrics["router.self_s"] = self_of(body, layer="router")
    metrics["rpc.calls"] = len(named(body, "rpc.call"))
    metrics["rpc.self_s"] = self_of(body, layer="rpc")
    metrics["engine.ops"] = sum(1 for i in body
                                if spans[i][LAYER] == "engine")
    metrics["engine.self_s"] = self_of(body, layer="engine")
    metrics["experiments.self_s"] = self_of(body, layer="experiments")
    metrics["point.self_s"] = self_of(body, layer="point")

    metrics["trace.body_s"] = times.duration[body_root]
    metrics["trace.uncovered_s"] = times.self_time[body_root]
    metrics["trace.spans"] = len(spans)
    return metrics


def layer_split(recorder: Recorder, correct: Callable[[float], float],
                body_root: int) -> Dict[str, float]:
    """Body self time per layer and ``uncovered``, summing to the body."""
    times = SpanTimes(recorder.spans, correct)
    split: Dict[str, float] = {"uncovered": times.self_time[body_root]}
    for i in times.under(body_root):
        layer = recorder.spans[i][LAYER]
        split[layer] = split.get(layer, 0.0) + times.self_time[i]
    return split


def write_chrome_trace(path: str, recorder: Recorder,
                       correct: Callable[[float], float]) -> None:
    """Write the spans as Chrome ``trace_event`` JSON (raw time line)."""
    spans = recorder.spans
    origin = spans[0][START] if spans else 0.0
    events = []
    for index, (name, layer, parent, start, end, _value) in enumerate(spans):
        events.append({
            "name": name, "cat": layer or "phase", "ph": "X",
            "pid": 1, "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"span": index, "parent": parent,
                     "corrected_us": round((correct(end) - correct(start))
                                           * 1e6, 3)},
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
