"""Declarative experiment specs: one immutable object names a study.

An :class:`ExperimentSpec` is to a *study* what
:class:`~repro.core.spec.MeasurementSpec` is to a single matrix point: a
picklable value object that states everything the run depends on.  It
holds a **base** scenario (one knob dict, shared by every point — the
same shape as the ``common_scenario`` YAML anchor pattern in
SNIPPETS.md) and an ordered list of **axes**; :meth:`ExperimentSpec.expand`
takes the cartesian product of the axes over the base and yields one
:class:`ExperimentPoint` per combination, in declared order.

Two kinds of study exist:

* ``kind="measure"`` — each point lowers to a
  :class:`~repro.core.spec.MeasurementSpec` and runs the ten-request
  cycle-accurate protocol through the parallel engine and the result
  cache (reruns are warm).
* ``kind="serve"`` — each point drives a seeded arrival trace through
  the autoscaled router (:mod:`repro.serverless`), the service-level
  path (queueing, cold starts, eviction, cluster placement).

Both kinds expose a ``memory_mb`` knob, the serverless *instance size*.
On the measure path it buys microarchitecture: the platform's LLC slice
scales linearly with the memory grant (512 MB ⇔ the canonical 512 KB
L2), the same resource-isolation model Lambda uses for CPU shares.  The
cost model (:mod:`repro.experiments.cost`) completes the story by
scaling CPU time share with the same grant, so the classic perf-cost
memory sweep has a real knee.

A measure point lowers to a :class:`~repro.core.spec.MeasurementSpec`,
whose result-cache key comes from three tags on its fields: *identity*
fields (function, ISA, scale, seed, requests, datastore, platform — the
``memory_mb`` knob arrives as a platform) are always in the key,
*only-when-set* fields (the ``sampling`` and ``vector`` knobs among
them) only when set, and a set *cache-bypass* field keeps a point out
of the cache.  The study spec itself stays a hand-written class, not a
dataclass: its constructor merges defaults and checks every knob's
type and value, so a malformed document fails with a ``ValueError``
that names the key, and its :meth:`~ExperimentSpec.fingerprint` is
embedded in every committed artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PlatformConfig, platform_for
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.serverless.loadgen import ARRIVAL_PROFILES
from repro.serverless.platform import PLACEMENT_POLICIES, ClusterConfig
from repro.serverless.scaler import ScalingConfig
from repro.sim.mem.hierarchy import MemoryHierarchyConfig

#: Version tag embedded in every serialized spec (and, transitively, in
#: every result artifact).  Bump on any incompatible shape change.
SPEC_SCHEMA = "repro.experiments.spec/v1"

#: The two study kinds (see module docstring).
KINDS = ("measure", "serve")

#: ``memory_mb`` grant that maps to the canonical platform (Table 4.1's
#: 512 KB L2).  Other grants scale the LLC slice linearly.
MEMORY_REFERENCE_MB = 512

#: LLC-slice clamp: no grant shrinks the L2 below 64 KB or grows it
#: past 4 MB, keeping every swept platform inside the simulator's
#: validated geometry range.
MIN_L2_BYTES = 64 * 1024
MAX_L2_BYTES = 4 * 1024 * 1024

#: Base-scenario knobs for ``kind="measure"`` studies, with defaults.
#: Any knob may also appear as an axis.
MEASURE_KNOBS: Dict[str, Any] = {
    "function": "fibonacci-python",
    "isa": "riscv",
    "db": None,
    "seed": 0,
    "requests": 10,
    "time_scale": 2048,
    "space_scale": 32,
    "memory_mb": MEMORY_REFERENCE_MB,
    "sampling": None,
    "vector": None,
}

#: Base-scenario knobs for ``kind="serve"`` studies, with defaults.
SERVE_KNOBS: Dict[str, Any] = {
    "function": "fibonacci-python",
    "isa": "riscv",
    "db": None,
    "seed": 0,
    "profile": "poisson",
    "rps": 100.0,
    "arrivals": 200,
    "memory_mb": MEMORY_REFERENCE_MB,
    "target_concurrency": 1,
    "min_instances": 0,
    "max_instances": 8,
    "queue_capacity": 64,
    "scale_to_zero_after": 1200,
    "nodes": 0,
    "placement": "binpack",
    "node_capacity": None,
    "node_fail": 0.0,
}

_KNOBS_BY_KIND = {"measure": MEASURE_KNOBS, "serve": SERVE_KNOBS}

#: Serve knobs that are :class:`ScalingConfig` fields of the same name.
_SCALING_KNOBS = ("target_concurrency", "min_instances", "max_instances",
                 "queue_capacity", "scale_to_zero_after")

_TEXT = (str,)
_OPTIONAL_TEXT = (str, type(None))
_INT = (int,)
_NUMBER = (int, float)

#: The JSON types each knob of either kind accepts; a ``bool`` is never
#: taken for a number.
KNOB_TYPES: Dict[str, Tuple[type, ...]] = {
    "function": _TEXT, "isa": _TEXT, "db": _OPTIONAL_TEXT, "seed": _INT,
    "requests": _INT, "time_scale": _INT, "space_scale": _INT,
    "memory_mb": _INT, "sampling": _OPTIONAL_TEXT, "vector": _OPTIONAL_TEXT,
    "profile": _TEXT, "rps": _NUMBER, "arrivals": _INT,
    "target_concurrency": _INT, "min_instances": _INT, "max_instances": _INT,
    "queue_capacity": _INT, "scale_to_zero_after": _INT, "nodes": _INT,
    "placement": _TEXT, "node_capacity": (int, type(None)),
    "node_fail": _NUMBER,
}


def platform_for_memory(isa: str, memory_mb: int) -> Optional[PlatformConfig]:
    """The platform a ``memory_mb`` instance grant buys on ``isa``.

    Models FaaS resource isolation: the instance's last-level-cache
    slice scales linearly with its memory grant
    (:data:`MEMORY_REFERENCE_MB` ⇔ the canonical 512 KB L2), clamped to
    [:data:`MIN_L2_BYTES`, :data:`MAX_L2_BYTES`].  Returns ``None`` for
    the reference grant so the default memory keeps the canonical
    platform — and therefore byte-identical measurement digests with
    plain ``repro measure`` runs.
    """
    if memory_mb <= 0:
        raise ValueError("memory_mb must be positive, got %r" % (memory_mb,))
    base = platform_for(isa)
    l2_size = int(base.mem_config.l2_size * memory_mb / MEMORY_REFERENCE_MB)
    l2_size = max(MIN_L2_BYTES, min(l2_size, MAX_L2_BYTES))
    if l2_size == base.mem_config.l2_size:
        return None
    mem_kwargs = {key: getattr(base.mem_config, key)
                  for key in MemoryHierarchyConfig().__dict__}
    mem_kwargs["l2_size"] = l2_size
    return PlatformConfig(
        isa=base.isa,
        os_name=base.os_name,
        kernel_version=base.kernel_version,
        compiler=base.compiler,
        num_cores=base.num_cores,
        mem_config=MemoryHierarchyConfig(**mem_kwargs),
        o3_config=base.o3_config,
    )


def _check_type(context: str, value: Any, types: Tuple[type, ...]) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        names = ["null" if kind is type(None) else kind.__name__
                 for kind in types]
        raise ValueError("%s must be a JSON scalar of type %s, got %r"
                         % (context, " or ".join(names), value))


def _check_list(context: str, value: Any) -> None:
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (context, value))


class ExperimentPoint:
    """One cell of an expanded experiment matrix.

    ``settings`` holds just the axis assignment (what varies);
    ``knobs`` is the fully resolved scenario (base merged with
    settings).  Points are produced by :meth:`ExperimentSpec.expand` in
    deterministic declared-axis order.
    """

    __slots__ = ("kind", "settings", "knobs")

    def __init__(self, kind: str, settings: Dict[str, Any],
                 knobs: Dict[str, Any]):
        self.kind = kind
        self.settings = dict(settings)
        self.knobs = dict(knobs)

    def label(self) -> str:
        """Human-readable axis assignment, e.g. ``memory_mb=256 isa=riscv``."""
        if not self.settings:
            return "(single point)"
        return " ".join("%s=%s" % (key, value)
                        for key, value in self.settings.items())

    def resolved_db(self) -> Optional[str]:
        """The datastore this point binds: the ``db`` knob, defaulting to
        cassandra for hotel-suite functions (mirroring
        :func:`repro.core.reproduce.measure`) and ``None`` elsewhere."""
        from repro.workloads.catalog import get_function

        function = get_function(self.knobs["function"])
        if function.suite == "hotel":
            return self.knobs["db"] or "cassandra"
        return None

    def measurement_spec(self) -> MeasurementSpec:
        """Lower a measure-kind point to the core measurement spec.

        The ``memory_mb`` knob becomes a platform override (see
        :func:`platform_for_memory`), which the result cache already
        keys on via the platform fingerprint — so experiment reruns are
        warm and bit-identical per seed.
        """
        if self.kind != "measure":
            raise ValueError("only measure-kind points lower to "
                             "MeasurementSpec (kind=%r)" % self.kind)
        knobs = self.knobs
        sampling = vector = None
        if knobs["sampling"]:
            from repro.sim.sampling import SamplingConfig

            sampling = SamplingConfig.parse(knobs["sampling"])
        if knobs["vector"]:
            from repro.sim.isa.vector import VectorConfig

            vector = VectorConfig.parse(knobs["vector"])
        return MeasurementSpec(
            function=knobs["function"],
            isa=knobs["isa"],
            scale=SimScale(time=knobs["time_scale"],
                           space=knobs["space_scale"]),
            seed=knobs["seed"],
            db=self.resolved_db(),
            requests=knobs["requests"],
            platform=platform_for_memory(knobs["isa"], knobs["memory_mb"]),
            sampling=sampling,
            vector=vector,
        )

    def scaling_config(self) -> ScalingConfig:
        """A serve point's autoscaler knobs (errors name the knob)."""
        return ScalingConfig(**{knob: self.knobs[knob]
                                for knob in _SCALING_KNOBS})

    def cluster_config(self) -> Optional[ClusterConfig]:
        """A serve point's cluster, or ``None`` for ``nodes=0`` (one
        host)."""
        knobs = self.knobs
        if knobs["nodes"] < 0:
            raise ValueError("nodes must be >= 0 (0 serves on one host), "
                             "got %d" % knobs["nodes"])
        if not 0.0 <= knobs["node_fail"] <= 1.0:
            raise ValueError("node_fail must be within [0, 1], got %r"
                             % (knobs["node_fail"],))
        if not knobs["nodes"]:
            return None
        return ClusterConfig(nodes=knobs["nodes"],
                             placement=knobs["placement"],
                             node_capacity=knobs["node_capacity"],
                             node_fail_rate=knobs["node_fail"])

    def __repr__(self) -> str:
        return "ExperimentPoint(%s, %s)" % (self.kind, self.label())


class ExperimentSpec:
    """An immutable, fingerprinted description of one named study.

    Keyword-only.  ``base`` overrides the kind's default scenario
    (:data:`MEASURE_KNOBS` / :data:`SERVE_KNOBS`); ``axes`` is an
    ordered sequence of ``(knob, values)`` pairs whose cartesian product
    defines the matrix; ``cost`` overrides
    :class:`~repro.experiments.cost.CostModel` rates.  Unknown knobs,
    axes or cost keys, values of the wrong JSON type (see
    :data:`KNOB_TYPES`) and values no point could run with are
    errors — a spec either describes a runnable study or refuses to
    construct with a ``ValueError`` that names the key.

    Value semantics: equality and hashing go through
    :meth:`fingerprint`, a digest of the canonical serialized form, so
    two specs that would run the same study compare equal regardless of
    how their dicts were spelled.
    """

    __slots__ = ("name", "title", "kind", "_base", "_axes", "_cost")

    def __init__(self, *, name: str, kind: str, title: str = "",
                 base: Optional[Dict[str, Any]] = None,
                 axes: Optional[Sequence[Tuple[str, Sequence[Any]]]] = None,
                 cost: Optional[Dict[str, float]] = None):
        from repro.experiments.cost import COST_RATE_FIELDS

        if not name or not isinstance(name, str):
            raise ValueError("experiment name must be a non-empty string")
        if any(ch.isspace() for ch in name):
            raise ValueError("experiment name must not contain whitespace: "
                             "%r" % name)
        _check_type("title", title, _TEXT)
        if kind not in KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % ("/".join(KINDS), kind))
        for label, mapping in (("base", base), ("cost", cost)):
            if mapping is not None and not isinstance(mapping, dict):
                raise ValueError("%s must be a mapping, got %r"
                                 % (label, mapping))
        defaults = _KNOBS_BY_KIND[kind]
        merged = dict(defaults)
        for key, value in (base or {}).items():
            if key not in defaults:
                raise ValueError("unknown %s knob %r (known: %s)"
                                 % (kind, key, ", ".join(sorted(defaults))))
            _check_type("base knob %r" % key, value, KNOB_TYPES[key])
            merged[key] = value
        normalized_axes: List[Tuple[str, Tuple[Any, ...]]] = []
        seen = set()
        if axes is not None:
            _check_list("axes", axes)
        for axis in (axes or ()):
            if not isinstance(axis, (list, tuple)) or len(axis) != 2:
                raise ValueError("axes entry %r must be a [knob, values] pair"
                                 % (axis,))
            axis_name, values = axis
            if not isinstance(axis_name, str) or axis_name not in defaults:
                raise ValueError("unknown %s axis %r (known: %s)"
                                 % (kind, axis_name,
                                    ", ".join(sorted(defaults))))
            if axis_name in seen:
                raise ValueError("duplicate axis %r" % axis_name)
            seen.add(axis_name)
            _check_list("axis %r values" % axis_name, values)
            values = tuple(values)
            if not values:
                raise ValueError("axis %r needs at least one value"
                                 % axis_name)
            for value in values:
                _check_type("axis %r value" % axis_name, value,
                            KNOB_TYPES[axis_name])
            normalized_axes.append((axis_name, values))
        cost_overrides = {}
        for key, value in (cost or {}).items():
            if key not in COST_RATE_FIELDS:
                raise ValueError("unknown cost rate %r (known: %s)"
                                 % (key, ", ".join(COST_RATE_FIELDS)))
            _check_type("cost rate %r" % key, value, _NUMBER)
            cost_overrides[key] = float(value)
        self._set("name", name)
        self._set("title", title or name)
        self._set("kind", kind)
        self._set("_base", merged)
        self._set("_axes", tuple(normalized_axes))
        self._set("_cost", cost_overrides)
        self._validate_scenario()

    def _set(self, attribute: str, value: Any) -> None:
        object.__setattr__(self, attribute, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ExperimentSpec is immutable; build a new one")

    def _validate_scenario(self) -> None:
        """Cross-knob checks over every value a knob can take."""
        def candidates(knob: str) -> Tuple[Any, ...]:
            for axis_name, values in self._axes:
                if axis_name == knob:
                    return values
            return (self._base[knob],)

        from repro.db import DATASTORES
        from repro.sim.isa.vector import VectorConfig
        from repro.sim.sampling import SamplingConfig
        from repro.workloads.catalog import get_function

        for function in candidates("function"):
            try:
                get_function(function)
            except KeyError:
                raise ValueError("unknown function %r (see `python -m "
                                 "repro list`)" % function) from None
        for isa in candidates("isa"):
            try:
                platform_for(isa)
            except ValueError as error:
                raise ValueError("isa knob: %s" % error) from None
        for db in candidates("db"):
            if db is not None and db not in DATASTORES:
                raise ValueError("unknown db %r (known: %s)"
                                 % (db, ", ".join(sorted(DATASTORES))))
        for memory_mb in candidates("memory_mb"):
            if memory_mb <= 0:
                raise ValueError("memory_mb must be a positive int, got %r"
                                 % (memory_mb,))
        if self.kind == "measure":
            # What every point needs to lower to a MeasurementSpec.
            for knob in ("requests", "time_scale"):
                for value in candidates(knob):
                    if value < 1:
                        raise ValueError("%s must be >= 1, got %d"
                                         % (knob, value))
            for space_scale in candidates("space_scale"):
                MemoryHierarchyConfig().scaled(space_scale)  # names the knob
            for knob, config in (("sampling", SamplingConfig),
                                 ("vector", VectorConfig)):
                for value in candidates(knob):
                    try:
                        config.parse(value)
                    except ValueError as error:
                        raise ValueError("%s knob %r: %s"
                                         % (knob, value, error)) from None
        if self.kind == "serve":
            for profile in candidates("profile"):
                if profile not in ARRIVAL_PROFILES:
                    raise ValueError("unknown arrival profile %r (known: %s)"
                                     % (profile,
                                        ", ".join(ARRIVAL_PROFILES)))
            for placement in candidates("placement"):
                if placement not in PLACEMENT_POLICIES:
                    raise ValueError("unknown placement %r (known: %s)"
                                     % (placement,
                                        ", ".join(PLACEMENT_POLICIES)))
            # What every point needs to build its arrival trace.
            for arrivals in candidates("arrivals"):
                if arrivals < 1:
                    raise ValueError("arrivals must be >= 1, got %d"
                                     % arrivals)
            for rps in candidates("rps"):
                if not rps > 0:
                    raise ValueError("rps must be > 0, got %r" % (rps,))
            for point in self.expand():
                point.scaling_config()
                point.cluster_config()

    # -- accessors ----------------------------------------------------

    @property
    def base(self) -> Dict[str, Any]:
        """The fully resolved base scenario (a defensive copy)."""
        return dict(self._base)

    @property
    def axes(self) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """The declared axes, in declared order."""
        return self._axes

    @property
    def cost_overrides(self) -> Dict[str, float]:
        """Cost-model rate overrides (a defensive copy)."""
        return dict(self._cost)

    @property
    def seed(self) -> int:
        """The base scenario's seed."""
        return self._base["seed"]

    def point_count(self) -> int:
        """Matrix size: the product of the axis lengths."""
        count = 1
        for _, values in self._axes:
            count *= len(values)
        return count

    # -- serialization ------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form; ``from_dict`` roundtrips it."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "base": dict(self._base),
            "axes": [[name, list(values)] for name, values in self._axes],
            "cost": dict(self._cost),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from plain data (the YAML/JSON wire form).

        ``schema`` is optional on input but must match
        :data:`SPEC_SCHEMA` when present; missing base knobs take the
        kind's defaults; unknown top-level keys are errors.
        """
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a mapping, got %r"
                             % type(data).__name__)
        data = dict(data)
        schema = data.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError("unsupported spec schema %r (expected %r)"
                             % (schema, SPEC_SCHEMA))
        known = {"name", "title", "kind", "base", "axes", "cost"}
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown spec keys: %s"
                             % ", ".join(sorted(unknown)))
        return cls(
            name=data.get("name", ""),
            title=data.get("title", ""),
            kind=data.get("kind", ""),
            base=data.get("base"),
            axes=data.get("axes"),
            cost=data.get("cost"),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentSpec":
        """Parse a YAML document into a spec (shared-scenario style).

        PyYAML is an optional dependency — the CI image installs only
        the test toolchain — so the import is gated and the error says
        what to do.  JSON being a YAML subset, ``from_dict`` +
        ``json.loads`` always works without it.
        """
        try:
            import yaml
        except ImportError:  # pragma: no cover - depends on environment
            raise RuntimeError(
                "PyYAML is not installed; pass a JSON spec (json.loads + "
                "ExperimentSpec.from_dict) or install pyyaml")
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ValueError("malformed YAML spec: %s" % error) from None
        return cls.from_dict(document)

    def fingerprint(self) -> str:
        """Stable content digest of the canonical form (16 hex chars).

        Two specs that describe the same study — same kind, resolved
        base, axes, and cost rates — share a fingerprint, however their
        input dicts were spelled.  The fingerprint is embedded in every
        result artifact, so an artifact names exactly the study that
        produced it.
        """
        blob = json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def with_base(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with base knobs replaced (e.g. a CLI ``--seed``)."""
        merged = dict(self._base)
        merged.update(overrides)
        return ExperimentSpec(name=self.name, title=self.title,
                              kind=self.kind, base=merged,
                              axes=self._axes, cost=self._cost)

    # -- expansion ----------------------------------------------------

    def expand(self) -> List[ExperimentPoint]:
        """The matrix: one point per cartesian-product combination.

        Axes iterate in declared order with the last axis fastest —
        ``axes=[("a", [1, 2]), ("b", [x, y])]`` yields
        ``(1,x), (1,y), (2,x), (2,y)`` — so row order in rendered tables
        matches the declaration.
        """
        names = [name for name, _ in self._axes]
        points = []
        for combo in itertools.product(*[values for _, values in self._axes]):
            settings = dict(zip(names, combo))
            knobs = dict(self._base)
            knobs.update(settings)
            points.append(ExperimentPoint(self.kind, settings, knobs))
        return points

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        return ("ExperimentSpec(name=%r, kind=%r, %d axes, %d points)"
                % (self.name, self.kind, len(self._axes),
                   self.point_count()))
