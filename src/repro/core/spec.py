"""The unified measurement spec: one keyword-only type for every entry point.

Historically the repo grew three divergent measurement signatures
(``measure_functions`` / ``measure_hotel`` / ``measure_standalone_shop``)
plus a separate task type for the parallel engine, each spelling the same
(function, isa, scale, seed, db, requests) tuple slightly differently.
:class:`MeasurementSpec` collapses them: the CLI, the parallel engine,
the design-space explorer and the result-cache keying all consume this
one type, and :func:`repro.core.reproduce.measure` dispatches on it.

Spec identity has one definition, the field list.  Every field carries
one of three key tags in its metadata, and :meth:`MeasurementSpec.digest`
reads them in declaration order: an *identity* field is always in the
result-cache key, an *only-when-set* field (``scaling``, ``sampling``,
``cluster``, ``vector``) only when it is not ``None`` — so a layer added
that way leaves every older digest valid — and a set *cache-bypass*
field (``trace``, ``faults``) makes the digest ``None``, keeping the spec
out of the cache.  A new field joins the key by being declared.  The
class is a frozen slotted dataclass: immutable (use
:func:`dataclasses.replace`), hashable and picklable — specs cross
process boundaries in :func:`repro.core.parallel.run_measurement_matrix`.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.core.config import PlatformConfig, platform_for
from repro.core.scale import BENCH, SimScale
from repro.frozen import converted_fields

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.serverless.platform import ClusterConfig
    from repro.serverless.scaler import ScalingConfig
    from repro.sim.isa.vector import VectorConfig
    from repro.sim.sampling import SamplingConfig

#: The three result-cache key tags (field metadata ``"key"``).
IDENTITY = "identity"
WHEN_SET = "only-when-set"
BYPASS = "cache-bypass"


def _field(tag: str, default: Any = MISSING,
           form: Optional[Callable[["MeasurementSpec"], Tuple]] = None):
    """A spec field tagged for the key; ``form`` gives its key elements
    where the value's :func:`key_form` does not."""
    return field(default=default, metadata={"key": tag, "form": form})


def key_form(value: Any) -> Any:
    """A value's place in a key: its ``fingerprint()`` where its class
    keeps one, a dataclass's field tuple, else the value itself."""
    fingerprint = getattr(value, "fingerprint", None)
    if fingerprint is not None:
        return fingerprint()
    if is_dataclass(value):
        return tuple(getattr(value, item.name) for item in fields(value))
    return value


@dataclass(frozen=True, kw_only=True, slots=True)
class MeasurementSpec:
    """One point of the measurement matrix, keyword-only and immutable.

    ``function``
        Catalog name of the vSwarm function (objects with a ``.name``
        attribute are accepted and reduced to their name, so specs stay
        picklable by construction).
    ``isa``
        Platform ISA (``riscv`` / ``x86`` / ``arm``).
    ``scale``
        The scaled-machine divisors as a
        :class:`~repro.core.scale.SimScale`; defaults to
        :data:`~repro.core.scale.BENCH`.  ``time`` and ``space`` read
        its two divisors.
    ``seed``, ``requests``
        Program seed and the length of the request protocol.
    ``db``
        Datastore name for hotel functions (the worker builds a fresh
        :class:`~repro.workloads.hotel.HotelSuite` around it).  ``None``
        and ``""`` share a key.
    ``platform``
        Optional :class:`~repro.core.config.PlatformConfig` override
        (design-space exploration); ``None`` means the canonical
        platform for ``isa`` and shares its key.
    ``scaling``
        Optional :class:`~repro.serverless.scaler.ScalingConfig` for
        serving experiments (``python -m repro serve``).
    ``sampling``
        Optional :class:`~repro.sim.sampling.SamplingConfig`.  When set,
        detailed (O3) runs use sampled simulation — short detailed
        windows extrapolated over fast-forwarded instructions — trading
        a bounded cycle error for a large speedup; sampled results are
        approximations and never alias full-detail ones.
    ``cluster``
        Optional :class:`~repro.serverless.platform.ClusterConfig` for
        multi-node serving experiments (``python -m repro serve
        --nodes``).
    ``vector``
        Optional :class:`~repro.sim.isa.vector.VectorConfig`.  When set,
        the measurement's ISA instance carries a vector unit and vector
        IR ops lower to stripmined (RVV) or fixed-width (SSE/NEON)
        vector streams; ``None`` lowers them element-by-element to
        scalar instructions.
    ``trace``
        When true, the measurement runs with a
        :class:`~repro.obs.Tracer` attached and the result carries a
        frozen trace capture (``measurement.trace``).  A cached
        measurement has no capture, so traced specs bypass the cache.
    ``faults``
        Optional :class:`~repro.faults.FaultPlan`.  The worker arms a
        fresh injector for the run, so faults and recovery are
        deterministic per (plan, spec).  A chaos measurement is an
        experiment artifact, not a canonical result, so faulted specs
        bypass the cache.
    """

    function: str = _field(IDENTITY)
    isa: str = _field(IDENTITY, "riscv")
    scale: SimScale = _field(
        IDENTITY, BENCH, lambda spec: (int(spec.time), int(spec.space)))
    seed: int = _field(IDENTITY, 0)
    requests: int = _field(IDENTITY, 10)
    db: Optional[str] = _field(IDENTITY, None, lambda spec: (spec.db or "",))
    platform: Optional[PlatformConfig] = _field(
        IDENTITY, None, lambda spec: (
            (spec.platform or platform_for(spec.isa)).fingerprint(),))
    scaling: Optional[ScalingConfig] = _field(WHEN_SET, None)
    sampling: Optional[SamplingConfig] = _field(WHEN_SET, None)
    cluster: Optional[ClusterConfig] = _field(WHEN_SET, None)
    vector: Optional[VectorConfig] = _field(WHEN_SET, None)
    trace: bool = _field(BYPASS, False)
    faults: Optional[FaultPlan] = _field(BYPASS, None)

    def __post_init__(self) -> None:
        name = getattr(self.function, "name", self.function)
        if not isinstance(name, str):
            raise TypeError("function must be a catalog name or carry "
                            ".name, got %r" % (self.function,))
        if self.requests < 1:
            raise ValueError("requests must be >= 1, got %d" % self.requests)
        object.__setattr__(self, "function", name)
        for field_name, value in converted_fields(self):
            object.__setattr__(self, field_name, value)

    @property
    def time(self) -> int:
        return self.scale.time

    @property
    def space(self) -> int:
        return self.scale.space

    def digest(self) -> Optional[str]:
        """Content address of this spec in the result cache.

        SHA-256 of the ``repr`` of ``(CODE_SALT, package version, ...)``
        followed by each field's key elements in declaration order:
        every identity field, and each only-when-set field that is not
        ``None``.  ``None`` when a cache-bypass field is set.
        """
        from repro import __version__
        from repro.core.rescache import CODE_SALT

        key: Tuple = (CODE_SALT, __version__)
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            tag = spec_field.metadata["key"]
            if tag == BYPASS:
                if value != spec_field.default:
                    return None
            elif tag == IDENTITY or value is not None:
                form = spec_field.metadata["form"]
                key += form(self) if form else (key_form(value),)
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return "MeasurementSpec(%s)" % ", ".join(
            "%s=%r" % (spec_field.name, getattr(self, spec_field.name))
            for spec_field in fields(self)
            if getattr(self, spec_field.name) != spec_field.default)
