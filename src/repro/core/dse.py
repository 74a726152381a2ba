"""Design-space exploration (the thesis's §6 future-work direction).

"Another interesting direction that we plan to follow is to perform a
detailed design space exploration with respect to various
microarchitectural characteristics, such as caches, branch predictors,
and prefetchers, using the gem5 simulator."

:class:`DesignSpace` sweeps named parameter axes over the platform
configuration, runs the full cold/warm protocol per design point, and
collects a :class:`SweepResult` suitable for sensitivity ranking.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import PlatformConfig, platform_for
from repro.core.harness import ExperimentHarness, FunctionMeasurement
from repro.core.scale import BENCH, SimScale
from repro.sim.cpu.o3 import O3Config
from repro.sim.mem.hierarchy import MemoryHierarchyConfig

#: The sweepable knobs: axis name -> (target object, attribute).
KNOWN_AXES = {
    "l1i_size": ("mem", "l1i_size"),
    "l1d_size": ("mem", "l1d_size"),
    "l2_size": ("mem", "l2_size"),
    "l2_assoc": ("mem", "l2_assoc"),
    "replacement": ("mem", "replacement"),
    "prefetch_i_degree": ("mem", "prefetch_i_degree"),
    "prefetch_d_degree": ("mem", "prefetch_d_degree"),
    "prefetch_i_kind": ("mem", "prefetch_i_kind"),
    "prefetch_d_kind": ("mem", "prefetch_d_kind"),
    "l2_latency": ("mem", "l2_latency"),
    "rob_entries": ("o3", "rob_entries"),
    "lq_entries": ("o3", "lq_entries"),
    "sq_entries": ("o3", "sq_entries"),
    "dispatch_width": ("o3", "dispatch_width"),
    "commit_width": ("o3", "commit_width"),
    "mispredict_penalty": ("o3", "mispredict_penalty"),
    "branch_predictor": ("o3", "branch_predictor"),
}


class DesignPoint:
    """One configuration in the sweep plus its measurement."""

    def __init__(self, settings: Dict[str, Any], measurement: FunctionMeasurement):
        self.settings = settings
        self.measurement = measurement

    @property
    def cold_cycles(self) -> int:
        return self.measurement.cold.cycles

    @property
    def warm_cycles(self) -> int:
        return self.measurement.warm.cycles

    def __repr__(self) -> str:
        return "DesignPoint(%s: cold=%d, warm=%d)" % (
            self.settings, self.cold_cycles, self.warm_cycles,
        )


class SweepResult:
    """All design points of one sweep, with analysis helpers."""

    def __init__(self, function_name: str, isa: str, points: List[DesignPoint]):
        self.function_name = function_name
        self.isa = isa
        self.points = points

    def best(self, metric: Callable[[DesignPoint], float] = None) -> DesignPoint:
        metric = metric or (lambda point: point.cold_cycles)
        return min(self.points, key=metric)

    def worst(self, metric: Callable[[DesignPoint], float] = None) -> DesignPoint:
        metric = metric or (lambda point: point.cold_cycles)
        return max(self.points, key=metric)

    def sensitivity(self, metric: Callable[[DesignPoint], float] = None) -> Dict[str, float]:
        """Per-axis sensitivity: max/min metric ratio holding others fixed.

        For each axis, groups points by the values of every *other* axis
        and takes the worst-case spread within a group; the returned ratio
        is how much that knob alone can swing the metric.  1.0 means the
        knob does not matter for this workload.
        """
        metric = metric or (lambda point: point.cold_cycles)
        axes = sorted({axis for point in self.points for axis in point.settings})
        spreads: Dict[str, float] = {}
        for axis in axes:
            worst_ratio = 1.0
            groups: Dict[Tuple, List[float]] = {}
            for point in self.points:
                key = tuple(
                    (other, point.settings[other]) for other in axes if other != axis
                )
                groups.setdefault(key, []).append(metric(point))
            for values in groups.values():
                if len(values) > 1 and min(values) > 0:
                    worst_ratio = max(worst_ratio, max(values) / min(values))
            spreads[axis] = worst_ratio
        return spreads

    def render(self) -> str:
        axes = sorted({axis for point in self.points for axis in point.settings})
        lines = ["DSE sweep: %s on %s" % (self.function_name, self.isa)]
        header = "  ".join("%-18s" % axis for axis in axes) + \
            "  %12s  %12s" % ("cold_cycles", "warm_cycles")
        lines.append(header)
        for point in self.points:
            row = "  ".join("%-18s" % (point.settings[axis],) for axis in axes)
            lines.append("%s  %12d  %12d" % (row, point.cold_cycles,
                                             point.warm_cycles))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.points)


class DesignSpace:
    """A cartesian sweep over microarchitectural axes."""

    def __init__(self, isa: str = "riscv", scale: SimScale = BENCH,
                 base_platform: Optional[PlatformConfig] = None):
        self.isa = isa
        self.scale = scale
        self.base_platform = base_platform or platform_for(isa)
        self._axes: List[Tuple[str, Sequence[Any]]] = []

    def axis(self, name: str, values: Iterable[Any]) -> "DesignSpace":
        """Add a sweep axis; returns self for chaining.

        Each value is checked here, as :class:`O3Config` or
        :class:`MemoryHierarchyConfig` checks it, so a bad one fails
        before any point runs.
        """
        if name not in KNOWN_AXES:
            raise ValueError("unknown axis %r; have %s" % (name, sorted(KNOWN_AXES)))
        values = list(values)
        if not values:
            raise ValueError("axis %r needs at least one value" % name)
        target, attribute = KNOWN_AXES[name]
        config = O3Config if target == "o3" else MemoryHierarchyConfig
        for value in values:
            config(**{attribute: value})
        self._axes.append((name, values))
        return self

    def _platform_for(self, settings: Dict[str, Any]) -> PlatformConfig:
        base_mem = self.base_platform.mem_config
        base_o3 = self.base_platform.o3_config
        mem_kwargs = {
            key: getattr(base_mem, key)
            for key in MemoryHierarchyConfig().__dict__
        }
        o3_kwargs = {
            key: getattr(base_o3, key) for key in O3Config().__dict__
        }
        for axis, value in settings.items():
            target, attribute = KNOWN_AXES[axis]
            if target == "mem":
                mem_kwargs[attribute] = value
            else:
                o3_kwargs[attribute] = value
        return PlatformConfig(
            isa=self.isa,
            os_name=self.base_platform.os_name,
            kernel_version=self.base_platform.kernel_version,
            compiler=self.base_platform.compiler,
            num_cores=self.base_platform.num_cores,
            mem_config=MemoryHierarchyConfig(**mem_kwargs),
            o3_config=O3Config(**o3_kwargs),
        )

    def sweep(self, function, services_factory=None, seed: int = 0,
              jobs: Optional[int] = None, cache=None) -> SweepResult:
        """Measure the function at every point of the cartesian product.

        Points are scheduled through the parallel measurement engine and
        the result cache (each point's platform fingerprint is part of
        its cache key), returned in cartesian-product order regardless
        of worker count.  ``services_factory`` (optional) builds fresh
        bound services per design point for database-backed functions
        and forces the in-process serial path.
        """
        if not self._axes:
            raise ValueError("add at least one axis before sweeping")
        names = [name for name, _values in self._axes]
        combos = [dict(zip(names, combo)) for combo in
                  itertools.product(*(values for _name, values in self._axes))]

        if services_factory is not None:
            points: List[DesignPoint] = []
            for settings in combos:
                harness = ExperimentHarness(
                    isa=self.isa, scale=self.scale,
                    platform_config=self._platform_for(settings), seed=seed)
                measurement = harness.measure_function(
                    function, services=services_factory())
                points.append(DesignPoint(settings, measurement))
            return SweepResult(function.name, self.isa, points)

        from repro.core.parallel import run_measurement_matrix
        from repro.core.spec import MeasurementSpec

        tasks = [
            MeasurementSpec(function=function.name, isa=self.isa,
                            scale=self.scale, seed=seed,
                            platform=self._platform_for(settings))
            for settings in combos
        ]
        measured = run_measurement_matrix(tasks, jobs=jobs, cache=cache)
        points = [DesignPoint(settings, measurement)
                  for settings, measurement in zip(combos, measured)]
        return SweepResult(function.name, self.isa, points)
