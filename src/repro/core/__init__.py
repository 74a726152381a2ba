"""The benchmarking harness — the thesis's contribution, reproduced.

This package is the vSwarm-u analog: it wires the serverless substrate,
the workload suite and the microarchitectural simulator into the
experiment protocol of §4.1.2 / Fig 4.1:

1. **image preparation** (:mod:`repro.emu` builds the disk image under
   QEMU),
2. **setup mode** — boot the simulated system with the Atomic core, start
   the container engine, pin the server, take a checkpoint,
3. **evaluation mode** — restore the checkpoint with the O3 core, reset
   stats, measure request 1 (cold), functionally warm requests 2–9, reset
   stats, measure request 10 (warm).

Entry points: build a :class:`~repro.core.spec.MeasurementSpec` and
call :func:`~repro.core.reproduce.measure` (single functions and suite
aliases alike, parallel + cached); :class:`~repro.core.harness.ExperimentHarness`
is the underlying single-measurement driver and
:mod:`repro.core.config` holds the Table 4.1–4.3 platform
configurations.
"""

from repro.core.config import (
    ARM_PLATFORM,
    PlatformConfig,
    RISCV_PLATFORM,
    X86_PLATFORM,
    platform_for,
)
from repro.core.dse import DesignSpace
from repro.core.duplex import DuplexHarness
from repro.core.harness import (
    ExperimentHarness,
    FunctionMeasurement,
    LukewarmMeasurement,
)
from repro.core.parallel import (
    execute_task,
    resolve_jobs,
    run_measurement_matrix,
)
from repro.core.persist import load_measurements, save_measurements
from repro.core.reproduce import measure
from repro.core.rescache import ResultCache
from repro.core.results import MeasurementTable
from repro.core.scale import BENCH, NATIVE, SimScale, TEST
from repro.core.spec import MeasurementSpec
# The cluster config rides on MeasurementSpec (spec.cluster) the way
# ScalingConfig does, so the measurement package re-exports it.
from repro.serverless.platform import ClusterConfig

__all__ = [
    "BENCH",
    "ClusterConfig",
    "ExperimentHarness",
    "FunctionMeasurement",
    "MeasurementSpec",
    "MeasurementTable",
    "measure",
    "NATIVE",
    "PlatformConfig",
    "RISCV_PLATFORM",
    "ResultCache",
    "SimScale",
    "TEST",
    "X86_PLATFORM",
    "execute_task",
    "platform_for",
    "resolve_jobs",
    "run_measurement_matrix",
]
