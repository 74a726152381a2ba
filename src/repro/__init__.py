"""repro: benchmarking support for RISC-V CPUs in serverless computing.

A complete, self-contained reproduction of the thesis's infrastructure:
the vSwarm workload suite, the serverless platform substrate, the
datastores, the gem5-analog microarchitectural simulator, the QEMU-analog
emulator, and the vSwarm-u experiment harness.

Typical entry points::

    from repro import ExperimentHarness, SimScale, get_function

    harness = ExperimentHarness(isa="riscv", scale=SimScale(time=512, space=16))
    measurement = harness.measure_function(get_function("fibonacci-go"))

See README.md for the tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.core import (
    BENCH,
    ExperimentHarness,
    FunctionMeasurement,
    NATIVE,
    PlatformConfig,
    SimScale,
    TEST,
    platform_for,
)
from repro.workloads import all_functions, get_function

__version__ = "1.0.0"

__all__ = [
    "BENCH",
    "ExperimentHarness",
    "FunctionMeasurement",
    "NATIVE",
    "PlatformConfig",
    "SimScale",
    "TEST",
    "all_functions",
    "get_function",
    "platform_for",
    "__version__",
]
