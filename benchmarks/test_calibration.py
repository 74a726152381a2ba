"""Sampled-simulation calibration over the whole function catalog.

Writes ``calibration.txt``: the ``calibrate`` report (full detail vs
sampled, cold and warm, every catalog function) for the ``fast``,
``balanced`` and ``accurate`` presets.  No other bench output runs the
sampled path, so this file is what shows sampled-timing drift when the
outputs are regenerated and diffed.
"""

from conftest import run_once, write_output

from repro.core.calibration import calibrate
from repro.sim.sampling import SamplingConfig

PRESETS = ("fast", "balanced", "accurate")


def test_calibration_presets(benchmark):
    reports = run_once(benchmark, lambda: [
        calibrate(SamplingConfig.parse(name)) for name in PRESETS])
    write_output("calibration.txt",
                 "\n\n".join(report.render() for report in reports))
    for report in reports:
        assert report.functional_exact
    # The bound the accurate preset is documented to hold.
    reports[-1].assert_bounded(0.05)
