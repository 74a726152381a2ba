"""Capture the output-check references in ``perfbench/refs/``.

Use this only after a deliberate change to what the model computes;
a speed-only change must pass the check against the old references.
Run from the root of a checkout::

    python3 perfbench/capture.py --workload paper-measure

The capture runs in a fresh child process under the same hermetic
environment as a timed run with ``--seed 0``.
``catalog-cold`` has no references here: it is checked against the
committed ``benchmarks/output/experiments/`` artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-measure", "serve-mix"))
    args = parser.parse_args(argv)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    sample = run.run_sample(args.workload, 0, "capture-%s" % args.workload,
                            traced=False, capture=True)
    print("%s: %d steps captured" % (args.workload,
                                     sample["check"]["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
