"""The serve-smoke and cluster-smoke commands, against committed stdout.

CI runs both commands under two hash salts and diffs each run against
the golden file here; this test runs them in-process against the same
files.  After a deliberate change to serving output, regenerate with::

    PYTHONPATH=src python -m repro <argv below> \\
        > tests/serverless/goldens/<golden>
"""

import os

import pytest

from repro.cli import main

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

#: Golden file -> the argv of the CI job that diffs against it.
SMOKES = {
    "serve_smoke.txt": ["serve", "fibonacci", "--profile", "burst",
                        "--rps", "150", "--requests", "120", "--seed", "0"],
    "cluster_smoke.txt": ["serve", "fibonacci", "--profile", "burst",
                          "--rps", "80", "--requests", "150", "--seed", "0",
                          "--nodes", "3", "--placement", "spread",
                          "--node-fail", "0.1"],
}


@pytest.mark.parametrize("golden", sorted(SMOKES))
def test_smoke_output_matches_its_golden(golden, capsys):
    assert main(SMOKES[golden]) == 0
    with open(os.path.join(GOLDENS, golden), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
