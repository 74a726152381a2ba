"""The named catalog: entries build, are documented, and match the
committed artifacts."""

import json
import os

import pytest

from repro.experiments import (
    CATALOG,
    RESULT_SCHEMA,
    experiment_names,
    get_experiment,
    iter_experiments,
    run_experiment,
)

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
CATALOG_DOC = os.path.join(REPO_ROOT, "docs", "EXPERIMENT_CATALOG.md")
ARTIFACT_DIR = os.path.join(REPO_ROOT, "benchmarks", "output", "experiments")
#: Serve studies never read the result cache, so a rerun serves again.
SERVE_STUDIES = [spec.name for spec in iter_experiments()
                 if spec.kind == "serve"]


class TestCatalogEntries:
    def test_every_entry_builds_and_expands(self):
        specs = iter_experiments()
        assert len(specs) >= 4
        for spec in specs:
            points = spec.expand()
            assert len(points) == spec.point_count() >= 2
            assert spec.name in CATALOG

    def test_both_kinds_present(self):
        kinds = {spec.kind for spec in iter_experiments()}
        assert kinds == {"measure", "serve"}

    def test_unknown_name_is_a_helpful_keyerror(self):
        with pytest.raises(KeyError, match="perf-cost"):
            get_experiment("perf-cots")


class TestCatalogDocumentation:
    """docs/EXPERIMENT_CATALOG.md must cover every named study."""

    def test_every_entry_has_a_doc_section(self):
        with open(CATALOG_DOC, "r", encoding="utf-8") as handle:
            text = handle.read()
        missing = [name for name in experiment_names()
                   if ("### `%s`" % name) not in text]
        assert not missing, ("catalog entries undocumented in "
                             "docs/EXPERIMENT_CATALOG.md: %s" % missing)


class TestCommittedArtifacts:
    """benchmarks/output/experiments/ holds a current artifact per entry."""

    def test_artifacts_exist_and_match_spec_fingerprints(self):
        stale = []
        for spec in iter_experiments():
            path = os.path.join(ARTIFACT_DIR, "%s.json" % spec.name)
            assert os.path.isfile(path), "missing artifact %s" % path
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            assert document["schema"] == RESULT_SCHEMA
            if document["fingerprint"] != spec.fingerprint():
                stale.append(spec.name)
        assert not stale, (
            "catalog spec changed without regenerating artifacts "
            "(python -m repro experiment run <name>): %s" % stale)

    @pytest.mark.parametrize("name", SERVE_STUDIES)
    def test_serve_study_reruns_byte_identical(self, name):
        """Each serve study, served again, renders the committed files."""
        result = run_experiment(get_experiment(name))
        for suffix, text in (("json", result.to_json()),
                             ("md", result.render_markdown())):
            path = os.path.join(ARTIFACT_DIR, "%s.%s" % (name, suffix))
            with open(path, "rb") as handle:
                assert text.encode("utf-8") == handle.read(), (
                    "%s drifted from a fresh run (python -m repro "
                    "experiment run %s --out benchmarks/output/experiments)"
                    % (path, name))
