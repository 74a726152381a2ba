"""Environment-knob hardening: malformed integer knobs must warn and fall
back to their defaults instead of crashing."""

import os

import pytest

from repro.core.parallel import resolve_jobs
from repro.envknobs import env_int


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 42) == 42

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert env_int("REPRO_TEST_KNOB", 42) == 42

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "7")
        assert env_int("REPRO_TEST_KNOB", 42) == 7

    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "many")
        with pytest.warns(UserWarning, match="REPRO_TEST_KNOB"):
            assert env_int("REPRO_TEST_KNOB", 42) == 42


class TestResolveJobsFallback:
    def test_bad_repro_jobs_warns_and_uses_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(UserWarning, match="REPRO_JOBS"):
            assert resolve_jobs() == (os.cpu_count() or 1)

    def test_explicit_argument_bypasses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs(3) == 3

