"""Result-cache semantics, CLI maintenance, and the policy-rebuild fix."""

import os
import pickle

import pytest

from repro.cli import main
from repro.core.rescache import (
    ResultCache,
    cache_enabled,
    default_cache_dir,
    measurement_digest,
    resolve_cache,
)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",))
        assert cache.get(digest) is None
        assert cache.put(digest, {"payload": 42})
        assert cache.get(digest) == {"payload": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",))
        cache.put(digest, "value")
        path = tmp_path / ("%s.pkl" % digest)
        # Different corruptions raise different exceptions out of
        # pickle.load (UnpicklingError, ValueError, EOFError); every
        # one of them must read as a miss, never crash.
        for garbage in (b"not a pickle", b"garbage\n", b""):
            path.write_bytes(garbage)
            assert cache.get(digest) is None

    def test_version_skew_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = measurement_digest("aes-go", "riscv", 2048, 32, 0, ("fp",))
        path = tmp_path / ("%s.pkl" % digest)
        with open(path, "wb") as handle:
            pickle.dump({"version": -1, "measurement": "stale"}, handle)
        assert cache.get(digest) is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(measurement_digest("fn%d" % index, "riscv", 1, 1, 0, ()),
                      index)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_unusable_root_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = ResultCache(blocker / "sub")
        digest = measurement_digest("aes-go", "riscv", 2048, 32, 0, ())
        assert cache.get(digest) is None
        assert not cache.put(digest, "value")

    def test_digest_includes_code_salt(self, monkeypatch):
        import repro.core.rescache as rescache

        before = measurement_digest("aes-go", "riscv", 2048, 32, 0, ())
        monkeypatch.setattr(rescache, "CODE_SALT", "rescache-v999")
        after = measurement_digest("aes-go", "riscv", 2048, 32, 0, ())
        assert before != after


class TestEnvironmentKnobs:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_cache_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert not cache_enabled()
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        assert cache_enabled()

    def test_resolve_cache_variants(self, tmp_path):
        assert resolve_cache(False) is None
        explicit = ResultCache(tmp_path)
        assert resolve_cache(explicit) is explicit
        assert isinstance(resolve_cache(True), ResultCache)


class TestCacheCli:
    def test_stats_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache()
        cache.put(measurement_digest("aes-go", "riscv", 2048, 32, 0, ()), 1)

        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        # The command runs no simulation, so it reports no replay tier.
        for word in ("tier", "predecode", "JIT"):
            assert word not in out

        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert cache.stats()["entries"] == 0


class TestPolicyRebuild:
    def test_flush_and_restore_preserve_policy_kwargs(self):
        from repro.sim.mem.cache import Cache

        # A random-policy cache built with a custom seed must rebuild the
        # same policies on flush/load_state, not silently fall back to
        # the per-set default.
        cache = Cache("l1t", size_bytes=4096, assoc=2, line_size=64,
                      policy="random", policy_kwargs={"seed": 1234})
        for line in range(64):
            cache.access_line(line)
        cache.flush()
        rebuilt = cache._policies[0]
        reference = Cache("l1r", size_bytes=4096, assoc=2, line_size=64,
                          policy="random", policy_kwargs={"seed": 1234})
        assert rebuilt._rng.getstate() == reference._policies[0]._rng.getstate()

    def test_state_round_trip_with_kwargs(self):
        from repro.sim.mem.cache import Cache

        cache = Cache("l1t", size_bytes=4096, assoc=2, line_size=64,
                      policy="random", policy_kwargs={"seed": 7})
        for line in range(200):
            cache.access_line(line * 3, write=(line % 5 == 0))
        state = cache.state_dict()

        twin = Cache("l1t", size_bytes=4096, assoc=2, line_size=64,
                     policy="random", policy_kwargs={"seed": 7})
        twin.load_state(state)
        assert twin.state_dict() == state

    def test_make_policy_rejects_unknown_kwargs(self):
        from repro.sim.mem.replacement import make_policy

        with pytest.raises(TypeError):
            make_policy("lru", banana=1)


class TestScoreboardSizing:
    def test_large_register_files_do_not_crash(self):
        # The satellite fix: reg_ready must scale with O3Config, not a
        # hard-coded 160.
        from repro.core.config import platform_for
        from repro.core.harness import ExperimentHarness
        from repro.core.scale import SimScale
        from repro.sim.cpu.o3 import O3Config
        from repro.core.config import PlatformConfig
        from repro.workloads.catalog import get_function

        base = platform_for("riscv")
        platform = PlatformConfig(
            isa="riscv", os_name=base.os_name,
            kernel_version=base.kernel_version, compiler=base.compiler,
            num_cores=base.num_cores, mem_config=base.mem_config,
            o3_config=O3Config(int_regs=1024, float_regs=1024),
        )
        harness = ExperimentHarness(isa="riscv",
                                    scale=SimScale(time=4096, space=32),
                                    platform_config=platform)
        measurement = harness.measure_function(get_function("aes-go"))
        assert measurement.cold.cycles > 0

    def test_tiny_config_keeps_isa_floor(self):
        # Even a config with small rename files must cover the ISA's
        # architectural register indices.
        from repro.sim.isa.base import NUM_ARCH_REGS
        from repro.sim.cpu.o3 import O3Config

        cfg = O3Config(int_regs=16, float_regs=16)
        floor = max(NUM_ARCH_REGS + 32, cfg.int_regs + cfg.float_regs)
        assert floor >= NUM_ARCH_REGS
