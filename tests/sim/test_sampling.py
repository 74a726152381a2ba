"""Sampled-simulation unit tests: config parsing, window schedules, the
bit-identity anchors, and result-cache/spec identity threading."""

import pickle
import random
from dataclasses import replace

import pytest

from repro.sim.sampling import (
    DETAIL,
    FAST_FORWARD,
    WARMUP,
    SamplingConfig,
)
from repro.sim.system import SimulatedSystem
from tests.sim.test_predecode import build_program


class TestConfig:
    def test_defaults_and_fingerprint(self):
        config = SamplingConfig()
        assert config.fingerprint() == "i8192.d1024.w256.j1.m6144"

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(detail=0)
        with pytest.raises(ValueError):
            SamplingConfig(warmup=-1)
        with pytest.raises(ValueError):
            SamplingConfig(interval=512, detail=512, warmup=64)
        with pytest.raises(ValueError):
            SamplingConfig(min_insts=-1)

    def test_parse_presets_and_off(self):
        assert SamplingConfig.parse(None) is None
        for name in ("off", "none", "full", ""):
            assert SamplingConfig.parse(name) is None
        for name in ("fast", "balanced", "accurate"):
            assert isinstance(SamplingConfig.parse(name), SamplingConfig)

    def test_parse_key_value(self):
        config = SamplingConfig.parse(
            "interval=4096,detail=512,warmup=128,jitter=0,min_insts=0")
        assert (config.interval, config.detail, config.warmup,
                config.jitter, config.min_insts) == (4096, 512, 128, False, 0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SamplingConfig.parse("turbo")
        with pytest.raises(ValueError):
            SamplingConfig.parse("interval=1,banana=2")

    def test_equality_and_hash(self):
        assert SamplingConfig() == SamplingConfig()
        assert SamplingConfig() != SamplingConfig(detail=512)
        assert hash(SamplingConfig()) == hash(SamplingConfig())

    def test_placement_deterministic(self):
        config = SamplingConfig()
        draws_a = config.placement_rng(3, 7).random()
        draws_b = config.placement_rng(3, 7).random()
        assert draws_a == draws_b
        assert config.placement_rng(3, 8).random() != draws_a


class TestSegments:
    def pull(self, config, rng, until):
        segments = []
        iterator = config.segments(rng)
        while not segments or segments[-1][0] < until:
            segments.append(next(iterator))
        return segments

    def test_first_window_starts_at_zero(self):
        config = SamplingConfig(interval=1024, detail=256, warmup=128)
        first = next(config.segments(random.Random(0)))
        assert first == (256, DETAIL)

    def test_segments_are_contiguous_and_sorted(self):
        config = SamplingConfig(interval=1024, detail=256, warmup=128)
        segments = self.pull(config, random.Random(1), 16 * 1024)
        ends = [end for end, _ in segments]
        assert ends == sorted(ends)
        assert len(set(ends)) == len(ends)

    def test_zero_slack_has_no_fast_forward(self):
        """Zero-slack configs warm continuously (the accuracy regime)."""
        config = SamplingConfig(interval=2048, detail=1984, warmup=64)
        segments = self.pull(config, random.Random(2), 32 * 1024)
        assert all(mode != FAST_FORWARD for _, mode in segments)
        assert any(mode == WARMUP for _, mode in segments)

    def test_slack_produces_fast_forward(self):
        config = SamplingConfig(interval=8192, detail=1024, warmup=256)
        segments = self.pull(config, random.Random(3), 64 * 1024)
        assert any(mode == FAST_FORWARD for _, mode in segments)


class TestAnchors:
    def run_pair(self, config, trips=600, seed=2):
        program = build_program(seed=seed, trips=trips)
        full = SimulatedSystem("s", "riscv").run(
            1, program, model="o3", seed=seed)
        sampled = SimulatedSystem("s", "riscv").run(
            1, program, model="o3", seed=seed, sampling=config)
        return full, sampled

    def test_all_covering_window_bit_identical(self):
        config = SamplingConfig(interval=1 << 24, detail=1 << 24, warmup=0,
                                jitter=False, min_insts=0)
        full, sampled = self.run_pair(config)
        assert (sampled.cycles, sampled.instructions, sampled.loads,
                sampled.stores, sampled.branches) == (
            full.cycles, full.instructions, full.loads, full.stores,
            full.branches)

    def test_short_run_floor_is_exact(self):
        config = SamplingConfig(interval=512, detail=128, warmup=64,
                                min_insts=1 << 30)
        full, sampled = self.run_pair(config)
        assert (sampled.cycles, sampled.instructions) == (
            full.cycles, full.instructions)

    def test_sampled_run_is_functionally_exact(self):
        config = SamplingConfig(interval=2048, detail=512, warmup=256,
                                min_insts=0)
        full, sampled = self.run_pair(config, trips=2000)
        assert sampled.instructions == full.instructions
        assert sampled.loads == full.loads
        assert sampled.stores == full.stores
        assert sampled.branches == full.branches
        assert sampled.cycles != 0

    def test_sampled_timing_is_deterministic(self):
        config = SamplingConfig(interval=2048, detail=512, warmup=256,
                                min_insts=0)
        _, first = self.run_pair(config, trips=2000)
        _, again = self.run_pair(config, trips=2000)
        assert first.cycles == again.cycles


class TestIdentity:
    def test_digest_unchanged_when_sampling_none(self):
        """Digests minted before sampling existed must stay valid."""
        from repro.core.spec import MeasurementSpec
        from tests.core.test_spec_identity import PINNED_DIGESTS

        explicit = MeasurementSpec(function="fibonacci-go", sampling=None)
        assert explicit.digest() == PINNED_DIGESTS["default"]

    def test_digest_changes_with_sampling(self):
        from repro.core.spec import MeasurementSpec

        plain = MeasurementSpec(function="aes-go", isa="riscv")
        sampled = replace(plain, sampling=SamplingConfig())
        assert plain.digest() != sampled.digest()

    def test_spec_identity_tracks_sampling(self):
        from repro.core.spec import MeasurementSpec

        plain = MeasurementSpec(function="aes-go", isa="riscv")
        sampled = replace(plain, sampling=SamplingConfig())
        assert plain != sampled
        assert replace(sampled, sampling=None) == plain
        assert hash(replace(sampled, sampling=None)) == hash(plain)

    def test_spec_pickle_round_trip(self):
        from repro.core.spec import MeasurementSpec

        spec = MeasurementSpec(function="aes-go", isa="riscv",
                               sampling=SamplingConfig())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.sampling == spec.sampling
