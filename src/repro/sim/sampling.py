"""Sampled (Atomic↔O3) simulation: SMARTS/SimPoint-style windowing.

Full-detail O3 simulation of every dynamic instruction is the wall-clock
ceiling of the experiment matrix.  Hardware-validated samplers (FireSim's
methodology of checking fast-mode results against detailed RTL, SMARTS'
systematic sampling, SimPoint's phase extrapolation) show that a small
fraction of detailed cycles bounds CPI error to a few percent when the
fast-forwarded majority still maintains microarchitectural state.

A :class:`SamplingConfig` partitions the dynamic instruction stream into
per-interval windows:

* **fast-forward** — instructions are counted but touch no
  microarchitectural state (the speed win),
* **warm-up** — caches, TLBs and the branch predictor update
  functionally (no timing) so the window that follows does not start
  from artificially cold state,
* **detail** — the full O3 pipeline model runs on a fresh mini-pipeline;
  its CPI extrapolates over the interval.

Window placement is deterministic per (config, program seed, run seed):
with ``jitter`` enabled every interval after the first places its window
at an rng-drawn offset, breaking resonance with program periodicity; the
first interval always samples from instruction 0 so short programs are
covered.  ``sampling=None`` everywhere means full detail — the sampled
path is never entered and all digests, stats and event logs stay
byte-identical to pre-sampling behaviour.

Programs shorter than ``min_insts`` run full detail even when sampling
is on (the *exact-short-run floor*): serverless warm requests are a few
thousand instructions with strong one-shot phase structure, where a
single window extrapolates the expensive start-of-run phase over the
whole run and a single divergent DRAM access exceeds the error budget.
Their full-detail cost is tiny, so sampling only the long runs keeps
nearly all the speedup while eliminating the dominant error source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.frozen import converted_fields

#: Replay modes, in cost order.
FAST_FORWARD = 0
WARMUP = 1
DETAIL = 2

#: Calibrated geometries (see the calibration suite): ``accurate`` holds
#: worst-case CPI error ≤5% across the full seed catalog; ``balanced``
#: and ``fast`` trade accuracy on phase-heavy cold runs (worst ~12% /
#: ~17%, mean ~1% / ~4%) for smaller detail fractions.  The workloads
#: have strong one-shot phase structure at the few-hundred-instruction
#: scale, so fine intervals with high coverage beat coarse SMARTS-style
#: geometries here.
_PRESETS = {
    # name: (interval, detail, warmup, jitter, min_insts)
    "fast": (512, 256, 128, True, 4096),
    "balanced": (1024, 640, 128, True, 6144),
    "accurate": (2048, 1984, 64, True, 8192),
}

_NONE_NAMES = ("off", "none", "full", "")


@dataclass(frozen=True, kw_only=True, slots=True)
class SamplingConfig:
    """Window geometry for sampled simulation (instruction counts)."""

    interval: int = 8192
    detail: int = 1024
    warmup: int = 256
    jitter: bool = True
    min_insts: int = 6144

    def __post_init__(self) -> None:
        if self.detail < 1:
            raise ValueError("detail window must be >= 1 instruction")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.interval < self.warmup + self.detail:
            raise ValueError(
                "interval (%d) must cover warmup+detail (%d+%d)"
                % (self.interval, self.warmup, self.detail))
        if self.min_insts < 0:
            raise ValueError("min_insts must be >= 0")
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    def fingerprint(self) -> str:
        """Stable identity string (feeds the result-cache digest)."""
        return "i%d.d%d.w%d.j%d.m%d" % (
            self.interval, self.detail, self.warmup, int(self.jitter),
            self.min_insts)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["SamplingConfig"]:
        """Parse a CLI knob: preset name, ``key=value`` pairs, or off.

        ``off``/``none``/``full`` (and None) mean full detail — the
        caller gets ``None`` and never enters the sampled path.
        """
        if text is None:
            return None
        text = text.strip().lower()
        if text in _NONE_NAMES:
            return None
        if text in _PRESETS:
            interval, detail, warmup, jitter, min_insts = _PRESETS[text]
            return cls(interval=interval, detail=detail, warmup=warmup,
                       jitter=jitter, min_insts=min_insts)
        kwargs = {}
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(
                    "bad sampling spec %r: expected a preset (%s), 'off', "
                    "or key=value pairs" % (text, ", ".join(sorted(_PRESETS))))
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("interval", "detail", "warmup", "jitter",
                           "min_insts"):
                raise ValueError("unknown sampling key %r" % key)
            kwargs[key] = int(value.strip())
        if "jitter" in kwargs:
            kwargs["jitter"] = bool(kwargs["jitter"])
        return cls(**kwargs)

    def placement_rng(self, program_seed: int, run_seed: int) -> random.Random:
        """Deterministic window-placement stream for one run."""
        return random.Random(
            "%s|%d|%d|sampled" % (self.fingerprint(), program_seed, run_seed))

    def segments(self, rng: random.Random) -> Iterator[Tuple[int, int]]:
        """Yield ``(end_instruction_index, mode)`` segments, unbounded.

        Segments are contiguous, non-empty, and cover the instruction
        stream; the consumer stops pulling when the program ends.  The
        first interval's window starts at instruction 0 (warm-up has
        nothing before it to warm) so programs shorter than one interval
        still produce a detail window.
        """
        interval = self.interval
        detail = self.detail
        warmup = self.warmup
        jitter = self.jitter
        slack = interval - warmup - detail
        # Zero-slack configs are *continuous-warming* samplers: every
        # non-detailed instruction functionally warms the memory system
        # and branch predictor, so no window ever observes stale state.
        # That is the accuracy regime (SMARTS' functional warming);
        # configs with slack trade that staleness for fast-forward speed.
        filler = WARMUP if (warmup and not slack) else FAST_FORWARD
        k = 0
        while True:
            start = k * interval
            offset = rng.randrange(slack + 1) if (jitter and k and slack) else 0
            warm_start = start + offset
            detail_start = warm_start + (warmup if k else 0)
            detail_end = detail_start + detail
            if warm_start > start:
                yield (warm_start, FAST_FORWARD)
            if detail_start > warm_start:
                yield (detail_start, WARMUP)
            yield (detail_end, DETAIL)
            if detail_end < start + interval:
                yield (start + interval, filler)
            k += 1
