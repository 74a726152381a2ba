"""Vector-extension model: VLEN/lane configuration and stripmine planning.

The thesis compares *scalar* instruction streams across ISAs; the most
requested serverless scenario it leaves out is ML inference, where the
architecturally interesting axis is the vector unit.  This module models
that axis the same way the rest of the simulator models ISAs: not by
executing vector arithmetic, but by deciding how a vector IR op (a count
of *elements* at an element width) lowers to *instructions*.

A :class:`VectorConfig` attaches to an ISA instance (see
:func:`repro.sim.isa.get_isa`) and carries:

* ``vlen`` — vector register width in bits.  On a scalable-vector ISA
  (RISC-V RVV, ``vector_style == "rvv"``) this is the stripmining width:
  a loop over N elements becomes ``ceil(N / (vlen/8/ewidth))`` vector
  instructions, each preceded by a ``vsetvli`` re-configuration (lowered
  as a CSR instruction).  Fixed-width styles (SSE on x86, NEON on Arm)
  ignore ``vlen`` and always use 128-bit groups with no re-configuration
  instruction — which is exactly why the RVV and SSE streams differ for
  identical IR, mirroring how the thesis's scalar streams differ.
* ``lanes`` — independent vector execution chains the lowering spreads
  strips across (register rotation), which the O3 model exploits as ILP.

``vector=None`` (the default everywhere) means no vector unit: vector IR
ops degrade to their scalar equivalents element by element
(:func:`repro.sim.isa.ir.scalar_equivalent`), byte-identical to a
hand-written scalar program — the anchor the equivalence suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.frozen import converted_fields

#: Named geometries for the CLI knob: VLEN bits and lane count.
_PRESETS = {
    "rvv128": (128, 1),
    "rvv256": (256, 2),
    "rvv512": (512, 4),
}

_NONE_NAMES = ("off", "none", "scalar", "")


@dataclass(frozen=True, kw_only=True, slots=True)
class VectorConfig:
    """Vector unit geometry: register width (bits) and lane count."""

    vlen: int = 256
    lanes: int = 2

    def __post_init__(self) -> None:
        if self.vlen < 64 or self.vlen % 64:
            raise ValueError(
                "vlen must be a positive multiple of 64 bits, got %r"
                % self.vlen)
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1, got %r" % self.lanes)
        for name, value in converted_fields(self):
            object.__setattr__(self, name, value)

    def fingerprint(self) -> str:
        """Stable identity string (feeds the result-cache digest)."""
        return "v%d.l%d" % (self.vlen, self.lanes)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["VectorConfig"]:
        """Parse a CLI knob: preset name, ``key=value`` pairs, or off.

        ``off``/``none``/``scalar`` (and None) mean no vector unit — the
        caller gets ``None`` and vector IR lowers element-by-element to
        scalar instructions.
        """
        if text is None:
            return None
        text = text.strip().lower()
        if text in _NONE_NAMES:
            return None
        if text in _PRESETS:
            vlen, lanes = _PRESETS[text]
            return cls(vlen=vlen, lanes=lanes)
        kwargs = {}
        for part in text.split(","):
            if "=" not in part:
                raise ValueError(
                    "bad vector spec %r: expected a preset (%s), 'off', "
                    "or key=value pairs" % (text, ", ".join(sorted(_PRESETS))))
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("vlen", "lanes"):
                raise ValueError("unknown vector key %r" % key)
            kwargs[key] = int(value.strip())
        return cls(**kwargs)


def elements_per_instr(width_bits: int, ewidth: int) -> int:
    """Elements one vector instruction of ``width_bits`` covers."""
    return max(1, width_bits // (8 * ewidth))


def strip_plan(count: int, width_bits: int, ewidth: int) -> List[int]:
    """Per-strip element counts for stripmining ``count`` elements.

    Every strip but possibly the last covers a full vector register;
    the tail strip carries the remainder (RVV's ``vl`` trimming).  The
    plan always sums to ``count`` — the property the hypothesis suite
    checks against the scalar-equivalent op stream.
    """
    if count <= 0:
        raise ValueError("count must be positive, got %r" % count)
    epi = elements_per_instr(width_bits, ewidth)
    plan = [epi] * (count // epi)
    tail = count % epi
    if tail:
        plan.append(tail)
    return plan
