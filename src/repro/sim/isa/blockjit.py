"""Counters of the removed hot-block JIT, kept at zero.

Replay used to have a third tier above the predecode cache: a code
generator that compiled hot blocks to Python functions.  Measured in
fresh processes it was a net loss — codegen cost more per process than
compiled replay saved — so it was deleted; :mod:`repro.sim.isa.predecode`
is the fast tier.

This module stays only because the repository benchmark's host tracer
(``perfbench/spantrace.py``) reads ``blockjit.STATS`` in every sample.
It goes when that tracer moves into :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Dict

#: Always zero: nothing is compiled any more.
STATS: Dict[str, float] = {
    "compiled_units": 0,
    "compile_s": 0.0,
    "declined": 0,
    "compiled_calls": 0,
    "interpreted_calls": 0,
}
