"""AArch64 instruction-set model.

vSwarm itself ships x86 and Arm support (Table 3.1), and the thesis's
future work calls for "further comparison across various ISAs" — this
model extends the ported infrastructure to the third ISA of interest.

AArch64 sits between the other two models: fixed 4-byte encoding (no
compressed subset, so code is less dense than RV64GC), RISC lowering
close to one instruction per IR op, and a mature software ecosystem whose
distro builds carry a modest path-length overhead relative to the
thesis's lean RISC-V port (Graviton-class Ubuntu images ship with more
enabled machinery) — far below the x86 stack's.
"""

from __future__ import annotations

import random

from repro.sim.isa import ir
from repro.sim.isa.base import BLOCK_APP, BLOCK_RTPATH, BLOCK_STACK, ISA


class ArmISA(ISA):
    """AArch64 model (Ubuntu Jammy arm64 stack)."""

    name = "arm"

    #: Mature ecosystem, fuller distro builds: mildly above the RISC-V
    #: baseline, far below x86's measured excess.
    stack_multiplier = 1.2

    #: svc plus the arm64 Linux entry path.
    syscall_overhead_instrs = 8

    #: NEON fixed 128-bit vectors (no SVE in the modelled stack).
    vector_style = "neon"

    expansion = {
        (ir.OP_IALU, BLOCK_APP): 0.95,   # flexible second operand / fused shifts
        (ir.OP_LOAD, BLOCK_APP): 0.95,   # load-pair on adjacent accesses
        (ir.OP_STORE, BLOCK_APP): 0.95,
        (ir.OP_BRANCH, BLOCK_APP): 1.1,  # cmp+b.cond, partly cbz-fused
        (ir.OP_BRANCH, BLOCK_STACK): 1.1,
        (ir.OP_IALU, BLOCK_STACK): 1.0,
        (ir.OP_LOAD, BLOCK_STACK): 1.0,
        (ir.OP_STORE, BLOCK_STACK): 1.0,
        (ir.OP_IALU, BLOCK_RTPATH): 0.98,
        (ir.OP_LOAD, BLOCK_RTPATH): 0.98,
        (ir.OP_STORE, BLOCK_RTPATH): 1.0,
        (ir.OP_BRANCH, BLOCK_RTPATH): 1.1,
        (ir.OP_IMUL, BLOCK_APP): 0.95,
        (ir.OP_IDIV, BLOCK_APP): 1.0,
        (ir.OP_FALU, BLOCK_APP): 0.95,
        (ir.OP_FMUL, BLOCK_APP): 0.95,
        (ir.OP_FDIV, BLOCK_APP): 1.0,
    }

    def instr_size(self, rng: random.Random) -> int:
        return 4  # fixed-width A64 encoding

    def instr_sizes(self, rng: random.Random, count: int):
        return b"\x04" * count  # instr_size draws nothing from the stream
