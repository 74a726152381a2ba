"""RISC-V (RV64GC) instruction-set model.

Fixed-length 4-byte encoding with the C (compressed) extension: a fraction
of instructions encode in 2 bytes, giving the code density observed on
real RV64GC builds.  Lowering is close to one instruction per IR op —
compare-and-branch is a single instruction, loads and stores carry their
own addressing — which is what keeps the RISC-V dynamic instruction counts
low in the thesis's measurements.
"""

from __future__ import annotations

import random

from repro.sim.isa import ir
from repro.sim.isa.base import BLOCK_APP, BLOCK_RTPATH, BLOCK_STACK, ISA


class RiscvISA(ISA):
    """RV64GC model used for the ported vSwarm functions."""

    name = "riscv"

    #: Fraction of instructions that use the compressed (2-byte) encoding,
    #: in line with RV64GC compiler output (~55-60% of static instructions
    #: compress; we use a conservative blend).
    compressed_fraction = 0.45

    #: The RISC-V software stack (Ubuntu Jammy + Go/Python/NodeJS runtimes
    #: as ported in the thesis) is the baseline: multiplier 1.0.
    stack_multiplier = 1.0

    #: ecall + minimal trap entry/exit on the OpenSBI/Linux path.
    syscall_overhead_instrs = 6

    #: RVV: scalable vectors stripmined by the configured VLEN, with a
    #: per-strip ``vsetvli`` re-configuration lowered as a CSR instr.
    vector_style = "rvv"

    expansion = {
        # One instruction per IR op unit nearly everywhere.
        (ir.OP_IALU, BLOCK_APP): 1.0,
        (ir.OP_IALU, BLOCK_STACK): 1.0,
        (ir.OP_LOAD, BLOCK_APP): 1.0,
        (ir.OP_LOAD, BLOCK_STACK): 1.0,
        (ir.OP_STORE, BLOCK_APP): 1.0,
        (ir.OP_STORE, BLOCK_STACK): 1.0,
        # Fused compare-and-branch.
        (ir.OP_BRANCH, BLOCK_APP): 1.0,
        (ir.OP_BRANCH, BLOCK_STACK): 1.0,
        (ir.OP_IMUL, BLOCK_APP): 1.0,
        (ir.OP_IDIV, BLOCK_APP): 1.0,
        (ir.OP_FALU, BLOCK_APP): 1.0,
        (ir.OP_FMUL, BLOCK_APP): 1.0,
        (ir.OP_FDIV, BLOCK_APP): 1.0,
        (ir.OP_IALU, BLOCK_RTPATH): 1.0,
        (ir.OP_LOAD, BLOCK_RTPATH): 1.0,
        (ir.OP_STORE, BLOCK_RTPATH): 1.0,
        (ir.OP_BRANCH, BLOCK_RTPATH): 1.0,
    }

    def instr_size(self, rng: random.Random) -> int:
        return 2 if rng.random() < self.compressed_fraction else 4

    def instr_sizes(self, rng: random.Random, count: int):
        random_ = rng.random
        compressed = self.compressed_fraction
        return bytes([2 if random_() < compressed else 4
                      for _ in range(count)])
