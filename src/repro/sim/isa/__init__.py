"""Instruction-set models and the workload IR they lower from.

Workloads (vSwarm functions, runtimes, the kernel boot path) are written
against a small intermediate representation (:mod:`repro.sim.isa.ir`):
compute ops, loads/stores over named memory regions, loops, calls, and
syscalls.  A per-ISA assembler (:mod:`repro.sim.isa.riscv`,
:mod:`repro.sim.isa.x86`) lowers the IR into a static instruction layout
with concrete program counters and sizes, an
:class:`~repro.sim.isa.base.AssembledProgram`; the predecode cache
(:mod:`repro.sim.isa.predecode`) then replays the assembled program into
the dynamic instruction stream the CPU timing models consume.

The two ISAs differ where the thesis measured differences: dynamic
instruction counts along the software stack (x86 executed significantly
more instructions, §4.2.3.1), instruction sizes (RISC-V fixed 4-byte with a
compressed subset, x86 variable length), and therefore code footprints.
"""

from repro.sim.isa.base import (
    ISA,
    AssembledProgram,
    InstrClass,
    StaticInstr,
    BLOCK_APP,
    BLOCK_STACK,
)
from repro.sim.isa.ir import (
    AddressSpace,
    Block,
    Call,
    Loop,
    Program,
    RandomPattern,
    Region,
    Routine,
    Seq,
    StridePattern,
)
from repro.sim.isa.arm import ArmISA
from repro.sim.isa.riscv import RiscvISA
from repro.sim.isa.vector import VectorConfig
from repro.sim.isa.x86 import X86ISA

#: Registry of the ISAs the infrastructure was ported to.
ISA_REGISTRY = {
    "riscv": RiscvISA,
    "x86": X86ISA,
    "arm": ArmISA,
}


def get_isa(name: str, vector=None) -> ISA:
    """Instantiate an ISA model by name (``"riscv"`` or ``"x86"``).

    ``vector`` optionally attaches a :class:`VectorConfig` to the
    instance; with the default None the model is scalar-only and vector
    IR ops lower element-by-element to scalar instructions.
    """
    try:
        isa = ISA_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            "unknown ISA %r; supported: %s" % (name, sorted(ISA_REGISTRY))
        ) from None
    if vector is not None:
        isa.vector = vector
    return isa


__all__ = [
    "AddressSpace",
    "ArmISA",
    "AssembledProgram",
    "Block",
    "BLOCK_APP",
    "BLOCK_STACK",
    "Call",
    "ISA",
    "ISA_REGISTRY",
    "InstrClass",
    "Loop",
    "Program",
    "RandomPattern",
    "Region",
    "RiscvISA",
    "Routine",
    "Seq",
    "StaticInstr",
    "StridePattern",
    "VectorConfig",
    "X86ISA",
    "get_isa",
]
