"""x86-64 instruction-set model.

Variable-length encoding (2–8 bytes after decode-relevant prefixes).  The
lowering reflects two measured properties from the thesis's evaluation:

* Application-level compute can be *denser* than RISC-V thanks to memory
  operands folded into ALU instructions — this is why the warm, handler-
  dominated phase of aes-go / auth-go / auth-python executed *fewer*
  instructions on x86 (Fig 4.16).
* The runtime/library/OS path executes substantially *more* instructions
  than the RISC-V port of the same stack (PLT indirection, heavier
  save/restore conventions, microcoded sequences, and the generally fatter
  distro builds the thesis observed), which dominates cold starts and is
  the main reason the RISC-V simulated platform was faster overall
  (§4.2.3.1, Fig 4.16).
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.sim.isa import ir
from repro.sim.isa.base import BLOCK_APP, BLOCK_RTPATH, BLOCK_STACK, ISA


def _draws_by_top_byte(by_pick: bytes, total: int) -> Tuple[bytes, bytes]:
    """``randrange(total)`` as a function of one 32-bit output's top byte.

    ``randrange(total)`` takes the top ``total.bit_length()`` bits of one
    32-bit Mersenne output and draws again while they reach ``total``.
    Returns the ``bytes.translate`` table that sends a top byte to
    ``by_pick`` at its draw, and the top bytes that are drawn again.
    """
    bits = total.bit_length()
    if bits > 8:
        raise ValueError("randrange(%d) takes %d bits of an output, more "
                         "than its top byte" % (total, bits))
    shift = 8 - bits
    return (bytes(by_pick[top >> shift] for top in range(256)),
            bytes(range(total << shift, 256)))


class X86ISA(ISA):
    """x86-64 model matching the thesis's Ubuntu Jammy x86 stack."""

    name = "x86"

    #: Measured software-stack path-length ratio vs the RISC-V baseline.
    #: Fig 4.16 shows cold-execution instruction counts roughly 1.6-2.2x
    #: the RISC-V counts across the suite.
    stack_multiplier = 1.8

    #: syscall/sysret plus the longer Linux x86 entry trampoline
    #: (swapgs, stack switch, mitigation sequences).
    syscall_overhead_instrs = 14

    #: SSE-like fixed 128-bit vectors: no length configuration, no
    #: stripmining CSRs — the same vector IR lowers to a different
    #: stream than RVV, mirroring the thesis's scalar-stream contrast.
    vector_style = "sse"

    expansion = {
        # Memory-operand folding makes handler compute denser.
        (ir.OP_IALU, BLOCK_APP): 0.82,
        (ir.OP_LOAD, BLOCK_APP): 0.92,
        (ir.OP_STORE, BLOCK_APP): 1.0,
        # cmp/test + jcc pairs (macro-fusion recovers some in hardware, but
        # the *architectural* count the thesis reports includes both).
        (ir.OP_BRANCH, BLOCK_APP): 1.35,
        (ir.OP_BRANCH, BLOCK_STACK): 1.35,
        (ir.OP_IALU, BLOCK_STACK): 1.0,
        (ir.OP_LOAD, BLOCK_STACK): 1.0,
        (ir.OP_STORE, BLOCK_STACK): 1.0,
        # Steady-state request path: near-parity, with a small win from
        # memory-operand folding.
        (ir.OP_IALU, BLOCK_RTPATH): 0.97,
        (ir.OP_LOAD, BLOCK_RTPATH): 0.98,
        (ir.OP_STORE, BLOCK_RTPATH): 1.0,
        (ir.OP_BRANCH, BLOCK_RTPATH): 1.2,
        (ir.OP_IMUL, BLOCK_APP): 0.9,
        (ir.OP_IDIV, BLOCK_APP): 1.0,
        (ir.OP_FALU, BLOCK_APP): 0.95,
        (ir.OP_FMUL, BLOCK_APP): 0.95,
        (ir.OP_FDIV, BLOCK_APP): 1.0,
    }

    #: Instruction-length distribution (bytes -> weight), approximating
    #: x86-64 integer code from compiler output.
    _SIZES = (2, 3, 4, 5, 6, 7, 8)
    _WEIGHTS = (18, 24, 22, 16, 10, 6, 4)
    _total = sum(_WEIGHTS)
    #: The size each ``randrange(_total)`` draw picks, as a
    #: ``bytes.translate`` table: ``_WEIGHTS[i]`` picks in a row map to
    #: ``_SIZES[i]``; the padding past ``_total`` is never indexed.
    _BY_PICK = b"".join(bytes([size]) * weight
                        for size, weight in zip(_SIZES, _WEIGHTS)).ljust(256)
    _BY_TOP_BYTE, _REDRAWN = _draws_by_top_byte(_BY_PICK, _total)

    def instr_size(self, rng: random.Random) -> int:
        return self._BY_PICK[rng.randrange(self._total)]

    def instr_sizes(self, rng: random.Random, count: int):
        # One getrandbits call per round yields the round's 32-bit
        # outputs in draw order; their top bytes map to sizes, and the
        # redrawn ones drop out.  A round draws exactly the sizes still
        # missing, so the rng ends where ``count`` randrange calls leave it.
        getrandbits = rng.getrandbits
        sizes = bytearray()
        missing = count
        while missing:
            tops = getrandbits(32 * missing).to_bytes(4 * missing,
                                                      "little")[3::4]
            sizes += tops.translate(self._BY_TOP_BYTE, self._REDRAWN)
            missing = count - len(sizes)
        return bytes(sizes)
