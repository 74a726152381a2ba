"""ISA model base: instruction classes, static instructions, assembler.

Assembly lowers an IR :class:`~repro.sim.isa.ir.Program` into an
:class:`AssembledProgram`: every block becomes segments of
:class:`StaticInstr` lists and :class:`UnrolledRun` records with
concrete program counters, byte sizes, and register operands wired into
dependence chains.  The per-ISA subclasses only provide the lowering
tables (expansion factors, instruction sizes, stack-path multipliers);
the structural work is shared here.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.sim.isa import ir

# ---------------------------------------------------------------------------
# Instruction classes (small ints for speed in the timing models)
# ---------------------------------------------------------------------------


class InstrClass:
    """Integer instruction-class codes shared by all ISAs."""

    IALU = 0
    IMUL = 1
    IDIV = 2
    FALU = 3
    FMUL = 4
    FDIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    CALL = 9
    RET = 10
    SYSCALL = 11
    CSR = 12
    NOP = 13

    NAMES = [
        "ialu", "imul", "idiv", "falu", "fmul", "fdiv",
        "load", "store", "branch", "call", "ret", "syscall", "csr", "nop",
    ]

    @classmethod
    def name(cls, code: int) -> str:
        return cls.NAMES[code]


#: Block kinds (mirrored from the IR for import convenience).
#: app    — code the developer wrote (compiled handler logic);
#: stack  — runtime/library/OS paths where the thesis measured the x86
#:          software stack executing far more instructions than RISC-V;
#: rtpath — the steady-state per-request path (gRPC server loop, kernel
#:          net stack) whose dynamic length is close across ISAs: the
#:          measured x86 excess concentrates on init/library paths.
BLOCK_APP = "app"
BLOCK_STACK = "stack"
BLOCK_RTPATH = "rtpath"

_COMPUTE_CLASS = {
    ir.OP_IALU: InstrClass.IALU,
    ir.OP_IMUL: InstrClass.IMUL,
    ir.OP_IDIV: InstrClass.IDIV,
    ir.OP_FALU: InstrClass.FALU,
    ir.OP_FMUL: InstrClass.FMUL,
    ir.OP_FDIV: InstrClass.FDIV,
}

#: Register file layout used when wiring dependence chains.  Register 0 is
#: the always-ready zero/constant register; integer chain registers start at
#: 1; floating-point chains live in a disjoint range.
ZERO_REG = 0
INT_CHAIN_BASE = 1
FP_CHAIN_BASE = 64
ADDR_REG = 32  # holds base addresses; written rarely, read by memory ops
NUM_ARCH_REGS = 128


class StaticInstr:
    """One assembled instruction at a fixed program counter.

    ``repeat`` folds tight inner-loop work: replay re-issues the
    instruction ``repeat`` times dynamically (fresh addresses each time)
    without advancing the PC, modelling a hardware-visible micro-loop while
    keeping the instruction footprint honest.
    """

    __slots__ = (
        "pc", "size", "icls", "srcs", "dst", "repeat",
        "region", "pattern", "taken_probability", "is_mem", "target_pc",
        "rotate",
    )

    def __init__(
        self,
        pc: int,
        size: int,
        icls: int,
        srcs: Tuple[int, ...],
        dst: int,
        repeat: int = 1,
        region: Optional[ir.Region] = None,
        pattern: Optional[ir.AddressPattern] = None,
        taken_probability: float = 1.0,
        target_pc: int = 0,
        rotate: Tuple[int, ...] = (),
    ):
        self.pc = pc
        self.size = size
        self.icls = icls
        self.srcs = srcs
        self.dst = dst
        self.repeat = repeat
        self.region = region
        self.pattern = pattern
        self.taken_probability = taken_probability
        self.is_mem = icls in (InstrClass.LOAD, InstrClass.STORE)
        self.target_pc = target_pc
        # For repeated (micro-looped) instructions: the chain registers the
        # dynamic instances cycle through.  This models the register renaming
        # that lets unrolled iterations of independent chains overlap; the O3
        # model resolves the per-instance register at issue time.
        self.rotate = rotate

    def __repr__(self) -> str:
        extra = " x%d" % self.repeat if self.repeat != 1 else ""
        return "StaticInstr(0x%x %s%s)" % (self.pc, InstrClass.name(self.icls), extra)


class UnrolledRun:
    """An unrolled lowering: ``count`` consecutive instructions of one
    IR op with pre-drawn sizes.

    Straight-line boot code unrolls to six-figure instruction counts,
    so no :class:`StaticInstr` is made per instance.  A run keeps the
    compact description (op kind, pre-drawn size stream as ``bytes``,
    base PC, register-chain position, and for memory runs the region
    and pattern); the predecode decoders consume it directly.  Instance
    ``i`` sits at ``base_pc + sum(sizes[:i])``, so the run covers
    ``base_pc`` up to ``base_pc + sum(sizes)``.
    """

    __slots__ = ("kind", "icls", "count", "base_pc", "sizes", "chain",
                 "ilp", "fp", "region", "pattern", "probability")

    def __init__(self, kind: str, icls: int, count: int, base_pc: int,
                 sizes: bytes, chain: int, ilp: int, fp: bool,
                 region, pattern, probability: float):
        self.kind = kind
        self.icls = icls
        self.count = count
        self.base_pc = base_pc
        self.sizes = sizes
        self.chain = chain
        self.ilp = ilp
        self.fp = fp
        self.region = region
        self.pattern = pattern
        self.probability = probability


class AssembledBlock:
    """A lowered IR block.

    ``segments`` is the lowered form, in layout order: a tuple whose
    items are either ``StaticInstr`` lists or :class:`UnrolledRun`
    records.  Predecode decodes straight from it.
    """

    __slots__ = ("kind", "segments")

    def __init__(self, kind: str, segments: tuple):
        self.kind = kind
        self.segments = segments


class AssembledLoop:
    """A lowered loop: body, trip count, and its backedge branch."""

    __slots__ = ("body", "trips", "backedge")

    def __init__(self, body: list, trips: int, backedge: StaticInstr):
        self.body = body
        self.trips = trips
        self.backedge = backedge


class AssembledCall:
    """A lowered call site: the call, and the return-target slot."""

    __slots__ = ("routine", "call_instr", "ret_instr")

    def __init__(self, routine: str, call_instr: StaticInstr, ret_instr: StaticInstr):
        self.routine = routine
        self.call_instr = call_instr
        self.ret_instr = ret_instr


class AssembledRoutine:
    """A lowered routine with its assigned code range."""

    __slots__ = ("name", "body", "code_base", "code_size")

    def __init__(self, name: str, body: list, code_base: int, code_size: int):
        self.name = name
        self.body = body
        self.code_base = code_base
        self.code_size = code_size


class AssembledProgram:
    """A program lowered to one ISA's instruction layout."""

    def __init__(self, program, isa, routines: Dict[str, AssembledRoutine]):
        self.program = program
        self.isa = isa
        self.routines = routines
        self.entry = program.entry

    @property
    def name(self) -> str:
        return self.program.name

    def code_bytes(self) -> int:
        """Total static code footprint in bytes (all routines)."""
        return sum(routine.code_size for routine in self.routines.values())

    def __repr__(self) -> str:
        return "AssembledProgram(%s/%s, %d routines, %d code bytes)" % (
            self.name, self.isa.name, len(self.routines), self.code_bytes(),
        )


class ISA:
    """Base class for instruction-set models.

    Subclasses define:

    * :attr:`name` — registry key,
    * :meth:`instr_size` — deterministic instruction size stream,
    * :attr:`expansion` — instructions emitted per IR op unit, keyed by
      ``(op_kind, block_kind)``,
    * :attr:`stack_multiplier` — extra dynamic path length on runtime,
      library and OS code relative to the RISC-V baseline (the thesis's
      headline instruction-count finding, §4.2.3.1),
    * :attr:`syscall_overhead_instrs` — trap entry/exit sequence length,
    * :attr:`vector_style` — how vector IR lowers when a
      :class:`~repro.sim.isa.vector.VectorConfig` is attached
      (``"rvv"`` stripmines by VLEN with per-strip ``vsetvli`` CSRs;
      ``"sse"``/``"neon"`` emit fixed 128-bit groups, no CSRs).
    """

    name = "abstract"
    stack_multiplier = 1.0
    syscall_overhead_instrs = 6
    #: Attached vector unit, or None (scalar-only).  Set per *instance*
    #: by :func:`repro.sim.isa.get_isa`; with None every vector IR op
    #: degrades to its scalar equivalent, byte-identical to a scalar
    #: program — the class default keeps all pre-vector behaviour.
    vector = None
    #: Vector lowering family; ``"none"`` behaves as scalar fallback
    #: even when a config is attached.
    vector_style = "none"
    #: (op_kind, block_kind) -> instructions per IR op unit.  Missing keys
    #: default to 1.0.
    expansion: Dict[Tuple[str, str], float] = {}

    def instr_size(self, rng: random.Random) -> int:
        raise NotImplementedError

    def vector_width_bits(self) -> int:
        """Effective vector register width for this ISA instance.

        RVV is length-agnostic, so the configured VLEN applies; the
        fixed-width styles always lower at 128 bits regardless of the
        configured VLEN — the same IR therefore stripmines differently
        per ISA, which is the point of the comparison.
        """
        if self.vector is not None and self.vector_style == "rvv":
            return self.vector.vlen
        return 128

    def instr_sizes(self, rng: random.Random, count: int) -> bytes:
        """``count`` sizes from the layout stream in one call, one byte each.

        Must consume ``rng`` exactly as ``count`` :meth:`instr_size`
        calls would — program layout (and therefore every downstream
        digest) depends on the draw order.  Subclasses override this
        with a loop-free or comprehension form; unrolled lowering emits
        hundreds of thousands of instructions, so the per-call method
        dispatch is measurable.  The result is ``bytes`` because an
        :class:`UnrolledRun` keeps it for the program's lifetime: one
        byte per instance, not a list slot.
        """
        return bytes([self.instr_size(rng) for _ in range(count)])

    def expansion_for(self, op_kind: str, block_kind: str) -> float:
        factor = self.expansion.get((op_kind, block_kind), 1.0)
        if block_kind == BLOCK_STACK:
            factor *= self.stack_multiplier
        return factor

    # -- assembly ----------------------------------------------------------

    def assemble(self, program: ir.Program) -> AssembledProgram:
        """Lower ``program`` to a per-ISA instruction layout."""
        program.validate()
        rng = random.Random("%d|%s|layout" % (program.seed, self.name))
        pc_cursor = {
            "code": program.space.segment_base("code"),
            "kernel": program.space.segment_base("kernel"),
        }
        routines: Dict[str, AssembledRoutine] = {}
        for routine in program.routines.values():
            segment = routine.segment if routine.segment in pc_cursor else "code"
            base = pc_cursor[segment]
            ctx = _AsmContext(self, rng, base)
            body = self._assemble_node(routine.body, ctx)
            # A terminating return so the routine has a well-defined end.
            ret = ctx.emit(InstrClass.RET, srcs=(ZERO_REG,), dst=-1)
            body.append(AssembledBlock(BLOCK_STACK, ([ret],)))
            code_size = ctx.pc - base
            pc_cursor[segment] = ctx.pc + 64  # pad between routines
            routines[routine.name] = AssembledRoutine(routine.name, body, base, code_size)
        return AssembledProgram(program, self, routines)

    def _assemble_node(self, node: ir.StructureNode, ctx: "_AsmContext") -> list:
        if isinstance(node, ir.Block):
            return [self._assemble_block(node, ctx)]
        if isinstance(node, ir.Seq):
            out: list = []
            for item in node.items:
                out.extend(self._assemble_node(item, ctx))
            return out
        if isinstance(node, ir.Loop):
            body = self._assemble_node(node.body, ctx)
            backedge = ctx.emit(
                InstrClass.BRANCH, srcs=(ctx.chain_reg(0),), dst=-1, taken_probability=1.0
            )
            return [AssembledLoop(body, node.trips, backedge)]
        if isinstance(node, ir.Call):
            call_instr = ctx.emit(InstrClass.CALL, srcs=(ZERO_REG,), dst=-1)
            ret_instr = ctx.emit(InstrClass.NOP, srcs=(ZERO_REG,), dst=-1)
            return [AssembledCall(node.routine, call_instr, ret_instr)]
        raise TypeError("unknown structure node %r" % (node,))

    def _assemble_block(self, block: ir.Block, ctx: "_AsmContext") -> AssembledBlock:
        instrs: List[StaticInstr] = []
        segments: List[object] = []
        chain = 0
        for op in block.ops:
            if op.kind in ir.VECTOR_OPS:
                if self.vector is None or self.vector_style == "none":
                    # No vector unit: degrade to the scalar-equivalent
                    # op and fall through to the ordinary lowering —
                    # same emit sequence, same layout-rng draws, so the
                    # result is byte-identical to a scalar program.
                    op = ir.scalar_equivalent(op)
                else:
                    chain = self._emit_vector(op, block, chain, ctx, instrs)
                    continue
            scaled = op.count * self.expansion_for(op.kind, block.kind)
            count = max(1, int(round(scaled)))
            if op.unrolled:
                # Distinct PCs, each executed once: honest I-footprint.
                run, chain = self._emit_unrolled(op, count, block, chain, ctx)
                if instrs:
                    segments.append(instrs)
                    instrs = []
                segments.append(run)
                continue
            rotate = tuple(
                ctx.chain_reg(chain + lane) for lane in range(block.ilp)
            ) if count > 1 and block.ilp > 1 else ()
            if op.kind in _COMPUTE_CLASS:
                icls = _COMPUTE_CLASS[op.kind]
                fp = op.kind in (ir.OP_FALU, ir.OP_FMUL, ir.OP_FDIV)
                reg = ctx.chain_reg(chain % block.ilp, fp=fp)
                if rotate and fp:
                    rotate = tuple(
                        ctx.chain_reg(chain + lane, fp=True) for lane in range(block.ilp)
                    )
                instrs.append(
                    ctx.emit(icls, srcs=(reg, ZERO_REG), dst=reg, repeat=count,
                             rotate=rotate)
                )
                chain += 1
            elif op.kind == ir.OP_LOAD:
                reg = ctx.chain_reg(chain % block.ilp)
                instrs.append(
                    ctx.emit(
                        InstrClass.LOAD,
                        srcs=(ADDR_REG,),
                        dst=reg,
                        repeat=count,
                        region=op.region,
                        pattern=op.pattern,
                        rotate=rotate,
                    )
                )
                chain += 1
            elif op.kind == ir.OP_STORE:
                reg = ctx.chain_reg(chain % block.ilp)
                instrs.append(
                    ctx.emit(
                        InstrClass.STORE,
                        srcs=(reg, ADDR_REG),
                        dst=-1,
                        repeat=count,
                        region=op.region,
                        pattern=op.pattern,
                        rotate=rotate,
                    )
                )
            elif op.kind == ir.OP_BRANCH:
                instrs.append(
                    ctx.emit(
                        InstrClass.BRANCH,
                        srcs=(ctx.chain_reg(chain % block.ilp),),
                        dst=-1,
                        repeat=count,
                        taken_probability=op.taken_probability,
                    )
                )
            elif op.kind == ir.OP_SYSCALL:
                for _ in range(op.count):
                    instrs.append(ctx.emit(InstrClass.CSR, srcs=(ZERO_REG,), dst=-1))
                    overhead = max(1, int(round(self.syscall_overhead_instrs)))
                    instrs.append(
                        ctx.emit(
                            InstrClass.SYSCALL,
                            srcs=(ZERO_REG,),
                            dst=-1,
                            repeat=overhead,
                        )
                    )
            else:
                raise ValueError("cannot lower IR op kind %r" % op.kind)
        if instrs or not segments:
            segments.append(instrs)
        return AssembledBlock(block.kind, tuple(segments))

    def _emit_vector(
        self,
        op: ir.IROp,
        block: ir.Block,
        chain: int,
        ctx: "_AsmContext",
        instrs: List[StaticInstr],
    ) -> int:
        """Lower one vector IR op for an attached vector unit.

        ``op.count`` elements become ``ceil(count / elements_per_instr)``
        micro-looped vector instructions (strips) at this ISA's vector
        width.  The ``"rvv"`` style prefixes the strips with an equal
        run of CSR instructions (per-strip ``vsetvli`` re-configuration,
        RVV's stripmining idiom); fixed-width styles emit none — so RVV
        and SSE streams differ in both instruction count and class mix
        for identical IR.  Strips rotate across the configured lanes,
        which the O3 model exploits exactly like scalar chain rotation.
        The lowered instructions are ordinary repeat-form
        :class:`StaticInstr`, so replay needs no vector-specific
        handling.
        """
        from repro.sim.isa.vector import elements_per_instr

        epi = elements_per_instr(self.vector_width_bits(), op.ewidth)
        strips = (op.count + epi - 1) // epi
        lanes = self.vector.lanes
        fp = op.kind == ir.OP_VFMA
        rotate = tuple(
            ctx.chain_reg(chain + lane, fp=fp) for lane in range(lanes)
        ) if strips > 1 and lanes > 1 else ()
        if self.vector_style == "rvv":
            instrs.append(
                ctx.emit(InstrClass.CSR, srcs=(ZERO_REG,), dst=-1,
                         repeat=strips))
        reg = ctx.chain_reg(chain % max(1, lanes), fp=fp)
        if op.kind == ir.OP_VLOAD:
            instrs.append(
                ctx.emit(InstrClass.LOAD, srcs=(ADDR_REG,), dst=reg,
                         repeat=strips, region=op.region,
                         pattern=self._vector_pattern(op.pattern, epi),
                         rotate=rotate))
            chain += 1
        elif op.kind == ir.OP_VSTORE:
            instrs.append(
                ctx.emit(InstrClass.STORE, srcs=(reg, ADDR_REG), dst=-1,
                         repeat=strips, region=op.region,
                         pattern=self._vector_pattern(op.pattern, epi),
                         rotate=rotate))
        else:
            icls = InstrClass.FMUL if fp else InstrClass.IALU
            instrs.append(
                ctx.emit(icls, srcs=(reg, ZERO_REG), dst=reg,
                         repeat=strips, rotate=rotate))
            chain += 1
        return chain

    @staticmethod
    def _vector_pattern(
        pattern: Optional[ir.AddressPattern], epi: int
    ) -> Optional[ir.AddressPattern]:
        """Per-strip address pattern: one access covers ``epi`` elements.

        A unit-element stride widens to ``stride * epi`` so consecutive
        strips touch consecutive vector-register-sized chunks; gather
        patterns (random / hot-cold) are left alone — each strip's base
        is one gathered index, the model's take on indexed loads.
        """
        if isinstance(pattern, ir.StridePattern):
            return ir.StridePattern(stride=pattern.stride * epi,
                                    start=pattern.start)
        return pattern

    def _emit_unrolled(
        self,
        op: ir.IROp,
        count: int,
        block: ir.Block,
        chain: int,
        ctx: "_AsmContext",
    ) -> Tuple[UnrolledRun, int]:
        """Lower one IR op to a run of ``count`` instructions.

        This is the assembler's hot path: straight-line boot/runtime
        code unrolls to hundreds of thousands of instructions.  Sizes
        are drawn in bulk (:meth:`instr_sizes`) — the layout rng and PC
        cursor advance exactly as per-instruction emission would — and
        no :class:`StaticInstr` is made: predecode decodes the run
        directly.
        """
        kind = op.kind
        if kind in _COMPUTE_CLASS:
            icls = _COMPUTE_CLASS[kind]
        elif kind == ir.OP_LOAD:
            icls = InstrClass.LOAD
        elif kind == ir.OP_STORE:
            icls = InstrClass.STORE
        elif kind == ir.OP_BRANCH:
            icls = InstrClass.BRANCH
        else:
            raise ValueError("cannot unroll IR op kind %r" % kind)
        sizes = self.instr_sizes(ctx.rng, count)
        run = UnrolledRun(
            kind, icls, count, ctx.pc, sizes, chain, block.ilp,
            kind in (ir.OP_FALU, ir.OP_FMUL, ir.OP_FDIV),
            op.region, op.pattern, op.taken_probability,
        )
        ctx.pc += sum(sizes)
        return run, chain + count


class _AsmContext:
    """Mutable assembly state for one routine: PC cursor and registers."""

    __slots__ = ("isa", "rng", "pc")

    def __init__(self, isa: ISA, rng: random.Random, base_pc: int):
        self.isa = isa
        self.rng = rng
        self.pc = base_pc

    def chain_reg(self, chain: int, fp: bool = False) -> int:
        base = FP_CHAIN_BASE if fp else INT_CHAIN_BASE
        return base + (chain % 24)

    def emit(
        self,
        icls: int,
        srcs: Tuple[int, ...],
        dst: int,
        repeat: int = 1,
        region: Optional[ir.Region] = None,
        pattern: Optional[ir.AddressPattern] = None,
        taken_probability: float = 1.0,
        rotate: Tuple[int, ...] = (),
    ) -> StaticInstr:
        size = self.isa.instr_size(self.rng)
        instr = StaticInstr(
            pc=self.pc,
            size=size,
            icls=icls,
            srcs=srcs,
            dst=dst,
            repeat=repeat,
            region=region,
            pattern=pattern,
            taken_probability=taken_probability,
            rotate=rotate,
        )
        self.pc += size
        return instr
