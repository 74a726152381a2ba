"""Workload intermediate representation.

A :class:`Program` describes *what a workload does* independently of the
ISA: how much integer/float compute, which memory regions it touches with
which access patterns, its loop structure, and which routines call which.
The vSwarm function models in :mod:`repro.workloads` build these programs
from the *real* work their handlers performed (bytes encrypted, database
rows read, modules imported), so the dynamic instruction and address
streams reflect genuine workload behaviour rather than canned numbers.

Programs are assembled per-ISA (see :mod:`repro.sim.isa.base`) and then
replayed by the CPU models (see :mod:`repro.sim.isa.predecode`).  Loop
bodies keep their program counters across iterations, so
instruction-cache locality behaves as in real code.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

# ---------------------------------------------------------------------------
# Memory layout
# ---------------------------------------------------------------------------

#: Canonical segment bases (byte addresses) for the simulated address space.
CODE_BASE = 0x0040_0000
HEAP_BASE = 0x1000_0000
DATA_BASE = 0x2000_0000
KERNEL_BASE = 0x4000_0000
STACK_BASE = 0x7FFF_0000

_SEGMENT_BASES = {
    "code": CODE_BASE,
    "heap": HEAP_BASE,
    "data": DATA_BASE,
    "kernel": KERNEL_BASE,
    "stack": STACK_BASE,
}


class Region:
    """A named, contiguous chunk of the simulated address space."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int):
        if size <= 0:
            raise ValueError("region %r must have positive size, got %d" % (name, size))
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        return "Region(%s @ 0x%x, %d bytes)" % (self.name, self.base, self.size)


class AddressSpace:
    """A bump allocator handing out non-overlapping regions per segment.

    ``aslr_offset`` shifts every segment base, modelling the distinct
    physical placement of different processes/containers: two programs
    with different offsets do not share cache lines, while the cold and
    warm variants of one function (built with the same offset) do.
    """

    def __init__(self, aslr_offset: int = 0):
        if aslr_offset < 0:
            raise ValueError("aslr_offset must be non-negative")
        self.aslr_offset = aslr_offset
        self._cursors: Dict[str, int] = {
            segment: base + aslr_offset for segment, base in _SEGMENT_BASES.items()
        }
        self.regions: List[Region] = []

    def segment_base(self, segment: str) -> int:
        if segment not in _SEGMENT_BASES:
            raise ValueError("unknown segment %r" % segment)
        return _SEGMENT_BASES[segment] + self.aslr_offset

    def alloc(self, name: str, size: int, segment: str = "heap", align: int = 64) -> Region:
        """Allocate ``size`` bytes in ``segment``, aligned to ``align``."""
        if segment not in self._cursors:
            raise ValueError("unknown segment %r (have %s)" % (segment, sorted(self._cursors)))
        if size <= 0:
            raise ValueError("allocation size must be positive, got %d" % size)
        cursor = self._cursors[segment]
        base = (cursor + align - 1) // align * align
        region = Region(name, base, size)
        self._cursors[segment] = base + size
        self.regions.append(region)
        return region

    def find(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError("no region named %r" % name)


# ---------------------------------------------------------------------------
# Address patterns
# ---------------------------------------------------------------------------


class AddressPattern:
    """Produces a deterministic sequence of byte offsets within a region.

    Patterns are *stateless descriptors*: each :meth:`offsets` call starts
    a fresh cursor, so the same program can be replayed identically.
    """

    def offsets(self, region: Region, count: int, rng: random.Random) -> Iterable[int]:
        raise NotImplementedError


class StridePattern(AddressPattern):
    """Sequential strided access, wrapping at the region end.

    The default (stride 64, the cache line size) models streaming over a
    buffer; stride 8 models dense word-by-word scans.
    """

    def __init__(self, stride: int = 64, start: int = 0):
        if stride == 0:
            raise ValueError("stride must be non-zero")
        self.stride = stride
        self.start = start

    def offsets(self, region: Region, count: int, rng: random.Random) -> Iterable[int]:
        offset = self.start % region.size
        for _ in range(count):
            yield offset
            offset = (offset + self.stride) % region.size

    def __repr__(self) -> str:
        return "StridePattern(stride=%d)" % self.stride


class RandomPattern(AddressPattern):
    """Uniform random access within the region (hash/index-walk behaviour)."""

    def __init__(self, align: int = 8):
        if align <= 0:
            raise ValueError("align must be positive")
        self.align = align

    def offsets(self, region: Region, count: int, rng: random.Random) -> Iterable[int]:
        slots = max(1, region.size // self.align)
        for _ in range(count):
            yield (rng.randrange(slots)) * self.align % region.size

    def __repr__(self) -> str:
        return "RandomPattern(align=%d)" % self.align


class HotColdPattern(AddressPattern):
    """Zipf-like pattern: most accesses hit a hot prefix of the region.

    Models caches-within-the-workload such as interpreter dispatch tables
    or memcached slab headers: ``hot_fraction`` of the region absorbs
    ``hot_probability`` of accesses.
    """

    def __init__(self, hot_fraction: float = 0.1, hot_probability: float = 0.9, align: int = 8):
        if not 0 < hot_fraction <= 1:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0 <= hot_probability <= 1:
            raise ValueError("hot_probability must be in [0, 1]")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.align = align

    def offsets(self, region: Region, count: int, rng: random.Random) -> Iterable[int]:
        hot_bytes = max(self.align, int(region.size * self.hot_fraction))
        hot_slots = max(1, hot_bytes // self.align)
        all_slots = max(1, region.size // self.align)
        for _ in range(count):
            if rng.random() < self.hot_probability:
                yield rng.randrange(hot_slots) * self.align % region.size
            else:
                yield rng.randrange(all_slots) * self.align % region.size

    def __repr__(self) -> str:
        return "HotColdPattern(%.0f%% -> %.0f%%)" % (
            self.hot_fraction * 100,
            self.hot_probability * 100,
        )


# ---------------------------------------------------------------------------
# IR operations and structure
# ---------------------------------------------------------------------------

#: IR op kinds.  Compute ops carry a repeat count; memory ops carry a region
#: and an address pattern.
OP_IALU = "ialu"
OP_IMUL = "imul"
OP_IDIV = "idiv"
OP_FALU = "falu"
OP_FMUL = "fmul"
OP_FDIV = "fdiv"
OP_LOAD = "load"
OP_STORE = "store"
OP_BRANCH = "branch"
OP_SYSCALL = "syscall"

#: Vector op kinds.  Each carries an element width (``ewidth``, bytes per
#: element) alongside ``count`` (total *elements*, not instructions); the
#: per-ISA lowering decides how many vector instructions that becomes
#: (stripmined by VLEN on RVV, fixed 128-bit groups on SSE/NEON).  With
#: no vector unit configured they degrade to their scalar equivalent
#: (:data:`VECTOR_SCALAR_KIND`) — one scalar instruction per element.
OP_VLOAD = "vload"
OP_VSTORE = "vstore"
OP_VALU = "valu"
OP_VFMA = "vfma"

COMPUTE_OPS = (OP_IALU, OP_IMUL, OP_IDIV, OP_FALU, OP_FMUL, OP_FDIV)
MEMORY_OPS = (OP_LOAD, OP_STORE)
VECTOR_OPS = (OP_VLOAD, OP_VSTORE, OP_VALU, OP_VFMA)
VECTOR_MEMORY_OPS = (OP_VLOAD, OP_VSTORE)

#: Scalar fallback kind per vector op: what the op lowers to, element by
#: element, on an ISA with no vector unit configured.
VECTOR_SCALAR_KIND = {
    OP_VLOAD: OP_LOAD,
    OP_VSTORE: OP_STORE,
    OP_VALU: OP_IALU,
    OP_VFMA: OP_FMUL,
}

#: Element widths a vector op may carry (bytes): int8 through fp64.
VECTOR_EWIDTHS = (1, 2, 4, 8)


class IROp:
    """One IR operation; ``count`` folds runs of identical work.

    ``unrolled=True`` lowers the op to ``count`` *distinct* instructions at
    distinct program counters instead of one micro-looped instruction.
    Straight-line initialisation code (interpreter start-up, module
    imports) uses this so its instruction-cache footprint is honest — that
    footprint is what makes cold starts cold.

    Vector ops (:data:`VECTOR_OPS`) additionally carry ``ewidth`` — bytes
    per element — and interpret ``count`` as total elements.  They are
    never ``unrolled`` (a vector instruction *is* the fold).
    """

    __slots__ = ("kind", "count", "region", "pattern", "taken_probability",
                 "unrolled", "ewidth")

    def __init__(
        self,
        kind: str,
        count: int = 1,
        region: Optional[Region] = None,
        pattern: Optional[AddressPattern] = None,
        taken_probability: float = 0.5,
        unrolled: bool = False,
        ewidth: int = 4,
    ):
        if count <= 0:
            raise ValueError("op count must be positive, got %d" % count)
        if kind in MEMORY_OPS and region is None:
            raise ValueError("%s op requires a region" % kind)
        if kind in VECTOR_OPS:
            if kind in VECTOR_MEMORY_OPS and region is None:
                raise ValueError("%s op requires a region" % kind)
            if ewidth not in VECTOR_EWIDTHS:
                raise ValueError("vector ewidth must be one of %s, got %r"
                                 % (list(VECTOR_EWIDTHS), ewidth))
            if unrolled:
                raise ValueError("vector ops cannot be unrolled")
        self.kind = kind
        self.count = count
        self.region = region
        self.pattern = pattern if pattern is not None else StridePattern(stride=8)
        self.taken_probability = taken_probability
        self.unrolled = unrolled
        self.ewidth = ewidth

    def __repr__(self) -> str:
        target = " %s" % self.region.name if self.region else ""
        return "IROp(%s x%d%s)" % (self.kind, self.count, target)


def scalar_equivalent(op: IROp) -> IROp:
    """The scalar IROp a vector op degrades to without a vector unit.

    One scalar instruction per element, same region/pattern/count, kind
    mapped via :data:`VECTOR_SCALAR_KIND` — so a program holding vector
    ops assembles *byte-identically* to the same program written with
    scalar ops when the ISA has no :class:`~repro.sim.isa.vector.
    VectorConfig` attached.  That identity is what keeps every existing
    digest, stat dump and event log unchanged with the vector lane off.
    """
    if op.kind not in VECTOR_OPS:
        raise ValueError("not a vector op: %r" % op.kind)
    return IROp(
        VECTOR_SCALAR_KIND[op.kind],
        count=op.count,
        region=op.region,
        pattern=op.pattern,
        taken_probability=op.taken_probability,
    )


class Block:
    """A straight-line run of IR ops, tagged by software layer.

    ``kind`` is either :data:`~repro.sim.isa.base.BLOCK_APP` (application
    logic the developer wrote) or :data:`~repro.sim.isa.base.BLOCK_STACK`
    (runtime, library and OS code), because the two lower differently: the
    thesis measured the x86 software stack executing substantially more
    instructions than the RISC-V one for identical functions (§4.2.3.1).

    ``ilp`` sets how many independent dependence chains the block's compute
    spreads across, which the O3 model exploits.
    """

    __slots__ = ("ops", "kind", "ilp")

    def __init__(self, ops: Sequence[IROp], kind: str = "app", ilp: int = 4):
        if ilp <= 0:
            raise ValueError("ilp must be positive")
        self.ops = list(ops)
        self.kind = kind
        self.ilp = ilp

    def __repr__(self) -> str:
        return "Block(%s, %d ops, ilp=%d)" % (self.kind, len(self.ops), self.ilp)


class Seq:
    """Sequential composition of structure nodes."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence["StructureNode"]):
        self.items = list(items)

    def __repr__(self) -> str:
        return "Seq(%d items)" % len(self.items)


class Loop:
    """Replays ``body`` ``trips`` times; the backedge branch is part of it.

    Loop bodies keep their assembled program counters, so iterating a loop
    re-touches the same instruction cache lines — the mechanism behind warm
    instruction locality.
    """

    __slots__ = ("body", "trips")

    def __init__(self, body: "StructureNode", trips: int):
        if trips < 0:
            raise ValueError("trips must be >= 0, got %d" % trips)
        self.body = body
        self.trips = trips

    def __repr__(self) -> str:
        return "Loop(x%d)" % self.trips


class Call:
    """Transfers control to another routine (by name) and returns."""

    __slots__ = ("routine",)

    def __init__(self, routine: str):
        self.routine = routine

    def __repr__(self) -> str:
        return "Call(%s)" % self.routine


StructureNode = Union[Block, Seq, Loop, Call]


class Routine:
    """A named unit of code occupying a contiguous code range."""

    __slots__ = ("name", "body", "segment")

    def __init__(self, name: str, body: StructureNode, segment: str = "code"):
        self.name = name
        self.body = body
        self.segment = segment

    def __repr__(self) -> str:
        return "Routine(%s)" % self.name


class Program:
    """A complete IR program: routines, entry point, and memory regions.

    ``aslr_key`` selects the program's address-space placement: programs
    sharing a key (e.g. the cold and warm variants of one function) share
    addresses; distinct keys land at distinct offsets, so different
    processes do not alias in the caches.  Defaults to the program name's
    stem (the part before the first dot).
    """

    def __init__(self, name: str, seed: int = 0, aslr_key: Optional[str] = None):
        import zlib

        self.name = name
        self.seed = seed
        self.aslr_key = aslr_key if aslr_key is not None else name.split(".")[0]
        offset = (zlib.crc32(self.aslr_key.encode()) % 1024) * 0x8000
        self.routines: Dict[str, Routine] = {}
        self.entry: Optional[str] = None
        self.space = AddressSpace(aslr_offset=offset)

    def add_routine(self, routine: Routine, entry: bool = False) -> Routine:
        if routine.name in self.routines:
            raise ValueError("duplicate routine %r in program %r" % (routine.name, self.name))
        self.routines[routine.name] = routine
        if entry or self.entry is None:
            self.entry = routine.name
        return routine

    def validate(self) -> None:
        """Check that every Call target exists and an entry is set."""
        if self.entry is None:
            raise ValueError("program %r has no entry routine" % self.name)

        def check(node: StructureNode) -> None:
            if isinstance(node, Call):
                if node.routine not in self.routines:
                    raise ValueError(
                        "program %r calls undefined routine %r" % (self.name, node.routine)
                    )
            elif isinstance(node, Seq):
                for item in node.items:
                    check(item)
            elif isinstance(node, Loop):
                check(node.body)

        for routine in self.routines.values():
            check(routine.body)

    def fingerprint(self) -> Optional[tuple]:
        """Structural identity of the program, or None if uncacheable.

        Two programs with equal fingerprints assemble to byte-identical
        layouts (same PCs, sizes, registers, addresses) and trace
        identically for a given run seed, so the assembler caches its
        output under ``(isa_name, fingerprint)``.  Everything layout- or
        trace-relevant is captured: the layout-rng seed, the ASLR offset,
        routine order and segments, block structure, op counts, region
        placements, pattern parameters and branch probabilities.  Unknown
        :class:`AddressPattern` subclasses make the program uncacheable
        (None) rather than risking a false cache hit.
        """
        routines = []
        for routine in self.routines.values():
            body = _node_fingerprint(routine.body)
            if body is None:
                return None
            routines.append((routine.name, routine.segment, body))
        return (self.name, self.seed, self.space.aslr_offset, self.entry,
                tuple(routines))

    def __repr__(self) -> str:
        return "Program(%s, %d routines)" % (self.name, len(self.routines))


def _pattern_fingerprint(pattern: Optional[AddressPattern]):
    """Hashable identity of a pattern; None marks unknown subclasses."""
    if pattern is None:
        return ("none",)
    cls = type(pattern)
    if cls is StridePattern:
        return ("s", pattern.stride, pattern.start)
    if cls is RandomPattern:
        return ("r", pattern.align)
    if cls is HotColdPattern:
        return ("h", pattern.hot_fraction, pattern.hot_probability,
                pattern.align)
    return None


def _node_fingerprint(node: StructureNode):
    """Hashable identity of a structure node; None propagates upward."""
    if isinstance(node, Block):
        ops = []
        for op in node.ops:
            pattern = _pattern_fingerprint(op.pattern)
            if pattern is None:
                return None
            region = (op.region.name, op.region.base, op.region.size) \
                if op.region is not None else None
            entry = (op.kind, op.count, region, pattern,
                     op.taken_probability, op.unrolled)
            if op.kind in VECTOR_OPS:
                # Appended only for vector ops, so fingerprints of
                # pre-existing scalar programs stay byte-identical.
                entry += (op.ewidth,)
            ops.append(entry)
        return ("b", node.kind, node.ilp, tuple(ops))
    if isinstance(node, Seq):
        items = []
        for item in node.items:
            fp = _node_fingerprint(item)
            if fp is None:
                return None
            items.append(fp)
        return ("q", tuple(items))
    if isinstance(node, Loop):
        body = _node_fingerprint(node.body)
        if body is None:
            return None
        return ("l", node.trips, body)
    if isinstance(node, Call):
        return ("c", node.routine)
    return None


# ---------------------------------------------------------------------------
# Convenience builders used throughout the workload models
# ---------------------------------------------------------------------------


def compute_block(
    ialu: int = 0,
    imul: int = 0,
    falu: int = 0,
    fmul: int = 0,
    idiv: int = 0,
    fdiv: int = 0,
    kind: str = "app",
    ilp: int = 4,
) -> Block:
    """A block of pure compute with the given op mix."""
    ops = []
    for op_kind, count in (
        (OP_IALU, ialu),
        (OP_IMUL, imul),
        (OP_IDIV, idiv),
        (OP_FALU, falu),
        (OP_FMUL, fmul),
        (OP_FDIV, fdiv),
    ):
        if count:
            ops.append(IROp(op_kind, count=count))
    if not ops:
        raise ValueError("compute_block needs at least one op")
    return Block(ops, kind=kind, ilp=ilp)


def straightline_block(
    instrs: int,
    data_region: Optional[Region] = None,
    load_fraction: float = 0.25,
    store_fraction: float = 0.08,
    branch_fraction: float = 0.05,
    kind: str = "stack",
    ilp: int = 3,
) -> Block:
    """A large run of *distinct* instructions executed once.

    This models initialisation paths — ELF loading, interpreter start-up,
    module imports, JIT compilation — whose defining property is a big,
    once-touched instruction footprint mixed with scattered data accesses.
    The op mix follows typical integer-code proportions.
    """
    if instrs <= 0:
        raise ValueError("instrs must be positive")
    loads = max(1, int(instrs * load_fraction))
    stores = max(1, int(instrs * store_fraction))
    branches = max(1, int(instrs * branch_fraction))
    alus = max(1, instrs - loads - stores - branches)
    ops: List[IROp] = [IROp(OP_IALU, count=alus, unrolled=True)]
    if data_region is not None:
        ops.append(
            IROp(OP_LOAD, count=loads, region=data_region,
                 pattern=StridePattern(stride=24), unrolled=True)
        )
        ops.append(
            IROp(OP_STORE, count=stores, region=data_region,
                 pattern=StridePattern(stride=56), unrolled=True)
        )
    else:
        ops[0] = IROp(OP_IALU, count=alus + loads + stores, unrolled=True)
    ops.append(IROp(OP_BRANCH, count=branches, taken_probability=0.6, unrolled=True))
    return Block(ops, kind=kind, ilp=ilp)


def vector_block(
    elements: int,
    ewidth: int = 4,
    load_region: Optional[Region] = None,
    store_region: Optional[Region] = None,
    fma_per_element: float = 0.0,
    alu_per_element: float = 0.0,
    gather: bool = False,
    kind: str = "app",
    ilp: int = 2,
) -> Block:
    """A vectorizable inner loop over ``elements`` elements.

    Streams ``load_region`` in element order (or gathers from it when
    ``gather=True`` — embedding-table lookups), performs the given
    per-element FMA/ALU work, and streams results to ``store_region``.
    How many *instructions* this becomes is the ISA's call: stripmined
    by VLEN on RVV, fixed 128-bit groups on SSE/NEON, one per element
    on a scalar ISA.
    """
    if elements <= 0:
        raise ValueError("elements must be positive")
    ops: List[IROp] = []
    if load_region is not None:
        pattern: AddressPattern = (RandomPattern(align=max(8, ewidth))
                                   if gather else StridePattern(stride=ewidth))
        ops.append(IROp(OP_VLOAD, count=elements, region=load_region,
                        pattern=pattern, ewidth=ewidth))
    if fma_per_element:
        ops.append(IROp(OP_VFMA, count=max(1, int(round(elements * fma_per_element))),
                        ewidth=ewidth))
    if alu_per_element:
        ops.append(IROp(OP_VALU, count=max(1, int(round(elements * alu_per_element))),
                        ewidth=ewidth))
    if store_region is not None:
        ops.append(IROp(OP_VSTORE, count=elements, region=store_region,
                        pattern=StridePattern(stride=ewidth), ewidth=ewidth))
    if not ops:
        raise ValueError("vector_block needs a region or per-element work")
    return Block(ops, kind=kind, ilp=ilp)


def touch_block(
    region: Region,
    loads: int = 0,
    stores: int = 0,
    pattern: Optional[AddressPattern] = None,
    ialu_per_access: int = 2,
    kind: str = "app",
    ilp: int = 4,
) -> Block:
    """A block interleaving memory accesses with light address arithmetic."""
    if loads == 0 and stores == 0:
        raise ValueError("touch_block needs loads or stores")
    ops: List[IROp] = []
    if loads:
        ops.append(IROp(OP_LOAD, count=loads, region=region, pattern=pattern))
    if ialu_per_access:
        ops.append(IROp(OP_IALU, count=max(1, (loads + stores) * ialu_per_access)))
    if stores:
        ops.append(IROp(OP_STORE, count=stores, region=region, pattern=pattern))
    return Block(ops, kind=kind, ilp=ilp)
