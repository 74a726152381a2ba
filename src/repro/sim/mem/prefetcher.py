"""Hardware prefetcher models — the third §6 design-space axis.

Three kinds:

* ``none`` — what the thesis's gem5 configuration ran with (and why its
  cold starts are so front-end bound);
* ``nextline`` — on a miss, stream the following ``degree`` lines in;
* ``stride`` — a PC-indexed reference-prediction table: when a load
  instruction repeats a constant line stride, prefetch ``degree`` steps
  down that stride (catches strided scans next-line cannot).

Prefetchers observe demand misses and return the lines to fill; the
hierarchy installs them without charging demand latency or stats.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

PREFETCHER_KINDS = ("none", "nextline", "stride")


class Prefetcher:
    """Observe a demand miss; propose lines to fill.

    Prefetchers follow the same maintenance protocol as caches and TLBs:
    :meth:`flush` drops any trained state, and :meth:`state_dict` /
    :meth:`load_state` round-trip it through checkpoints.  A trained
    prefetcher changes fill timing, so leaving it out of either path
    breaks checkpoint/restore timing determinism.
    """

    kind = "none"

    #: Most lines one miss can propose.  Degree 0 proposes none, so the
    #: hierarchy's fetch paths skip :meth:`on_miss` for it.
    degree = 0

    def on_miss(self, pc: int, line: int) -> Sequence[int]:
        """Lines to fill after a demand miss on ``line`` by ``pc``."""
        return []

    def flush(self) -> None:
        pass

    def state_dict(self) -> Dict:
        return {"kind": self.kind}

    def load_state(self, state: Dict) -> None:
        if state.get("kind", self.kind) != self.kind:
            raise ValueError(
                "checkpoint prefetcher kind %r does not match %r"
                % (state.get("kind"), self.kind)
            )


class NextLinePrefetcher(Prefetcher):
    """Sequential streaming: fill line+1 .. line+degree on every miss."""

    kind = "nextline"

    def __init__(self, degree: int = 2):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree

    def on_miss(self, pc: int, line: int) -> Sequence[int]:
        """The ``degree`` lines after ``line``, as a ``range``: every L1
        miss of every CPU model calls this, and a ``range`` is built
        several times faster than a list."""
        return range(line + 1, line + 1 + self.degree)


class StridePrefetcher(Prefetcher):
    """PC-indexed stride detection (reference prediction table).

    Each load PC tracks its last miss line and stride; two consecutive
    misses with the same stride gain confidence and trigger prefetches of
    the next ``degree`` strides.
    """

    kind = "stride"

    def __init__(self, degree: int = 2, table_entries: int = 64):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if table_entries < 1:
            raise ValueError("table_entries must be >= 1")
        self.degree = degree
        self.table_entries = table_entries
        # pc -> (last_line, stride, confident)
        self._table: Dict[int, Tuple[int, int, bool]] = {}

    def on_miss(self, pc: int, line: int) -> List[int]:
        entry = self._table.get(pc)
        prefetches: List[int] = []
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.pop(next(iter(self._table)))
            self._table[pc] = (line, 0, False)
            return prefetches
        last_line, stride, _confident = entry
        new_stride = line - last_line
        if new_stride != 0 and new_stride == stride:
            # Stride confirmed on consecutive misses: prefetch ahead.
            prefetches = [line + new_stride * step
                          for step in range(1, self.degree + 1)]
            self._table[pc] = (line, new_stride, True)
        else:
            self._table[pc] = (line, new_stride, False)
        return prefetches

    def flush(self) -> None:
        self._table.clear()

    def state_dict(self) -> Dict:
        # Insertion order is the table's FIFO replacement order, so the
        # entry list must preserve it.
        return {
            "kind": self.kind,
            "table": [(pc, entry) for pc, entry in self._table.items()],
        }

    def load_state(self, state: Dict) -> None:
        super().load_state(state)
        self._table = {
            pc: (entry[0], entry[1], entry[2])
            for pc, entry in state.get("table", [])
        }


def make_prefetcher(kind: str, degree: int) -> Prefetcher:
    """Build a prefetcher; degree 0 or kind 'none' disables it."""
    if kind not in PREFETCHER_KINDS:
        raise ValueError("unknown prefetcher %r; have %s"
                         % (kind, PREFETCHER_KINDS))
    if kind == "none" or degree <= 0:
        return Prefetcher()
    if kind == "nextline":
        return NextLinePrefetcher(degree)
    return StridePrefetcher(degree)
