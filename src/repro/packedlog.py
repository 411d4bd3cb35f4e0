"""An append-only log of finished signal records that packs what it keeps.

The tracer and the flight recorder file one *row* per record — a tuple
of atomics — plus the record's attrs dict (never a column of the row: a
tuple that holds a dict stays tracked by the cyclic collector for ever).
Live, such a pair costs ~370 bytes, and a long traced run finishes
hundreds of thousands.  :class:`PackedLog` therefore keeps only the
newest records as Python objects (the *stage*) and, every :data:`BATCH`
records, replaces the staged ``(rows, attrs)`` pair of lists by one
``marshal.dumps`` blob — ~100 bytes per record, one object per batch —
which iteration ``loads`` again, one batch at a time.

``marshal`` round-trips exactly what the sinks file: ``str``, ``int`` of
any size, ``float`` bit for bit, ``bool``, ``None``, and lists / tuples /
dicts of those in their order; and it writes a 5-byte back-reference for
an object it has already seen, which is why the sinks ``sys.intern``
their names.  A batch holding anything else (``marshal`` raises
``ValueError``) stays in the sequence as the two lists it was: an exotic
attr costs memory, not the run.

With a *window* the log is a ring over the last ``window`` records:
whole batches that fell out of it are dropped when the next one is
packed, the batch the boundary runs through is cut at read time, and
``len`` / ``dropped`` are what a ``deque(maxlen=window)`` would report.
"""

from __future__ import annotations

import marshal
from typing import Iterator, Optional

__all__ = ["BATCH", "PackedLog"]

#: Records per packed batch.  Large enough that the per-batch costs (one
#: bytes object, one ``dumps`` call) vanish and back-references pay,
#: small enough that the unpacked stage stays under ~1.5 MB.
BATCH = 4096


class PackedLog:
    """``(row, attrs)`` records, oldest first; all but the newest packed."""

    __slots__ = ("window", "_batch", "_rows", "_attrs", "_packed",
                 "_packed_count", "_dropped_before_clear")

    def __init__(self, window: Optional[int] = None):
        #: Keep only the last ``window`` records (None: keep them all).
        self.window = window
        self._batch = BATCH
        self._dropped_before_clear = 0
        self._reset()

    def _reset(self) -> None:
        # The stage: the newest records, index for index.
        self._rows: list = []
        self._attrs: list = []
        # Full batches, oldest first: a ``marshal`` blob each, or the
        # ``(rows, attrs)`` pair itself where ``marshal`` refused.
        self._packed: list = []
        # Records that have left the stage for a batch (kept or not).
        self._packed_count = 0

    def append(self, row: tuple, attrs: dict) -> None:
        rows = self._rows
        rows.append(row)
        self._attrs.append(attrs)
        if len(rows) >= self._batch:
            self._pack()

    def _pack(self) -> None:
        batch = (self._rows, self._attrs)
        self._packed_count += len(self._rows)
        try:
            self._packed.append(marshal.dumps(batch))
        except ValueError:
            self._packed.append(batch)
            self._rows, self._attrs = [], []
        else:
            self._rows.clear()
            self._attrs.clear()
        window = self.window
        if window is not None:
            # The stage is empty: a batch is out of the window once the
            # batches after it hold ``window`` records by themselves.
            packed = self._packed
            while (len(packed) - 1) * self._batch >= window:
                del packed[0]

    def __len__(self) -> int:
        total = self._packed_count + len(self._rows)
        window = self.window
        return total if window is None or total < window else window

    @property
    def dropped(self) -> int:
        """Records the window has let go of (``clear()`` does not reset it)."""
        return (self._dropped_before_clear + self._packed_count
                + len(self._rows) - len(self))

    def batches(self) -> Iterator[tuple]:
        """``(rows, attrs)`` list pairs, oldest first, one batch unpacked
        at a time.  The last pair is the live stage: read it, do not keep it.
        """
        held = len(self._packed) * self._batch + len(self._rows)
        skip = held - len(self)
        for batch in self._packed + [(self._rows, self._attrs)]:
            rows, attrs = (marshal.loads(batch) if type(batch) is bytes
                           else batch)
            if skip >= len(rows):
                skip -= len(rows)
            elif skip:
                yield rows[skip:], attrs[skip:]
                skip = 0
            else:
                yield rows, attrs

    def __iter__(self) -> Iterator[tuple]:
        for rows, attrs in self.batches():
            yield from zip(rows, attrs)

    def clear(self) -> None:
        """Forget the records held; ``dropped`` keeps what it has counted."""
        self._dropped_before_clear = self.dropped
        self._reset()
