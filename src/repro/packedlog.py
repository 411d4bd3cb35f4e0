"""An append-only log of finished signal records that packs what it keeps.

The tracer and the flight recorder file one *row* per record — a tuple
of atomics — plus the record's attrs dict (never a column of the row: a
tuple that holds a dict stays tracked by the cyclic collector for ever).
Live, such a pair costs ~370 bytes, and a long traced run finishes
hundreds of thousands.

**Storage layout.**  :class:`PackedLog` keeps no object per record.  It
copies each record into its *stage*, four flat lists — the rows end to
end, the attrs' keys end to end, their values end to end, and each
record's attr count — so the tuple and the dict the sink built are freed
as soon as they are filed: a retained pair per record counted towards
the collector's young-generation threshold and set off a collection
every ~350 records.  Every row of a log has the width of its first row
(both sinks file 8 atomics); a row of another width raises
``ValueError`` and stages nothing, where it would shift every row after
it.  Every :data:`BATCH` records the stage is replaced by one
``marshal.dumps`` blob of the four lists — ~100 bytes per record, one
object per batch — which iteration ``loads`` again, one batch at a time,
rebuilding each record's row tuple and a new attrs dict in its key
order.

``marshal`` round-trips exactly what the sinks file: ``str``, ``int`` of
any size, ``float`` bit for bit, ``bool``, ``None``, and lists / tuples /
dicts of those in their order; and it writes a 5-byte back-reference for
an object it has already seen, which is why the sinks ``sys.intern``
their names.  A batch holding anything else (``marshal`` raises
``ValueError``) stays in the sequence as the four lists it was: an
exotic attr costs memory, not the run.

With a *window* the log is a ring over the last ``window`` records:
whole batches that fell out of it are dropped when the next one is
packed, the batch the boundary runs through is cut at read time, and
``len`` / ``dropped`` are what a ``deque(maxlen=window)`` would report.
"""

from __future__ import annotations

import marshal
from itertools import islice
from typing import Iterator, Optional

__all__ = ["BATCH", "PackedLog"]

#: Records per packed batch.  Large enough that the per-batch costs (one
#: bytes object, one ``dumps`` call) stay small and back-references pay,
#: small enough that the unpacked stage — ~370 bytes a record until it
#: is packed, ~100 after — stays near 0.4 MB a log; a traced run keeps
#: two logs (the tracer's and the recorder's).
BATCH = 1024


class PackedLog:
    """``(row, attrs)`` records, oldest first; all but the newest packed."""

    __slots__ = ("window", "_batch", "_width", "_flat", "_keys", "_values",
                 "_sizes", "_packed", "_packed_count", "_dropped_before_clear")

    def __init__(self, window: Optional[int] = None):
        #: Keep only the last ``window`` records (None: keep them all).
        self.window = window
        self._batch = BATCH
        # Atomics per row: the first row's length, for every row after.
        self._width: Optional[int] = None
        self._dropped_before_clear = 0
        self._reset()

    def _reset(self) -> None:
        # The stage: the newest records' rows end to end, their attrs'
        # keys and values end to end, and each record's attrs count.
        self._flat: list = []
        self._keys: list = []
        self._values: list = []
        self._sizes: list = []
        # Full batches, oldest first: a ``marshal`` blob of the stage's
        # four lists each, or the lists themselves where ``marshal``
        # refused.
        self._packed: list = []
        # Records that have left the stage for a batch (kept or not).
        self._packed_count = 0

    def append(self, row: tuple, attrs: dict) -> None:
        if len(row) != self._width:
            self._set_width(len(row))
        self._flat.extend(row)
        self._keys.extend(attrs)
        self._values.extend(attrs.values())
        sizes = self._sizes
        sizes.append(len(attrs))
        if len(sizes) >= self._batch:
            self._pack()

    def _set_width(self, width: int) -> None:
        if self._width is not None:
            raise ValueError(f"a row of {width} values filed with a log of "
                             f"{self._width}-value rows")
        self._width = width

    def _stage(self) -> tuple:
        return (self._flat, self._keys, self._values, self._sizes)

    def _pack(self) -> None:
        batch = self._stage()
        self._packed_count += len(self._sizes)
        try:
            self._packed.append(marshal.dumps(batch))
        except ValueError:
            self._packed.append(batch)
            self._flat, self._keys, self._values, self._sizes = [], [], [], []
        else:
            for part in batch:
                part.clear()
        window = self.window
        if window is not None:
            # The stage is empty: a batch is out of the window once the
            # batches after it hold ``window`` records by themselves.
            packed = self._packed
            while (len(packed) - 1) * self._batch >= window:
                del packed[0]

    def __len__(self) -> int:
        total = self._packed_count + len(self._sizes)
        window = self.window
        return total if window is None or total < window else window

    @property
    def dropped(self) -> int:
        """Records the window has let go of (``clear()`` does not reset it)."""
        return (self._dropped_before_clear + self._packed_count
                + len(self._sizes) - len(self))

    def batches(self) -> Iterator[tuple]:
        """``(rows, attrs)`` list pairs, oldest first, one batch unpacked
        at a time: each record's row as a tuple and its attrs as a dict
        again (a new dict, also for the records still staged).
        """
        held = len(self._packed) * self._batch + len(self._sizes)
        skip = held - len(self)
        width = self._width
        for batch in self._packed + [self._stage()]:
            flat, keys, values, sizes = (marshal.loads(batch)
                                         if type(batch) is bytes else batch)
            if skip >= len(sizes):
                skip -= len(sizes)
                continue
            if skip:
                start = sum(sizes[:skip])
                flat, keys, values, sizes = (flat[skip * width:], keys[start:],
                                             values[start:], sizes[skip:])
                skip = 0
            keys, values = iter(keys), iter(values)
            yield (list(zip(*[iter(flat)] * width)),
                   [dict(zip(islice(keys, size), islice(values, size)))
                    for size in sizes])

    def __iter__(self) -> Iterator[tuple]:
        for rows, attrs in self.batches():
            yield from zip(rows, attrs)

    def clear(self) -> None:
        """Forget the records held; ``dropped`` keeps what it has counted."""
        self._dropped_before_clear = self.dropped
        self._reset()
