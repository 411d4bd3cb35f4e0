"""PR 1's set-iteration finding, fixed by 8fa75c5.

Cut from ``src/repro/txn/manager.py`` at ``8fa75c5~1``.  Squashes were
issued in the iteration order of a set of transaction ids, which follows
``PYTHONHASHSEED``, so two runs of one seed could squash in different
orders.  The fix iterates ``sorted(...)``; the same fix went into
concord's recovery fan-out and pct placement.

Parsed by tests, never imported.
"""

from repro.caching.base import CacheEntry


class LocalTxnManager:
    def on_replace(self, key, entry: CacheEntry, ctx) -> None:
        """A fresh value is replacing a speculative cache entry."""
        accessor = getattr(ctx, "txn_id", None) if ctx is not None else None
        for txn_id in set(entry.spec_readers) - {accessor}:  # defect
            self._squash(txn_id, reason=f"replacement of {key}")
        if entry.spec_writer is not None and entry.spec_writer != accessor:
            self._squash(entry.spec_writer, reason=f"replacement of {key}")

    def on_external_invalidate(self, key, entry: CacheEntry) -> None:
        """A remote write invalidated a speculative entry."""
        for txn_id in set(entry.spec_readers):  # defect
            self._squash(txn_id, reason=f"external invalidate of {key}")
        if entry.spec_writer is not None:
            self._squash(entry.spec_writer, reason=f"external invalidate of {key}")
