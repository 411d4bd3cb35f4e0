"""PR 6's Apta write order, fixed by 909923c.

Cut from ``src/repro/apta/system.py`` at ``909923c~1``.  The memory node
installed a write into ``data`` before the backing store accepted it, so
a handler interrupted at the storage yield (a node crash) left the memory
tier serving a value storage never had.  The fix writes storage first.

Parsed by tests, never imported.
"""

from __future__ import annotations

from repro.net.rpc import Reply


class _MemoryNode:
    def _handle_write(self, endpoint, src, args):
        key, value, writer = args
        self.data[key] = value  # defect: before the storage write
        if self.system.backing is not None:
            # Az variant: the update must also reach global storage.
            yield from self.system.backing.write(key, value, writer=writer)
        victims = self.sharers.get(key, set()) - {writer}
        self.sharers[key] = {writer}
        # Lazy invalidation: mark victims stale and reply immediately.
        for victim in sorted(victims):
            self.stale_counts[victim] = self.stale_counts.get(victim, 0) + 1
            self.sim.spawn(
                self._lazy_invalidate(key, victim),
                name=f"apta-inv:{key}:{victim}", daemon=True,
            )
        return Reply(True, size_bytes=1)
