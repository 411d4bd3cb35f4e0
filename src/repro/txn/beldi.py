"""Beldi-style baseline: logged storage accesses + optimistic commit.

Beldi (OSDI '20) makes stateful serverless workflows transactional by
logging every storage access to a durable log and validating at commit
time.  We model its performance structure: each transactional read/write
pays an extra storage round trip for the log record, the writes are
buffered and flushed at commit after validation, and a conflict (version
moved under a read) aborts and re-executes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.storage import DataItem
from repro.txn.apps import TxnAppSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster


class BeldiRunner:
    """Executes transactional apps with Beldi-style logging."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        self.storage = cluster.storage
        self.commits = 0
        self.aborts = 0
        self._log_seq = self.sim.ids("beldi-log")

    def _append_log(self, record: str):
        """One durable log append (a storage write round trip)."""
        yield from self.storage.write(f"beldi:log:{next(self._log_seq)}",
                                      DataItem(record, 64), writer="beldi")

    def run(self, app: TxnAppSpec, entity: int, writer_tag: str = "beldi",
            max_attempts: int = 40):
        """One logged transaction execution (yield from)."""
        rng = self.sim.rng.stream("beldi-backoff")
        for attempt in range(max_attempts):
            if attempt:
                backoff = 10.0 * (2 ** min(attempt, 5))
                yield self.sim.timeout(backoff * (0.5 + rng.random()))
            read_versions = {}
            write_buffer = {}
            for step in app.steps:
                yield self.sim.timeout(step.compute_ms)
                for template in step.reads:
                    key = template.format(e=entity)
                    if key in write_buffer:
                        continue
                    value, version = yield from self.storage.read(key)
                    yield from self._append_log(f"read {key}@{version}")
                    read_versions.setdefault(key, version)
                for template in step.writes:
                    key = template.format(e=entity)
                    write_buffer[key] = DataItem((key, writer_tag), 256)
                    yield from self._append_log(f"intent {key}")
            # Commit: validate the read set, then flush buffered writes.
            conflicted = False
            for key, version in read_versions.items():
                _value, current = yield from self.storage.read(key)
                if current != version:
                    conflicted = True
                    break
            if not conflicted:
                for key, value in write_buffer.items():
                    yield from self.storage.write(key, value, writer=writer_tag)
                yield from self._append_log("commit")
                self.commits += 1
                return True
            self.aborts += 1
            yield from self._append_log("abort")
        raise RuntimeError(f"beldi {app.name} gave up after {max_attempts} attempts")
