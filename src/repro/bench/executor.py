"""Parallel job executor: spawn workers, timeouts, retries, isolation.

``run_jobs`` executes a list of :class:`~repro.bench.job.JobSpec` and
returns one :class:`~repro.bench.job.JobResult` per spec **in spec
order**, regardless of completion order — callers see deterministic
output whether the sweep ran serially or on N workers.

Design points:

- **Spawn context, explicit hash seed.**  Workers are created with the
  ``spawn`` start method (no inherited interpreter state, same behavior
  on every platform) and ``PYTHONHASHSEED`` is pinned in the environment
  before the pool starts, so worker processes cannot re-randomize hash
  order out from under the determinism contract.  A parent that already
  pinned the variable propagates its value; otherwise ``0`` is pinned.
- **Failure isolation.**  A job that raises is recorded as
  ``status="error"`` and the sweep continues.  A job that *hard-crashes
  its worker* (``os._exit``, OOM kill, segfault) breaks the whole
  ``ProcessPoolExecutor``; the executor then rebuilds the pool and
  re-runs every job that was in flight **one at a time in single-worker
  pools**, so only the genuine crasher is charged — innocent bystanders
  re-run at no retry cost.
- **Per-job timeouts.**  Deadlines are measured from the moment a job's
  future starts on a worker (the submission window never exceeds the
  worker count, so a submitted job is a running job).  A worker stuck
  past its deadline cannot be interrupted portably; the pool is
  abandoned (workers are left to die with their orphaned task) and a
  fresh pool resumes the sweep.
- **Retries.**  Each job gets ``retries + 1`` attempts; errors,
  timeouts and confirmed crashes all consume attempts.
- **Checkpointing.**  With a journal, already-completed fingerprints are
  skipped up front and every settled job is appended immediately, so an
  interrupted sweep resumes where it stopped.

With ``jobs <= 1`` everything runs in-process through the exact same
job-invocation path (:func:`execute_spec` → :meth:`JobSpec.run`), which
is what makes worker-vs-in-process byte-identity testable.  Timeouts are
only enforced in worker mode — in-process Python cannot safely interrupt
a running job.
"""

from __future__ import annotations

import multiprocessing
import os
# Wall-clock here times benchmark attempts and enforces job deadlines —
# driver machinery, never simulation input.
import time  # noqa: DET01
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional

from repro.bench.job import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobResult,
    JobSpec,
)
from repro.bench.journal import as_journal

__all__ = ["execute_spec", "run_jobs"]


def execute_spec(spec_dict: dict) -> tuple:
    """Worker entry point: run one job, return ``(value, wall_time_s)``.

    Module-level on purpose — ``spawn`` workers import this module and
    receive only the spec's dict form, never live objects.  The target is
    resolved once *before* the clock starts, so import cost stays out of
    the timed :meth:`JobSpec.run`.
    """
    spec = JobSpec.from_dict(spec_dict)
    spec.resolve()
    start = time.perf_counter()
    value = spec.run()
    return value, time.perf_counter() - start


class _JobState:
    """Mutable bookkeeping for one spec during a sweep."""

    __slots__ = ("spec", "failed_attempts", "started_at", "last_error")

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.failed_attempts = 0
        self.started_at: Optional[float] = None
        self.last_error: Optional[str] = None

    @property
    def budget(self) -> int:
        return max(0, self.spec.retries) + 1

    def exhausted(self) -> bool:
        return self.failed_attempts >= self.budget

    def deadline(self) -> Optional[float]:
        if self.started_at is None or self.spec.timeout_s is None:
            return None
        return self.started_at + self.spec.timeout_s

    def expired(self, now: float) -> bool:
        deadline = self.deadline()
        return deadline is not None and now >= deadline


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: int = 1,
    journal=None,
    progress: Optional[Callable] = None,
) -> List[JobResult]:
    """Run every spec; return results in spec order.

    ``journal`` is a path (or :class:`~repro.bench.journal.Journal`):
    completed fingerprints found there are returned as cached results
    without re-running, and newly settled jobs are appended to it.
    ``progress`` is called with each :class:`JobResult` as it settles
    (completion order, not spec order).
    """
    specs = list(specs)
    by_fingerprint: dict = {}
    for spec in specs:
        other = by_fingerprint.get(spec.fingerprint)
        if other is not None and other is not spec:
            raise ValueError(
                f"duplicate job fingerprint: {other.name!r} and "
                f"{spec.name!r} describe identical work")
        by_fingerprint[spec.fingerprint] = spec

    journal = as_journal(journal)
    cached = journal.completed() if journal is not None else {}

    results: dict = {}
    pending: List[_JobState] = []
    for spec in specs:
        hit = cached.get(spec.fingerprint)
        if hit is not None:
            result = hit.as_cached()
            results[spec.fingerprint] = result
            if progress is not None:
                progress(result)
        else:
            pending.append(_JobState(spec))

    def settle(result: JobResult) -> None:
        results[result.fingerprint] = result
        if journal is not None:
            journal.append(result)
        if progress is not None:
            progress(result)

    if pending:
        if jobs <= 1 or len(pending) == 1:
            _run_serial(pending, settle)
        else:
            _run_parallel(pending, jobs, settle)

    return [results[spec.fingerprint] for spec in specs]


# ---------------------------------------------------------------------------
# In-process execution (jobs <= 1)
# ---------------------------------------------------------------------------
def _run_serial(states: List[_JobState], settle: Callable) -> None:
    for state in states:
        while True:
            try:
                value, wall_s = execute_spec(state.spec.to_dict())
            except Exception as exc:
                _record_failure(state, _format_error(exc))
                if state.exhausted():
                    settle(_failed_result(state, STATUS_ERROR))
                    break
            else:
                settle(_ok_result(state, value, wall_s))
                break


# ---------------------------------------------------------------------------
# Worker-pool execution
# ---------------------------------------------------------------------------
def _new_pool(workers: int) -> ProcessPoolExecutor:
    # Pin hash randomization before workers exist: spawn children copy
    # os.environ, so this is the explicit PYTHONHASHSEED propagation the
    # determinism contract requires.
    os.environ.setdefault("PYTHONHASHSEED", "0")
    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _run_parallel(states: List[_JobState], jobs: int,
                  settle: Callable) -> None:
    ready = deque(states)
    pool = _new_pool(jobs)
    window: dict = {}  # future -> _JobState (at most ``jobs`` entries)
    try:
        while ready or window:
            # Fill the window.  Capping in-flight futures at the worker
            # count means every submitted job is actually running, which
            # is what makes the per-job deadline measurable.
            while ready and len(window) < jobs:
                state = ready.popleft()
                state.started_at = time.monotonic()
                window[pool.submit(
                    execute_spec, state.spec.to_dict())] = state

            done, _ = wait(list(window), timeout=_poll_timeout(window),
                           return_when=FIRST_COMPLETED)
            if not done:
                pool = _reap_expired(pool, jobs, window, ready, settle)
                continue

            suspects: List[_JobState] = []
            for future in done:
                state = window.pop(future)
                try:
                    value, wall_s = future.result()
                except BrokenProcessPool:
                    suspects.append(state)
                except Exception as exc:
                    _record_failure(state, _format_error(exc))
                    if state.exhausted():
                        settle(_failed_result(state, STATUS_ERROR))
                    else:
                        ready.append(state)
                else:
                    settle(_ok_result(state, value, wall_s))

            if suspects:
                # Some worker died mid-job and took the pool down; every
                # in-flight future is doomed with it.  Re-run all
                # suspects one at a time so only the genuine crasher
                # pays for the crash.
                suspects.extend(window.pop(f) for f in list(window))
                pool.shutdown(wait=False, cancel_futures=True)
                for state in suspects:
                    state.started_at = None
                    _run_isolated(state, settle)
                pool = _new_pool(jobs)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _poll_timeout(window: dict) -> Optional[float]:
    """Seconds until the nearest in-flight deadline (None = no deadline)."""
    deadlines = [s.deadline() for s in window.values()]
    deadlines = [d for d in deadlines if d is not None]
    if not deadlines:
        return None
    return max(0.0, min(deadlines) - time.monotonic())


def _reap_expired(pool: ProcessPoolExecutor, jobs: int, window: dict,
                  ready: deque, settle: Callable) -> ProcessPoolExecutor:
    """Handle a deadline hit: fail/retry expired jobs, rebuild the pool.

    A stuck worker cannot be interrupted portably, so the whole pool is
    abandoned (`shutdown(wait=False)` leaves the orphaned task to finish
    or die with the process) and the innocent in-flight jobs go back to
    the front of the queue at no attempt cost.
    """
    now = time.monotonic()
    expired = [(f, s) for f, s in window.items() if s.expired(now)]
    if not expired:
        return pool  # spurious wakeup; keep waiting
    innocents = [s for _f, s in window.items()
                 if not s.expired(now)]
    for _future, state in expired:
        _record_failure(
            state,
            f"timed out after {state.spec.timeout_s:.3f}s "
            f"(attempt {state.failed_attempts + 1}/{state.budget})")
        if state.exhausted():
            settle(_failed_result(state, STATUS_TIMEOUT))
        else:
            state.started_at = None
            ready.append(state)
    for state in reversed(innocents):
        state.started_at = None
        ready.appendleft(state)
    window.clear()
    pool.shutdown(wait=False, cancel_futures=True)
    return _new_pool(jobs)


def _run_isolated(state: _JobState, settle: Callable) -> None:
    """Re-run a crash suspect alone in a fresh single-worker pool.

    Completing normally (ok / ordinary exception / timeout) follows the
    usual accounting; breaking this private pool convicts the job as the
    crasher and consumes one attempt per conviction.
    """
    while True:
        pool = _new_pool(1)
        future = pool.submit(execute_spec, state.spec.to_dict())
        try:
            value, wall_s = future.result(timeout=state.spec.timeout_s)
        except FutureTimeoutError:
            pool.shutdown(wait=False, cancel_futures=True)
            _record_failure(
                state,
                f"timed out after {state.spec.timeout_s:.3f}s "
                f"(attempt {state.failed_attempts + 1}/{state.budget})")
            if state.exhausted():
                settle(_failed_result(state, STATUS_TIMEOUT))
                return
            continue
        except BrokenProcessPool:
            pool.shutdown(wait=False)
            _record_failure(
                state,
                "worker process died while running this job "
                f"(attempt {state.failed_attempts + 1}/{state.budget})")
            if state.exhausted():
                settle(_failed_result(state, STATUS_ERROR))
                return
            continue
        except Exception as exc:
            pool.shutdown(wait=False)
            _record_failure(state, _format_error(exc))
            if state.exhausted():
                settle(_failed_result(state, STATUS_ERROR))
                return
            continue
        else:
            pool.shutdown(wait=False)
            settle(_ok_result(state, value, wall_s))
            return


# ---------------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------------
def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _record_failure(state: _JobState, message: str) -> None:
    state.failed_attempts += 1
    state.last_error = message


def _ok_result(state: _JobState, value, wall_s: float) -> JobResult:
    return JobResult(
        name=state.spec.name,
        fingerprint=state.spec.fingerprint,
        status=STATUS_OK,
        value=value,
        wall_time_s=wall_s,
        attempts=state.failed_attempts + 1,
    )


def _failed_result(state: _JobState, status: str) -> JobResult:
    return JobResult(
        name=state.spec.name,
        fingerprint=state.spec.fingerprint,
        status=status,
        error=state.last_error,
        attempts=state.failed_attempts,
    )
