"""Deterministic, supervised worker pool for pipeline fan-out.

The simulator's work decomposes into *independent units* — a routing
table per destination AS, a traceroute per (probe, target), a monitored
country-day, a what-if scenario.  Each unit derives its own RNG from
the world seed and the unit's identity (via :func:`repro.util.
derive_seed`), never from shared mutable state, so units can run in any
order — and therefore on any number of workers — and still produce
byte-identical results.

:func:`map_tasks` is the single fan-out primitive.  With ``workers=1``
(the default) it is a plain ordered loop; with more workers it forks a
``ProcessPoolExecutor`` and maps the same function over the same items,
returning results in item order.  Platforms without ``fork`` (and
nested fan-out inside a worker) silently fall back to the serial path,
which is exact by construction.

Every batch is *supervised* (see docs/robustness.md):

* a crashed worker (``BrokenProcessPool``) aborts only the chunks that
  had not finished — they are re-run serially in the parent, so the
  caller still receives byte-identical ordered results;
* a batch deadline (``timeout=``, default ``REPRO_EXEC_TIMEOUT`` or
  300 s) bounds hung workers: on expiry the pool is terminated and the
  unfinished chunks are re-run serially;
* transient task exceptions (:class:`TransientTaskError` and injected
  :class:`repro.faults.FaultInjected`) are retried in place with
  exponential backoff, bounded by ``retries``; exhausted retries fail
  the batch loudly.

Large read-only state (the topology, a measurement engine) is passed as
the *payload*: the serial path reads it from a context variable that
:func:`map_tasks` sets for the duration of the call, and a forked pool
hands it to its workers as initializer arguments, so children inherit
it through copy-on-write memory instead of pickling it per task.  Two
threads mapping concurrently (the service's job workers) each see only
their own batch.  Task items and results still cross process boundaries
and must be picklable — unless the batch carries a ``shared`` channel
(:mod:`repro.exec.shm`): a shared-memory block published the same way,
into which workers write result columns in place so only slot indexes
come back over the result pipe.  Telemetry incremented inside workers
stays in the worker process and is lost; the parent counts dispatches,
completions, failures, worker-side retries (piggybacked on results) and
recoveries.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
import time
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro import faults, telemetry

T = TypeVar("T")
R = TypeVar("R")

_TASKS = telemetry.counter(
    "repro_exec_tasks_total",
    "Units dispatched through repro.exec", labels=("mode",))
_COMPLETED = telemetry.counter(
    "repro_exec_tasks_completed_total",
    "Units that actually produced a result", labels=("mode",))
_TASK_FAILURES = telemetry.counter(
    "repro_exec_tasks_failed_total",
    "Units that raised out of the batch", labels=("mode",))
_RETRIES = telemetry.counter(
    "repro_exec_retries_total",
    "Transient task errors retried", labels=("mode",))
_RECOVERIES = telemetry.counter(
    "repro_exec_recoveries_total",
    "Parallel batches recovered by serial re-run", labels=("reason",))
_BATCHES = telemetry.counter(
    "repro_exec_batches_total",
    "Fan-out batches executed", labels=("mode",))

# Pre-bound labelled children — the label vocabularies are closed, so
# resolve the lock-guarded child maps once at import instead of on
# every batch dispatch.


class _ModeMetrics:
    __slots__ = ("batches", "tasks", "completed", "failures", "retries")

    def __init__(self, mode: str) -> None:
        self.batches = _BATCHES.labels(mode=mode)
        self.tasks = _TASKS.labels(mode=mode)
        self.completed = _COMPLETED.labels(mode=mode)
        self.failures = _TASK_FAILURES.labels(mode=mode)
        self.retries = _RETRIES.labels(mode=mode)


_BY_MODE = {mode: _ModeMetrics(mode) for mode in ("serial", "parallel")}
_RECOVERIES_BY_REASON = {
    reason: _RECOVERIES.labels(reason=reason)
    for reason in ("timeout", "broken_pool")}

#: Session-wide default worker count (set by ``--workers`` flags).
_DEFAULT_WORKERS = 1
#: ``(payload, shared)`` of the batch being mapped in this thread: the
#: read-only payload and the shared-memory channel workers *write* to
#: (slot-disjoint, so no coordination).  A pool worker holds its
#: batch's pair for its whole life.
_BATCH: contextvars.ContextVar[tuple[Any, Any]] = contextvars.ContextVar(
    "repro_exec_batch", default=(None, None))
#: True inside a pool worker — forces nested fan-out to run serially.
_IN_WORKER = False

#: Default per-batch deadline for parallel batches (seconds).
DEFAULT_TIMEOUT_S = float(os.environ.get("REPRO_EXEC_TIMEOUT", "300"))
#: Default bounded retries for transient task errors.
DEFAULT_RETRIES = int(os.environ.get("REPRO_EXEC_RETRIES", "2"))
#: First backoff sleep; doubles per retry.
RETRY_BACKOFF_S = 0.05


class TransientTaskError(RuntimeError):
    """A task failure that is safe to retry (bounded, with backoff)."""


def set_default_workers(workers: int) -> None:
    """Set the session default used when ``workers=None`` is passed."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = max(1, int(workers))


def get_default_workers() -> int:
    return _DEFAULT_WORKERS


def fork_available() -> bool:
    """Whether the platform supports fork-based pools."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count for a batch (1 == serial)."""
    if workers is None:
        workers = _DEFAULT_WORKERS
    workers = max(1, int(workers))
    if workers > 1 and (_IN_WORKER or not fork_available()):
        return 1
    return workers


def current_payload() -> Any:
    """The payload of the batch currently being mapped (or ``None``)."""
    return _BATCH.get()[0]


def current_shared() -> Any:
    """The shared-memory channel of the current batch (or ``None``).

    Reachable both in forked workers (inherited mapping) and on the
    serial / recovery paths, where the parent writes its own blocks
    directly — task functions never need to know which one they are on.
    """
    return _BATCH.get()[1]


def in_worker() -> bool:
    """True inside a forked pool worker."""
    return _IN_WORKER


def _init_worker(payload: Any,
                 shared: Any) -> None:  # pragma: no cover - children
    global _IN_WORKER
    _IN_WORKER = True
    _BATCH.set((payload, shared))


def _ident(item: Any) -> str:
    """A stable, bounded identity string for fault targeting."""
    return repr(item)[:120]


def _call_task(fn: Callable[[Any], Any], item: Any,
               retries: int) -> tuple[int, Any]:
    """Run one unit with fault hooks and bounded transient retries.

    Returns ``(retries_used, result)``; raises the final error once
    retries are exhausted (or immediately for non-transient errors).
    """
    injecting = faults.active()
    ident = _ident(item) if injecting else ""
    if injecting and _IN_WORKER:
        if faults.should_fire("exec.worker_crash", ident):
            os._exit(faults.CRASH_EXIT_CODE)  # pragma: no cover - child
        faults.sleep_if("exec.worker_hang", ident)
    if injecting:
        faults.sleep_if("exec.slow_task", ident)
    attempt = 0
    while True:
        try:
            if injecting:
                faults.fire("exec.task_error", f"{ident}#{attempt}")
            return attempt, fn(item)
        except (TransientTaskError, faults.FaultInjected):
            if attempt >= retries:
                raise
            time.sleep(RETRY_BACKOFF_S * (2 ** attempt))
            attempt += 1


def _invoke_chunk(task: tuple[Callable[[Any], Any],
                              list[tuple[int, Any]], int]
                  ) -> list[tuple[int, int, Any]]:
    """Worker entry point: run one chunk, tagging results by index."""
    fn, chunk, retries = task
    return [(i, *_call_task(fn, item, retries)) for i, item in chunk]


def _shutdown_executor(executor: ProcessPoolExecutor,
                       force: bool) -> None:
    """Release a pool, killing its processes when ``force`` is set.

    ``force`` handles hung workers: ``shutdown`` alone would join them,
    blocking forever on a worker that never returns.  ``_processes`` is
    private but stable across the supported CPython versions, and the
    executor's management thread cleanly marks itself broken once the
    children die.
    """
    if force:
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
    executor.shutdown(wait=False, cancel_futures=True)


#: Smallest chunk the dispatcher will cut.  The old heuristic
#: (``len(items) // (n_workers * 4)``) degenerated to 1-item chunks for
#: small batches on many-core machines, paying per-chunk submit/result
#: overhead per *item*; a floor trades idle workers on tiny batches for
#: bounded overhead, which measures strictly faster.
MIN_CHUNKSIZE = 4


def chunk_plan(n_items: int, n_workers: int) -> int:
    """Chunk size for a batch: ~4 chunks per worker, floored at
    :data:`MIN_CHUNKSIZE`, never larger than the batch itself."""
    target = max(1, n_items // (n_workers * 4))
    return min(n_items, max(target, MIN_CHUNKSIZE))


def _run_supervised(fn: Callable[[T], R], items: list[T],
                    n_workers: int, timeout: Optional[float],
                    retries: int, batch: tuple[Any, Any]) -> list[R]:
    """The parallel path: chunked fan-out with crash/hang recovery.

    ``batch`` is the ``(payload, shared)`` pair; with the fork context
    the initializer arguments are inherited, never pickled."""
    indexed = list(enumerate(items))
    chunksize = chunk_plan(len(items), n_workers)
    chunks = [indexed[i:i + chunksize]
              for i in range(0, len(indexed), chunksize)]
    results: dict[int, R] = {}
    retries_used = 0
    reason: Optional[str] = None
    unfinished = set(range(len(chunks)))
    ctx = multiprocessing.get_context("fork")
    executor = ProcessPoolExecutor(
        max_workers=min(n_workers, len(chunks)), mp_context=ctx,
        initializer=_init_worker, initargs=batch)
    futures: dict[Future, int] = {
        executor.submit(_invoke_chunk, (fn, chunk, retries)): ci
        for ci, chunk in enumerate(chunks)}

    def _collect(fut: Future) -> None:
        nonlocal retries_used
        for i, used, value in fut.result():
            results[i] = value
            retries_used += used
        unfinished.discard(futures[fut])

    try:
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        pending = set(futures)
        while pending:
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                reason = "timeout"
                break
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_COMPLETED)
            if not done:
                reason = "timeout"
                break
            for fut in done:
                try:
                    _collect(fut)
                except BrokenProcessPool:
                    reason = "broken_pool"
                    break
            if reason is not None:
                break
    except Exception:
        # A task failed for real (retries exhausted, or a non-transient
        # error): fail the whole batch loudly, but never leak the pool.
        _shutdown_executor(executor, force=True)
        raise
    _shutdown_executor(executor, force=reason is not None)

    if reason is not None:
        # Harvest whatever settled between the break and the shutdown,
        # then re-run only the unfinished chunks serially in the parent
        # (where worker-only faults cannot fire).  Order-preserving by
        # construction: results are keyed by original item index.
        for fut, ci in futures.items():
            if ci in unfinished and fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                _collect(fut)
        if telemetry.enabled():
            _RECOVERIES_BY_REASON[reason].inc()
        for ci in sorted(unfinished):
            for i, item in chunks[ci]:
                used, value = _call_task(fn, item, retries)
                results[i] = value
                retries_used += used
    if telemetry.enabled() and retries_used:
        _BY_MODE["parallel"].retries.inc(retries_used)
    return [results[i] for i in range(len(items))]


def map_tasks(fn: Callable[[T], R], items: Sequence[T],
              workers: Optional[int] = None,
              payload: Any = None,
              label: str = "batch",
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              shared: Any = None) -> list[R]:
    """Apply ``fn`` to every item, in item order, on N workers.

    ``fn`` must be a module-level function (pickled by reference) whose
    output depends only on its item and the read-only ``payload``
    (reachable via :func:`current_payload`).  Results are returned in
    the order of ``items`` regardless of completion order, crashes or
    hangs, so serial and parallel runs are indistinguishable to the
    caller.  ``timeout`` bounds one parallel attempt (then unfinished
    work re-runs serially); ``retries`` bounds transient-error retries
    per task on both paths.

    ``shared`` is the zero-copy result channel: an object (typically
    holding :class:`repro.exec.shm.SharedColumnBlock` columns) that is
    published like the payload — forked workers inherit the live
    mapping and write their slot in place via :func:`current_shared`;
    slot writes must be idempotent because recovery re-runs unfinished
    chunks in the parent.  The caller keeps ownership: create it
    before, harvest and close it after (in ``finally``).
    """
    items = list(items)
    if not items:
        return []
    n_workers = resolve_workers(workers)
    mode = "parallel" if n_workers > 1 else "serial"
    if retries is None:
        retries = DEFAULT_RETRIES
    if timeout is None:
        timeout = DEFAULT_TIMEOUT_S
    metrics = _BY_MODE[mode]
    if telemetry.enabled():
        metrics.batches.inc()
        metrics.tasks.inc(len(items))
    token = _BATCH.set((payload, shared))
    try:
        with telemetry.span(f"exec.{label}", mode=mode,
                            workers=n_workers, tasks=len(items)):
            if n_workers == 1:
                out: list[R] = []
                retries_used = 0
                for item in items:
                    used, value = _call_task(fn, item, retries)
                    retries_used += used
                    out.append(value)
                if telemetry.enabled() and retries_used:
                    metrics.retries.inc(retries_used)
            else:
                out = _run_supervised(fn, items, n_workers, timeout,
                                      retries, (payload, shared))
    except Exception:
        if telemetry.enabled():
            metrics.failures.inc()
        raise
    else:
        if telemetry.enabled():
            metrics.completed.inc(len(out))
        return out
    finally:
        _BATCH.reset(token)


def suggested_workers() -> int:
    """A sensible worker count for this machine (benchmarks, CLI)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, cores)
