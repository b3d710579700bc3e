"""The one request pipeline: campaign driver and persistent worker pool.

Every sweep runs through :class:`CampaignDriver` -- ``repro run``,
``sweep``, ``compare``, ``bench`` and ``campaign``, the ``analysis``
helpers and the figure benches.  ``run_requests``/``run_experiment``
are the driver with no retries and no deadline.  One :meth:`run`:

1. drops duplicate requests (shared baselines collapse here),
2. serves what the result store already has,
3. records each distinct traffic stream once (``_prepare_replay``),
4. collapses seed/ratio siblings into lockstep units (``group_requests``),
5. executes the units and stores each result as it arrives.

Units run in-process when ``jobs <= 1``, or when there is one unit and
no timeout.  Otherwise they run on a :class:`WorkerPool`: long-lived
processes (fork-preferred, so factory-form workload specs defined in
bench modules resolve in workers) fed one unit at a time over
per-worker pipes.  The pool spawns on first use and lives until
:meth:`CampaignDriver.close`.  A unit that cannot be pickled (a
lambda-factory workload) runs in-process with a one-time
:class:`RuntimeWarning` per offending factory.

Failure isolation is per request: an exception, a worker crash or a
timeout records a :class:`FailureRecord` and -- while attempts remain --
requeues the request.  A failed lockstep group requeues its members as
independent singles.  Nothing one request does can lose another
request's result, and every healthy result is stored.

Results are bit-identical in-process and pooled: each request carries
its own seed and full configuration, and workers run the same
``execute_request`` path.  Progress (queue depth, in-flight count,
per-worker utilisation, cache hit rate, trace re-records) is published
into a :class:`~repro.obs.MetricsRegistry` for front ends to poll.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.exp import runner
from repro.exp.cache import ResultStore, get_default_store
from repro.exp.runner import (
    ExperimentResult,
    RequestUnit,
    _prepare_replay,
    group_requests,
)
from repro.exp.spec import ExperimentSpec, RunRequest
from repro.obs import MetricsRegistry
from repro.sim.metrics import RunResult

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Default per-request retry budget (a retry runs on a fresh worker).
DEFAULT_RETRIES = 1

#: Seconds between gauge refreshes / progress callbacks.
DEFAULT_PROGRESS_INTERVAL = 2.0

#: Event-loop poll granularity (seconds).
_TICK = 0.1

#: Failure kinds recorded in the ledger.
FAILURE_EXCEPTION = "exception"  # the request raised
FAILURE_CRASH = "crash"          # the worker process died mid-request
FAILURE_TIMEOUT = "timeout"      # the request exceeded the deadline


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_JOBS``, else 1.

    ``0`` (or less) means one worker per core, as in ``make -j``.  A
    ``REPRO_JOBS`` that is not an integer is rejected, not ignored.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV) or "1"
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV}={raw!r} is not an integer worker count"
            ) from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


class RequestExecutionError(RuntimeError):
    """A request failed for good; the message names which one.

    ``run_requests`` raises it after every other request has run and
    been stored, so a failure inside a many-thousand-run sweep names its
    request (and the original exception type) instead of surfacing as a
    bare error from an anonymous worker.
    """


def _unit_key(unit: RequestUnit) -> str:
    """Hashable identity for one execution unit (attempt accounting)."""
    if isinstance(unit, list):
        return "group:" + unit[0].key
    return unit.key


def _unit_display(unit: RequestUnit) -> str:
    if isinstance(unit, list):
        return f"group[{len(unit)}] {unit[0].display} ..."
    return unit.display


def _run_unit(unit: RequestUnit):
    """Execute one unit: a request, or a lockstep group (a list).

    A group's result is its members' results in member order.  The
    executors resolve through the runner module at call time.
    """
    if isinstance(unit, list):
        return runner.execute_request_group(unit)
    return runner.execute_request(unit)


def _failure(exc: BaseException) -> tuple:
    """A failure payload: ``(error, detail)``, the one-line error and its traceback."""
    detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return f"{type(exc).__name__}: {exc}", detail


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: Offender identities already warned about in this process; repeated
#: sweeps over the same lambda-factory workload warn once, not once per
#: unit or per sweep.
_WARNED_UNPICKLABLE: set = set()


def _offender_key(unit: RequestUnit) -> str:
    """Identity of an un-picklable unit's *type* of offence.

    The culprit is almost always the workload factory (a lambda or
    closure), so key on its qualified name: a sweep expanding one
    factory into hundreds of requests is one offence, not hundreds.
    """
    request = unit[0] if isinstance(unit, list) else unit
    factory = getattr(getattr(request, "workload", None), "factory", None)
    if factory is not None:
        return f"factory:{getattr(factory, '__qualname__', repr(factory))}"
    return f"type:{type(request).__qualname__}"


def reset_unpicklable_warnings() -> None:
    """Forget which offenders were warned about (test isolation)."""
    _WARNED_UNPICKLABLE.clear()


def _warn_unpicklable(unit: RequestUnit) -> None:
    key = _offender_key(unit)
    if key not in _WARNED_UNPICKLABLE:
        _WARNED_UNPICKLABLE.add(key)
        warnings.warn(
            f"request {_unit_display(unit)} is not picklable "
            f"(lambda/closure workload factory?); running it in-process",
            RuntimeWarning,
            stacklevel=2,
        )


@dataclass
class FailureRecord:
    """One failure event: which request, which way, which attempt."""

    key: str
    display: str
    kind: str
    error: str
    attempt: int
    final: bool = False
    #: The traceback, when the failure was an exception.
    detail: str = field(default="", repr=False)

    def describe(self) -> str:
        state = "gave up" if self.final else "will retry"
        return f"[{self.kind}] {self.display} (attempt {self.attempt}, {state}): {self.error}"


@dataclass
class CampaignStats:
    """Execution accounting for one driver run."""

    total_requests: int = 0
    unique_requests: int = 0
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0          # failure events (incl. retried ones)
    failed_requests: int = 0   # requests that exhausted their retries
    retries: int = 0
    respawns: int = 0          # workers replaced during this run
    warmup_records: int = 0    # traces recorded while preparing replay
    re_records: int = 0        # traces re-recorded during execution
    keyed_draws: int = 0       # keyed PEBS record plans drawn (not reused)
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class CampaignResult(ExperimentResult):
    """An :class:`ExperimentResult` plus the campaign's failure ledger."""

    def __init__(
        self,
        requests: Sequence[RunRequest],
        results: Dict[str, RunResult],
        ledger: Sequence[FailureRecord],
        stats: CampaignStats,
    ):
        super().__init__(requests, results)
        self.ledger = list(ledger)
        self.stats = stats

    @property
    def failed(self) -> List[FailureRecord]:
        """Final (retry-exhausted) failures only."""
        return [rec for rec in self.ledger if rec.final]

    @property
    def ok(self) -> bool:
        return not self.failed


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


def _store_counts() -> tuple:
    """The trace-store counters workers report: (records, plan_draws)."""
    from repro.workloads.tracestore import get_default_trace_store

    store = get_default_trace_store()
    return store.records, store.plan_draws


def _worker_main(conn, worker_index: int) -> None:
    """Long-lived worker loop: recv unit, execute, send result.

    The per-result payload carries the worker-local trace-store record
    and keyed-draw counters so the driver can prove the zero-re-record
    and draw-once properties across process boundaries (a worker that
    silently regenerated traffic or redrew a sidecar would otherwise be
    invisible to the parent's counters).
    """
    # Fork-inherited stores carry the parent's counters (e.g. the
    # warm-up recordings); report deltas relative to this worker's start
    # so only work *this worker* did counts.
    base = _store_counts()

    def deltas() -> tuple:
        return tuple(now - then for now, then in zip(_store_counts(), base))

    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task_key, unit = item
        try:
            payload = (task_key, True, _run_unit(unit), deltas())
        except BaseException as exc:  # noqa: BLE001 - isolate *any* failure
            payload = (task_key, False, _failure(exc), deltas())
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result: report, keep serving
            try:
                error, detail = _failure(exc)
                conn.send(
                    (task_key, False, (f"result not sendable: {error}", detail), deltas())
                )
            except Exception:
                break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle: process, pipe, and utilisation accounting."""

    __slots__ = (
        "index", "process", "conn", "task", "busy_since",
        "completed", "busy_seconds", "counts_seen",
    )

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.task: Optional[RequestUnit] = None
        self.busy_since = 0.0
        self.completed = 0
        self.busy_seconds = 0.0
        #: Last trace-store (records, plan_draws) this worker reported.
        self.counts_seen = (0, 0)

    @property
    def busy(self) -> bool:
        return self.task is not None

    def utilisation(self, now: float, since: float) -> float:
        elapsed = max(now - since, 1e-9)
        busy = self.busy_seconds + ((now - self.busy_since) if self.busy else 0.0)
        return min(busy / elapsed, 1.0)


class WorkerPool:
    """A pool of persistent unit-executing processes.

    Workers survive across units and across driver runs; a crashed,
    hung or unreachable worker is respawned in place.
    """

    def __init__(self, jobs: Optional[int] = None, context=None):
        self._ctx = context if context is not None else _mp_context()
        self.respawns = 0
        self.worker_re_records = 0
        self.worker_plan_draws = 0
        self._next_index = 0
        self._closed = False
        self.workers: List[_Worker] = []
        self.grow(max(1, resolve_jobs(jobs)))

    def grow(self, jobs: int) -> None:
        """Spawn workers until the pool has at least ``jobs`` of them."""
        while len(self.workers) < jobs:
            self.workers.append(self._spawn())
        self.jobs = len(self.workers)

    def _spawn(self) -> _Worker:
        index = self._next_index
        self._next_index += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, index), daemon=True,
            name=f"repro-campaign-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def respawn(self, worker: _Worker) -> _Worker:
        """Replace a dead/hung worker in place with a fresh process."""
        self.kill(worker)
        fresh = self._spawn()
        self.workers[self.workers.index(worker)] = fresh
        self.respawns += 1
        return fresh

    def kill(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=5.0)

    @property
    def in_flight(self) -> int:
        return sum(1 for worker in self.workers if worker.busy)

    def submit(self, worker: _Worker, unit: RequestUnit) -> Optional[bool]:
        """Hand ``unit`` to an idle worker.

        Returns True once sent; None when the worker was found dead (it
        is respawned and the unit was not started); False when the unit
        cannot be pickled and so must run in-process.
        """
        try:
            worker.conn.send((_unit_key(unit), unit))
        except (BrokenPipeError, OSError):
            self.respawn(worker)
            return None
        except Exception:
            return False
        worker.task = unit
        worker.busy_since = time.monotonic()
        return True

    def collect(self, timeout: Optional[float]) -> List[tuple]:
        """Wait up to one tick; return ``(unit, ok, payload, kind)`` outcomes.

        A worker that died, or has held its unit longer than
        ``timeout`` seconds, is respawned and its unit reported failed.
        """
        busy = [worker for worker in self.workers if worker.busy]
        if not busy:
            return []
        ready = _conn_wait([worker.conn for worker in busy], timeout=_TICK)
        now = time.monotonic()
        outcomes = []
        for worker in busy:
            unit = worker.task
            if worker.conn in ready:
                try:
                    _key, ok, payload, counts = worker.conn.recv()
                except (EOFError, OSError):
                    kind, error = FAILURE_CRASH, None
                else:
                    self._note_counts(worker, counts)
                    self._release(worker, now)
                    outcomes.append((unit, ok, payload, FAILURE_EXCEPTION))
                    continue
            elif not worker.process.is_alive():
                kind, error = FAILURE_CRASH, None
            elif timeout is not None and now - worker.busy_since > timeout:
                kind = FAILURE_TIMEOUT
                error = f"no result within {timeout:.1f}s; worker killed"
            else:
                continue
            self._release(worker, now)
            self.respawn(worker)
            if error is None:  # the exit code is known once the process is reaped
                error = f"worker died mid-request (exit code {worker.process.exitcode})"
            outcomes.append((unit, False, (error, ""), kind))
        return outcomes

    def _release(self, worker: _Worker, now: float) -> None:
        worker.busy_seconds += now - worker.busy_since
        worker.completed += 1
        worker.task = None

    def _note_counts(self, worker: _Worker, reported: tuple) -> None:
        """Fold a worker's (records, plan_draws) counters into the pool totals."""
        records, draws = reported
        seen_records, seen_draws = worker.counts_seen
        self.worker_re_records += records - seen_records
        self.worker_plan_draws += draws - seen_draws
        worker.counts_seen = (records, draws)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Driver side.
# ---------------------------------------------------------------------------


class CampaignDriver:
    """Streams request lists through the one request pipeline.

    One driver serves a whole campaign: call :meth:`run` (or
    :meth:`run_specs`) as many times as the campaign has phases; the
    pool spins up on first pooled run and is reused until :meth:`close`.

    Failure semantics, per request: an exception, a worker crash, or a
    timeout records a :class:`FailureRecord` and -- while attempts
    remain -- requeues the request (crashes and timeouts get a fresh
    worker; the dead one is respawned).  A request that exhausts
    ``retries`` is a *final* failure: it is absent from the result
    mapping (lookups raise ``KeyError``) and listed in
    ``CampaignResult.failed``.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        retries: int = DEFAULT_RETRIES,
        timeout: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[Dict[str, float]], None]] = None,
        progress_interval: float = DEFAULT_PROGRESS_INTERVAL,
        pool: Optional[WorkerPool] = None,
    ):
        self.jobs = max(1, resolve_jobs(jobs))
        self.store = store
        self.use_cache = use_cache
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self.progress = progress
        self.progress_interval = progress_interval
        self._pool = pool
        self._started = time.monotonic()

    # -- pool lifecycle ------------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        return self._pool

    def _ensure_pool(self, units: int) -> WorkerPool:
        """The pool, with as many workers as ``units`` can use (up to jobs)."""
        want = min(self.jobs, units)
        if self._pool is None:
            self._pool = WorkerPool(jobs=want)
        else:
            self._pool.grow(want)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "CampaignDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- running -------------------------------------------------------------

    def run_specs(self, specs: Sequence[ExperimentSpec]) -> CampaignResult:
        """Expand several grids and stream them through the pool as one."""
        requests: List[RunRequest] = []
        for spec in specs:
            requests.extend(spec.expand())
        return self.run(requests)

    def run(self, requests: Sequence[RunRequest]) -> CampaignResult:
        from repro.workloads import tracestore

        t0 = time.monotonic()
        requests = list(requests)
        store = self.store if self.store is not None else get_default_store()
        stats = CampaignStats(total_requests=len(requests))
        respawns_before = self._pool.respawns if self._pool is not None else 0

        unique: Dict[str, RunRequest] = {}
        for req in requests:
            unique.setdefault(req.key, req)
        stats.unique_requests = len(unique)

        results: Dict[str, RunResult] = {}
        misses: List[RunRequest] = []
        for key, req in unique.items():
            cached = store.get(key) if self.use_cache else None
            if cached is not None:
                results[key] = cached
            else:
                misses.append(req)
        stats.cache_hits = len(unique) - len(misses)

        trace_store = tracestore.get_default_trace_store()
        records_before = trace_store.records
        _prepare_replay(misses)
        stats.warmup_records = trace_store.records - records_before
        records_at_execution = trace_store.records
        draws_at_execution = trace_store.plan_draws

        ledger: List[FailureRecord] = []
        if misses:
            self._execute(group_requests(misses), results, store, ledger, stats)

        flush = getattr(store, "flush", None)
        if callable(flush):
            flush()

        stats.re_records = trace_store.records - records_at_execution
        stats.keyed_draws = trace_store.plan_draws - draws_at_execution
        if self._pool is not None:
            stats.re_records += self._pool.worker_re_records
            stats.keyed_draws += self._pool.worker_plan_draws
            self._pool.worker_re_records = 0
            self._pool.worker_plan_draws = 0
            stats.respawns = self._pool.respawns - respawns_before
        stats.failures = len(ledger)
        stats.failed_requests = sum(1 for rec in ledger if rec.final)
        stats.elapsed_seconds = time.monotonic() - t0
        self._publish(0, 0, results, stats, force=True)
        return CampaignResult(requests, results, ledger, stats)

    def _execute(self, units, results, store, ledger, stats) -> None:
        """Run ``units`` to completion: the one attempt/requeue loop.

        Units run in-process when ``jobs <= 1`` or when a lone unit has
        no deadline (only a worker can enforce one); otherwise each idle
        worker takes the next unit.  A unit that cannot be pickled runs
        in-process too.  In-process and pooled outcomes settle the same
        way.
        """
        inline = self.jobs <= 1 or (len(units) == 1 and self.timeout is None)
        pool = None if inline else self._ensure_pool(len(units))
        pending = deque(units)
        attempts: Dict[str, int] = {}

        def settle(unit, ok, payload, kind=FAILURE_EXCEPTION):
            if ok:
                self._complete_unit(unit, payload, results, store, stats)
                return
            ukey = _unit_key(unit)
            error, detail = payload
            # A group failure is never final: its members requeue as
            # independent singles with their own attempt budgets, so
            # grouping never costs failure isolation.
            group = isinstance(unit, list)
            final = not group and attempts[ukey] > self.retries
            ledger.append(
                FailureRecord(
                    key=ukey, display=_unit_display(unit), kind=kind,
                    error=error, attempt=attempts[ukey], final=final,
                    detail=detail,
                )
            )
            if not final:
                stats.retries += 1
                pending.extend(unit if group else [unit])

        while pending or (pool is not None and pool.in_flight):
            # 1. Start units: one in-process, or one per idle worker.
            idle = [None] if pool is None else [w for w in pool.workers if not w.busy]
            for worker in idle:
                if not pending:
                    break
                unit = pending.popleft()
                ukey = _unit_key(unit)
                attempts[ukey] = attempts.get(ukey, 0) + 1
                if worker is not None:
                    sent = pool.submit(worker, unit)
                    if sent:
                        continue
                    if sent is None:
                        # Dead worker: it was replaced; retry the unit
                        # without charging it an attempt.
                        attempts[ukey] -= 1
                        pending.appendleft(unit)
                        continue
                    _warn_unpicklable(unit)
                try:
                    result = _run_unit(unit)
                except Exception as exc:
                    settle(unit, False, _failure(exc))
                else:
                    settle(unit, True, result)

            # 2. Settle whatever the workers finished, crashed or overran.
            if pool is not None:
                for outcome in pool.collect(self.timeout):
                    settle(*outcome)
            self._publish(
                len(pending), pool.in_flight if pool is not None else 0,
                results, stats,
            )

    # -- bookkeeping ---------------------------------------------------------

    def _complete(self, req, result, results, store, stats) -> None:
        results[req.key] = result
        stats.executed += 1
        if self.use_cache:
            store.put(req.key, result, fingerprint=req.fingerprint())

    def _complete_unit(self, unit, result, results, store, stats) -> None:
        """Fan a unit's payload out: every member gets its own entry."""
        if isinstance(unit, list):
            for req, run in zip(unit, result):
                self._complete(req, run, results, store, stats)
        else:
            self._complete(unit, result, results, store, stats)

    _last_publish = 0.0

    def _publish(self, queue_depth, in_flight, results, stats, force=False) -> None:
        now = time.monotonic()
        if not force and now - self._last_publish < min(self.progress_interval, 0.5):
            return
        self._last_publish = now
        reg = self.registry
        reg.gauge("campaign/queue_depth", queue_depth)
        reg.gauge("campaign/in_flight", in_flight)
        reg.gauge("campaign/completed", len(results))
        reg.gauge("campaign/executed", stats.executed)
        reg.gauge("campaign/retries", stats.retries)
        touched = stats.cache_hits + stats.executed
        reg.gauge(
            "campaign/cache_hit_rate",
            stats.cache_hits / touched if touched else 0.0,
        )
        reg.gauge("campaign/re_records", stats.re_records)
        pool = self._pool
        if pool is not None:
            since = self._started
            for worker in pool.workers:
                reg.gauge(
                    f"campaign/worker{worker.index}/utilisation",
                    worker.utilisation(now, since),
                )
        if self.progress is not None and (force or now - self._started > 0):
            self.progress(reg.gauges())


def run_campaign(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = DEFAULT_RETRIES,
    timeout: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[Dict[str, float]], None]] = None,
) -> CampaignResult:
    """One-shot campaign over ``requests`` (pool torn down afterwards)."""
    with CampaignDriver(
        jobs=jobs, store=store, use_cache=use_cache, retries=retries,
        timeout=timeout, registry=registry, progress=progress,
    ) as driver:
        return driver.run(requests)


__all__ = [
    "CampaignDriver",
    "CampaignResult",
    "CampaignStats",
    "DEFAULT_RETRIES",
    "FAILURE_CRASH",
    "FAILURE_EXCEPTION",
    "FAILURE_TIMEOUT",
    "FailureRecord",
    "JOBS_ENV",
    "RequestExecutionError",
    "WorkerPool",
    "reset_unpicklable_warnings",
    "resolve_jobs",
    "run_campaign",
]
