"""Request execution and result indexing: what the request pipeline runs.

:func:`execute_request` runs one request from scratch: one
:class:`~repro.sim.machine.Machine` over the request's workload (a
replay of its recorded stream when replay is on).
:func:`_prepare_replay` records each distinct stream before fan-out.
The pipeline itself -- dedup, cache lookup, replay preparation,
execution and storage -- is :class:`~repro.exp.service.CampaignDriver`.
:func:`run_requests` and :func:`run_experiment` are that driver with
no retries and no deadline; they hand back an :class:`ExperimentResult`
that looks runs up by (workload, policy, ratio, seed).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exp.cache import ResultStore
from repro.exp.spec import (
    KIND_IDEAL,
    KIND_POLICY,
    KIND_SLOW_ONLY,
    ExperimentSpec,
    RunRequest,
)
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.metrics import RunResult
from repro.sim.policy_api import NoTierPolicy, SlowOnlyPolicy


def _replay_requested(request: RunRequest) -> bool:
    from repro.workloads.tracestore import replay_enabled

    if request.replay is not None:
        return request.replay
    return replay_enabled()


def _replay_workload(request: RunRequest, workload):
    """Swap the live workload for a replay of its recorded stream.

    Prefers the pre-recorded ``trace_path`` the runner attached before
    fan-out (one memory-mapped copy shared across worker processes via
    the page cache), resolved through the default trace store's memory
    so every run of a worker shares one :class:`TraceData` and its
    memoised draw plans; unreadable/corrupt paths fall back to the trace
    store, which re-records.  ``OSError`` covers a ``.npt`` deleted or
    evicted mid-campaign -- without it one vanished file would crash a
    worker instead of costing one re-record.  Bit-identity makes this
    swap invisible to results and cache keys alike.
    """
    from repro.workloads import tracestore

    store = tracestore.get_default_trace_store()
    if request.trace_path:
        try:
            return tracestore.ReplayWorkload(store.load(request.trace_path))
        except (tracestore.TraceFormatError, OSError):
            pass
    return store.replay(workload, max_windows=request.max_windows)


def execute_request(request: RunRequest) -> RunResult:
    """Run one request from scratch (no cache involvement)."""
    workload = request.workload.build()
    if _replay_requested(request):
        workload = _replay_workload(request, workload)
    config = request.config if request.config is not None else MachineConfig()
    # Requests asking for telemetry get a fresh bundle (with a bounded
    # trace ring when tracing too); otherwise the machine resolves the
    # plain trace flag itself, exactly as before the obs layer.
    obs = Observability(trace=request.trace) if request.obs else None
    if request.kind == KIND_IDEAL:
        machine = Machine(
            workload=workload,
            policy=NoTierPolicy(),
            config=config,
            ratio="1:1",
            fast_capacity_override=workload.footprint_pages,
            contender=request.contender,
            seed=request.seed,
            trace=request.trace,
            obs=obs,
        )
    elif request.kind == KIND_SLOW_ONLY:
        machine = Machine(
            workload=workload,
            policy=SlowOnlyPolicy(),
            config=config,
            ratio="1:1",
            fast_capacity_override=0,
            contender=request.contender,
            seed=request.seed,
            trace=request.trace,
            obs=obs,
        )
    else:
        machine = Machine(
            workload=workload,
            policy=request.policy.build(),
            config=config,
            ratio=request.ratio,
            contender=request.contender,
            seed=request.seed,
            trace=request.trace,
            obs=obs,
        )
    return machine.run(max_windows=request.max_windows)


class ExperimentResult:
    """Executed requests plus lookup helpers keyed on display identities."""

    def __init__(self, requests: Sequence[RunRequest], results: Dict[str, RunResult]):
        self.requests = list(requests)
        self._results = results

    def result(self, request: RunRequest) -> RunResult:
        return self._results[request.key]

    __getitem__ = result

    def find(
        self,
        workload: Optional[str] = None,
        policy: Optional[str] = None,
        ratio: Optional[str] = None,
        seed: Optional[int] = None,
        contender="any",
        kind: str = KIND_POLICY,
    ) -> RunResult:
        """The unique run matching the given display coordinates."""
        matches = []
        for req in self.requests:
            if req.kind != kind:
                continue
            if workload is not None and req.workload.display != workload:
                continue
            if policy is not None and (
                req.kind != KIND_POLICY or req.policy.display != policy
            ):
                continue
            if ratio is not None and kind == KIND_POLICY and req.ratio != ratio:
                continue
            if seed is not None and req.seed != seed:
                continue
            if contender != "any" and req.contender != contender:
                continue
            if req.key not in matches:
                matches.append(req.key)
        if not matches:
            raise KeyError(
                f"no run matches workload={workload!r} policy={policy!r} "
                f"ratio={ratio!r} seed={seed!r} kind={kind!r}"
            )
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous lookup (workload={workload!r} policy={policy!r} "
                f"ratio={ratio!r} seed={seed!r} kind={kind!r}): "
                f"{len(matches)} distinct runs -- pass more coordinates"
            )
        return self._results[matches[0]]

    def baseline(self, workload: str, seed: int = 0, contender=None) -> RunResult:
        return self.find(workload=workload, seed=seed, contender=contender, kind=KIND_IDEAL)

    def slow_only(self, workload: str, seed: int = 0, contender=None) -> RunResult:
        return self.find(
            workload=workload, seed=seed, contender=contender, kind=KIND_SLOW_ONLY
        )

    def slowdown(
        self,
        workload: str,
        policy: str,
        ratio: str,
        seed: int = 0,
        contender=None,
    ) -> float:
        run = self.find(
            workload=workload, policy=policy, ratio=ratio, seed=seed, contender=contender
        )
        return run.slowdown(self.baseline(workload, seed=seed, contender=contender))

    def promotions(
        self,
        workload: str,
        policy: str,
        ratio: str,
        seed: int = 0,
        contender=None,
    ) -> int:
        return self.find(
            workload=workload, policy=policy, ratio=ratio, seed=seed, contender=contender
        ).promoted

    def slowdown_table(
        self, ratio: str, seed: int = 0, contender=None
    ) -> Dict[str, Dict[str, float]]:
        """workload -> {policy -> slowdown} at one ratio."""
        table: Dict[str, Dict[str, float]] = {}
        for req in self.requests:
            if req.kind != KIND_POLICY or req.ratio != ratio or req.seed != seed:
                continue
            if req.contender != contender:
                continue
            wname = req.workload.display
            base = self.baseline(wname, seed=seed, contender=contender)
            table.setdefault(wname, {})[req.policy.display] = self._results[
                req.key
            ].slowdown(base)
        return table


def _prepare_replay(requests: Sequence[RunRequest]) -> None:
    """Record each distinct traffic stream once, before fan-out.

    A stream is keyed by (workload identity, window budget) -- never by
    policy, ratio, or contender -- so one recording serves every run in
    a sweep that shares the workload.  When the trace store is
    disk-backed the recorded ``.npt`` path is attached to the requests;
    forked workers then memory-map one shared copy instead of each
    regenerating (or unpickling) the traffic.  Memory-only stores still
    help: forked children inherit the parent's recordings copy-on-write.
    """
    from repro.exp.cache import content_hash
    from repro.workloads import tracestore

    replaying = [req for req in requests if _replay_requested(req)]
    if not replaying:
        return
    store = tracestore.get_default_trace_store()
    prepared: Dict[tuple, Optional[str]] = {}
    for req in replaying:
        ident = (content_hash(req.workload.descriptor()), req.max_windows)
        if ident not in prepared:
            # Spec-level ensure: an already-recorded stream attaches its
            # .npt path without ever building the live workload.
            _, data = store.ensure_spec(
                req.workload.descriptor(), req.workload.build, req.max_windows
            )
            prepared[ident] = str(data.path) if data.path is not None else None
        if req.trace_path is None and prepared[ident] is not None:
            req.trace_path = prepared[ident]


def run_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Execute a request list through the campaign driver.

    No request is retried and none has a deadline.  Every healthy
    result is stored; afterwards, if any request failed, raise
    :class:`~repro.exp.service.RequestExecutionError` naming it.
    """
    from repro.exp.service import CampaignDriver, RequestExecutionError

    with CampaignDriver(jobs=jobs, store=store, use_cache=use_cache, retries=0) as driver:
        result = driver.run(requests)
    failed = result.failed
    if failed:
        first = failed[0]
        more = f" (and {len(failed) - 1} more)" if len(failed) > 1 else ""
        detail = f"\n\n{first.detail}" if first.detail else ""
        raise RequestExecutionError(
            f"request {first.display} failed: {first.error}{more}{detail}"
        )
    return result


def run_experiment(
    spec: ExperimentSpec,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> ExperimentResult:
    """Expand a declared grid and execute it."""
    return run_requests(spec.expand(), jobs=jobs, store=store, use_cache=use_cache)
