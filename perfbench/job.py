"""One iteration of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per iteration, so every iteration
pays what a user's job pays: interpreter start, imports, store
creation and trace recording (the set-up), then the job itself (the
measured wall).  The script writes one JSON report to ``--out``:

* ``setup_s`` -- from the parent's spawn timestamp (``--t0``, on the
  system-wide monotonic clock) until the job is ready to submit,
* ``wall_s`` -- from submitting the request list until every result
  is stored and the store is flushed,
* per-result digests in request order, request and failure counts,
  the simulated misses executed, the main process's peak RSS during the
  job, and the public counters the trace store and the campaign expose,
* with ``--traced``, the per-layer span table (see ``tracing.py``).

With ``--setup-only`` the script stops once the job is ready and
reports ``setup_s`` alone: ``run.py`` uses such processes for extra
set-up samples.  Once set-up ends, the script creates ``JOB_MARKER``
in its work directory, so ``run.py`` counts memory from then on only.

Only public entry points are called: ``run_campaign``,
``run_experiment`` and ``run_requests``.  The untraced path installs
no wrapper and never enables ``Observability``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

#: Worker processes every workload uses: ``min(2, nproc)``.
JOBS = min(2, len(os.sched_getaffinity(0)))

#: Policy set of the figure benches (``benchmarks/conftest.py``).
MAIN_POLICIES = ("PACT", "Colloid", "Alto", "NBT", "TPP", "Memtis", "Nomad", "Soar", "NoTier")

#: Work per run at full scale; ``--scale smoke`` divides it by
#: ``SMOKE_DIVISOR`` (the self-test's scale).
CAMPAIGN_MISSES = 24_000_000
FIGURE_MISSES = 12_000_000
FOOTPRINT_MISSES = 8_000_000
FOOTPRINT_PAGES = 1 << 20
SMOKE_DIVISOR = 16

#: File created in the work directory when set-up ends and the job starts.
JOB_MARKER = "job.started"


def vm_kb(pid, field: str) -> int:
    """A ``/proc/<pid>/status`` memory field in kB (0 when unavailable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pss_kb(pid) -> int:
    """Proportional set size of ``pid`` in kB (0 when unavailable).

    Pss splits each shared page among the processes that map it, so the
    Pss of a process and its forked workers adds up to their memory with
    every page counted once.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark, so set-up memory is not counted."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def result_digest(result) -> str:
    """SHA-256 of one run's stored form (``result_to_dict``)."""
    from repro.exp.cache import result_to_dict

    blob = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _conserves(result) -> bool:
    """Conservation checks every simulated result must pass."""
    tier_sum = sum(float(v) for v in result.tier_misses.values())
    return (
        result.runtime_cycles > 0
        and result.windows > 0
        and result.total_misses > 0
        and abs(tier_sum - float(result.total_misses)) <= 1e-6 * max(1.0, tier_sum)
    )


# -- the three jobs ----------------------------------------------------------
#
# Each function is the job's set-up; it returns the measured body, a
# callable that submits the requests and returns the ExperimentResult of
# each pass plus the public counters the job exposes.


def campaign_grid(seed: int, workdir: str, divisor: int, jobs: int):
    from repro.exp import ExperimentSpec, WorkloadSpec, open_store, run_campaign
    from repro.exp.spec import DEFAULT_MAX_WINDOWS
    from repro.obs import MetricsRegistry
    from repro.sim.config import MachineConfig
    from repro.workloads import tracestore

    def spec():
        return ExperimentSpec(
            workloads={
                name: WorkloadSpec.registry(
                    name, total_misses=CAMPAIGN_MISSES // divisor, seed=seed
                )
                for name in ("bc-kron", "silo", "gpt-2")
            },
            policies=["PACT", "Memtis", "Colloid", "NoTier"],
            ratios=["1:2", "1:4"],
            seeds=(2 * seed, 2 * seed + 1),
            config=MachineConfig(rng_schema=2),
        )

    trace_store = tracestore.set_default_trace_store(
        tracestore.TraceStore(os.path.join(workdir, "traces"))
    )
    # Record the streams with throwaway specs: the job's own specs
    # still fingerprint their workloads inside the measured region.
    for wspec in spec().workload_specs():
        trace_store.ensure_spec(wspec.descriptor(), wspec.build, DEFAULT_MAX_WINDOWS)
    store = open_store(os.path.join(workdir, "results"), backend="sqlite")
    requests = spec().expand()

    def run():
        registry = MetricsRegistry()
        result = run_campaign(requests, jobs=jobs, store=store, registry=registry)
        utils = [v for k, v in registry.gauges().items() if k.endswith("/utilisation")]
        return [result], {
            "campaign": result.stats.as_dict(),
            "worker_util": sum(utils) / len(utils) if utils else 0.0,
        }

    return run


def figure_sweep(seed: int, workdir: str, divisor: int, jobs: int):
    from repro.exp import ExperimentSpec, ResultStore, WorkloadSpec, run_experiment
    from repro.sim.config import PAPER_RATIOS, MachineConfig
    from repro.workloads import tracestore

    tracestore.set_default_trace_store(
        tracestore.TraceStore(os.path.join(workdir, "traces"))
    )
    results_dir = os.path.join(workdir, "results")
    os.makedirs(results_dir)
    spec = ExperimentSpec(
        workloads={
            "bc-kron": WorkloadSpec.registry(
                "bc-kron", total_misses=FIGURE_MISSES // divisor, seed=seed
            )
        },
        policies=list(MAIN_POLICIES),
        ratios=list(PAPER_RATIOS),
        seeds=(seed,),
        config=MachineConfig(),
    )

    def run():
        # A fresh store object per pass: the second pass is served from
        # the directory the first one wrote.
        passes = [
            run_experiment(spec, jobs=jobs, store=ResultStore(results_dir))
            for _ in range(2)
        ]
        return passes, {}

    return run


def footprint_1m(seed: int, workdir: str, divisor: int, jobs: int):
    from repro.exp import PolicySpec, ResultStore, RunRequest, WorkloadSpec, run_requests
    from repro.sim.config import MachineConfig

    store = ResultStore()
    requests = [
        RunRequest(
            workload=WorkloadSpec.registry(
                "gups",
                footprint_pages=FOOTPRINT_PAGES // divisor,
                total_misses=FOOTPRINT_MISSES // divisor,
                seed=seed,
            ),
            policy=PolicySpec("PACT"),
            ratio="1:4",
            seed=seed,
            config=MachineConfig(rng_schema=2),
            replay=False,
        )
    ]

    def run():
        return [run_requests(requests, jobs=jobs, store=store)], {}

    return run


WORKLOADS = {
    "campaign-grid": campaign_grid,
    "figure-sweep": figure_sweep,
    "footprint-1m": footprint_1m,
}


def summarise(passes) -> dict:
    """Digests, counts and simulated work of the job's result passes.

    A request whose result is missing failed for good.  A result that
    breaks a conservation check, or that a later pass serves with a
    different digest than the first pass computed, counts as bad.
    """
    digests = []
    attempted = failed = bad = 0
    first_pass = {}
    for i, exp in enumerate(passes):
        for req in exp.requests:
            attempted += 1
            try:
                run = exp.result(req)
            except KeyError:
                failed += 1
                digests.append([f"pass{i} {req.display}", None])
                continue
            digest = result_digest(run)
            if not _conserves(run):
                bad += 1
            if i == 0:
                first_pass[req.display] = digest
            elif first_pass.get(req.display) != digest:
                bad += 1
            digests.append([f"pass{i} {req.display}", digest])
    # Simulated misses: the distinct runs the first pass executed.
    sim_misses = 0.0
    for req in {req.key: req for req in passes[0].requests}.values():
        try:
            sim_misses += float(passes[0].result(req).total_misses)
        except KeyError:
            pass
    return {
        "attempted": attempted,
        "failed": failed,
        "bad_results": bad,
        "digests": digests,
        "sim_misses": sim_misses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.phase = "setup"

    divisor = SMOKE_DIVISOR if args.scale == "smoke" else 1
    # The traced run is serial so that every span lands in one process.
    jobs = 1 if args.traced else JOBS
    run = WORKLOADS[args.workload](args.seed, args.workdir, divisor, jobs)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump({"setup_s": ready - args.t0}, fh)
        return 0
    _reset_peak_rss()
    open(os.path.join(args.workdir, JOB_MARKER), "w").close()

    if tracer is not None:
        tracer.phase = "job"
    t_start = time.perf_counter()
    passes, counters = run()
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.phase = None

    from repro.workloads.tracestore import get_default_trace_store

    report = {
        "setup_s": ready - args.t0,
        "wall_s": wall,
        "main_peak_rss_kb": vm_kb("self", "VmHWM"),
        "trace_store": get_default_trace_store().stats(),
        **counters,
        **summarise(passes),
    }
    if tracer is not None:
        report["layers"] = tracer.report(wall)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
