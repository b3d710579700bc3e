"""Campaign service: persistent pool, SQLite store, failure isolation.

The contracts the 10k-run campaign story rests on:

* a campaign through the worker-pool service is bit-identical to serial
  ``run_requests`` on the same request list, for both store backends;
* the SQLite store round-trips results exactly, batches commits, reads
  legacy JSON-directory entries, and discards stale-version rows;
* a worker exception, crash, or hang loses only the affected request:
  the failure ledger names it, a retry completes it, and every other
  request's result is unaffected;
* zero traffic re-generation: after the driver's warm-up recording,
  neither the parent nor any worker records a stream again.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from functools import partial
from pathlib import Path

import pytest

from repro.exp.cache import (
    CACHE_VERSION,
    ResultStore,
    reset_default_store,
    result_to_dict,
    set_default_store,
)
from repro.exp.runner import run_requests
from repro.exp.service import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    CampaignDriver,
    run_campaign,
)
from repro.exp.spec import ExperimentSpec, PolicySpec, RunRequest, WorkloadSpec
from repro.exp.store import SqliteResultStore, open_store
from repro.sim.metrics import RunResult
from repro.workloads import tracestore

from conftest import TinyWorkload


def tiny_factory():
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000)


def small_grid() -> ExperimentSpec:
    return ExperimentSpec(
        workloads=[WorkloadSpec.from_factory(tiny_factory, label="tiny")],
        policies=[PolicySpec("PACT"), PolicySpec("NoTier")],
        ratios=("1:1", "1:2"),
    )


def seed_ratio_grid() -> ExperimentSpec:
    return ExperimentSpec(
        workloads=[WorkloadSpec.from_factory(tiny_factory, label="tiny")],
        policies=[PolicySpec("PACT")],
        ratios=("1:2", "1:4"),
        seeds=(0, 1, 2),
    )


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def misbehaving_factory(mode: str, flag_path: str):
    """A workload factory that fails *inside worker processes only*.

    The parent builds workloads too (descriptor fingerprints, replay
    warm-up), so failures are keyed on the process name.  ``flag_path``
    arms one-shot modes: the first worker build trips the failure and
    leaves the flag behind; retries then build normally.

    The returned workload's parameters differ from ``tiny_factory``'s:
    requests fingerprint the *built instance*, and identical parameters
    would dedup the bad request onto the healthy one's cache key.
    """
    if _in_worker() and not os.path.exists(flag_path):
        Path(flag_path).touch()
        if mode == "raise":
            raise ValueError("injected workload failure")
        if mode == "crash":
            os._exit(13)
        if mode == "hang":
            time.sleep(120.0)
    return TinyWorkload(total_misses=120_000, misses_per_window=30_000, seed=11)


def misbehaving_spec(mode: str, flag_path, label: str) -> WorkloadSpec:
    return WorkloadSpec.from_factory(
        partial(misbehaving_factory, mode, str(flag_path)), label=label
    )


@pytest.fixture
def isolated_stores():
    """Memory-only default result + trace stores, restored afterwards."""
    store = set_default_store(ResultStore())
    trace_store = tracestore.set_default_trace_store(tracestore.TraceStore())
    yield store, trace_store
    reset_default_store()
    tracestore.reset_default_trace_store()


def fake_result(**overrides) -> RunResult:
    base = dict(
        workload="w", policy="p", ratio="1:1", runtime_cycles=10.0, windows=2,
        promoted=1, demoted=0, migration_cost_cycles=1.0, total_stall_cycles=2.0,
        total_misses=100.0, tier_misses={},
    )
    base.update(overrides)
    return RunResult(**base)


# ---------------------------------------------------------------------------
# SQLite result store.
# ---------------------------------------------------------------------------


class TestSqliteStore:
    def test_roundtrip_and_batched_commits(self, tmp_path):
        store = SqliteResultStore(tmp_path, batch_size=3)
        for i in range(5):
            store.put(f"k{i}", fake_result(windows=i + 1))
        assert store.commits == 1  # 3 puts flushed, 2 still pending
        store.flush()
        assert store.commits == 2

        fresh = SqliteResultStore(tmp_path)
        got = fresh.get("k4")
        assert got is not None and got.windows == 5
        assert fresh.disk_hits == 1
        assert result_to_dict(got) == result_to_dict(fake_result(windows=5))

    def test_pending_batch_flushed_on_close(self, tmp_path):
        store = SqliteResultStore(tmp_path, batch_size=100)
        store.put("k", fake_result())
        assert store.commits == 0
        store.close()
        assert SqliteResultStore(tmp_path).get("k") is not None

    def test_reads_legacy_json_entries(self, tmp_path):
        ResultStore(tmp_path).put("legacy", fake_result(windows=7))
        store = SqliteResultStore(tmp_path)
        got = store.get("legacy")
        assert got is not None and got.windows == 7
        assert store.json_migrations == 1
        store.flush()
        # Migrated: a fresh store finds it in the table even after the
        # JSON file disappears.
        (tmp_path / "legacy.json").unlink()
        assert SqliteResultStore(tmp_path).get("legacy") is not None

    def test_stale_version_row_deleted_on_detection(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.put("k", fake_result())
        store.flush()
        store._conn.execute("UPDATE results SET version = ?", (CACHE_VERSION - 1,))
        store._conn.commit()
        store.clear_memory()
        assert store.get("k") is None
        assert store.count() == 0  # deleted, not re-parsed forever

    def test_unserialisable_result_surfaces_and_leaves_no_row(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        with pytest.raises(TypeError):
            store.put("bad", fake_result(workload_metrics={"x": object()}))
        store.flush()
        assert store.count() == 0

    def test_open_store_backends(self, tmp_path):
        assert isinstance(open_store(tmp_path, "sqlite"), SqliteResultStore)
        json_store = open_store(tmp_path, "json")
        assert isinstance(json_store, ResultStore)
        assert not isinstance(json_store, SqliteResultStore)
        with pytest.raises(ValueError):
            open_store(tmp_path, "parquet")


# ---------------------------------------------------------------------------
# Campaign driver: equivalence.
# ---------------------------------------------------------------------------


class TestCampaignEquivalence:
    def test_campaign_matches_serial_run_requests(self, tmp_path):
        spec = small_grid()
        try:
            tracestore.set_default_trace_store(tracestore.TraceStore())
            set_default_store(ResultStore())
            serial = run_requests(spec.expand(), jobs=1, use_cache=False)

            tracestore.set_default_trace_store(
                tracestore.TraceStore(tmp_path / "traces")
            )
            sqlite_store = SqliteResultStore(tmp_path / "cache")
            campaign = run_campaign(
                spec.expand(), jobs=2, store=sqlite_store, use_cache=True
            )
        finally:
            reset_default_store()
            tracestore.reset_default_trace_store()

        assert campaign.ok
        for req in spec.expand():
            assert result_to_dict(serial[req]) == result_to_dict(campaign[req]), (
                req.display
            )
        # Zero traffic re-generation after warm-up, on either side of
        # the process boundary.
        assert campaign.stats.re_records == 0

    def test_sqlite_and_json_stores_equivalent_on_replayed_sweep(self, tmp_path):
        spec = small_grid()
        requests = spec.expand()
        try:
            tracestore.set_default_trace_store(
                tracestore.TraceStore(tmp_path / "traces")
            )
            json_store = ResultStore(tmp_path / "json-cache")
            via_json = run_campaign(requests, jobs=1, store=json_store)

            sqlite_store = SqliteResultStore(tmp_path / "sqlite-cache")
            via_sqlite = run_campaign(requests, jobs=1, store=sqlite_store)
            sqlite_store.flush()

            # Both campaigns replayed the same recorded stream...
            assert via_json.stats.re_records == 0
            assert via_sqlite.stats.re_records == 0
            assert via_sqlite.stats.warmup_records == 0  # stream shared
            # ...and a fresh store over either backend serves identical
            # results with zero simulations.
            reread = SqliteResultStore(tmp_path / "sqlite-cache")
            for req in requests:
                a = result_to_dict(via_json[req])
                assert a == result_to_dict(via_sqlite[req])
                assert a == result_to_dict(reread.get(req.key))
        finally:
            tracestore.reset_default_trace_store()

    def test_pooled_campaign_matches_serial(self, isolated_stores):
        spec = seed_ratio_grid()
        with CampaignDriver(jobs=2) as driver:
            campaign = driver.run(spec.expand())
        assert campaign.ok
        serial = run_requests(spec.expand(), use_cache=False)
        for req in spec.expand():
            assert result_to_dict(campaign[req]) == result_to_dict(serial[req])

    def test_every_member_lands_in_cache(self, isolated_stores):
        store, _ = isolated_stores
        spec = seed_ratio_grid()
        run_requests(spec.expand())
        for req in spec.expand():
            assert store.get(req.key) is not None

    def test_campaign_serves_existing_json_cache(self, tmp_path, isolated_stores):
        spec = small_grid()
        json_store = ResultStore(tmp_path / "cache")
        run_requests(spec.expand(), jobs=1, store=json_store)

        sqlite_store = SqliteResultStore(tmp_path / "cache")
        campaign = run_campaign(spec.expand(), jobs=2, store=sqlite_store)
        assert campaign.stats.executed == 0
        assert campaign.stats.cache_hits == len({r.key for r in spec.expand()})

    def test_driver_pool_persists_across_runs(self, isolated_stores):
        spec = small_grid()
        with CampaignDriver(jobs=2) as driver:
            first = driver.run(spec.expand())
            pids = [w.process.pid for w in driver.pool.workers]
            second = driver.run(spec.expand())
            assert [w.process.pid for w in driver.pool.workers] == pids
        assert first.ok and second.ok
        assert second.stats.executed == 0  # all cache hits on the rerun

    def test_campaign_gauges_published(self, isolated_stores):
        driver = CampaignDriver(jobs=1)
        result = driver.run(small_grid().expand())
        gauges = driver.registry.gauges()
        assert result.ok
        assert gauges["campaign/completed"] == result.stats.unique_requests
        assert gauges["campaign/queue_depth"] == 0
        assert gauges["campaign/re_records"] == 0
        assert 0.0 <= gauges["campaign/cache_hit_rate"] <= 1.0


# ---------------------------------------------------------------------------
# Campaign driver: failure isolation.
# ---------------------------------------------------------------------------


class TestFailureIsolation:
    def _grid(self, bad_spec) -> list:
        healthy = ExperimentSpec(
            workloads=[WorkloadSpec.from_factory(tiny_factory, label="tiny")],
            policies=[PolicySpec("NoTier")],
            ratios=("1:1",),
        )
        bad = RunRequest(
            workload=bad_spec, policy=PolicySpec("NoTier"), ratio="1:1", replay=False
        )
        return healthy.expand() + [bad]

    def test_worker_exception_loses_only_that_request(
        self, tmp_path, isolated_stores
    ):
        # retries=0: the single armed attempt is the final one.
        requests = self._grid(misbehaving_spec("raise", tmp_path / "armed.flag", "raisy"))
        campaign = run_campaign(requests, jobs=2, retries=0)
        failed = campaign.failed
        assert len(failed) == 1
        assert failed[0].kind == FAILURE_EXCEPTION
        assert "raisy" in failed[0].display
        assert "injected workload failure" in failed[0].error
        with pytest.raises(KeyError):
            campaign.result(requests[-1])
        # Every healthy request still completed.
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_retry_completes_after_one_shot_exception(self, tmp_path, isolated_stores):
        requests = self._grid(misbehaving_spec("raise", tmp_path / "armed.flag", "raisy"))
        campaign = run_campaign(requests, jobs=2, retries=1)
        assert campaign.ok
        assert campaign.stats.retries == 1
        assert len(campaign.ledger) == 1
        assert not campaign.ledger[0].final
        assert campaign[requests[-1]].runtime_cycles > 0

    def test_worker_crash_is_isolated_and_retried(self, tmp_path, isolated_stores):
        requests = self._grid(misbehaving_spec("crash", tmp_path / "crashed.flag", "crashy"))
        campaign = run_campaign(requests, jobs=2, retries=1)
        assert campaign.ok, [rec.describe() for rec in campaign.ledger]
        kinds = [rec.kind for rec in campaign.ledger]
        assert kinds == [FAILURE_CRASH]
        assert "crashy" in campaign.ledger[0].display
        assert campaign.stats.respawns >= 1
        assert campaign[requests[-1]].runtime_cycles > 0
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_hung_worker_killed_on_timeout(self, tmp_path, isolated_stores):
        requests = self._grid(misbehaving_spec("hang", tmp_path / "hung.flag", "hangy"))
        campaign = run_campaign(requests, jobs=2, retries=0, timeout=2.0)
        failed = campaign.failed
        assert len(failed) == 1
        assert failed[0].kind == FAILURE_TIMEOUT
        assert "hangy" in failed[0].display
        assert campaign.stats.respawns >= 1
        for req in requests[:-1]:
            assert campaign[req].runtime_cycles > 0

    def test_respawns_count_only_this_run(self, tmp_path, isolated_stores):
        requests = self._grid(misbehaving_spec("crash", tmp_path / "crashed.flag", "crashy"))
        with CampaignDriver(jobs=2, retries=1) as driver:
            first = driver.run(requests)
            second = driver.run(small_grid().expand())
            third = driver.run(small_grid().expand())
        assert first.ok and first.stats.respawns == 1
        assert second.ok and third.ok
        assert third.stats.executed == 0  # every request served from cache
        assert second.stats.respawns == 0
        assert third.stats.respawns == 0

    def test_serial_campaign_honours_retries_and_ledger(self, tmp_path, isolated_stores):
        # jobs=1 runs in-process, so worker-name gating doesn't apply.
        # The parent builds once while fingerprinting (call 1); the first
        # execution attempt is call 2, and it fails.
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("first attempt fails")
            return tiny_factory()

        bad = RunRequest(
            workload=WorkloadSpec.from_factory(flaky, label="flaky"),
            policy=PolicySpec("NoTier"),
            replay=False,
        )
        campaign = run_campaign([bad], jobs=1, retries=1)
        assert campaign.ok
        assert len(campaign.ledger) == 1
        assert campaign.ledger[0].kind == FAILURE_EXCEPTION
        assert "flaky" in campaign.ledger[0].display


# ---------------------------------------------------------------------------
# Worker count.
# ---------------------------------------------------------------------------


class TestResolveJobs:
    def test_env_supplies_default(self, monkeypatch):
        from repro.exp.service import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # an explicit count wins
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1

    def test_malformed_env_rejected(self, monkeypatch):
        from repro.exp.service import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ValueError, match="REPRO_JOBS='four'"):
            resolve_jobs()
