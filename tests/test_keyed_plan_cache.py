"""Compute-once schema-2 draw plans: sidecars and the in-process memo.

Keyed PEBS records depend only on (trace, seed, rate, loads_only), so
the trace store draws each record tensor once, keeps it beside the
``.npt`` as a ``.pebs-<hash>.npy`` sidecar, and serves every later run
-- in any process -- from that file; a per-trace memo shares the
records, their positive-record index and the keyed jitter tensors
between runs of one process.  These tests pin the contract:

* served tensors equal freshly drawn ones bit for bit;
* every key input (seed, rate, loads_only, the trace file) selects a
  different sidecar;
* unusable sidecars are misses, and concurrent workers draw once;
* shared tensors are read-only, and same-seed runs of one process
  share one object;
* ``REPRO_NO_DRAWPLAN=1`` bypasses the cache, and re-recording a trace
  discards its sidecars;
* campaigns count the draws their workers make.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines import make_policy
from repro.exp.cache import ResultStore
from repro.exp.service import run_campaign
from repro.exp.spec import ExperimentSpec, WorkloadSpec
from repro.hw import drawplan, substream
from repro.hw.substream import KeyedJitter, KeyedPebsSampler
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import make_workload, tracestore
from repro.workloads.tracestore import ReplayWorkload, TraceStore, read_npt

MAX_WINDOWS = 512


def gups(seed=7):
    return make_workload("gups", total_misses=600_000, seed=seed)


@pytest.fixture
def trace_dir(tmp_path):
    """A trace directory holding one recorded gups stream."""
    TraceStore(tmp_path).ensure(gups(), MAX_WINDOWS)
    return tmp_path


@pytest.fixture
def default_store(trace_dir):
    """A fresh default trace store over ``trace_dir`` (restored after)."""
    previous = tracestore.get_default_trace_store()
    store = tracestore.set_default_trace_store(TraceStore(trace_dir))
    yield store
    tracestore.set_default_trace_store(previous)


def trace_file(directory):
    (path,) = directory.glob("*.npt")
    return path


def sidecars(directory):
    return sorted(p.name for p in directory.glob("*.pebs-*"))


def sampler(seed=0, rate=61, loads_only=True):
    return KeyedPebsSampler(
        seed=seed, rate=rate, cycles_per_record=100.0, sampled_codes=[1],
        num_tiers=2, loads_only=loads_only,
    )


def serve(directory, **kw):
    """Records served by a fresh store over a freshly read trace."""
    store = TraceStore(directory)
    data = read_npt(trace_file(directory))
    return store, data, store.pebs_records(data, sampler(**kw))


def machine(data, seed=0, ratio="1:2", policy="PACT"):
    return Machine(
        workload=ReplayWorkload(data), policy=make_policy(policy),
        config=MachineConfig(rng_schema=2), ratio=ratio, seed=seed,
    )


class TestServedEqualsDrawn:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("rate", [17, 61])
    @pytest.mark.parametrize("loads_only", [True, False])
    def test_records_and_pos_plan(self, trace_dir, seed, rate, loads_only):
        kw = dict(seed=seed, rate=rate, loads_only=loads_only)
        cold_store, _, _ = serve(trace_dir, **kw)
        assert cold_store.stats()["plan_draws"] == 1
        store, data, served = serve(trace_dir, **kw)
        assert (store.plan_draws, store.plan_hits) == (0, 1)
        fresh = substream.plan_keyed_records(sampler(**kw), data)
        assert served.records.dtype == fresh.records.dtype
        np.testing.assert_array_equal(served.records, fresh.records)
        np.testing.assert_array_equal(served.entry_ptr, fresh.entry_ptr)
        shared = drawplan._shared_pebs_pos(served, data)
        direct = drawplan.build_pebs_pos(fresh, data)
        for attr in ("_ptr", "pos_idx", "pages_pos", "recs_pos", "sorted_unique"):
            np.testing.assert_array_equal(getattr(shared, attr), getattr(direct, attr))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_jitter_tensors(self, default_store, trace_dir, seed):
        data = default_store.load(trace_file(trace_dir))
        m = machine(data, seed=seed)
        gpw = np.diff(np.asarray(data.columns["window_group_ptr"]))
        for jitter, purpose, sizes in (
            (m._keyed_cha, "cha", 2 * 2 * gpw),
            (m._keyed_perf, "perf", np.where(gpw > 0, 4, 0)),
        ):
            values, ptr = KeyedJitter(seed, purpose, jitter.noise).draw_plan(sizes)
            np.testing.assert_array_equal(jitter._plan_values, values)
            np.testing.assert_array_equal(jitter._plan_ptr, ptr)

    def test_sidecar_run_matches_live_run(self, default_store, trace_dir, monkeypatch):
        path = trace_file(trace_dir)
        machine(default_store.load(path)).run(max_windows=MAX_WINDOWS)
        assert sidecars(trace_dir)
        served = machine(read_npt(path)).run(max_windows=MAX_WINDOWS)
        monkeypatch.setenv(drawplan.ENV_DISABLE, "1")
        live = machine(read_npt(path)).run(max_windows=MAX_WINDOWS)
        assert served.runtime_cycles == live.runtime_cycles
        assert served.promoted == live.promoted
        assert served.tier_misses == live.tier_misses


class TestKey:
    def test_each_input_selects_its_own_sidecar(self, trace_dir):
        serve(trace_dir)
        variants = [dict(seed=1), dict(rate=17), dict(loads_only=False)]
        for n, kw in enumerate(variants, start=2):
            store, _, _ = serve(trace_dir, **kw)
            assert store.plan_draws == 1
            assert len([s for s in sidecars(trace_dir) if s.endswith(".npy")]) == n

    def test_rewritten_trace_file_misses(self, trace_dir):
        serve(trace_dir)
        path = trace_file(trace_dir)
        before = read_npt(path)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        after = read_npt(path)
        assert after.source_id != before.source_id
        s = sampler()
        assert tracestore.keyed_plan_key(after, s) != tracestore.keyed_plan_key(before, s)
        store, _, _ = serve(trace_dir)
        assert store.plan_draws == 1

    def test_memory_only_traces_memoise_without_files(self, tmp_path):
        data = tracestore.record_stream(gups(), max_windows=MAX_WINDOWS)
        store = TraceStore()
        first = store.pebs_records(data, sampler())
        assert store.pebs_records(data, sampler()) is first
        assert (store.plan_draws, store.plan_hits) == (1, 1)
        assert tracestore.sidecar_path(data, first.key) is None


class TestRobustness:
    @pytest.mark.parametrize("damage", ["truncate", "garbage", "short"])
    def test_unusable_sidecar_is_a_miss(self, trace_dir, damage):
        _, _, good = serve(trace_dir)
        expect = np.array(good.records)
        (name,) = [s for s in sidecars(trace_dir) if s.endswith(".npy")]
        path = trace_dir / name
        if damage == "truncate":
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "garbage":
            path.write_bytes(b"not a numpy file at all" * 8)
        else:
            np.save(path, expect[:-1])
        store, _, served = serve(trace_dir)
        assert (store.plan_draws, store.plan_hits) == (1, 0)
        np.testing.assert_array_equal(served.records, expect)
        # The redraw repaired the file: the next process is served.
        store, _, _ = serve(trace_dir)
        assert (store.plan_draws, store.plan_hits) == (0, 1)

    def test_forked_workers_race_to_one_draw(self, trace_dir):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()

        def work():
            barrier.wait()
            store, _, plan = serve(trace_dir, seed=11)
            results.put((store.plan_draws, np.array(plan.records).tobytes()))

        procs = [ctx.Process(target=work) for _ in range(2)]
        for p in procs:
            p.start()
        got = [results.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
        assert sum(draws for draws, _ in got) == 1
        assert got[0][1] == got[1][1]

    def test_rerecord_discards_sidecars(self, trace_dir):
        serve(trace_dir)
        assert any(s.endswith(".lock") for s in sidecars(trace_dir))
        path = trace_file(trace_dir)
        path.write_bytes(path.read_bytes()[:100])  # corrupt: forces a re-record
        store = TraceStore(trace_dir)
        store.ensure(gups(), MAX_WINDOWS)
        assert store.records == 1
        assert sidecars(trace_dir) == []
        store, _, _ = serve(trace_dir)
        assert store.plan_draws == 1


class TestSharing:
    def test_shared_tensors_are_read_only(self, default_store, trace_dir):
        m = machine(default_store.load(trace_file(trace_dir)))
        pos = m._pebs_pos
        for arr in (pos.pos_idx, pos.pages_pos, pos.recs_pos,
                    m._keyed_cha._plan_values, m._keyed_perf._plan_values):
            with pytest.raises(ValueError):
                arr[0] = 0
        _, _, plan = serve(trace_dir)
        with pytest.raises(ValueError):
            plan.records[0] = 0

    def test_lockstep_members_with_one_seed_share(self, default_store, trace_dir):
        data = default_store.load(trace_file(trace_dir))
        a, b, c = (machine(data, seed=s, ratio=r)
                   for s, r in ((0, "1:2"), (0, "1:4"), (1, "1:2")))
        assert a._pebs_pos is b._pebs_pos
        assert a._keyed_cha._plan_values is b._keyed_cha._plan_values
        assert a._keyed_perf._plan_values is b._keyed_perf._plan_values
        assert a._pebs_pos is not c._pebs_pos
        assert a._keyed_cha._plan_values is not c._keyed_cha._plan_values
        assert default_store.plan_draws == 2

    def test_load_shares_one_trace_object(self, default_store, trace_dir):
        path = trace_file(trace_dir)
        first = default_store.load(path)
        assert default_store.load(str(path)) is first
        assert default_store.memory_hits == 1

    def test_static_split_shared_by_placement(self, default_store, trace_dir):
        data = default_store.load(trace_file(trace_dir))
        a, b = (machine(data, seed=s, policy="NoTier") for s in (0, 1))
        assert np.array_equal(a.memory.placement, b.memory.placement)
        batch_a = a._split_plan.batches[0]
        batch_b = b._split_plan.batches[0]
        # One read-only split, per-run solver scratch.
        assert batch_a.misses.base is batch_b.misses.base
        assert not np.shares_memory(batch_a.unit_stall_cycles, batch_b.unit_stall_cycles)
        c = machine(data, seed=0, ratio="1:4", policy="NoTier")
        assert c._split_plan.batches[0].misses.base is not batch_a.misses.base

    def test_no_drawplan_bypasses_the_cache(self, default_store, trace_dir, monkeypatch):
        monkeypatch.setenv(drawplan.ENV_DISABLE, "1")
        data = default_store.load(trace_file(trace_dir))
        m = machine(data)
        assert m._pebs_records is None and m._pebs_pos is None
        assert m._keyed_cha._plan_values is None
        assert (default_store.plan_draws, default_store.plan_hits) == (0, 0)
        assert data.memo == {}
        assert sidecars(trace_dir) == []


class TestCampaignCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_draw_per_seed_then_none(self, tmp_path, jobs):
        spec = ExperimentSpec(
            workloads={"gups": WorkloadSpec.registry("gups", total_misses=600_000)},
            policies=["PACT", "NoTier"],
            ratios=["1:2", "1:4"],
            seeds=(0, 1),
            config=MachineConfig(rng_schema=2),
        )
        previous = tracestore.get_default_trace_store()
        tracestore.set_default_trace_store(TraceStore(tmp_path / "traces"))
        try:
            cold = run_campaign(spec.expand(), jobs=jobs, store=ResultStore())
            warm = run_campaign(spec.expand(), jobs=jobs, store=ResultStore())
        finally:
            tracestore.set_default_trace_store(previous)
        assert cold.ok and warm.ok
        assert cold.stats.keyed_draws == 2
        assert warm.stats.keyed_draws == 0
        for req in spec.expand():
            assert cold[req].runtime_cycles == warm[req].runtime_cycles
