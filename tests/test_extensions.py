"""Trace replay, multi-seed statistics, and terminal charts."""

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.analysis.repeat import RepeatedResult, repeat_runs, significantly_better
from repro.baselines import make_policy
from repro.common.charts import bar_chart, series_with_sparkline, sparkline
from repro.exp.cache import ResultStore, workload_fingerprint
from repro.exp.runner import run_requests
from repro.exp.spec import PolicySpec, RunRequest, WorkloadSpec
from repro.sim.config import MachineConfig
from repro.sim.engine import clear_baseline_cache, ideal_baseline, run_policy
from repro.sim.machine import Machine
from repro.sim.policy_api import NoTierPolicy
from repro.workloads.tracefile import (
    TraceWorkload,
    record_trace,
    write_trace,
)

from conftest import TinyWorkload


def small_trace():
    return {
        "name": "toy",
        "footprint_pages": 16,
        "windows": [
            {"groups": [{"pages": [0, 1], "counts": [5, 3], "mlp": 2.0}]},
            {"groups": [{"pages": [8, 9], "counts": [4, 4], "mlp": 8.0, "label": "s"}]},
        ],
    }


class TestTraceWorkload:
    def test_replays_windows_exactly(self):
        w = TraceWorkload(small_trace(), loop=False)
        w.reset()
        first = w.next_window()
        assert list(first.groups[0].pages) == [0, 1]
        assert first.groups[0].total_misses == 8
        second = w.next_window()
        assert second.groups[0].mlp == 8.0
        assert w.done

    def test_looping_stretches_work(self):
        w = TraceWorkload(small_trace(), loop=True)
        w.set_total_misses(64)  # 16 misses per loop -> 4 loops
        w.reset()
        windows = 0
        while not w.done and windows < 50:
            w.next_window()
            windows += 1
        assert windows == 8

    def test_validation(self):
        bad = small_trace()
        bad["windows"][0]["groups"][0]["pages"] = [99]  # outside footprint
        with pytest.raises(ValueError):
            TraceWorkload(bad)
        with pytest.raises(ValueError):
            TraceWorkload({"footprint_pages": 4, "windows": []})

    def test_record_and_replay_round_trip(self, config):
        source = TinyWorkload()
        trace = record_trace(source, windows=4)
        assert len(trace["windows"]) == 4
        replay = TraceWorkload(trace, loop=False)
        result = Machine(replay, NoTierPolicy(), config=config).run()
        assert result.windows == 4
        assert result.total_misses > 0

    def test_file_round_trip(self, tmp_path):
        path = write_trace(small_trace(), tmp_path / "t.json")
        w = TraceWorkload.from_file(path, loop=False)
        assert w.footprint_pages == 16

    def test_runs_under_pact(self, config):
        clear_baseline_cache()
        trace = record_trace(TinyWorkload(), windows=12)
        from repro.baselines import make_policy

        workload = TraceWorkload(trace, loop=False)
        baseline = ideal_baseline(TraceWorkload(trace, loop=False), config=config)
        result = run_policy(workload, make_policy("PACT"), ratio="1:2", config=config)
        assert result.slowdown(baseline) < 1.5


def two_page_trace(pages):
    return {
        "name": "t",
        "footprint_pages": 16,
        "windows": [{"groups": [{"pages": pages, "counts": [5, 3], "mlp": 2.0}]}],
    }


def stream_digest(workload, limit=500):
    """(windows, digest) of everything a workload emits until done."""
    h = hashlib.sha256()
    workload.reset()
    n = 0
    while not workload.done and n < limit:
        t = workload.next_window()
        h.update(repr((float(t.compute_cycles), bool(t.done), t.phase,
                       int(t.extra["consumed_after"]))).encode())
        for g in t.groups:
            h.update(np.asarray(g.pages, dtype=np.int64).tobytes())
            h.update(np.asarray(g.counts, dtype=np.int64).tobytes())
            h.update(repr((float(g.mlp), float(g.load_fraction), g.label)).encode())
        n += 1
    workload.reset()
    return n, h.hexdigest()[:16]


TRACES = {
    "small": small_trace,
    "tiny": lambda: record_trace(TinyWorkload(), windows=12),
}

#: Pinned from the per-window JSON replay that TraceWorkload used before
#: it replayed through ReplayWorkload: (trace, loop, budget stretch) ->
#: (windows, stream digest, {(rng schema, policy): runtime_cycles.hex()}).
_RUNS = [(schema, policy) for schema in (1, 2) for policy in ("NoTier", "PACT")]
_SMALL_1X = dict.fromkeys(_RUNS, "0x1.c53c2e66298d6p+10")
_SMALL_3X = dict.fromkeys(_RUNS, "0x1.53ed22cc9f2a0p+12")
_TINY_1X = {
    (1, "NoTier"): "0x1.0d7ba4892cc29p+25", (1, "PACT"): "0x1.270c5f46e7897p+25",
    (2, "NoTier"): "0x1.0d7ba4892cc29p+25", (2, "PACT"): "0x1.1fdb2d4cc332ap+25",
}
PINNED = {
    ("small", False, 1): (2, "a8e1ab050067c378", _SMALL_1X),
    ("small", True, 1): (2, "a8e1ab050067c378", _SMALL_1X),
    ("small", True, 3): (6, "b9fdd3b0c9e32d5a", _SMALL_3X),
    ("tiny", False, 1): (12, "06a53f402de04509", _TINY_1X),
    ("tiny", True, 1): (12, "06a53f402de04509", _TINY_1X),
    ("tiny", True, 3): (36, "76162d17501404dd", {
        (1, "NoTier"): "0x1.943976cdc323cp+26", (1, "PACT"): "0x1.aad697d0c349cp+26",
        (2, "NoTier"): "0x1.943976cdc323cp+26", (2, "PACT"): "0x1.a570649823a2fp+26",
    }),
}


def pinned_workload(name, loop, stretch):
    workload = TraceWorkload(TRACES[name](), loop=loop)
    if stretch > 1:
        workload.set_total_misses(workload.total_misses * stretch)
    return workload


class TestTraceReplayPinned:
    @pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
    def test_stream_and_runtimes_unchanged(self, case):
        windows, digest, runtimes = PINNED[case]
        assert stream_digest(pinned_workload(*case)) == (windows, digest)
        for schema, policy in _RUNS:
            result = Machine(
                pinned_workload(*case),
                make_policy(policy),
                config=MachineConfig(rng_schema=schema),
                ratio="1:2",
                seed=0,
            ).run()
            assert result.runtime_cycles.hex() == runtimes[(schema, policy)], (schema, policy)


class TestTraceIdentity:
    def test_traces_touching_different_pages_never_share_a_result(self):
        a, b = two_page_trace([0, 1]), two_page_trace([14, 15])
        assert workload_fingerprint(TraceWorkload(a)) != workload_fingerprint(
            TraceWorkload(b)
        )
        requests = [
            RunRequest(
                workload=WorkloadSpec.from_factory(partial(TraceWorkload, t, False)),
                policy=PolicySpec("NoTier"),
                ratio="1:2",
            )
            for t in (a, b)
        ]
        served = run_requests(requests, jobs=1, store=ResultStore())
        for trace, req in zip((a, b), requests):
            direct = Machine(TraceWorkload(trace, loop=False), NoTierPolicy(), ratio="1:2")
            assert served[req].runtime_cycles == direct.run().runtime_cycles
        assert served[requests[0]].runtime_cycles != served[requests[1]].runtime_cycles

    def test_stretching_moves_the_cache_identity(self):
        workload = TraceWorkload(small_trace(), loop=True)
        before = workload_fingerprint(workload)
        workload.set_total_misses(64)
        after = workload_fingerprint(workload)
        assert after["total_misses"] == 64
        assert after != before

    def test_negative_counts_rejected(self):
        bad = {"footprint_pages": 4, "windows": [
            {"groups": [{"pages": [0, 1], "counts": [5, 3], "mlp": 2.0}]},
            {"groups": [{"pages": [0, 1], "counts": [5, -3], "mlp": 2.0}]},
        ]}
        with pytest.raises(ValueError, match="window 1"):
            TraceWorkload(bad)


class TestRepeat:
    def test_statistics(self):
        clear_baseline_cache()
        rep = repeat_runs(TinyWorkload, "PACT", ratio="1:2", seeds=(0, 1, 2))
        assert rep.n == 3
        assert rep.mean_slowdown > 0
        assert rep.ci95_slowdown >= 0
        assert "PACT" in rep.summary()

    def test_single_seed_has_zero_ci(self):
        rep = RepeatedResult("w", "p", "1:1", np.array([0.2]), np.array([10.0]))
        assert rep.ci95_slowdown == 0.0
        assert rep.std_slowdown == 0.0

    def test_significance_helper(self):
        a = RepeatedResult("w", "a", "1:1", np.array([0.10, 0.11, 0.09]), np.zeros(3))
        b = RepeatedResult("w", "b", "1:1", np.array([0.50, 0.52, 0.48]), np.zeros(3))
        assert significantly_better(a, b)
        assert not significantly_better(b, a)
        assert not significantly_better(a, a)


class TestCharts:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_bar_chart(self):
        out = bar_chart({"PACT": 0.1, "TPP": 0.4})
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_series_with_sparkline(self):
        out = series_with_sparkline("promos", [1.0, 2.0])
        assert "promos" in out and "max 2" in out
