"""Property tests for the vectorised policy window loop.

Every fast path of the window loop is gated on exactness, and each gets
an explicit oracle here:

* the fused plan/apply migration path (:meth:`MigrationEngine.apply_window`)
  against the hop-at-a-time reference (``apply_window_legacy`` in
  ``tests/reference/migration_oracle.py``) over randomised placements,
  multi-tier cascades, direct demotion, THP expansion, and
  admission-hook trimming;
* the stall fixed point's two kernels (Python floats and the flat
  ``bincount`` pass) against each other and against the object-per-share
  oracle (``tests/reference/stall_oracle.py``) -- bit-identity, not
  closeness;
* the lazily-recomputed per-tier activity sums against a from-scratch
  masked sum after arbitrary touch/move/first-touch interleavings;
* the tracker's incrementally-merged tracked-page list against a
  ``flatnonzero`` rebuild;
* ``TieredMemory.cold_count`` (the memoised space-budget input) against
  the gather-and-compare it replaced;
* the attach-time prestaged plans (:class:`EntryMetaPlan`,
  :class:`PebsPosPlan` + :meth:`KeyedPebsSampler.merge_window_pos`)
  against the live per-window computation they replace.
"""

import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.stall as stall_mod
from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.hw.access import AccessGroup
from repro.hw.drawplan import build_entry_meta, build_pebs_pos
from repro.hw.stall import StallModel
from repro.hw.substream import KeyedPebsSampler, PebsRecordPlan
from repro.mem.page import Tier
from repro.mem.tiered import TieredMemory
from repro.mem.topology import make_topology
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.migration import MigrationEngine
from repro.sim.policy_api import Decision
from reference.migration_oracle import apply_window_legacy
from reference.stall_oracle import solve_shares, split_groups_legacy


# -- randomised state builders ---------------------------------------------------


def make_config(num_tiers=2, thp=False, demotion="through"):
    topology = None
    if num_tiers == 3:
        topology = make_topology("dram-cxl-nvme", demotion=demotion)
    return MachineConfig(thp=thp, topology=topology)


def make_memory(config, footprint, fast, mid=None):
    if config.topology is None:
        return TieredMemory(footprint, fast, footprint, DRAM_SPEC, CXL_SPEC)
    caps = [fast, footprint if mid is None else mid, footprint]
    return TieredMemory(
        footprint,
        capacities=caps,
        specs=config.topology.effective_specs(),
        page_frame_costs=config.topology.page_frame_costs(footprint),
    )


def randomise_state(memory, rng, windows=4):
    """Allocate every page and build up believable LRU/activity state."""
    footprint = memory.footprint_pages
    memory.allocate_first_touch(rng.permutation(footprint))
    for w in range(1, windows + 1):
        n = int(rng.integers(1, footprint))
        pages = np.unique(rng.integers(0, footprint, size=n))
        counts = rng.integers(1, 50, size=pages.size).astype(float)
        memory.touch(pages, window=w, counts=counts)


def clone_memory(memory, config, footprint, fast, mid=None):
    """A second memory with identical observable state."""
    other = make_memory(config, footprint, fast, mid=mid)
    other.placement[:] = memory.placement
    other.activity[:] = memory.activity
    other.last_touch[:] = memory.last_touch
    other.arrival[:] = memory.arrival
    other.used = list(memory.used)
    other._frames_used = list(memory._frames_used)
    other._last_decay_window = memory._last_decay_window
    other._arrival_counter = memory._arrival_counter
    # Derived caches rebuild lazily; mark the sums stale so both sides
    # recompute from the same activity array.
    other._activity_sums_stale = True
    other._placement_gen += 1
    other._activity_gen += 1
    return other


def random_decision(rng, footprint):
    kind = rng.integers(0, 4)
    promote = np.unique(rng.integers(0, footprint, size=int(rng.integers(0, 40))))
    demote = np.unique(rng.integers(0, footprint, size=int(rng.integers(0, 40))))
    demote_lru = int(rng.integers(0, footprint // 2)) if kind != 1 else 0
    mode = ("cold", "lru_tail", "fifo")[int(rng.integers(0, 3))]
    return Decision(
        promote=promote.astype(np.int64),
        demote=demote.astype(np.int64),
        demote_lru=demote_lru,
        demote_victim_mode=mode,
    )


def assert_outcomes_equal(fused, legacy):
    assert fused.promoted == legacy.promoted
    assert fused.demoted == legacy.demoted
    assert fused.cost_cycles == legacy.cost_cycles
    assert fused.bytes_moved == legacy.bytes_moved
    assert fused.link_bytes == legacy.link_bytes
    np.testing.assert_array_equal(fused.promoted_pages, legacy.promoted_pages)
    np.testing.assert_array_equal(fused.demoted_pages, legacy.demoted_pages)


def run_fused_vs_legacy(seed, num_tiers=2, thp=False, demotion="through", admission=None):
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(96, 512))
    fast = int(rng.integers(16, footprint))
    mid = int(rng.integers(8, footprint)) if num_tiers == 3 else None
    config = make_config(num_tiers=num_tiers, thp=thp, demotion=demotion)

    mem_a = make_memory(config, footprint, fast, mid=mid)
    randomise_state(mem_a, rng)
    mem_b = clone_memory(mem_a, config, footprint, fast, mid=mid)

    eng_a = MigrationEngine(mem_a, config)
    eng_b = MigrationEngine(mem_b, config)
    if admission is not None:
        eng_a.admission = admission
        eng_b.admission = admission

    for trial in range(3):
        decision = random_decision(rng, footprint)
        fused = eng_a.apply_window(decision)
        legacy = apply_window_legacy(eng_b, decision)
        assert_outcomes_equal(fused, legacy)
        np.testing.assert_array_equal(mem_a.placement, mem_b.placement)
        assert mem_a.used == mem_b.used
        assert mem_a._frames_used == mem_b._frames_used
        # Keep the two LRU states in lockstep for the next trial.
        w = 10 + trial
        pages = np.unique(rng.integers(0, footprint, size=30))
        counts = rng.integers(1, 9, size=pages.size).astype(float)
        mem_a.touch(pages, window=w, counts=counts)
        mem_b.touch(pages, window=w, counts=counts)
    assert eng_a.total_promoted == eng_b.total_promoted
    assert eng_a.total_demoted == eng_b.total_demoted
    assert eng_a.total_cost_cycles == eng_b.total_cost_cycles


class TestFusedApplyMatchesLegacy:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_two_tier(self, seed):
        run_fused_vs_legacy(seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_three_tier_demote_through_cascades(self, seed):
        run_fused_vs_legacy(seed, num_tiers=3, demotion="through")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_three_tier_direct(self, seed):
        run_fused_vs_legacy(seed, num_tiers=3, demotion="direct")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_thp_expansion(self, seed):
        run_fused_vs_legacy(seed, thp=True)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_admission_hook_trims_hops(self, seed):
        def admit(src, dst, pages):
            # Deterministically veto a slice of every hop.
            return pages[pages % 3 != 0]

        run_fused_vs_legacy(seed, num_tiers=3, admission=admit)

    def test_empty_decision_is_a_noop(self):
        config = make_config()
        memory = make_memory(config, 128, 64)
        randomise_state(memory, np.random.default_rng(0))
        engine = MigrationEngine(memory, config)
        before = memory.placement.copy()
        outcome = engine.apply_window(Decision.none())
        assert outcome.promoted == outcome.demoted == 0
        assert outcome.cost_cycles == 0.0
        np.testing.assert_array_equal(memory.placement, before)

    def test_demote_lru_nonpositive_skips_victim_walk(self):
        config = make_config()
        memory = make_memory(config, 128, 64)
        randomise_state(memory, np.random.default_rng(1))
        engine = MigrationEngine(memory, config)
        before = memory.placement.copy()
        outcome = engine.apply_window(Decision(demote_lru=-3))
        assert outcome.demoted == 0 and outcome.cost_cycles == 0.0
        np.testing.assert_array_equal(memory.placement, before)


# -- stall fixed-point kernels ---------------------------------------------------


def random_groups(rng, footprint, n_groups):
    groups = []
    for gi in range(n_groups):
        n = int(rng.integers(1, 64))
        pages = rng.choice(footprint, size=min(n, footprint), replace=False).astype(np.int64)
        counts = rng.integers(1, 500, size=pages.size).astype(np.int64)
        groups.append(
            AccessGroup(
                pages=pages,
                counts=counts,
                mlp=float(rng.uniform(1.0, 12.0)),
                load_fraction=float(rng.uniform(0.1, 1.0)),
                label=f"g{gi}",
            )
        )
    return groups


def assert_hw_equal(a, b):
    assert a.duration_cycles == b.duration_cycles
    for tier in a.tier_loads:
        va, vb = a.tier_loads[tier], b.tier_loads[tier]
        assert va.stall_cycles == vb.stall_cycles
        assert va.effective_latency_cycles == vb.effective_latency_cycles
        assert va.utilisation == vb.utilisation
        assert va.mlp == vb.mlp


@contextlib.contextmanager
def solve_kernel(flat):
    """Force the stall fixed point onto one kernel via its row cutoff."""
    saved = stall_mod._FLAT_SOLVE_ROWS
    stall_mod._FLAT_SOLVE_ROWS = -1 if flat else sys.maxsize
    try:
        yield
    finally:
        stall_mod._FLAT_SOLVE_ROWS = saved


def assert_hw_matches_oracle(hw, batch, model, groups, placement, compute, extra, extra_cycles):
    """Compare one solved window with the object-per-share oracle."""
    shares = split_groups_legacy(groups, placement)
    ref = solve_shares(model, shares, compute, extra_bytes=extra, extra_cycles=extra_cycles)
    assert_hw_equal(hw, ref)
    assert batch.unit_stall_cycles.tolist() == [s.unit_stall_cycles for s in shares]


class TestScalarSolveMatchesVectorised:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_solve_batch(self, seed):
        rng = np.random.default_rng(seed)
        footprint = 256
        placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint)
        groups = random_groups(rng, footprint, int(rng.integers(1, 8)))
        compute = float(rng.uniform(1e5, 1e7))
        extra = {Tier.FAST: float(rng.uniform(0, 1e8)), Tier.SLOW: float(rng.uniform(0, 1e8))}

        model = StallModel(DRAM_SPEC, CXL_SPEC)
        batch = model.split_groups(groups, placement)
        # A one-run window this narrow takes the Python-float kernel.
        assert batch.n <= stall_mod._FLAT_SOLVE_ROWS
        with solve_kernel(flat=False):
            scalar = model.solve(batch, compute, extra_bytes=extra)
        scalar_units = batch.unit_stall_cycles.copy()

        with solve_kernel(flat=True):
            batch2 = model.split_groups(groups, placement)
            vector = model.solve(batch2, compute, extra_bytes=extra)
        assert_hw_equal(scalar, vector)
        np.testing.assert_array_equal(scalar_units, batch2.unit_stall_cycles)
        assert_hw_matches_oracle(vector, batch2, model, groups, placement, compute, extra, 0.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_solve_many(self, seed):
        rng = np.random.default_rng(seed)
        footprint = 256
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        R = int(rng.integers(2, 6))
        windows = []
        for _ in range(R):
            placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint)
            windows.append((random_groups(rng, footprint, int(rng.integers(1, 6))), placement))
        computes = [float(rng.uniform(1e5, 1e7)) for _ in range(R)]
        extras = [None] * R
        extra_cycles = [float(rng.uniform(0, 1e5)) for _ in range(R)]

        # One splitting model per window: split_groups hands out views
        # of per-model scratch columns.
        models = [StallModel(DRAM_SPEC, CXL_SPEC) for _ in range(R)]
        with solve_kernel(flat=False):
            batches = [m.split_groups(g, p) for m, (g, p) in zip(models, windows)]
            scalar = model.solve_many(batches, computes, extras, extra_cycles)
        scalar_units = [b.unit_stall_cycles.copy() for b in batches]

        with solve_kernel(flat=True):
            batches2 = [m.split_groups(g, p) for m, (g, p) in zip(models, windows)]
            vector = model.solve_many(batches2, computes, extras, extra_cycles)
        for r in range(R):
            assert_hw_equal(scalar[r], vector[r])
            np.testing.assert_array_equal(scalar_units[r], batches2[r].unit_stall_cycles)
            groups, placement = windows[r]
            assert_hw_matches_oracle(
                vector[r], batches2[r], model, groups, placement,
                computes[r], extras[r], extra_cycles[r],
            )

    @pytest.mark.parametrize("flat", [False, True])
    def test_solve_many_publishes_residual(self, flat):
        """The multi-run gauge is the largest of the runs' own residuals."""
        rng = np.random.default_rng(5)
        placement = rng.choice(np.array([0, 1], dtype=np.int8), size=128)
        splitters = [StallModel(DRAM_SPEC, CXL_SPEC) for _ in range(3)]
        batches = [m.split_groups(random_groups(rng, 128, 3), placement) for m in splitters]
        computes = [1e5, 1e6, 1e7]
        gauge = "stall/fixed_point_residual"
        with solve_kernel(flat=flat):
            serial = []
            for batch, compute in zip(batches, computes):
                obs = Observability(trace=False)
                StallModel(DRAM_SPEC, CXL_SPEC, obs=obs).solve(batch, compute)
                serial.append(obs.window_metrics()[gauge])
            obs = Observability(trace=False)
            model = StallModel(DRAM_SPEC, CXL_SPEC, obs=obs)
            model.solve_many(batches, computes, [None] * 3, [0.0] * 3)
        assert obs.window_metrics()[gauge] == max(serial)

    def test_no_runs(self):
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        for flat in (False, True):
            with solve_kernel(flat=flat):
                assert model.solve_many([], [], [], []) == []


# -- lazy activity sums / incremental caches -------------------------------------


class TestLazyActivitySums:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_from_scratch_sum(self, seed):
        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(64, 512))
        fast = int(rng.integers(16, footprint))
        memory = TieredMemory(footprint, fast, footprint, DRAM_SPEC, CXL_SPEC)
        memory.allocate_first_touch(rng.permutation(footprint))
        for w in range(1, 6):
            pages = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 200))))
            memory.touch(pages, window=w, counts=rng.integers(1, 20, size=pages.size).astype(float))
            if rng.integers(0, 2):
                movable = np.flatnonzero(memory.placement == int(Tier.SLOW))
                if movable.size:
                    memory.move(movable[: int(rng.integers(1, movable.size + 1))], Tier.FAST)
            for tier in memory.tiers:
                resident = memory.placement == int(tier)
                expected = float(memory.activity[resident].sum())
                assert memory.activity_sum(tier) == pytest.approx(expected, rel=1e-9)
        memory.check_accounting()

    def test_check_accounting_refreshes_stale_sums(self):
        memory = TieredMemory(128, 64, 128, DRAM_SPEC, CXL_SPEC)
        memory.allocate_first_touch(np.arange(128))
        memory.touch(np.arange(64), window=1, counts=np.full(64, 3.0))
        assert memory._activity_sums_stale
        memory.check_accounting()
        assert not memory._activity_sums_stale


class TestIncrementalCachesMatchRebuild:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_tracker_list_matches_flatnonzero(self, seed):
        from repro.core.tracker import PacTracker

        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(32, 256))
        tracker = PacTracker(footprint)
        for _ in range(6):
            pages = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 40))))
            stalls = rng.uniform(0, 100, size=pages.size)
            counts = rng.integers(1, 10, size=pages.size)
            tracker.update(pages, stalls, counts)
            if rng.integers(0, 3) == 0:
                drop = np.unique(rng.integers(0, footprint, size=int(rng.integers(1, 10))))
                tracker.drop(drop)
            np.testing.assert_array_equal(
                tracker.tracked_pages(), np.flatnonzero(tracker.tracked)
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_cold_count_matches_gather(self, seed):
        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(64, 256))
        memory = TieredMemory(footprint, footprint // 2, footprint, DRAM_SPEC, CXL_SPEC)
        memory.allocate_first_touch(rng.permutation(footprint))
        pages = np.unique(rng.integers(0, footprint, size=footprint // 2))
        memory.touch(pages, window=1, counts=rng.integers(1, 30, size=pages.size).astype(float))
        threshold = float(rng.uniform(0.0, 15.0))
        resident = np.flatnonzero(memory.placement == int(Tier.FAST))
        expected = int(np.count_nonzero(memory.activity[resident] <= threshold))
        assert memory.cold_count(Tier.FAST, threshold) == expected
        # Memoised second query returns the same value.
        assert memory.cold_count(Tier.FAST, threshold) == expected

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_binner_threshold_matches_top_bin_mask(self, seed):
        from repro.core.binning import AdaptiveBinner

        rng = np.random.default_rng(seed)
        binner = AdaptiveBinner(rng=np.random.default_rng(seed + 1))
        values = rng.uniform(0, 100, size=int(rng.integers(2, 300)))
        values[rng.random(values.size) < 0.2] = 0.0
        binner.observe(values, n_tracked=values.size, n_candidates=5)
        positive = values > 0.0
        if positive.any():
            threshold = binner.top_bin_threshold(float(values[positive].max()))
            if threshold <= 0.0:
                fast_mask = positive
            else:
                fast_mask = positive & (values >= threshold)
            np.testing.assert_array_equal(fast_mask, binner.top_bin_mask(values))


# -- prestaged trace plans -------------------------------------------------------


class _FakeTrace:
    def __init__(self, columns):
        self.columns = columns


def random_trace_columns(rng, num_windows=5, max_groups=3, footprint=200):
    wgp = [0]
    gpp = [0]
    pages_parts = []
    counts_parts = []
    for _ in range(num_windows):
        n_groups = int(rng.integers(1, max_groups + 1))
        window_pages = np.sort(
            rng.choice(footprint, size=int(rng.integers(1, 60)), replace=False)
        )
        splits = np.sort(rng.choice(window_pages.size + 1, size=n_groups - 1))
        chunks = np.split(window_pages, splits)
        for chunk in chunks:
            pages_parts.append(chunk.astype(np.int64))
            counts_parts.append(rng.integers(1, 50, size=chunk.size).astype(np.int64))
            gpp.append(gpp[-1] + chunk.size)
        wgp.append(wgp[-1] + n_groups)
    return {
        "window_group_ptr": np.asarray(wgp, dtype=np.int64),
        "group_page_ptr": np.asarray(gpp, dtype=np.int64),
        "pages": np.concatenate(pages_parts),
        "counts": np.concatenate(counts_parts),
    }


class TestPrestagedPlans:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_entry_meta_matches_per_window_recompute(self, seed):
        rng = np.random.default_rng(seed)
        cols = random_trace_columns(rng)
        num_tiers = 2
        meta = build_entry_meta(_FakeTrace(cols), num_tiers)
        wgp = cols["window_group_ptr"]
        gpp = cols["group_page_ptr"]
        assert meta.counts_positive  # every generated count is >= 1
        for w in range(wgp.size - 1):
            e0, e1 = gpp[wgp[w]], gpp[wgp[w + 1]]
            key_base, counts_f = meta.window(w)
            np.testing.assert_array_equal(
                counts_f, cols["counts"][e0:e1].astype(np.float64)
            )
            expected_base = np.concatenate(
                [
                    np.full(gpp[g + 1] - gpp[g], (g - wgp[w]) * num_tiers, dtype=np.intp)
                    for g in range(wgp[w], wgp[w + 1])
                ]
            )
            if key_base is None:
                # Single-group trace: the base is the all-zeros no-op.
                assert not (expected_base != 0).any()
            else:
                np.testing.assert_array_equal(key_base, expected_base)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_pebs_pos_merge_matches_live_merge(self, seed):
        rng = np.random.default_rng(seed)
        footprint = 200
        cols = random_trace_columns(rng, footprint=footprint)
        wgp = cols["window_group_ptr"]
        gpp = cols["group_page_ptr"]
        entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
        records = rng.integers(0, 3, size=cols["pages"].size).astype(np.int64)
        plan = PebsRecordPlan(records, entry_ptr)
        pos = build_pebs_pos(plan, _FakeTrace(cols))
        sampler = KeyedPebsSampler(
            seed=7, rate=101, cycles_per_record=10.0, sampled_codes=[1], num_tiers=2
        )
        placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint)
        for w in range(wgp.size - 1):
            pages = cols["pages"][entry_ptr[w] : entry_ptr[w + 1]]
            recs = plan.window_records(w)
            live = sampler.merge_window(recs, pages, placement)
            pos_idx, pages_pos, recs_pos, srt = pos.window(w)
            fused = sampler.merge_window_pos(
                pos_idx, pages_pos, recs_pos, placement[pages], srt
            )
            np.testing.assert_array_equal(fused.pages, live.pages)
            np.testing.assert_array_equal(fused.counts, live.counts)
            assert fused.overhead_cycles == live.overhead_cycles
            assert fused.latencies is None and live.latencies is None

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_pebs_pos_merge_all_codes(self, seed):
        """A sampler observing every tier must keep the -1 wraparound
        semantics of the legacy mask (no tier selection at all)."""
        rng = np.random.default_rng(seed)
        footprint = 150
        cols = random_trace_columns(rng, footprint=footprint)
        wgp = cols["window_group_ptr"]
        gpp = cols["group_page_ptr"]
        entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
        records = rng.integers(0, 2, size=cols["pages"].size).astype(np.int64)
        plan = PebsRecordPlan(records, entry_ptr)
        pos = build_pebs_pos(plan, _FakeTrace(cols))
        sampler = KeyedPebsSampler(
            seed=3, rate=59, cycles_per_record=5.0, sampled_codes=[0, 1], num_tiers=2
        )
        placement = rng.choice(np.array([0, 1], dtype=np.int8), size=footprint)
        for w in range(wgp.size - 1):
            pages = cols["pages"][entry_ptr[w] : entry_ptr[w + 1]]
            live = sampler.merge_window(plan.window_records(w), pages, placement)
            pos_idx, pages_pos, recs_pos, srt = pos.window(w)
            fused = sampler.merge_window_pos(
                pos_idx, pages_pos, recs_pos, placement[pages], srt
            )
            np.testing.assert_array_equal(fused.pages, live.pages)
            np.testing.assert_array_equal(fused.counts, live.counts)
            assert fused.overhead_cycles == live.overhead_cycles
