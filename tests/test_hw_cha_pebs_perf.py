"""CHA/TOR counters, PEBS sampler, and the perf registry."""

import numpy as np
import pytest

from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.hw.cha import ChaTorCounters, littles_law_mlp
from repro.hw.pebs import PebsBatch, PebsSampler
from repro.hw.perf import PerfCounters
from repro.hw.access import AccessGroup
from repro.hw.stall import StallModel
from repro.mem.page import Tier
from conftest import split_on_tiers
from reference.stall_oracle import shares_of


def solved_shares(mlp=4.0, misses=40_000, tier=Tier.SLOW, load_fraction=1.0):
    pages = np.arange(64)
    counts = np.full(64, misses // 64, dtype=np.int64)
    group = AccessGroup(pages=pages, counts=counts, mlp=mlp, load_fraction=load_fraction)
    model = StallModel(DRAM_SPEC, CXL_SPEC)
    return model.solve(split_on_tiers(model, [(tier, group)]), compute_cycles=1e6).shares


class TestTorCounters:
    def test_mlp_recovered_from_deltas(self):
        cha = ChaTorCounters(noise=0.0)
        before = cha.read()
        cha.advance(solved_shares(mlp=6.0))
        after = cha.read()
        assert after.mlp_since(before, Tier.SLOW) == pytest.approx(6.0, rel=0.01)

    def test_mlp_with_noise_close(self):
        cha = ChaTorCounters(noise=0.02, rng=np.random.default_rng(1))
        before = cha.read()
        cha.advance(solved_shares(mlp=4.0))
        after = cha.read()
        assert after.mlp_since(before, Tier.SLOW) == pytest.approx(4.0, rel=0.15)

    def test_counters_are_cumulative(self):
        cha = ChaTorCounters(noise=0.0)
        cha.advance(solved_shares())
        mid = cha.read()
        cha.advance(solved_shares())
        end = cha.read()
        assert end.occupancy[Tier.SLOW] > mid.occupancy[Tier.SLOW]

    def test_idle_tier_reports_unit_mlp(self):
        cha = ChaTorCounters(noise=0.0)
        before = cha.read()
        cha.advance(solved_shares(tier=Tier.SLOW))
        after = cha.read()
        assert after.mlp_since(before, Tier.FAST) == 1.0

    def test_mlp_floor_is_one(self):
        cha = ChaTorCounters(noise=0.0)
        snap = cha.read()
        assert snap.mlp_since(snap, Tier.SLOW) == 1.0


class TestLittlesLaw:
    def test_matches_formula(self):
        # 64 bytes/ns over 100ns latency -> 100 lines in flight.
        assert littles_law_mlp(64.0 * 1000, 100.0, 1000.0) == pytest.approx(100.0)

    def test_floor(self):
        assert littles_law_mlp(0.0, 100.0, 1000.0) == 1.0
        assert littles_law_mlp(100.0, 100.0, 0.0) == 1.0

    def test_overestimates_with_prefetch_bytes(self):
        demand = littles_law_mlp(1e6, 190.0, 1e5)
        with_prefetch = littles_law_mlp(1.5e6, 190.0, 1e5)
        assert with_prefetch > demand


class TestPebs:
    def test_sampling_rate_statistics(self):
        sampler = PebsSampler(rate=100, rng=np.random.default_rng(0))
        batch = sampler.sample(solved_shares(misses=640_000))
        # ~1% of events sampled.
        assert batch.total_records == pytest.approx(6400, rel=0.1)
        assert batch.estimated_accesses().sum() == pytest.approx(640_000, rel=0.1)

    def test_only_requested_tiers_sampled(self):
        sampler = PebsSampler(rate=10, rng=np.random.default_rng(0))
        shares = solved_shares(tier=Tier.FAST)
        batch = sampler.sample(shares, tiers=(Tier.SLOW,))
        assert batch.total_records == 0
        both = sampler.sample(shares, tiers=(Tier.SLOW, Tier.FAST))
        assert both.total_records > 0

    def test_loads_only_thins_write_traffic(self):
        rng = np.random.default_rng(0)
        all_loads = PebsSampler(rate=10, rng=np.random.default_rng(0)).sample(
            solved_shares(load_fraction=1.0)
        )
        half_loads = PebsSampler(rate=10, rng=rng).sample(
            solved_shares(load_fraction=0.5)
        )
        assert half_loads.total_records < all_loads.total_records * 0.7

    def test_overhead_scales_with_records(self):
        sampler = PebsSampler(rate=10, cycles_per_record=100.0, rng=np.random.default_rng(0))
        batch = sampler.sample(solved_shares())
        assert batch.overhead_cycles == batch.total_records * 100.0

    def test_empty_batch(self):
        batch = PebsBatch.empty(rate=400)
        assert batch.total_records == 0
        assert batch.rate == 400

    def test_latency_reporting(self):
        sampler = PebsSampler(rate=5, rng=np.random.default_rng(0), report_latency=True)
        shares = solved_shares(mlp=4.0)
        batch = sampler.sample(shares)
        assert batch.latencies is not None
        # Exposed latency = effective latency / MLP = unit stall cost.
        assert batch.latencies[0] == pytest.approx(shares.unit_stall_cycles[0], rel=1e-6)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PebsSampler(rate=0)

    def test_merges_duplicate_pages_across_groups(self):
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        pages = np.arange(8)
        counts = np.full(8, 5000, dtype=np.int64)
        shares = split_on_tiers(
            model,
            [
                (Tier.SLOW, AccessGroup(pages=pages, counts=counts, mlp=2.0)),
                (Tier.SLOW, AccessGroup(pages=pages, counts=counts, mlp=8.0)),
            ],
        )
        solved = model.solve(shares, 1e6).shares
        batch = PebsSampler(rate=10, rng=np.random.default_rng(0)).sample(solved)
        assert np.unique(batch.pages).size == batch.pages.size


class TestPerfCounters:
    def test_deltas(self):
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        perf = PerfCounters(noise=0.0)
        shares = solved_shares()
        out = model.solve(shares, compute_cycles=1e6)
        before = perf.read()
        perf.advance(out)
        delta = perf.read().delta(before)
        assert delta.llc_misses[Tier.SLOW] == pytest.approx(
            out.tier_loads[Tier.SLOW].misses, rel=1e-6
        )
        assert delta.stall_cycles[Tier.SLOW] == pytest.approx(
            out.tier_loads[Tier.SLOW].stall_cycles, rel=1e-6
        )
        assert delta.cycles == pytest.approx(out.duration_cycles)

    def test_totals(self):
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        perf = PerfCounters(noise=0.0)
        out = model.solve(solved_shares(), compute_cycles=1e6)
        before = perf.read()
        perf.advance(out)
        delta = perf.read().delta(before)
        assert delta.total_llc_misses == pytest.approx(sum(delta.llc_misses.values()))
        assert delta.total_stall_cycles == pytest.approx(sum(delta.stall_cycles.values()))

    def test_noise_is_small_multiplicative(self):
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        perf = PerfCounters(noise=0.01, rng=np.random.default_rng(0))
        out = model.solve(solved_shares(misses=1_000_000), compute_cycles=1e6)
        before = perf.read()
        perf.advance(out)
        delta = perf.read().delta(before)
        truth = out.tier_loads[Tier.SLOW].misses
        assert delta.llc_misses[Tier.SLOW] == pytest.approx(truth, rel=0.05)
        assert delta.llc_misses[Tier.SLOW] != truth

    def test_vector_draw_matches_sequential_scalar_draws(self):
        # advance() draws a window's 2 * T factors in one vector call;
        # the values must be those of 2 * T scalar draws, (miss, stall)
        # per tier in tier order, continuing across windows.
        model = StallModel(DRAM_SPEC, CXL_SPEC)
        noise = 0.05
        perf = PerfCounters(noise=noise, rng=np.random.default_rng(42))
        scalar = np.random.default_rng(42)
        misses = {tier: 0.0 for tier in (Tier.FAST, Tier.SLOW)}
        stalls = dict(misses)
        for n in (40_000, 64_000, 128_000):
            out = model.solve(solved_shares(misses=n), compute_cycles=1e6)
            perf.advance(out)
            for tier, load in out.tier_loads.items():
                misses[tier] += load.misses * float(np.exp(scalar.normal(0.0, noise)))
                stalls[tier] += load.stall_cycles * float(np.exp(scalar.normal(0.0, noise)))
        snap = perf.read()
        assert snap.llc_misses == misses  # bit-exact, not approx
        assert snap.stall_cycles == stalls


def _legacy_pebs_sample(rng, shares, tiers, rate, cycles_per_record, loads_only, report_latency):
    """The pre-vectorisation per-share loop, kept verbatim as the oracle."""
    all_pages = []
    all_records = []
    all_latency = []
    for share in shares:
        if share.tier not in tiers:
            continue
        counts = share.counts
        if loads_only:
            counts = rng.binomial(counts, share.load_fraction)
        records = rng.binomial(counts, 1.0 / rate)
        hit = records > 0
        if hit.any():
            all_pages.append(share.pages[hit])
            all_records.append(records[hit])
            if report_latency:
                all_latency.append(np.full(int(hit.sum()), share.unit_stall_cycles))
    if not all_pages:
        return PebsBatch.empty(rate)
    pages = np.concatenate(all_pages)
    records = np.concatenate(all_records)
    uniq, inverse = np.unique(pages, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(merged, inverse, records)
    latencies = None
    if report_latency:
        lat = np.concatenate(all_latency)
        weighted = np.zeros(uniq.size, dtype=float)
        np.add.at(weighted, inverse, lat * records)
        latencies = weighted / np.maximum(merged, 1)
    total = int(merged.sum())
    return PebsBatch(
        pages=uniq, counts=merged, rate=rate,
        overhead_cycles=total * cycles_per_record, latencies=latencies,
    )


class TestPebsVectorisedEquivalence:
    """The batched merge must replay the legacy loop's exact draws.

    The binomial draws stay sequenced per share (the record draw thins
    the load draw's output), so with equal seeds the two implementations
    must consume the same RNG stream and emit identical batches --
    pages, counts, latencies, overhead, and post-call generator state.
    """

    def _random_shares(self, rng, n_shares, footprint=4096):
        """A split batch of ``n_shares`` single-tier groups with random
        unit costs.  Slow-tier groups overlap each other's pages; fast
        pages sit above the slow range so placements never conflict."""
        placed = []
        units = []
        for _ in range(n_shares):
            size = int(rng.integers(1, 200))
            pages = np.sort(rng.choice(footprint, size=size, replace=False))
            counts = rng.integers(0, 2000, size=size)
            tier = Tier.SLOW if rng.random() < 0.7 else Tier.FAST
            if tier == Tier.FAST:
                pages = pages + footprint
            group = AccessGroup(
                pages=pages,
                counts=counts,
                mlp=4.0,
                load_fraction=float(rng.uniform(0.1, 1.0)),
            )
            placed.append((tier, group))
            units.append(float(rng.uniform(50.0, 400.0)))
        batch = split_on_tiers(StallModel(DRAM_SPEC, CXL_SPEC), placed)
        batch.unit_stall_cycles[:] = units
        return batch

    @pytest.mark.parametrize("report_latency", [False, True])
    @pytest.mark.parametrize("loads_only", [False, True])
    def test_distribution_identical_to_loop(self, report_latency, loads_only):
        meta_rng = np.random.default_rng(99)
        for trial in range(20):
            batch = self._random_shares(meta_rng, n_shares=int(meta_rng.integers(0, 6)))
            tiers = (Tier.SLOW,) if trial % 2 == 0 else (Tier.SLOW, Tier.FAST)
            sampler = PebsSampler(
                rate=7,
                rng=np.random.default_rng(trial),
                loads_only=loads_only,
                report_latency=report_latency,
            )
            got = sampler.sample(batch, tiers=tiers)
            oracle_rng = np.random.default_rng(trial)
            want = _legacy_pebs_sample(
                oracle_rng, shares_of(batch), tiers, rate=7,
                cycles_per_record=sampler.cycles_per_record,
                loads_only=loads_only, report_latency=report_latency,
            )
            assert np.array_equal(got.pages, want.pages)
            assert np.array_equal(got.counts, want.counts)
            assert got.counts.dtype == np.int64
            assert got.overhead_cycles == want.overhead_cycles
            if report_latency and want.latencies is not None:
                assert np.array_equal(got.latencies, want.latencies)
            else:
                assert got.latencies is None and want.latencies is None
            assert np.array_equal(got.estimated_accesses(), want.estimated_accesses())
            # Same stream position afterwards: the next draws agree.
            assert sampler._rng.integers(0, 1 << 62) == oracle_rng.integers(0, 1 << 62)

    def test_all_zero_counts_yield_empty_batch(self):
        group = AccessGroup(pages=np.arange(10), counts=np.zeros(10, dtype=np.int64), mlp=1.0)
        shares = split_on_tiers(StallModel(DRAM_SPEC, CXL_SPEC), [(Tier.SLOW, group)])
        assert shares.n == 1
        batch = PebsSampler(rate=4, rng=np.random.default_rng(0)).sample(shares)
        assert batch.pages.size == 0
        assert batch.overhead_cycles == 0.0
