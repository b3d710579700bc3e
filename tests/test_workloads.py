"""Workload generators: determinism, work accounting, structure."""

import numpy as np
import pytest

from repro.mem.page import Tier
from repro.workloads import (
    ALL_WORKLOADS,
    EVAL_WORKLOADS,
    ColocatedWorkload,
    Gups,
    Masim,
    MlcContender,
    Silo,
    generate_corpus,
    make_workload,
    spread_counts,
    zipf_weights,
)
from repro.workloads.graph import GraphWorkload


class TestHelpers:
    def test_spread_counts_conserves_total(self, rng):
        counts = spread_counts(rng, 100, 5000)
        assert counts.sum() == 5000
        assert counts.size == 100

    def test_spread_counts_weighted(self, rng):
        weights = np.array([1.0, 0.0, 3.0])
        counts = spread_counts(rng, 3, 40_000, weights)
        assert counts[1] == 0
        assert counts[2] > counts[0]

    def test_spread_counts_zero_misses(self, rng):
        assert spread_counts(rng, 4, 0).sum() == 0

    def test_spread_counts_rejects_bad_weights(self, rng):
        with pytest.raises(ValueError):
            spread_counts(rng, 2, 10, np.zeros(2))

    def test_zipf_weights_monotone_unshuffled(self):
        w = zipf_weights(10, 1.0)
        assert (np.diff(w) < 0).all()

    def test_zipf_weights_shuffle(self, rng):
        w = zipf_weights(100, 1.0, rng)
        assert not (np.diff(w) < 0).all()


class TestRegistry:
    def test_all_names_construct(self):
        for name in ALL_WORKLOADS:
            w = make_workload(name)
            assert w.footprint_pages > 0
            assert w.total_misses > 0
            assert w.objects, name

    def test_eval_suite_has_twelve(self):
        assert len(EVAL_WORKLOADS) == 12
        assert len(ALL_WORKLOADS) == 13

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("doom3")

    def test_kwargs_forwarded(self):
        w = make_workload("gups", total_misses=123_456)
        assert w.total_misses == 123_456


class TestWorkloadContract:
    """Every workload must satisfy the generator contract."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_window_emission(self, name):
        w = make_workload(name, total_misses=2_000_000)
        w.reset()
        traffic = w.next_window()
        assert traffic.groups
        emitted = traffic.total_misses()
        assert emitted == pytest.approx(w.misses_per_window, rel=0.05)
        for group in traffic.groups:
            assert group.mlp >= 1.0
            assert (group.pages >= 0).all()
            assert (group.pages < w.footprint_pages).all()
            assert (group.counts > 0).all()

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_work_runs_to_completion(self, name):
        w = make_workload(name, total_misses=1_000_000, misses_per_window=250_000)
        w.reset()
        windows = 0
        while not w.done and windows < 100:
            w.next_window()
            windows += 1
        assert w.done
        assert w.progress == 1.0

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_reset_gives_identical_stream(self, name):
        w = make_workload(name, total_misses=1_000_000)
        w.reset()
        first = w.next_window()
        w.reset()
        second = w.next_window()
        assert len(first.groups) == len(second.groups)
        for a, b in zip(first.groups, second.groups):
            assert np.array_equal(a.pages, b.pages)
            assert np.array_equal(a.counts, b.counts)
            assert a.mlp == b.mlp

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_allocation_order_is_permutation(self, name):
        w = make_workload(name)
        order = w.allocation_order()
        assert order.size == w.footprint_pages
        assert np.unique(order).size == w.footprint_pages


class TestMasim:
    def test_patterns(self):
        assert len(Masim(pattern="mixed").objects) == 2
        assert len(Masim(pattern="sequential").objects) == 1
        with pytest.raises(ValueError):
            Masim(pattern="diagonal")

    def test_mixed_emits_both_patterns(self, rng):
        w = Masim(pattern="mixed")
        w.reset()
        labels = {g.label for g in w.next_window().groups}
        assert labels == {"seq", "chase"}

    def test_sequential_mlp_exceeds_random(self):
        seq = Masim(pattern="sequential")
        seq.reset()
        rnd = Masim(pattern="random")
        rnd.reset()
        assert seq.next_window().groups[0].mlp > rnd.next_window().groups[0].mlp


class TestGups:
    def test_phases_alternate(self):
        w = Gups(phase_windows=2, total_misses=10**7)
        w.reset()
        phases = []
        for _ in range(6):
            w.next_window()
            phases.append(w.phase_name())
        assert "sequential" in phases and "random" in phases

    def test_half_loads(self):
        w = Gups()
        w.reset()
        assert w.next_window().groups[0].load_fraction == 0.5


class TestGraph:
    def test_kernel_and_graph_validation(self):
        with pytest.raises(ValueError):
            GraphWorkload("pagerank", "kron")
        with pytest.raises(ValueError):
            GraphWorkload("bc", "roadnet")

    def test_kron_has_pooled_csr_object(self):
        w = make_workload("bc-kron")
        assert any(o.name == "csr_pool" for o in w.objects)

    def test_urand_keeps_separate_objects(self):
        w = make_workload("bc-urand")
        names = {o.name for o in w.objects}
        assert "vertices" in names and "edges" in names

    def test_frontier_narrows_for_sssp(self):
        w = make_workload("sssp-kron", total_misses=5_000_000)
        w.reset()
        assert w._frontier_fraction() > 0.4
        w._consumed = int(w.total_misses * 0.95)
        assert w._frontier_fraction() < 0.2

    def test_sub_phases_change_mix(self):
        w = make_workload("bc-kron", total_misses=10**8)
        w.reset()
        chase_fracs = []
        for _ in range(10):
            traffic = w.next_window()
            chase = sum(g.total_misses for g in traffic.groups if g.label == "vertex-chase")
            chase_fracs.append(chase / traffic.total_misses())
        assert max(chase_fracs) > 2 * min(chase_fracs)


class TestSilo:
    def test_scan_windows_interleave(self):
        w = Silo(total_misses=10**7)
        w.reset()
        phases = []
        for _ in range(8):
            w.next_window()
            phases.append(w.phase_name())
        assert "scan" in phases and "txn" in phases

    def test_log_is_store_dominated(self):
        w = Silo()
        w.reset()
        log_groups = [g for g in w.next_window().groups if g.label == "log"]
        assert log_groups and log_groups[0].load_fraction < 0.5


class TestMlc:
    def test_bytes_scale_with_threads_and_duration(self):
        one = MlcContender(threads=1)
        eight = MlcContender(threads=8)
        d = 2.2e7  # 10 ms
        assert eight.bytes_for_duration(d) == pytest.approx(8 * one.bytes_for_duration(d))
        # 1 thread x 8 GB/s over 10 ms ~ 80 MB.
        assert one.bytes_for_duration(d) == pytest.approx(8 * 1024**3 * 0.01, rel=0.01)

    def test_zero_threads_inject_nothing(self):
        assert MlcContender(threads=0).extra_bytes(1e7) == {}

    def test_extra_bytes_target_tier(self):
        extra = MlcContender(threads=2, tier=Tier.FAST).extra_bytes(1e7)
        assert set(extra) == {Tier.FAST}


class TestColocation:
    def test_merges_address_spaces(self):
        a = Masim(pattern="sequential", footprint_pages=1000, total_misses=10**6)
        b = Masim(pattern="random", footprint_pages=500, total_misses=10**6)
        colo = ColocatedWorkload([a, b])
        assert colo.footprint_pages == 1500
        assert colo.member_pages(1).min() == 1000

    def test_traffic_offsets_into_member_ranges(self):
        a = Masim(pattern="sequential", footprint_pages=1000, total_misses=10**6)
        b = Masim(pattern="random", footprint_pages=500, total_misses=10**6)
        colo = ColocatedWorkload([a, b])
        colo.reset()
        traffic = colo.next_window()
        member_b_pages = np.concatenate(
            [g.pages for g in traffic.groups if g.label.startswith("masim-random")]
        )
        assert member_b_pages.min() >= 1000
        assert member_b_pages.max() < 1500

    def test_member_finish_windows_recorded(self):
        a = Masim(pattern="sequential", footprint_pages=500, total_misses=400_000,
                  misses_per_window=200_000)
        b = Masim(pattern="random", footprint_pages=500, total_misses=800_000,
                  misses_per_window=200_000)
        colo = ColocatedWorkload([a, b])
        colo.reset()
        while not colo.done:
            colo.next_window()
        assert colo.member_finish_window[0] < colo.member_finish_window[1]

    def test_done_once_every_member_is(self):
        # A member window with no traffic consumes its budget but adds
        # no misses to the colocation's counter; the colocation must
        # still finish when its last member does.
        class IdleOnce(Masim):
            def _emit(self, budget, rng):
                return [] if self.window_index == 1 else super()._emit(budget, rng)

        a = IdleOnce(pattern="sequential", footprint_pages=500, total_misses=600_000,
                     misses_per_window=200_000)
        b = Masim(pattern="random", footprint_pages=500, total_misses=400_000,
                  misses_per_window=200_000)
        colo = ColocatedWorkload([a, b])
        colo.reset()
        windows = 0
        while not colo.done and windows < 100:
            traffic = colo.next_window()
            windows += 1
        assert traffic.done
        assert windows == max(colo.member_finish_window) + 1 == 3
        assert colo.progress < 1.0

    def test_requires_members(self):
        with pytest.raises(ValueError):
            ColocatedWorkload([])


class TestCorpus:
    def test_ninety_six_workloads(self):
        corpus = generate_corpus()
        assert len(corpus) == 96
        names = {w.name for w in corpus}
        assert len(names) == 96

    def test_spans_mlp_grid(self):
        corpus = generate_corpus()
        mlps = {w.mlp for w in corpus}
        assert min(mlps) == 1.5 and max(mlps) == 16.0

    def test_deterministic_seeds(self):
        a = generate_corpus()[5]
        b = generate_corpus()[5]
        a.reset()
        b.reset()
        ga = a.next_window().groups[0]
        gb = b.next_window().groups[0]
        assert np.array_equal(ga.counts, gb.counts)
