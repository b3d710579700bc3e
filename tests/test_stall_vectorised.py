"""Property tests for the columnar stall pipeline.

Three solver properties the columnar pipeline must preserve:

* **bit-identity**: :meth:`StallModel.split_groups` + :meth:`StallModel.solve`
  and the object-per-share oracle (``split_groups_legacy`` + the ordered
  accumulation loop in ``tests/reference/stall_oracle.py``) produce
  *exactly* equal floats on randomized windows -- same shares, same
  unit costs, same tier loads, same duration;
* **monotonicity**: injected link traffic (``extra_bytes``) can only
  lengthen the window -- duration is monotone non-decreasing;
* **convergence health**: after ``_FIXED_POINT_ITERATIONS`` damped
  iterations the relative residual stays below a sane bound across the
  full workload corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_policy
from repro.common.units import CXL_SPEC, DRAM_SPEC
from repro.hw.access import AccessGroup
from repro.hw.stall import ShareBatch, StallModel
from repro.mem.page import Tier
from repro.obs import Observability
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import ALL_WORKLOADS, make_workload
from reference.stall_oracle import solve_shares, split_groups_legacy


def make_model():
    return StallModel(DRAM_SPEC, CXL_SPEC)


def random_window(seed):
    """A randomized (groups, placement) pair spanning both tiers.

    Placement mixes FAST, SLOW, and UNALLOCATED pages; groups overlap
    pages, vary in MLP/load_fraction, and include single-page extremes.
    """
    rng = np.random.default_rng(seed)
    footprint = int(rng.integers(64, 2048))
    placement = rng.choice(
        np.array([-1, 0, 1], dtype=np.int8), size=footprint, p=[0.1, 0.4, 0.5]
    )
    groups = []
    for gi in range(int(rng.integers(1, 8))):
        n = int(rng.integers(1, min(footprint, 256) + 1))
        pages = rng.choice(footprint, size=n, replace=False).astype(np.int64)
        counts = rng.integers(1, 1000, size=n).astype(np.int64)
        groups.append(
            AccessGroup(
                pages=pages,
                counts=counts,
                mlp=float(rng.uniform(1.0, 16.0)),
                load_fraction=float(rng.uniform(0.1, 1.0)),
                label=f"g{gi}",
            )
        )
    return groups, placement


class TestBatchMatchesLegacy:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_split_groups_matches_legacy(self, seed):
        groups, placement = random_window(seed)
        model = make_model()
        batch = model.split_groups(groups, placement)
        legacy = split_groups_legacy(groups, placement)
        assert isinstance(batch, ShareBatch)
        assert batch.n == len(legacy)
        for i, share in enumerate(legacy):
            assert int(batch.group_index[i]) == share.group_index
            assert batch.tiers[i] == share.tier
            assert float(batch.mlp[i]) == share.mlp
            assert float(batch.load_fraction[i]) == share.load_fraction
            assert batch.labels[i] == share.label
            assert int(batch.misses[i]) == share.misses
            np.testing.assert_array_equal(batch.pages_of(i), share.pages)
            np.testing.assert_array_equal(batch.counts_of(i), share.counts)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_solve_bit_identical_to_legacy_loop(self, seed):
        groups, placement = random_window(seed)
        rng = np.random.default_rng(seed + 1)
        compute = float(rng.uniform(1e5, 1e7))
        extra_cycles = float(rng.uniform(0.0, 1e5))
        extra_bytes = {
            Tier.FAST: float(rng.uniform(0.0, 1e8)),
            Tier.SLOW: float(rng.uniform(0.0, 1e8)),
        }
        model = make_model()
        batch = model.split_groups(groups, placement)
        vec = model.solve(batch, compute, extra_bytes=extra_bytes, extra_cycles=extra_cycles)
        vec_units = [float(u) for u in batch.unit_stall_cycles]

        legacy_shares = split_groups_legacy(groups, placement)
        ref = solve_shares(
            model, legacy_shares, compute, extra_bytes=extra_bytes, extra_cycles=extra_cycles
        )

        # Exact float equality everywhere -- this is the bit-identity
        # contract that keeps the golden digests green.
        assert vec.duration_cycles == ref.duration_cycles
        assert vec.total_stall_cycles == ref.total_stall_cycles
        for tier in (Tier.FAST, Tier.SLOW):
            v, r = vec.tier_loads[tier], ref.tier_loads[tier]
            assert v.misses == r.misses
            assert v.bytes == r.bytes
            assert v.stall_cycles == r.stall_cycles
            assert v.effective_latency_cycles == r.effective_latency_cycles
            assert v.utilisation == r.utilisation
            assert v.mlp == r.mlp
        assert vec_units == [s.unit_stall_cycles for s in legacy_shares]

    def test_empty_window_solves_identically(self):
        model = make_model()
        batch = model.split_groups([], np.empty(0, dtype=np.int8))
        vec = model.solve(batch, 1e6)
        ref = solve_shares(model, [], 1e6)
        assert vec.duration_cycles == ref.duration_cycles
        for tier in (Tier.FAST, Tier.SLOW):
            assert vec.tier_loads[tier].mlp == ref.tier_loads[tier].mlp == 1.0


class TestDurationMonotoneInExtraBytes:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_duration_non_decreasing(self, seed):
        groups, placement = random_window(seed)
        model = make_model()
        rng = np.random.default_rng(seed + 2)
        compute = float(rng.uniform(1e5, 1e7))
        prev = None
        for extra in (0.0, 1e3, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10):
            # The batch aliases model scratch, so re-split per solve.
            batch = model.split_groups(groups, placement)
            hw = model.solve(
                batch,
                compute,
                extra_bytes={Tier.SLOW: extra, Tier.FAST: 0.5 * extra},
            )
            if prev is not None:
                assert hw.duration_cycles >= prev, (
                    f"duration shrank when extra_bytes grew to {extra:g}"
                )
            prev = hw.duration_cycles


class TestFixedPointResidual:
    #: Observed corpus max is ~0.095 (cold-start first windows); the
    #: damped 4-iteration solve must stay comfortably convergent.
    RESIDUAL_BOUND = 0.15

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_residual_bounded_across_corpus(self, workload):
        obs = Observability(trace=True)
        machine = Machine(
            make_workload(workload, total_misses=1_500_000),
            make_policy("PACT"),
            config=MachineConfig(),
            ratio="1:4",
            seed=0,
            obs=obs,
        )
        machine.run()
        residuals = [
            rec.metrics.get("stall/fixed_point_residual", 0.0)
            for rec in obs.recorder.records()
        ]
        assert residuals, "traced run recorded no windows"
        assert max(residuals) < self.RESIDUAL_BOUND
