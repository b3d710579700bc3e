"""Schema-2 counter-keyed RNG substreams: the properties that make them safe.

Schema 2 (:mod:`repro.hw.substream`) replaces sequential per-subsystem
streams with Philox substreams keyed by (seed, purpose, window).  Three
properties carry the whole design and are pinned here:

* **Identity, not position**: a draw's value depends only on its key,
  never on which other windows were drawn, in what order, or by which
  run.  That is what makes whole-run prestaging trivially exact.
* **Prestaged == live**: the attach-time tensors slice to exactly the
  values the live fallback would draw window by window.
* **Same marginals as schema 1**: the keyed draws follow the same
  distributions as the sequential streams they replace (two-stage
  binomial thinning, log-normal jitter), so schema choice shifts no
  statistics -- only the pairing of random numbers with windows.

Plus the config plumbing: schema 1 must canonicalise away (pinned cache
keys survive), schema 2 must materialise in fingerprints, and the
``REPRO_RNG_SCHEMA`` escape hatch must never poison schema-1 keys.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as stats

from repro.baselines import make_policy
from repro.common.rngutil import make_rng, philox_key
from repro.exp.cache import canonical, content_hash, result_to_dict
from repro.hw.drawplan import ENV_DISABLE
from repro.hw.substream import (
    KeyedJitter,
    KeyedPebsSampler,
    entry_load_fractions,
    plan_keyed_records,
)
from repro.sim.config import ENV_RNG_SCHEMA, MachineConfig
from repro.sim.engine import run_policy
from repro.sim.machine import Machine
from repro.sim.runbatch import MultiMachine
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, TraceStore, record_stream


def pebs_sampler(seed=7, rate=4, loads_only=True):
    return KeyedPebsSampler(
        seed=seed,
        rate=rate,
        cycles_per_record=100.0,
        sampled_codes=[1],
        num_tiers=2,
        loads_only=loads_only,
    )


def window_inputs(rng, n_windows=24, n_entries=64):
    """Deterministic per-window (counts, load-fraction) draw inputs."""
    out = []
    for _ in range(n_windows):
        counts = rng.integers(1, 200, size=n_entries).astype(np.int64)
        lf = np.full(n_entries, float(rng.uniform(0.3, 0.9)))
        out.append((counts, lf))
    return out


class TestKeyedDrawInvariance:
    def test_window_order_irrelevant(self):
        inputs = window_inputs(np.random.default_rng(3))
        in_order = [
            pebs_sampler().window_records(w, c, lf) for w, (c, lf) in enumerate(inputs)
        ]
        order = np.random.default_rng(4).permutation(len(inputs))
        shuffled = {int(w): pebs_sampler().window_records(int(w), *inputs[w]) for w in order}
        for w, expected in enumerate(in_order):
            np.testing.assert_array_equal(shuffled[w], expected)

    def test_draw_independent_of_other_windows(self):
        # A sampler that drew windows 0..N-1 and a fresh one that draws
        # only window k must agree: no cross-window stream sequencing.
        inputs = window_inputs(np.random.default_rng(5))
        warm = pebs_sampler()
        all_draws = [warm.window_records(w, c, lf) for w, (c, lf) in enumerate(inputs)]
        k = 17
        solo = pebs_sampler().window_records(k, *inputs[k])
        np.testing.assert_array_equal(solo, all_draws[k])

    def test_multi_run_interleaving_irrelevant(self):
        # Two runs (seeds) drawing in lockstep, in reversed member
        # order, or serially all see identical per-(seed, window) values.
        inputs = window_inputs(np.random.default_rng(6), n_windows=8)
        serial = {
            seed: [
                pebs_sampler(seed=seed).window_records(w, c, lf)
                for w, (c, lf) in enumerate(inputs)
            ]
            for seed in (11, 12)
        }
        a, b = pebs_sampler(seed=11), pebs_sampler(seed=12)
        for w, (c, lf) in enumerate(inputs):
            # Member order flipped relative to `serial`'s seed order.
            got_b = b.window_records(w, c, lf)
            got_a = a.window_records(w, c, lf)
            np.testing.assert_array_equal(got_a, serial[11][w])
            np.testing.assert_array_equal(got_b, serial[12][w])

    def test_draw_stage_is_decision_independent(self):
        # Policies differ in which tiers they sample (merge stage), but
        # the draw stage must not depend on that: common random numbers.
        inputs = window_inputs(np.random.default_rng(7), n_windows=4)
        slow_only = pebs_sampler()
        both_tiers = KeyedPebsSampler(
            seed=7,
            rate=4,
            cycles_per_record=100.0,
            sampled_codes=[0, 1],
            num_tiers=2,
        )
        for w, (c, lf) in enumerate(inputs):
            np.testing.assert_array_equal(
                slow_only.window_records(w, c, lf), both_tiers.window_records(w, c, lf)
            )

    def test_keys_distinct_per_seed_and_purpose(self):
        keys = {
            tuple(philox_key(seed, purpose))
            for seed in (0, 1, 2)
            for purpose in ("pebs", "cha", "perf")
        }
        assert len(keys) == 9

    def test_jitter_prestage_matches_live(self):
        sizes = np.array([8, 0, 12, 4, 0, 2], dtype=np.int64)
        planned = KeyedJitter(seed=3, purpose="cha", noise=0.05)
        planned.use_plan(planned.draw_plan(sizes))
        live = KeyedJitter(seed=3, purpose="cha", noise=0.05)
        for w, n in enumerate(sizes):
            np.testing.assert_array_equal(
                planned.window_values(w, int(n)), live.window_values(w, int(n))
            )

    def test_prestaged_records_match_live(self):
        # Whole-run plan over real trace columns == per-window live
        # draws over the replayed windows, entry for entry.
        data = record_stream(
            make_workload("gups", total_misses=400_000, seed=2), max_windows=512
        )
        sampler = pebs_sampler(seed=9)
        plan = plan_keyed_records(sampler, data)
        live = pebs_sampler(seed=9)
        replay = ReplayWorkload(data)
        w = 0
        while not replay.done:
            traffic = replay.next_window()
            if traffic.groups:
                counts = np.concatenate([g.counts for g in traffic.groups])
                lf = entry_load_fractions(traffic.groups)
                np.testing.assert_array_equal(
                    plan.window_records(w), live.window_records(w, counts, lf)
                )
            else:
                assert plan.window_records(w).size == 0
            w += 1


class TestMarginalEquivalence:
    """Keyed draws are a re-pairing, not a re-distribution."""

    def test_pebs_thinning_marginals_match_schema1(self):
        counts = np.full(250, 40, dtype=np.int64)
        lf = np.full(250, 0.7)
        rate = 4
        keyed = pebs_sampler(seed=13, rate=rate)
        sample2 = np.concatenate(
            [keyed.window_records(w, counts, lf) for w in range(320)]
        )
        # Schema 1 draws the identical two-stage thinning from one
        # sequential stream.
        rng = make_rng(13)
        sample1 = rng.binomial(
            rng.binomial(np.tile(counts, 320), 0.7), 1.0 / rate
        )
        hi = int(max(sample1.max(), sample2.max())) + 1
        table = np.vstack(
            [np.bincount(sample1, minlength=hi), np.bincount(sample2, minlength=hi)]
        )
        table = table[:, table.sum(axis=0) >= 10]
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-3

    def test_jitter_marginals_match_schema1(self):
        noise = 0.05
        jitter = KeyedJitter(seed=21, purpose="cha", noise=noise)
        sample2 = np.concatenate([jitter.window_values(w, 40) for w in range(200)])
        sample1 = np.exp(make_rng(22).normal(0.0, noise, size=8_000))
        assert stats.ks_2samp(sample1, sample2).pvalue > 1e-3


class TestConfigSchema:
    def test_schema1_normalises_to_none(self):
        assert MachineConfig().rng_schema is None
        assert MachineConfig(rng_schema=1).rng_schema is None
        assert MachineConfig(rng_schema=1).rng_schema_effective == 1

    def test_schema2_materialises(self):
        cfg = MachineConfig(rng_schema=2)
        assert cfg.rng_schema == 2
        assert cfg.rng_schema_effective == 2

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="rng_schema"):
            MachineConfig(rng_schema=3)

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(ENV_RNG_SCHEMA, "2")
        assert MachineConfig().rng_schema_effective == 2
        # An explicit schema always beats the environment.
        assert MachineConfig(rng_schema=1).rng_schema_effective == 1

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_RNG_SCHEMA, "fast")
        with pytest.raises(ValueError, match=ENV_RNG_SCHEMA):
            MachineConfig()

    def test_schema1_fingerprint_unchanged(self, monkeypatch):
        # The compatibility contract: schema-1 configs hash exactly as
        # they did before the field existed, even when set via the env.
        base = content_hash(canonical(MachineConfig()))
        assert content_hash(canonical(MachineConfig(rng_schema=1))) == base
        monkeypatch.setenv(ENV_RNG_SCHEMA, "1")
        assert content_hash(canonical(MachineConfig())) == base
        assert "rng_schema" not in str(canonical(MachineConfig()))

    def test_schema2_fingerprint_distinct(self):
        assert content_hash(canonical(MachineConfig(rng_schema=2))) != content_hash(
            canonical(MachineConfig())
        )
        assert "rng_schema" in str(canonical(MachineConfig(rng_schema=2)))


class TestSchema2EndToEnd:
    @pytest.mark.parametrize("policy_name", ["PACT", "Memtis"])
    def test_prestaged_matches_forced_live(self, policy_name, monkeypatch):
        store = TraceStore()
        workload = store.replay(make_workload("gups", total_misses=500_000))

        def digest():
            result = run_policy(
                store.replay(make_workload("gups", total_misses=500_000)),
                make_policy(policy_name),
                ratio="1:4",
                config=MachineConfig(rng_schema=2),
                seed=0,
            )
            return content_hash(canonical(result_to_dict(result)))

        run_policy(  # prime the recording once
            workload, make_policy("NoTier"), ratio="1:4", config=MachineConfig()
        )
        prestaged = digest()
        monkeypatch.setenv(ENV_DISABLE, "1")
        assert digest() == prestaged

    def test_multimachine_lockstep_matches_serial(self):
        data = record_stream(
            make_workload("gups", total_misses=500_000, seed=4), max_windows=512
        )
        grid = [(s, r) for s in (0, 1) for r in ("1:2", "1:4")]

        def machine(seed, ratio):
            return Machine(
                workload=ReplayWorkload(data),
                policy=make_policy("Memtis"),
                config=MachineConfig(rng_schema=2),
                ratio=ratio,
                seed=seed,
            )

        serial = [machine(s, r).run() for s, r in grid]
        multi = MultiMachine([machine(s, r) for s, r in grid]).run()
        for lock, solo in zip(multi, serial):
            assert result_to_dict(lock) == result_to_dict(solo)
