"""The serial multi-run runner the perf harness times.

:class:`~repro.sim.runbatch.MultiMachine` runs its member machines one
after another; each member's result must be bit-identical to running
that machine alone.
"""

from __future__ import annotations

import pytest

from repro.baselines import make_policy
from repro.exp.cache import result_to_dict
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.runbatch import MultiMachine
from repro.workloads import make_workload
from repro.workloads.tracestore import ReplayWorkload, record_stream

SEEDS = (0, 1, 2)
RATIOS = ("1:2", "1:4")


def build_machine(data, policy_name, ratio, seed):
    return Machine(
        workload=ReplayWorkload(data),
        policy=make_policy(policy_name),
        config=MachineConfig(),
        ratio=ratio,
        seed=seed,
    )


class TestMultiMachine:
    @pytest.mark.parametrize("policy_name", ["PACT", "Memtis", "NoTier"])
    def test_lockstep_matches_serial_bit_exactly(self, policy_name):
        data = record_stream(
            make_workload("gups", total_misses=600_000, seed=4), max_windows=512
        )
        grid = [(s, r) for s in SEEDS for r in RATIOS]
        serial = [build_machine(data, policy_name, r, s).run() for s, r in grid]
        multi = MultiMachine(
            [build_machine(data, policy_name, r, s) for s, r in grid]
        ).run()
        assert len(multi) == len(serial)
        for lock, solo in zip(multi, serial):
            assert result_to_dict(lock) == result_to_dict(solo)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiMachine([])
