"""A group of runs executed one after another.

The perf harness times its multi-run scenarios (``graph-pact-multi``,
``memtis-multi``) through :class:`MultiMachine`.  Each member is a
complete :class:`~repro.sim.machine.Machine` and runs on its own loop.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.machine import Machine
from repro.sim.metrics import RunResult


class MultiMachine:
    """Runs its member machines serially; results in member order."""

    def __init__(self, machines: Sequence[Machine]):
        if not machines:
            raise ValueError("MultiMachine needs at least one machine")
        self.machines = list(machines)

    def run(self, max_windows: int = 200_000) -> List[RunResult]:
        return [m.run(max_windows=max_windows) for m in self.machines]


__all__ = ["MultiMachine"]
