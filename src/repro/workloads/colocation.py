"""Colocated workloads sharing one tiered address space.

The colocation study (§5.9) runs two masim processes -- one streaming,
one pointer-chasing -- against a fast tier sized at half their combined
footprint.  ``ColocatedWorkload`` merges member workloads into a single
address space (page ids offset per member) and emits their combined
traffic each window; each member's completion time is tracked separately
so per-member slowdowns can be reported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hw.access import AccessGroup, WindowTraffic
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload


class ColocatedWorkload(Workload):
    """Union of member workloads with per-member progress accounting."""

    def __init__(self, members: Sequence[Workload], name: Optional[str] = None):
        if not members:
            raise ValueError("colocation requires at least one member")
        self.members: List[Workload] = list(members)
        self._offsets: List[int] = []
        offset = 0
        objects: List[ObjectRegion] = []
        for member in self.members:
            self._offsets.append(offset)
            for region in member.objects:
                objects.append(
                    ObjectRegion(
                        f"{member.name}:{region.name}",
                        region.start_page + offset,
                        region.num_pages,
                    )
                )
            offset += member.footprint_pages
        #: Window index at which each member finished (-1 = still running).
        self.member_finish_window: List[int] = [-1] * len(self.members)
        super().__init__(
            name=name or "+".join(m.name for m in self.members),
            footprint_pages=offset,
            total_misses=sum(m.total_misses for m in self.members),
            misses_per_window=sum(m.misses_per_window for m in self.members),
            compute_cycles_per_miss=0.0,  # compute comes from the members
            seed=self.members[0].seed,
            objects=objects,
        )

    def _on_reset(self) -> None:
        for member in self.members:
            member.reset()
        self.member_finish_window = [-1] * len(self.members)

    def final_metrics(self) -> dict:
        return {"member_finish_window": list(self.member_finish_window)}

    @property
    def done(self) -> bool:
        # Done once every member is: the rule of each window's ``done``
        # stamp, so a loop may stop on either.
        return all(m.done for m in self.members)

    def _generate_window(self) -> WindowTraffic:
        # Members are composed through their generation bodies: this
        # runs on a pipelined run's producer thread, where no traced
        # ``next_window`` may be entered.
        groups: List[AccessGroup] = []
        compute = 0.0
        emitted = 0
        for i, member in enumerate(self.members):
            if member.done:
                continue
            traffic = member._generate_window()
            for group in traffic.groups:
                groups.append(
                    AccessGroup(
                        pages=group.pages + self._offsets[i],
                        counts=group.counts,
                        mlp=group.mlp,
                        load_fraction=group.load_fraction,
                        label=f"{member.name}:{group.label}",
                    )
                )
            # Colocated processes run on separate cores; the shared-window
            # compute is the max of the members, not the sum.
            compute = max(compute, traffic.compute_cycles)
            emitted += traffic.total_misses()
            if member.done and self.member_finish_window[i] < 0:
                self.member_finish_window[i] = self._window
        self._consumed += emitted
        self._window += 1
        traffic = WindowTraffic(
            groups=groups,
            compute_cycles=compute,
            done=self.done,
            phase=self.phase_name(),
        )
        traffic.extra["consumed_after"] = self._consumed
        return traffic

    def member_pages(self, index: int) -> np.ndarray:
        """All page ids belonging to member ``index``."""
        member = self.members[index]
        start = self._offsets[index]
        return np.arange(start, start + member.footprint_pages, dtype=np.int64)

    def _emit(self, budget: int, rng: np.random.Generator) -> List[AccessGroup]:
        raise NotImplementedError("ColocatedWorkload overrides _generate_window directly")

    def phase_name(self) -> str:
        running = sum(1 for m in self.members if not m.done)
        return f"{running}-running"
