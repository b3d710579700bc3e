"""Object-per-share stall pipeline: the oracle for ``StallModel``.

The original form of the window's hardware model: one freshly allocated
:class:`GroupTierShare` per (access group, tier) cell, built with
boolean-mask copies, and a fixed point that accumulates stalls share by
share in order.  ``StallModel.split_groups`` and both solver kernels
must reproduce it exactly -- same rows, same unit costs, same tier
loads, same duration, float for float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.units import CACHE_LINE_SIZE, ns_to_cycles
from repro.hw.access import AccessGroup
from repro.hw.stall import (
    _FIXED_POINT_ITERATIONS,
    MAX_UTILISATION,
    QUEUE_GAIN,
    ShareBatch,
    StallModel,
    TierLoad,
    WindowHardware,
)
from repro.mem.page import Tier, tier_key


@dataclass
class GroupTierShare:
    """One access group's traffic that landed in one tier."""

    group_index: int
    tier: Tier
    pages: np.ndarray
    counts: np.ndarray
    mlp: float
    load_fraction: float = 1.0
    label: str = ""
    #: Filled in by the solver: stall cycles per miss for this share.
    unit_stall_cycles: float = 0.0

    @property
    def misses(self) -> int:
        return int(self.counts.sum())

    def stall_cycles(self) -> float:
        return self.misses * self.unit_stall_cycles

    def per_page_stalls(self) -> np.ndarray:
        """Ground-truth stall cycles attributed to each page of the share."""
        return self.counts.astype(float) * self.unit_stall_cycles


def split_groups_legacy(
    groups: Sequence[AccessGroup], placement: np.ndarray, num_tiers: int = 2
) -> List[GroupTierShare]:
    """Split each group's traffic by placement, one share per (group, tier)."""
    shares: List[GroupTierShare] = []
    for gi, group in enumerate(groups):
        tiers = placement[group.pages]
        for code in range(num_tiers):
            mask = tiers == code
            if not mask.any():
                continue
            shares.append(
                GroupTierShare(
                    group_index=gi,
                    tier=tier_key(code),
                    pages=group.pages[mask],
                    counts=group.counts[mask],
                    mlp=group.mlp,
                    load_fraction=group.load_fraction,
                    label=group.label,
                )
            )
    return shares


def shares_of(batch: ShareBatch) -> List[GroupTierShare]:
    """The batch's rows as share objects (copied arrays, solved units)."""
    return [
        GroupTierShare(
            group_index=int(batch.group_index[i]),
            tier=batch.tiers[i],
            pages=batch.pages_of(i).copy(),
            counts=batch.counts_of(i).copy(),
            mlp=float(batch.mlp[i]),
            load_fraction=float(batch.load_fraction[i]),
            label=batch.labels[i],
            unit_stall_cycles=float(batch.unit_stall_cycles[i]),
        )
        for i in range(batch.n)
    ]


def solve_shares(
    model: StallModel,
    shares: Sequence[GroupTierShare],
    compute_cycles: float,
    extra_bytes: Optional[Dict[Tier, float]] = None,
    extra_cycles: float = 0.0,
) -> WindowHardware:
    """Ordered-accumulation fixed point over share objects.

    Uses ``model``'s tier specs, clock and prefetch factor; fills each
    share's ``unit_stall_cycles``.
    """
    extra_bytes = extra_bytes or {}
    loads = {tier_key(t): TierLoad(tier=tier_key(t)) for t in range(model.num_tiers)}
    by_tier: Dict[Tier, List[GroupTierShare]] = {
        tier_key(t): [] for t in range(model.num_tiers)
    }
    share_misses = [share.misses for share in shares]
    for share, misses in zip(shares, share_misses):
        loads[share.tier].misses += misses
        by_tier[share.tier].append(share)
    for tier, load in loads.items():
        demand_bytes = load.misses * CACHE_LINE_SIZE
        load.bytes = demand_bytes * (1.0 + model.prefetch_traffic_factor)
        load.bytes += float(extra_bytes.get(tier, 0.0))

    # Initial guess: unloaded latency, duration = compute + extra.
    duration = max(compute_cycles + extra_cycles, 1.0)
    for _ in range(_FIXED_POINT_ITERATIONS):
        for tier, load in loads.items():
            spec = model.spec[tier]
            duration_ns = duration / model.freq_ghz
            supply = spec.bytes_per_ns() * duration_ns
            util = min(load.bytes / supply if supply > 0 else 0.0, MAX_UTILISATION)
            load.utilisation = util
            inflation = 1.0 + QUEUE_GAIN * util / (1.0 - util)
            load.effective_latency_cycles = ns_to_cycles(spec.latency_ns, model.freq_ghz) * inflation
        for share in shares:
            lat = loads[share.tier].effective_latency_cycles
            share.unit_stall_cycles = lat / share.mlp
        for load in loads.values():
            load.stall_cycles = 0.0
        for share, misses in zip(shares, share_misses):
            loads[share.tier].stall_cycles += misses * share.unit_stall_cycles
        total_stalls = sum(load.stall_cycles for load in loads.values())
        new_duration = max(compute_cycles + extra_cycles + total_stalls, 1.0)
        duration = 0.5 * duration + 0.5 * new_duration

    for load in loads.values():
        load.mlp = harmonic_mlp(by_tier[load.tier])
    return WindowHardware(
        shares=list(shares),
        tier_loads=loads,
        compute_cycles=compute_cycles,
        duration_cycles=duration,
    )


def harmonic_mlp(shares: Sequence[GroupTierShare]) -> float:
    """Miss-weighted harmonic mean MLP (the MLP the TOR actually sees).

    Harmonic because total occupancy-time is sum(misses * lat / mlp):
    the aggregate behaves like one stream whose MLP is the harmonic
    mean weighted by misses.
    """
    total = sum(s.misses for s in shares)
    if total == 0:
        return 1.0
    inv = sum(s.misses / s.mlp for s in shares)
    return total / inv if inv > 0 else 1.0
