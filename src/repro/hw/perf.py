"""Processor-level performance counters (the "perf" view).

This registry exposes exactly the signals a tiering policy can read on
real hardware: cumulative LLC misses per tier, aggregate stall cycles,
elapsed cycles, and per-tier byte traffic (for occupancy-derived latency
signals a la Colloid).  Like :mod:`repro.hw.cha`, reads carry small
multiplicative noise so estimators downstream are stressed realistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.hw.stall import WindowHardware
from repro.mem.page import Tier, tier_key

DEFAULT_PERF_NOISE = 0.01


@dataclass
class PerfSnapshot:
    """Cumulative counter values at one instant."""

    cycles: float = 0.0
    llc_misses: Dict[Tier, float] = field(default_factory=dict)
    stall_cycles: Dict[Tier, float] = field(default_factory=dict)
    bytes: Dict[Tier, float] = field(default_factory=dict)
    effective_latency_cycles: Dict[Tier, float] = field(default_factory=dict)

    def delta(self, earlier: "PerfSnapshot") -> "PerfDelta":
        return PerfDelta(
            cycles=self.cycles - earlier.cycles,
            llc_misses={t: self.llc_misses[t] - earlier.llc_misses.get(t, 0.0) for t in self.llc_misses},
            stall_cycles={t: self.stall_cycles[t] - earlier.stall_cycles.get(t, 0.0) for t in self.stall_cycles},
            bytes={t: self.bytes[t] - earlier.bytes.get(t, 0.0) for t in self.bytes},
            effective_latency_cycles=dict(self.effective_latency_cycles),
        )


@dataclass
class PerfDelta:
    """Counter deltas over one observation interval."""

    cycles: float
    llc_misses: Dict[Tier, float]
    stall_cycles: Dict[Tier, float]
    bytes: Dict[Tier, float]
    #: Last-observed loaded latency per tier (occupancy-derived signal).
    effective_latency_cycles: Dict[Tier, float]

    @property
    def total_llc_misses(self) -> float:
        return sum(self.llc_misses.values())

    @property
    def total_stall_cycles(self) -> float:
        return sum(self.stall_cycles.values())


class PerfCounters:
    """Cumulative processor counters, advanced once per window."""

    def __init__(
        self,
        noise: float = DEFAULT_PERF_NOISE,
        rng: Optional[np.random.Generator] = None,
        num_tiers: int = 2,
    ):
        self.noise = noise
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._cycles = 0.0
        tiers = [tier_key(t) for t in range(num_tiers)]
        self._llc_misses = {t: 0.0 for t in tiers}
        self._stalls = {t: 0.0 for t in tiers}
        self._bytes = {t: 0.0 for t in tiers}
        self._latency = {t: 0.0 for t in tiers}

    def advance(self, outcome: WindowHardware, jitter: Optional[np.ndarray] = None) -> None:
        """Account one solved window into the cumulative counters.

        Each tier's miss and stall counts carry a multiplicative noise
        factor: ``2 * num_tiers`` of them, (miss, stall) interleaved in
        tier order.  ``jitter``, when given, supplies them -- the
        schema-2 keyed path (:mod:`repro.hw.substream`).  Otherwise one
        vector draw from this counter's generator does; it consumes the
        stream exactly as ``2 * num_tiers`` sequential scalar draws
        would.  Without noise every factor is 1.
        """
        self._cycles += outcome.duration_cycles
        loads = outcome.tier_loads
        if jitter is not None:
            factors = jitter.tolist()
        elif self.noise > 0.0:
            factors = np.exp(
                self._rng.normal(0.0, self.noise, size=2 * len(loads))
            ).tolist()
        else:
            factors = [1.0] * (2 * len(loads))
        k = 0
        for tier, load in loads.items():
            self._llc_misses[tier] += load.misses * factors[k]
            self._stalls[tier] += load.stall_cycles * factors[k + 1]
            self._bytes[tier] += load.bytes
            self._latency[tier] = load.effective_latency_cycles
            k += 2

    def read(self) -> PerfSnapshot:
        return PerfSnapshot(
            cycles=self._cycles,
            llc_misses=dict(self._llc_misses),
            stall_cycles=dict(self._stalls),
            bytes=dict(self._bytes),
            effective_latency_cycles=dict(self._latency),
        )
