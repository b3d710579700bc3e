"""Hop-at-a-time migration apply: the oracle for ``MigrationEngine.apply_window``.

Each function takes a :class:`repro.sim.migration.MigrationEngine` and
mutates its memory as it goes -- one ``TieredMemory.move`` per hop,
cascades ahead of the hop that triggers them -- merging outcomes in the
same tree the fused plan's merge program replays.  The fused apply
must match it exactly: outcomes, placement, occupancy and counters.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page import Tier
from repro.sim.migration import MigrationOutcome


def apply_window_legacy(engine, decision) -> MigrationOutcome:
    """Apply a decision: LRU reclaim, explicit demotions, promotions."""
    total = MigrationOutcome()
    if decision.demote_lru > 0:
        total.merge(
            demote_lru(
                engine,
                decision.demote_lru,
                protect=decision.promote,
                victim_mode=decision.demote_victim_mode,
            )
        )
    if decision.demote.size:
        total.merge(demote(engine, decision.demote))
    if decision.promote.size:
        total.merge(promote(engine, decision.promote))
    return total


def demote_lru(engine, count: int, protect: np.ndarray, victim_mode: str = "cold") -> MigrationOutcome:
    """Demote up to ``count`` reclaim victims from the fast tier."""
    if victim_mode not in ("cold", "lru_tail", "fifo"):
        raise ValueError(f"unknown victim mode {victim_mode!r}")
    if count <= 0:
        return MigrationOutcome()
    max_activity = None
    if victim_mode == "cold":
        max_activity = (
            engine.config.cold_activity_fraction * engine.memory.mean_activity(Tier.FAST)
        )
    victims = engine.memory.lru_victims(
        Tier.FAST,
        count,
        protect=protect,
        max_activity=max_activity,
        fifo=victim_mode == "fifo",
    )
    return demote(engine, victims)


def demote(engine, pages: np.ndarray) -> MigrationOutcome:
    """Demote pages one hop down (or straight to the bottom tier).

    Pages are routed per source tier; a hop into a *full* intermediate
    tier first cascades that tier's own LRU victims further down.
    """
    pages = engine._expand_thp(np.asarray(pages, dtype=np.int64))
    outcome = MigrationOutcome()
    if pages.size == 0:
        return outcome
    memory = engine.memory
    place = memory.tier_of(pages)
    for src in range(engine.num_tiers - 1):
        sub = pages[place == src]
        if sub.size == 0:
            continue
        dst = engine._demote_dst(src)
        sub = engine._admit(src, dst, sub)
        if sub.size == 0:
            continue
        if dst < engine.num_tiers - 1:
            deficit = sub.size - memory.free_pages(dst)
            if deficit > 0:
                outcome.merge(_cascade(engine, dst, deficit, protect=sub))
        moved = memory.move(sub, dst, src=src)
        outcome.merge(engine._account(moved, promoted=False, src=src, dst=dst))
    return outcome


def _cascade(engine, tier: int, count: int, protect: np.ndarray) -> MigrationOutcome:
    """Push ``count`` LRU victims out of an intermediate tier."""
    outcome = MigrationOutcome()
    memory = engine.memory
    victims = memory.lru_victims(tier, count, protect=protect)
    if victims.size == 0:
        return outcome
    dst = engine._demote_dst(tier)
    victims = engine._admit(tier, dst, victims)
    if victims.size == 0:
        return outcome
    if dst < engine.num_tiers - 1:
        deficit = victims.size - memory.free_pages(dst)
        if deficit > 0:
            outcome.merge(_cascade(engine, dst, deficit, protect=victims))
    moved = memory.move(victims, dst, src=tier)
    outcome.merge(engine._account(moved, promoted=False, src=tier, dst=dst))
    return outcome


def promote(engine, pages: np.ndarray) -> MigrationOutcome:
    """Promote pages to tier 0, per source tier, nearest tier first."""
    pages = engine._expand_thp(np.asarray(pages, dtype=np.int64))
    outcome = MigrationOutcome()
    if pages.size == 0:
        return outcome
    place = engine.memory.tier_of(pages)
    top = int(Tier.FAST)
    for src in range(1, engine.num_tiers):
        sub = pages[place == src]
        if sub.size == 0:
            continue
        sub = engine._admit(src, top, sub)
        if sub.size == 0:
            continue
        moved = engine.memory.move(sub, Tier.FAST, src=src)
        outcome.merge(engine._account(moved, promoted=True, src=src, dst=top))
    return outcome
