"""Schema-2 counter-keyed RNG substreams for hardware observation.

Schema 1 (the default) draws every stochastic hardware signal from
sequential per-subsystem generator streams: each draw's value depends
on its *position*, i.e. on every draw before it.  That makes PEBS
sampling unplannable for dynamic policies -- the thinning draws are
sequenced per (group, tier) share, and which shares exist depends on
placement, which depends on every previous policy decision.

Schema 2 keys each draw by *identity* instead: a Philox generator keyed
by (seed, purpose) with the window index in the counter word
(:func:`repro.common.rngutil.philox_key` /
:func:`~repro.common.rngutil.keyed_generator`).  Per window, each
consumer draws its full canonical entry set in one vectorized pass:

* **PEBS** draws the two-stage thinning (load-fraction thin, then
  1-in-``rate`` record thin) for *every* trace entry of the window, in
  trace order, regardless of tier placement.  Per-window sampling then
  collapses to a placement gather (which entries live in a sampled
  tier?) plus the usual duplicate-page merge.
* **CHA jitter** draws one (occupancy, busy) factor pair per
  (group, tier) cell of the window; rows of the solved share batch
  gather their pair by ``group_index * T + tier_code``.
* **perf jitter** draws one (miss, stall) factor pair per tier.

Because the entry sets are trace-determined (placement only selects,
never reorders or resizes them), every draw of a replayed run is
computable at attach time, for any policy -- that is what
:mod:`repro.hw.drawplan` prestages.  The live fallback draws the same
keyed substreams window by window, so prestaged and live schema-2 runs
are bit-identical by construction, and draws are invariant to chunk
size, window order, and which runs share a process.  Policies compared under
the same seed see *common random numbers*: identical PEBS thinning and
jitter draws wherever their placements agree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.common.rngutil import keyed_generator, philox_key
from repro.hw.pebs import PebsBatch, _strictly_increasing
from repro.hw.stall import ShareBatch


def entry_load_fractions(groups: Sequence) -> np.ndarray:
    """Per-entry load fractions for a window's groups, in trace order."""
    if len(groups) == 1:
        g = groups[0]
        return np.full(g.pages.size, g.load_fraction, dtype=np.float64)
    return np.repeat(
        np.asarray([g.load_fraction for g in groups], dtype=np.float64),
        [g.pages.size for g in groups],
    )


def entry_group_indices(groups: Sequence) -> np.ndarray:
    """Window-local group index of each entry, in trace order."""
    if len(groups) == 1:
        return np.zeros(groups[0].pages.size, dtype=np.int64)
    return np.repeat(
        np.arange(len(groups), dtype=np.int64),
        [g.pages.size for g in groups],
    )


class KeyedPebsSampler:
    """Keyed two-stage PEBS thinning over a window's full entry set.

    The draw stage (:meth:`window_records`) is decision-independent: it
    consumes only trace-determined inputs (entry counts and load
    fractions, canonical trace order) and the window's keyed substream.
    The merge stage (:meth:`merge_window`) applies the policy-dependent
    part -- a placement gather selecting entries resident in a sampled
    tier -- and merges duplicate pages exactly like the schema-1 path.
    """

    __slots__ = (
        "rate",
        "cycles_per_record",
        "loads_only",
        "report_latency",
        "_key",
        "_rate_p",
        "_code_mask",
        "_all_codes",
    )

    def __init__(
        self,
        seed: int,
        rate: int,
        cycles_per_record: float,
        sampled_codes: Sequence[int],
        num_tiers: int,
        loads_only: bool = True,
        report_latency: bool = False,
    ):
        if rate < 1:
            raise ValueError("PEBS rate must be >= 1")
        self.rate = rate
        self.cycles_per_record = cycles_per_record
        self.loads_only = loads_only
        self.report_latency = report_latency
        self._key = philox_key(seed, "pebs")
        self._rate_p = 1.0 / rate
        #: Boolean lookup table over tier codes: True where the policy
        #: samples that tier.
        mask = np.zeros(num_tiers, dtype=bool)
        for code in sampled_codes:
            mask[int(code)] = True
        self._code_mask = mask
        self._all_codes = bool(mask.all())

    @property
    def philox_key(self) -> np.ndarray:
        """The (seed, "pebs") Philox key every window's draw uses."""
        return self._key

    def window_records(
        self, window: int, counts: np.ndarray, lf_entries: Optional[np.ndarray]
    ) -> np.ndarray:
        """Draw the window's records for *all* entries, in trace order.

        ``lf_entries`` is only consulted when ``loads_only`` is set.
        Each window gets a fresh generator keyed by (seed, "pebs") at
        counter position ``window``, so the draw depends only on the
        window's own entry set -- never on other windows, the order
        they are drawn in, or which run asks.
        """
        rng = keyed_generator(self._key, window)
        if self.loads_only:
            counts = rng.binomial(counts, lf_entries)
        return rng.binomial(counts, self._rate_p)

    def merge_window(
        self,
        records: np.ndarray,
        pages: np.ndarray,
        placement: np.ndarray,
        batch: Optional[ShareBatch] = None,
        entry_groups: Optional[np.ndarray] = None,
        tier_of: Optional[np.ndarray] = None,
    ) -> PebsBatch:
        """Select sampled-tier entries and merge duplicates into a batch.

        ``batch``/``entry_groups`` are only needed for TPEBS-style
        latency reporting: each selected entry's exposed latency is its
        share's solved unit stall cost, looked up by (group, tier).
        ``tier_of`` optionally passes the caller's ``placement[pages]``
        gather for the same window, skipping a second one.
        """
        if pages.size == 0:
            return PebsBatch.empty(self.rate)
        if tier_of is None:
            tier_of = placement[pages]
        sel = self._code_mask[tier_of]
        np.logical_and(sel, records > 0, out=sel)
        pages_sel = pages[sel]
        if pages_sel.size == 0:
            return PebsBatch.empty(self.rate)
        recs = records[sel]
        lat = None
        if self.report_latency and batch is not None:
            T = int(self._code_mask.size)
            unit_lut = np.zeros(
                (int(batch.group_index.max(initial=-1)) + 1) * T
                if batch.n
                else T,
                dtype=np.float64,
            )
            unit_lut[
                np.asarray(batch.group_index, dtype=np.int64) * T
                + np.asarray(batch.tier_codes, dtype=np.int64)
            ] = batch.unit_stall_cycles
            lat = unit_lut[entry_groups[sel] * T + tier_of[sel]]
        if _strictly_increasing(pages_sel):
            uniq = pages_sel
            merged = recs
            latencies = None
            if lat is not None:
                latencies = (lat * merged) / np.maximum(merged, 1)
        else:
            uniq, inverse = np.unique(pages_sel, return_inverse=True)
            merged = np.bincount(inverse, weights=recs, minlength=uniq.size).astype(
                np.int64
            )
            latencies = None
            if lat is not None:
                weighted = np.bincount(
                    inverse, weights=lat * recs, minlength=uniq.size
                )
                latencies = weighted / np.maximum(merged, 1)
        return PebsBatch(
            pages=uniq,
            counts=merged,
            rate=self.rate,
            overhead_cycles=int(merged.sum()) * self.cycles_per_record,
            latencies=latencies,
        )

    def merge_window_pos(
        self,
        pos_idx: np.ndarray,
        pages_pos: np.ndarray,
        recs_pos: np.ndarray,
        tier_of: np.ndarray,
        sorted_unique: bool,
    ) -> PebsBatch:
        """:meth:`merge_window` over a prestaged positive-record subset.

        ``pos_idx``/``pages_pos``/``recs_pos`` are the window's entries
        with record > 0, in trace order
        (:class:`repro.hw.drawplan.PebsPosPlan`); ``tier_of`` is the
        caller's full-window ``placement[pages]`` gather.  Selecting
        sampled-tier entries from this subset visits the same entries
        in the same order as the full-window mask, so the merged batch
        is bit-identical -- the work just scales with the records that
        exist instead of the entries that might have had one.  Only for
        non-latency-reporting samplers (the latency path needs per-entry
        group indices against the solved shares).
        """
        if pages_pos.size == 0:
            return PebsBatch.empty(self.rate)
        if self._all_codes:
            # Every tier is sampled: tier selection is a no-op (matching
            # the full mask's behaviour for any tier value, -1 included).
            pages_sel = pages_pos
            recs = recs_pos
        else:
            sel = self._code_mask[tier_of[pos_idx]]
            pages_sel = pages_pos[sel]
            if pages_sel.size == 0:
                return PebsBatch.empty(self.rate)
            recs = recs_pos[sel]
        if sorted_unique or _strictly_increasing(pages_sel):
            uniq = pages_sel
            merged = recs
        else:
            uniq, inverse = np.unique(pages_sel, return_inverse=True)
            merged = np.bincount(inverse, weights=recs, minlength=uniq.size).astype(
                np.int64
            )
        return PebsBatch(
            pages=uniq,
            counts=merged,
            rate=self.rate,
            overhead_cycles=int(merged.sum()) * self.cycles_per_record,
            latencies=None,
        )


class KeyedJitter:
    """Keyed multiplicative jitter factors, one substream per window.

    Serves ``exp(Normal(0, noise))`` factors whose values depend only
    on (seed, purpose, window, position-in-window).  :meth:`draw_plan`
    freezes the whole run's draws into one flat tensor (the per-window
    sizes are trace-determined) and :meth:`use_plan` installs one;
    :meth:`window_values` then slices instead of drawing -- bit-identical
    by construction, since both paths evaluate the same keyed generator
    over the same sizes.
    """

    __slots__ = ("noise", "_key", "_plan_values", "_plan_ptr")

    def __init__(self, seed: int, purpose: str, noise: float):
        if noise <= 0.0:
            raise ValueError("keyed jitter needs a positive noise scale")
        self.noise = noise
        self._key = philox_key(seed, purpose)
        self._plan_values: Optional[np.ndarray] = None
        self._plan_ptr: Optional[np.ndarray] = None

    @property
    def philox_key(self) -> np.ndarray:
        """The (seed, purpose) Philox key every window's draw uses."""
        return self._key

    def window_values(self, window: int, n: int) -> np.ndarray:
        if self._plan_values is not None:
            return self._plan_values[self._plan_ptr[window] : self._plan_ptr[window + 1]]
        return self._draw(window, n)

    def _draw(self, window: int, n: int) -> np.ndarray:
        return np.exp(keyed_generator(self._key, window).normal(0.0, self.noise, size=n))

    def draw_plan(self, sizes_per_window: np.ndarray):
        """Every window's factors as one read-only ``(values, ptr)`` pair."""
        sizes = np.asarray(sizes_per_window, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for w in range(sizes.size):
            n = int(sizes[w])
            if n > 0:
                chunks.append(self._draw(w, n))
        ptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
        )
        values = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        ptr.setflags(write=False)
        values.setflags(write=False)
        return values, ptr

    def use_plan(self, plan) -> None:
        """Serve later windows as slices of a :meth:`draw_plan` result."""
        self._plan_values, self._plan_ptr = plan


class PebsRecordPlan:
    """Whole-run prestaged keyed PEBS records, aligned with trace entries.

    ``key`` is the content address the trace store files the plan under
    (:func:`repro.workloads.tracestore.keyed_plan_key`); None for plans
    drawn outside the store.
    """

    __slots__ = ("records", "entry_ptr", "key")

    def __init__(
        self, records: np.ndarray, entry_ptr: np.ndarray, key: Optional[str] = None
    ):
        self.records = records
        self.entry_ptr = entry_ptr
        self.key = key

    def window_records(self, window: int) -> np.ndarray:
        return self.records[self.entry_ptr[window] : self.entry_ptr[window + 1]]


def plan_keyed_records(sampler: KeyedPebsSampler, data) -> PebsRecordPlan:
    """Draw the whole run's keyed PEBS records from the trace columns.

    For each recorded window this calls the very same
    :meth:`KeyedPebsSampler.window_records` the live fallback calls,
    over the very same trace-order entry slices, so the prestaged
    tensor is bit-identical to live per-window draws.
    """
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    counts = np.asarray(c["counts"])
    lf_col = np.asarray(c["group_load_fraction"])
    num_windows = wgp.size - 1
    entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
    chunks: List[np.ndarray] = []
    for w in range(num_windows):
        e0, e1 = int(entry_ptr[w]), int(entry_ptr[w + 1])
        if e1 == e0:
            continue
        g0, g1 = int(wgp[w]), int(wgp[w + 1])
        lf = (
            np.repeat(lf_col[g0:g1], np.diff(gpp[g0 : g1 + 1]))
            if sampler.loads_only
            else None
        )
        chunks.append(sampler.window_records(w, counts[e0:e1], lf))
    records = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return PebsRecordPlan(records, entry_ptr)


__all__ = [
    "KeyedJitter",
    "KeyedPebsSampler",
    "PebsRecordPlan",
    "entry_group_indices",
    "entry_load_fractions",
    "plan_keyed_records",
]
