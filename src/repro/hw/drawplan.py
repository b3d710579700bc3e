"""Whole-run draw plans for replayed traffic streams.

Once a traffic stream is recorded (:mod:`repro.workloads.tracestore`),
much of each window's hardware work is known before the run starts.
When a :class:`~repro.sim.machine.Machine` replays a non-looping
:class:`~repro.workloads.tracestore.ReplayWorkload`, :func:`attach`
wires in the plans that apply to it:

* **Keyed draws (RNG schema 2, any policy).** :func:`_attach_keyed`
  prestages the whole run's keyed PEBS records and CHA/perf jitter
  tensors.  Keyed draws cover every trace entry or (group, tier) cell
  whatever the placement, so they are known at attach time even for
  dynamic policies.
* **Static placement** (``policy.static_placement`` and a fully
  allocated footprint).  :func:`split_static` / :func:`static_batches`
  split the whole trace by (window, group, tier) in one vectorised pass
  and hand each window a pre-sliced :class:`~repro.hw.stall.ShareBatch`
  view, rows in the live order (per group: tier 0 then tier 1, ...).
  When the policy also takes no PEBS samples, the run has no contender
  and observability is off, :func:`plan_window_solves` solves every
  window's fixed point up front in one ``solve_many`` pass.
* **Moving placement.** :func:`build_entry_meta` prestages the split
  inputs that do not depend on placement; under schema 2,
  :func:`build_pebs_pos` indexes the positive keyed PEBS records so the
  per-window merge becomes a gather.

Schema-1 samplers and counter jitter always draw live, window by
window, from their own generators.

Every plan is bit-identical to the live path.  Artefacts that depend on
the trace and not on the run are computed once: the keyed PEBS records
come from the trace store
(:meth:`~repro.workloads.tracestore.TraceStore.pebs_records`: memo,
then sidecar file, then one draw), and their positive-record index, the
keyed jitter tensors, the entry metadata and the static splits are
memoised on the :class:`~repro.workloads.tracestore.TraceData`, so runs
of one process that share their inputs share one read-only object.

Set ``REPRO_NO_DRAWPLAN=1`` to force the live per-window paths.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Optional

import numpy as np

from repro.hw.stall import ShareBatch

#: Environment switch: any non-empty value disables all draw plans.
ENV_DISABLE = "REPRO_NO_DRAWPLAN"

def plans_enabled() -> bool:
    return not os.environ.get(ENV_DISABLE, "")


def _readonly(*arrays) -> None:
    """Freeze arrays that runs share (``None`` entries are skipped)."""
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)


def _empty_share_batch(num_tiers: int) -> ShareBatch:
    return ShareBatch(
        n=0,
        group_index=np.empty(0, dtype=np.int64),
        tier_codes=np.empty(0, dtype=np.intp),
        mlp=np.empty(0, dtype=np.float64),
        load_fraction=np.empty(0, dtype=np.float64),
        misses=np.empty(0, dtype=np.int64),
        offsets=np.zeros(1, dtype=np.int64),
        pages_buf=np.empty(0, dtype=np.int64),
        counts_buf=np.empty(0, dtype=np.int64),
        labels=[],
        unit_stall_cycles=np.empty(0, dtype=np.float64),
        num_tiers=num_tiers,
    )


class StaticSplit:
    """The whole trace split into (group, tier) rows by a frozen placement.

    Read-only and run-independent: every run that replays the same
    trace on the same tier count with the same placement can share one
    (:func:`attach` memoises it on the trace).  Each run still wraps it
    in its own :class:`ShareBatch` views, whose solver output column
    (``unit_stall_cycles``) it owns.
    """

    __slots__ = (
        "num_tiers", "row_group", "row_tier", "row_misses", "row_offsets",
        "row_window_ptr", "pages_s", "counts_s",
    )

    def __init__(self, num_tiers, row_group, row_tier, row_misses, row_offsets,
                 row_window_ptr, pages_s, counts_s):
        self.num_tiers = num_tiers
        self.row_group = row_group
        self.row_tier = row_tier
        self.row_misses = row_misses
        #: Row boundaries into ``pages_s``/``counts_s`` (None: misses only).
        self.row_offsets = row_offsets
        self.row_window_ptr = row_window_ptr
        self.pages_s = pages_s
        self.counts_s = counts_s


def split_static(
    data, placement: np.ndarray, num_tiers: int, misses_only: bool = False
) -> StaticSplit:
    """Split every recorded entry by (group, tier) under a frozen placement.

    One stable argsort of the whole trace's entries by (group, tier)
    reproduces, per (group, tier), exactly the element order that the
    per-window mask + ``np.compress`` split emits.  ``misses_only``
    skips the page/count partition -- the per-row totals then come from
    one presence and one count-weighted bincount, exact because the
    integer weights stay far below 2**53 -- for machines whose consumers
    read row columns only (``Machine._misses_only_split``).
    """
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    pages = np.asarray(c["pages"])
    counts = np.asarray(c["counts"])
    num_groups = gpp.size - 1
    T = num_tiers

    group_of = np.repeat(np.arange(num_groups, dtype=np.int64), np.diff(gpp))
    key = group_of * T + placement[pages].astype(np.int64)
    sizes = np.bincount(key, minlength=num_groups * T)
    rows = np.flatnonzero(sizes)
    if misses_only:
        row_misses = np.bincount(key, weights=counts, minlength=num_groups * T)[
            rows
        ].astype(np.int64)
        row_offsets = pages_s = counts_s = None
    else:
        order = np.argsort(key, kind="stable")
        pages_s = np.ascontiguousarray(pages[order])
        counts_s = np.ascontiguousarray(counts[order])
        row_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes[rows], dtype=np.int64)]
        )
        if rows.size:
            row_misses = np.add.reduceat(counts_s, row_offsets[:-1])
        else:
            row_misses = np.empty(0, dtype=np.int64)
    row_group = rows // T
    # Rows are group-ascending, groups are window-ascending, so each
    # window's rows are one contiguous range.
    split = StaticSplit(
        T, row_group, (rows % T).astype(np.intp), row_misses, row_offsets,
        np.searchsorted(row_group, wgp), pages_s, counts_s,
    )
    _readonly(split.row_group, split.row_tier, split.row_misses, split.row_offsets,
              split.row_window_ptr, split.pages_s, split.counts_s)
    return split


def static_batches(data, split: StaticSplit) -> List[Optional[ShareBatch]]:
    """One run's per-window :class:`ShareBatch` views over ``split``.

    Rows keep the legacy order (per group: tier 0 then tier 1, ...), so
    solver, sampler, counter and trace consumers see byte-identical
    inputs.  Returns one batch per recorded window (``None`` for windows
    that emitted no groups -- the machine never splits those).
    """
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    mlp_col = np.asarray(c["group_mlp"])
    lf_col = np.asarray(c["group_load_fraction"])
    group_labels = [data.labels[int(code)] for code in c["group_label"]]
    T = split.num_tiers
    rwp = split.row_window_ptr
    offsets = split.row_offsets
    unit_all = np.empty(split.row_group.size, dtype=np.float64)

    batches: List[Optional[ShareBatch]] = []
    for w in range(wgp.size - 1):
        if wgp[w + 1] == wgp[w]:
            batches.append(None)
            continue
        r0, r1 = int(rwp[w]), int(rwp[w + 1])
        if r1 == r0:
            # Groups recorded, but every one of them was empty.
            batches.append(_empty_share_batch(T))
            continue
        if offsets is None:
            window_offsets = pages_buf = counts_buf = None
        else:
            base, end = int(offsets[r0]), int(offsets[r1])
            window_offsets = offsets[r0 : r1 + 1] - base
            pages_buf = split.pages_s[base:end]
            counts_buf = split.counts_s[base:end]
        g = split.row_group[r0:r1]
        batches.append(
            ShareBatch(
                n=r1 - r0,
                group_index=g - int(wgp[w]),
                tier_codes=split.row_tier[r0:r1],
                mlp=mlp_col[g],
                load_fraction=lf_col[g],
                misses=split.row_misses[r0:r1],
                offsets=window_offsets,
                pages_buf=pages_buf,
                counts_buf=counts_buf,
                labels=[group_labels[int(gi)] for gi in g],
                unit_stall_cycles=unit_all[r0:r1],
                num_tiers=T,
            )
        )
    return batches


def build_static_batches(
    data, placement: np.ndarray, num_tiers: int
) -> List[Optional[ShareBatch]]:
    """Pre-split every recorded window by a *frozen* placement."""
    return static_batches(data, split_static(data, placement, num_tiers))


class EntryMetaPlan:
    """Prestaged trace-determined entry metadata for *dynamic* replay.

    Dynamic policies re-split every window (placement moves), but most
    of the split's per-entry inputs never depend on placement at all:
    the packed ``group * num_tiers`` key base, the float view of the
    miss counts (weighted ``bincount`` wants float64 weights), and
    whether any entry carries a zero count.
    All of it is computed here once, at attach time, so the timed loop
    keeps only the placement-dependent work: one gather, one add, one
    weighted bincount.
    """

    __slots__ = ("entry_ptr", "key_base", "counts_f", "counts_positive")

    def __init__(self, entry_ptr, key_base, counts_f, counts_positive):
        self.entry_ptr = entry_ptr
        #: Flat per-entry ``group_index * num_tiers`` (None when no
        #: recorded window has more than one group).
        self.key_base = key_base
        self.counts_f = counts_f
        #: True when every recorded count is >= 1 (then cell presence
        #: follows from the weighted bincount alone).
        self.counts_positive = counts_positive

    def window(self, w: int):
        """``(key_base_slice|None, counts_f_slice)`` for window ``w``."""
        e0 = self.entry_ptr[w]
        e1 = self.entry_ptr[w + 1]
        kb = self.key_base[e0:e1] if self.key_base is not None else None
        return kb, self.counts_f[e0:e1]


def build_entry_meta(data, num_tiers: int) -> EntryMetaPlan:
    """Precompute :class:`EntryMetaPlan` from recorded trace columns."""
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    counts = np.asarray(c["counts"])
    entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
    groups_per_window = np.diff(wgp)
    if groups_per_window.size and int(groups_per_window.max()) > 1:
        # Window-local group index of every entry, flattened: subtract
        # each window's first global group id, then expand per entry.
        gi_local = np.arange(gpp.size - 1, dtype=np.intp) - np.repeat(
            wgp[:-1].astype(np.intp), groups_per_window
        )
        key_base = np.repeat(gi_local * num_tiers, np.diff(gpp))
    else:
        key_base = None
    counts_f = counts.astype(np.float64)
    counts_positive = bool(counts.min() >= 1) if counts.size else True
    return EntryMetaPlan(entry_ptr, key_base, counts_f, counts_positive)


class PebsPosPlan:
    """Prestaged nonzero-record positions of a keyed PEBS record plan.

    Keyed PEBS draws records for *every* trace entry, but the merge
    only ever looks at entries whose record count is positive -- a
    trace-determined subset, typically a small fraction of the window.
    Prestaging the positions (plus their pages and records) shrinks the
    per-window merge to a gather + compress over that subset.
    """

    __slots__ = ("_ptr", "pos_idx", "pages_pos", "recs_pos", "sorted_unique")

    def __init__(self, ptr, pos_idx, pages_pos, recs_pos, sorted_unique):
        self._ptr = ptr
        #: Window-local entry indices of the positive-record entries.
        self.pos_idx = pos_idx
        self.pages_pos = pages_pos
        self.recs_pos = recs_pos
        self.sorted_unique = sorted_unique

    def window(self, w: int):
        s0 = self._ptr[w]
        s1 = self._ptr[w + 1]
        return (
            self.pos_idx[s0:s1],
            self.pages_pos[s0:s1],
            self.recs_pos[s0:s1],
            bool(self.sorted_unique[w]),
        )


def build_pebs_pos(record_plan, data) -> PebsPosPlan:
    """Index a :class:`~repro.hw.substream.PebsRecordPlan` by record > 0."""
    c = data.columns
    wgp = np.asarray(c["window_group_ptr"])
    gpp = np.asarray(c["group_page_ptr"])
    pages = np.asarray(c["pages"])
    entry_ptr = np.asarray(gpp[wgp], dtype=np.int64)
    num_windows = wgp.size - 1
    ptr = np.zeros(num_windows + 1, dtype=np.int64)
    idx_chunks: List[np.ndarray] = []
    page_chunks: List[np.ndarray] = []
    rec_chunks: List[np.ndarray] = []
    sorted_unique = np.empty(num_windows, dtype=bool)
    for w in range(num_windows):
        recs = record_plan.window_records(w)
        pos = np.flatnonzero(recs)
        pp = pages[entry_ptr[w] : entry_ptr[w + 1]][pos]
        idx_chunks.append(pos)
        page_chunks.append(pp)
        rec_chunks.append(recs[pos])
        sorted_unique[w] = pp.size <= 1 or bool((pp[1:] > pp[:-1]).all())
        ptr[w + 1] = ptr[w] + pos.size
    cat = lambda chunks, dt: (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=dt)
    )
    return PebsPosPlan(
        ptr,
        cat(idx_chunks, np.int64),
        cat(page_chunks, np.int64),
        cat(rec_chunks, np.int64),
        sorted_unique,
    )


class StaticSplitPlan:
    """Per-window pre-sliced share batches for a frozen placement."""

    __slots__ = ("_batches",)

    def __init__(self, batches: List[Optional[ShareBatch]]):
        self._batches = batches

    def window_batch(self, window: int) -> ShareBatch:
        batch = self._batches[window]
        if batch is None:  # pragma: no cover - machine never splits empty windows
            raise LookupError(f"window {window} recorded no groups")
        return batch

    @property
    def batches(self) -> List[Optional[ShareBatch]]:
        return self._batches


class WindowSolvePlan:
    """Pre-solved :class:`~repro.hw.stall.WindowHardware` per window."""

    __slots__ = ("_outcomes",)

    def __init__(self, outcomes: List):
        self._outcomes = outcomes

    def outcome_for(self, window: int):
        outcome = self._outcomes[window]
        if outcome is None:  # pragma: no cover - machine never solves empty windows
            raise LookupError(f"window {window} recorded no groups")
        return outcome


def plan_window_solves(model, batches: List[Optional[ShareBatch]], compute_cycles) -> WindowSolvePlan:
    """Solve the whole run's stall fixed points in one batched pass.

    With a static placement, no PEBS overhead, and no MLC contender,
    every window's solve inputs are already final at attach time: the
    pre-split :class:`ShareBatch`, the recorded compute cycles, and
    zero carried-over bytes/cycles (migration copies and sampling drains
    are the only sources of either, and a static no-PEBS run produces
    neither).  The windows are therefore independent fixed points, and
    ``solve_many`` -- whose per-element bit-identity to serial solves
    the stall tests pin -- computes them all in one fused pass.
    """
    idx = [w for w, b in enumerate(batches) if b is not None]
    solved = model.solve_many(
        [batches[w] for w in idx],
        [float(compute_cycles[w]) for w in idx],
        [None] * len(idx),
        [0.0] * len(idx),
    )
    outcomes: List = [None] * len(batches)
    for w, outcome in zip(idx, solved):
        outcomes[w] = outcome
    return WindowSolvePlan(outcomes)


def _shared_jitter(jitter, data, sizes: np.ndarray) -> None:
    """Prestage ``jitter`` from the trace's memo (drawn on first use).

    The values depend only on the Philox key (seed, purpose), the noise
    scale and the per-window sizes -- trace-determined for a given tier
    count -- so every run of the process that shares them shares one
    read-only tensor.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    key = ("jitter", jitter.philox_key.tobytes(), jitter.noise, sizes.tobytes())
    jitter.use_plan(data.memoized(key, lambda: jitter.draw_plan(sizes)))


def _shared_pebs_pos(record_plan, data) -> PebsPosPlan:
    """The positive-record index of a store-served record plan, built once."""

    def build() -> PebsPosPlan:
        plan = build_pebs_pos(record_plan, data)
        _readonly(plan._ptr, plan.pos_idx, plan.pages_pos, plan.recs_pos, plan.sorted_unique)
        return plan

    return data.memoized(("pebs_pos", record_plan.key), build)


def _attach_keyed(machine, data) -> None:
    """Prestage schema-2 keyed draw tensors for *any* policy.

    Keyed draws are decision-independent -- per window they cover every
    trace entry (PEBS) or every (group, tier) cell (jitter) regardless
    of placement -- so under replay the whole run's draws are fetched
    here, at attach time, outside the timed region.  They are
    compute-once artefacts of the trace: the PEBS records come from the
    trace store (memo, then sidecar file, then one draw), the jitter
    tensors from the trace's memo.  The live keyed fallback draws the
    same substreams per window, so engaging a plan never changes a
    single value.
    """
    from repro.workloads.tracestore import get_default_trace_store

    wgp = np.asarray(data.columns["window_group_ptr"])
    groups_per_window = np.diff(wgp)
    T = machine.num_tiers
    if machine._keyed_cha is not None:
        _shared_jitter(machine._keyed_cha, data, 2 * T * groups_per_window)
    if machine._keyed_perf is not None:
        _shared_jitter(
            machine._keyed_perf, data, np.where(groups_per_window > 0, 2 * T, 0)
        )
    if machine._keyed_pebs is not None:
        machine._pebs_records = get_default_trace_store().pebs_records(
            data, machine._keyed_pebs
        )


def attach(machine) -> None:
    """Wire whole-run draw plans into ``machine`` when replay drives it.

    Called at the end of ``Machine.__init__`` (placement is settled by
    then).  Keyed draw tensors (schema 2) engage for every policy; a
    static placement then gets the whole-run split and, when nothing
    carries over between windows, the pre-solve; a moving placement
    gets the entry metadata and the positive-record PEBS index.
    """
    if not plans_enabled():
        return
    from repro.workloads.tracestore import ReplayWorkload

    workload = machine.workload
    if not isinstance(workload, ReplayWorkload) or workload.loop:
        return
    data = workload.trace_data
    if machine.rng_schema == 2:
        _attach_keyed(machine, data)
    policy = machine.policy
    T = machine.num_tiers
    if getattr(policy, "static_placement", False) and machine.memory.fully_allocated:
        # The split depends on (trace, tier count, placement) only, so
        # runs sharing them share one; the placement enters by content,
        # never by assuming which runs place alike.
        placement = machine.memory.placement
        misses_only = machine._misses_only_split
        split = data.memoized(
            ("static_split", T, misses_only, placement.dtype.str,
             hashlib.sha256(placement.tobytes()).hexdigest()),
            lambda: split_static(data, placement, T, misses_only),
        )
        batches = static_batches(data, split)
        machine._split_plan = StaticSplitPlan(batches)
        if (
            not policy.needs_pebs
            and machine.contender is None
            and not machine.obs.enabled
        ):
            # No PEBS drain, no contender, no per-window observability:
            # every window's solve inputs are final now, so solve the
            # whole run up front (obs-enabled runs keep the live path to
            # preserve per-window accounting gauges).
            machine._solve_plan = plan_window_solves(
                machine.stall_model, batches, data.columns["window_compute"]
            )
        return
    # Dynamic placement: the split itself stays in the loop, but its
    # trace-determined inputs (key bases, float counts, sortedness)
    # leave it.  The plan depends only on (trace, num_tiers), so every
    # run of the process replaying the same trace shares one.
    machine._entry_meta = data.memoized(
        ("entry_meta", T), lambda: build_entry_meta(data, T)
    )
    if machine._pebs_records is not None and not machine._keyed_pebs.report_latency:
        # Keyed PEBS under a moving placement: prestage the
        # positive-record subset; the merge becomes a gather over it
        # (latency-reporting samplers keep the full records -- their
        # per-entry latency lookup needs the solved shares).
        machine._pebs_pos = _shared_pebs_pos(machine._pebs_records, data)
        machine._pebs_records = None


__all__ = [
    "ENV_DISABLE",
    "EntryMetaPlan",
    "PebsPosPlan",
    "StaticSplit",
    "StaticSplitPlan",
    "WindowSolvePlan",
    "attach",
    "build_entry_meta",
    "build_pebs_pos",
    "build_static_batches",
    "plan_window_solves",
    "plans_enabled",
    "split_static",
    "static_batches",
]
