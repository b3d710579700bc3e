"""Span tracer for the benchmark's traced run.

The traced run wraps public functions and methods of the simulator
from here, in the traced process only; nothing under ``src/`` changes.
Each wrapper records a span (layer, start, end, parent span, phase)
in memory.  A layer's self time is the total duration of its spans
minus the part of those intervals their child spans cover, so the
self times of all layers plus ``unattributed_s`` add up to the traced
wall exactly.

Layer names follow the module that does the work (``LAYERS``).  Two
redundant-work counts are taken at the same boundaries:

* ``hw.substream.keyed_records.distinct_ratio`` -- distinct inputs
  (trace, seed, rate, loads_only, tier count) over calls of
  ``plan_keyed_records``,
* ``exp.store.hit_ratio`` -- ``ResultStore.get`` calls that returned
  a stored result, over all calls.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

#: Every layer the traced run reports, in table order.
LAYERS = (
    "workloads.generate",
    "workloads.tracestore.record",
    "workloads.tracestore.replay",
    "hw.drawplan.attach",
    "hw.substream.keyed_records",
    "hw.substream.window_records",
    "sim.machine.build",
    "sim.machine.loop",
    "sim.runbatch.loop",
    "hw.stall.split",
    "hw.stall.solve",
    "core.pact.observe",
    "baselines.observe",
    "sim.migration.apply",
    "mem.tiered.touch",
    "exp.store.get",
    "exp.store.put",
)


class Tracer:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        #: Phase stamped on new spans ("setup", "job", or None = off).
        self.phase: Optional[str] = None
        #: Spans as [layer, start, end, parent index, phase].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.keyed_inputs: List[str] = []
        self.store_gets = 0
        self.store_hits = 0
        #: KeyedPebsSampler constructor arguments, by sampler id.
        self.sampler_args: Dict[int, tuple] = {}

    def within(self, layer: str) -> bool:
        return any(self.spans[i][0] == layer for i in self._stack)

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        skip_within: Optional[str] = None,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``skip_within`` suppresses the span while a span of that layer
        is open (its work then stays in the enclosing layer);
        ``on_call(args, kwargs, result)`` sees every traced call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.phase is None or (skip_within and tracer.within(skip_within)):
                return original(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([layer, time.perf_counter(), None, parent, tracer.phase])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def self_times(self, phase: str) -> Dict[str, List[float]]:
        """layer -> [self seconds, calls] over the spans of ``phase``."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {layer: [0.0, 0] for layer in LAYERS}
        for i, (layer, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                row = table[layer]
                row[0] += (end - start) - child[i]
                row[1] += 1
        return table

    def report(self, wall: float) -> dict:
        """The job-phase layer table, reconciled to ``wall``."""
        table = self.self_times("job")
        setup = self.self_times("setup")
        attributed = sum(row[0] for row in table.values())
        calls = len(self.keyed_inputs)
        return {
            "wall_s": wall,
            "layers": table,
            "unattributed_s": wall - attributed,
            "keyed_calls": calls,
            "keyed_distinct": len(set(self.keyed_inputs)),
            "store_gets": self.store_gets,
            "store_hits": self.store_hits,
            "setup_record_s": setup["workloads.tracestore.record"][0],
            "setup_generate_s": setup["workloads.generate"][0],
        }


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap the simulator's public layer boundaries with ``tracer`` spans."""
    import repro.baselines  # noqa: F401 - registers every policy class
    import repro.workloads  # noqa: F401 - registers every workload class
    from repro.core.pact import PactPolicy
    from repro.exp.cache import ResultStore
    from repro.exp.store import SqliteResultStore
    from repro.hw import drawplan, substream
    from repro.hw.stall import StallModel
    from repro.mem.tiered import TieredMemory
    from repro.sim.machine import Machine
    from repro.sim.migration import MigrationEngine
    from repro.sim.policy_api import TieringPolicy
    from repro.sim.runbatch import MultiMachine
    from repro.workloads import tracefile, tracestore
    from repro.workloads.base import Workload

    # Traffic: live generators vs replays of recorded streams.
    replayers = (tracestore.ReplayWorkload, tracefile.TraceWorkload)
    for cls in [Workload] + _subclasses(Workload):
        for attr in ("next_window", "next_windows"):
            if attr in cls.__dict__:
                layer = (
                    "workloads.tracestore.replay"
                    if issubclass(cls, replayers)
                    else "workloads.generate"
                )
                tracer.wrap(cls, attr, layer)
    tracer.wrap(tracestore, "record_stream", "workloads.tracestore.record")
    tracer.wrap(tracestore, "write_npt", "workloads.tracestore.record")
    tracer.wrap(tracestore, "read_npt", "workloads.tracestore.replay")

    # Draw prestaging and keyed PEBS draws.  A keyed-record input is
    # (trace, seed, rate, loads_only, tiers); the seed and tier count
    # are constructor arguments of the sampler, noted as it is built.
    def note_sampler(args, kwargs, result):
        names = ("seed", "rate", "cycles_per_record", "sampled_codes", "num_tiers")
        bound = dict(zip(names, args[1:]), **kwargs)
        tracer.sampler_args[id(args[0])] = (bound.get("seed"), bound.get("num_tiers"))

    def note_keyed(args, kwargs, result):
        sampler, data = args[:2]
        seed, num_tiers = tracer.sampler_args.get(id(sampler), (None, None))
        ident = (data.fingerprint, data.num_windows, seed, sampler.rate,
                 sampler.loads_only, num_tiers)
        tracer.keyed_inputs.append(json.dumps(ident, sort_keys=True, default=str))

    substream.KeyedPebsSampler.__init__ = _observer(
        substream.KeyedPebsSampler.__init__, note_sampler
    )
    tracer.wrap(drawplan, "attach", "hw.drawplan.attach")
    tracer.wrap(substream, "plan_keyed_records", "hw.substream.keyed_records", on_call=note_keyed)
    tracer.wrap(
        substream.KeyedPebsSampler, "window_records", "hw.substream.window_records",
        skip_within="hw.substream.keyed_records",
    )

    # The machine and its window loop.
    tracer.wrap(Machine, "__init__", "sim.machine.build")
    tracer.wrap(Machine, "run", "sim.machine.loop")
    tracer.wrap(MultiMachine, "run", "sim.runbatch.loop")
    tracer.wrap(StallModel, "split_groups", "hw.stall.split")
    tracer.wrap(StallModel, "solve", "hw.stall.solve")
    tracer.wrap(StallModel, "solve_many", "hw.stall.solve")
    for cls in [PactPolicy] + _subclasses(PactPolicy):
        if "observe" in cls.__dict__:
            tracer.wrap(cls, "observe", "core.pact.observe")
    for cls in _subclasses(TieringPolicy):
        if "observe" in cls.__dict__ and not issubclass(cls, PactPolicy):
            tracer.wrap(cls, "observe", "baselines.observe")
    tracer.wrap(MigrationEngine, "apply_window", "sim.migration.apply")
    tracer.wrap(TieredMemory, "touch", "mem.tiered.touch")

    # Result stores.
    def note_get(args, kwargs, result):
        tracer.store_gets += 1
        tracer.store_hits += result is not None

    tracer.wrap(ResultStore, "get", "exp.store.get", on_call=note_get)
    tracer.wrap(ResultStore, "put", "exp.store.put")
    tracer.wrap(SqliteResultStore, "flush", "exp.store.put")


def _observer(original, on_call):
    """A wrapper that only reports calls, recording no span."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        on_call(args, kwargs, result)
        return result

    return wrapper
