"""Trace-driven workloads: replay recorded access streams.

Research groups often have page-access traces from real systems
(Pin/DynamoRIO tools, PEBS dumps, DAMON records).  ``TraceWorkload``
replays such a trace through the simulator so PACT and the baselines
can be evaluated on recorded behaviour rather than synthetic
generators.

Trace format (JSON):

```json
{
  "name": "my-app",
  "footprint_pages": 4096,
  "compute_cycles_per_miss": 40.0,
  "windows": [
    {"groups": [
        {"pages": [0, 1, 2], "counts": [5, 3, 9], "mlp": 2.0,
         "load_fraction": 1.0, "label": "btree"}
    ]},
    ...
  ]
}
```

Each window entry describes one sampling interval; the trace loops if a
run needs more work than the trace holds (set ``loop=False`` to stop at
trace end instead).  ``record_trace`` produces this format from any
existing workload, so synthetic generators can be frozen into
deterministic fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.hw.access import AccessGroup
from repro.mem.page import ObjectRegion
from repro.workloads.base import Workload

PathLike = Union[str, Path]


class TraceWorkload(Workload):
    """Replays a recorded window-by-window access trace."""

    def __init__(self, trace: dict, loop: bool = True, seed: int = 0):
        _validate_trace(trace)
        self._trace_windows = trace["windows"]
        self.loop = loop
        windows = self._trace_windows
        per_window = [
            sum(sum(g["counts"]) for g in w["groups"]) for w in windows
        ]
        total = sum(per_window)
        super().__init__(
            name=trace.get("name", "trace"),
            footprint_pages=int(trace["footprint_pages"]),
            total_misses=total if not loop else max(total, 1),
            misses_per_window=max(total // max(len(windows), 1), 1),
            compute_cycles_per_miss=float(trace.get("compute_cycles_per_miss", 40.0)),
            seed=seed,
            objects=[
                ObjectRegion(o["name"], int(o["start_page"]), int(o["num_pages"]))
                for o in trace.get("objects", [])
            ]
            or [ObjectRegion("trace_heap", 0, int(trace["footprint_pages"]))],
        )
        self._cursor = 0

    @classmethod
    def from_file(cls, path: PathLike, loop: bool = True) -> Workload:
        """Load a trace from disk: JSON, or the binary ``.npt`` fast path.

        ``.npt`` traces (:mod:`repro.workloads.tracestore`) come back as
        a memory-mapped :class:`~repro.workloads.tracestore.ReplayWorkload`
        with the same looping semantics -- zero-copy and without parsing
        megabytes of JSON.
        """
        path = Path(path)
        if path.suffix == ".npt":
            from repro.workloads.tracestore import ReplayWorkload

            return ReplayWorkload.from_file(path, loop=loop)
        return cls(json.loads(path.read_text()), loop=loop)

    def set_total_misses(self, total: int) -> None:
        """Stretch/shrink the work budget (the trace loops to cover it)."""
        if total <= 0:
            raise ValueError("total must be positive")
        if not self.loop:
            raise ValueError("cannot stretch a non-looping trace")
        self.total_misses = total

    def _on_reset(self) -> None:
        self._cursor = 0

    def next_window(self):
        # Override the budgeted base implementation: a trace prescribes
        # each window's traffic exactly.
        from repro.hw.access import WindowTraffic

        if self._cursor >= len(self._trace_windows):
            if not self.loop:
                self._consumed = self.total_misses
                return WindowTraffic(
                    groups=[],
                    compute_cycles=0.0,
                    done=True,
                    extra={"consumed_after": self._consumed},
                )
            self._cursor = 0
        entry = self._trace_windows[self._cursor]
        self._cursor += 1
        groups = [
            AccessGroup(
                pages=np.asarray(g["pages"], dtype=np.int64),
                counts=np.asarray(g["counts"], dtype=np.int64),
                mlp=float(g["mlp"]),
                load_fraction=float(g.get("load_fraction", 1.0)),
                label=g.get("label", ""),
            )
            for g in entry["groups"]
        ]
        emitted = sum(g.total_misses for g in groups)
        self._consumed += emitted
        self._window += 1
        return WindowTraffic(
            groups=groups,
            compute_cycles=emitted * self.compute_cycles_per_miss,
            done=self.done,
            phase=entry.get("phase", f"trace-{self._cursor - 1}"),
            extra={"consumed_after": self._consumed},
        )

    def _emit(self, budget, rng):  # pragma: no cover - next_window overridden
        raise NotImplementedError


def record_trace(workload: Workload, windows: int) -> dict:
    """Freeze a workload's first ``windows`` windows into a trace dict."""
    workload.reset()
    recorded: List[dict] = []
    for _ in range(windows):
        if workload.done:
            break
        traffic = workload.next_window()
        recorded.append(
            {
                "phase": traffic.phase,
                "groups": [
                    {
                        "pages": g.pages.tolist(),
                        "counts": g.counts.tolist(),
                        "mlp": g.mlp,
                        "load_fraction": g.load_fraction,
                        "label": g.label,
                    }
                    for g in traffic.groups
                ],
            }
        )
    workload.reset()
    return {
        "name": f"{workload.name}-trace",
        "footprint_pages": workload.footprint_pages,
        "compute_cycles_per_miss": workload.compute_cycles_per_miss,
        "objects": [
            {"name": o.name, "start_page": o.start_page, "num_pages": o.num_pages}
            for o in workload.objects
        ],
        "windows": recorded,
    }


def write_trace(trace: dict, path: PathLike) -> Path:
    """Persist a trace dict as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))
    return path


def _validate_trace(trace: dict) -> None:
    if "footprint_pages" not in trace or int(trace["footprint_pages"]) <= 0:
        raise ValueError("trace needs a positive footprint_pages")
    windows = trace.get("windows")
    if not windows:
        raise ValueError("trace needs at least one window")
    footprint = int(trace["footprint_pages"])
    for i, window in enumerate(windows):
        for group in window.get("groups", []):
            pages = group["pages"]
            if len(pages) != len(group["counts"]):
                raise ValueError(f"window {i}: pages/counts length mismatch")
            if pages and (max(pages) >= footprint or min(pages) < 0):
                raise ValueError(f"window {i}: page id outside footprint")
            if float(group["mlp"]) <= 0:
                raise ValueError(f"window {i}: non-positive mlp")
