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

``TraceWorkload`` packs the dict into the same columns a recorded
stream uses (:func:`repro.workloads.tracestore.pack_windows`) and
replays them through :class:`~repro.workloads.tracestore.ReplayWorkload`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Union

import numpy as np

from repro.hw.access import AccessGroup, WindowTraffic
from repro.workloads.base import Workload
from repro.workloads.tracestore import (
    ReplayWorkload,
    TraceData,
    content_digest,
    pack_windows,
)

PathLike = Union[str, Path]


class TraceWorkload(ReplayWorkload):
    """Replays a JSON window-by-window access trace.

    The cache identity is the trace's parameters plus a digest of its
    packed content, so two traces that touch different pages never
    share a cached result.
    """

    def __init__(self, trace: dict, loop: bool = True, seed: int = 0):
        _validate_trace(trace)
        footprint = int(trace["footprint_pages"])
        cpm = float(trace.get("compute_cycles_per_miss", 40.0))
        windows = trace["windows"]
        total = sum(
            sum(sum(g["counts"]) for g in w.get("groups", [])) for w in windows
        )
        total_misses = total if not loop else max(total, 1)
        columns, phases, labels = pack_windows(
            _trace_traffic(windows, cpm, total_misses)
        )
        columns["alloc_order"] = np.arange(footprint, dtype=np.int64)
        meta = {
            "name": trace.get("name", "trace"),
            "footprint_pages": footprint,
            "total_misses": total_misses,
            "misses_per_window": max(total // max(len(windows), 1), 1),
            "compute_cycles_per_miss": cpm,
            "seed": seed,
        }
        objects = [
            (o["name"], int(o["start_page"]), int(o["num_pages"]))
            for o in trace.get("objects", [])
        ] or [("trace_heap", 0, footprint)]
        data = TraceData(
            workload=meta,
            fingerprint={},
            objects=objects,
            final_metrics={},
            phases=phases,
            labels=labels,
            columns=columns,
            source_class=type(self).__qualname__,
        )
        data.fingerprint = {
            "class": type(self).__qualname__,
            **meta,
            "content": content_digest(data),
        }
        super().__init__(data, loop=loop)

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
            return ReplayWorkload.from_file(path, loop=loop)
        return cls(json.loads(path.read_text()), loop=loop)

    def set_total_misses(self, total: int) -> None:
        """Stretch/shrink the work budget (the trace loops to cover it)."""
        super().set_total_misses(total)
        self.replay_fingerprint["total_misses"] = total


def _trace_traffic(windows, cpm: float, total_misses: int) -> Iterator[WindowTraffic]:
    """The trace's windows as the traffic a workload would emit."""
    consumed = 0
    for i, entry in enumerate(windows):
        groups = [
            AccessGroup(
                pages=np.asarray(g["pages"], dtype=np.int64),
                counts=np.asarray(g["counts"], dtype=np.int64),
                mlp=float(g["mlp"]),
                load_fraction=float(g.get("load_fraction", 1.0)),
                label=g.get("label", ""),
            )
            for g in entry.get("groups", [])
        ]
        emitted = sum(g.total_misses for g in groups)
        consumed += emitted
        yield WindowTraffic(
            groups=groups,
            compute_cycles=emitted * cpm,
            done=consumed >= total_misses,
            phase=entry.get("phase", f"trace-{i}"),
            extra={"consumed_after": consumed},
        )


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
            if group["counts"] and min(group["counts"]) < 0:
                raise ValueError(f"window {i}: negative miss count")
            if float(group["mlp"]) <= 0:
                raise ValueError(f"window {i}: non-positive mlp")
