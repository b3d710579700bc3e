"""Whole-job benchmark of the PACT simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-grid --seed 0 --seconds 30 --trace 0

Each iteration runs one user job in a fresh process (``job.py``):
imports, store creation and trace recording are its set-up, and the
job from request submission to the flushed store is its wall.  A run
first spends up to ``SETUP_SHARE`` of ``--seconds`` on set-up-only
processes, then repeats iterations until ``--seconds`` is spent (at
least ``MIN_ITERATIONS``).  Every end-to-end metric is the median over
the iterations; ``setup_s`` is the median over every set-up, the
set-up-only ones included.  ``--trace 1`` adds one serial traced
iteration and prints the per-layer table instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Correctness: every result is digested (``result_to_dict``, request
order).  Where ``pinned.json`` holds digests for the workload and
seed, every iteration must match them; otherwise every iteration must
match the first.  Missing results, failed conservation checks and
mismatching digests count as failed requests.

See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import job
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"

#: Fewest untraced iterations a run makes, however short ``--seconds``.
MIN_ITERATIONS = 3

#: Seconds a whole run may take before its iteration is killed (the
#: run must end, result printed, within 180 s).
RUN_TIMEOUT = 170.0

#: Largest share of ``--seconds`` spent on extra set-up-only processes,
#: so that ``setup_s`` is a median over more samples than iterations.
SETUP_SHARE = 0.1

#: Interval at which the job's memory (Pss of the main process plus its
#: live workers) is read.
POLL_SECONDS = 0.1

#: End-to-end metrics and their units (``error_rate`` is carried by
#: ``failed``/``attempted`` in the JSON line and printed in the table).
END_TO_END = (
    ("wall_s", "s"),
    ("sim_misses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def clean_env() -> dict:
    """The environment every iteration runs in.

    Every ``REPRO_*`` switch is cleared -- ``REPRO_NO_DRAWPLAN``,
    ``REPRO_NO_MULTIRUN``, ``REPRO_NO_REPLAY``, ``REPRO_RNG_SCHEMA``,
    ``REPRO_DEBUG_ACCOUNTING``, ``REPRO_JOBS``, ``REPRO_NO_CACHE``,
    ``REPRO_CACHE_DIR``, ``REPRO_TRACE_DIR`` and any other -- so an
    inherited variable cannot select a different program.  Stores and
    traces live in the iteration's private directory, passed to the
    public entry points explicitly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _children(pid: int):
    """Pids whose parent is ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            out.append(int(entry))
    return out


def run_iteration(args, index: int, run_dir: Path, mode: str, deadline: float) -> dict:
    """One fresh-process iteration and its report.

    ``mode`` is ``"job"`` (untraced), ``"traced"`` or ``"setup"``
    (set-up only).  A job's ``peak_rss_kb`` is the larger of the main
    process's own peak RSS and the highest Pss sum of the main process
    and its live workers seen while the job ran.
    """
    it_dir = run_dir / f"it{index}"
    it_dir.mkdir()
    out = it_dir / "report.json"
    started = it_dir / job.JOB_MARKER
    cmd = [
        sys.executable, str(HERE / "job.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(it_dir), "--out", str(out), "--scale", args.scale,
    ]
    if mode == "traced":
        cmd.append("--traced")
    elif mode == "setup":
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(
        cmd, env=clean_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    peak_pss = 0
    try:
        while True:
            try:
                proc.wait(timeout=POLL_SECONDS)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"run exceeded {RUN_TIMEOUT:.0f}s")
            if started.exists():
                pids = [proc.pid] + _children(proc.pid)
                peak_pss = max(peak_pss, sum(job.pss_kb(pid) for pid in pids))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        # Stop any worker the job process left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(
            f"iteration exited with code {proc.returncode}:\n"
            + stderr.decode(errors="replace")[-4000:]
        )
    report = json.loads(out.read_text())
    if mode != "setup":
        report["peak_rss_kb"] = max(report["main_peak_rss_kb"], peak_pss)
    shutil.rmtree(it_dir, ignore_errors=True)
    return report


def load_pins(path: Path, scale: str, workload: str, seed: int):
    """Pinned per-result digests for (scale, workload, seed), if any."""
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return doc.get(scale, {}).get(workload, {}).get(str(seed))


def save_pins(path: Path, scale: str, workload: str, seed: int, digests) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = dict(digests)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def mismatches(digests, reference: dict) -> int:
    """Results whose digest differs from (or is absent in) ``reference``."""
    got = dict(digests)
    bad = sum(1 for label, d in got.items() if d is not None and reference.get(label) != d)
    return bad + sum(1 for label in reference if label not in got)


def layer_metrics(traced: dict, untraced: list) -> dict:
    """Per-layer metrics: the traced table plus counts from both runs."""
    lay = traced["layers"]
    m = {}
    for layer in tracing.LAYERS:
        self_s, calls = lay["layers"][layer]
        m[f"{layer}_s"] = (self_s, "s")
        m[f"{layer}.calls"] = (calls, "count")
    calls = lay["keyed_calls"]
    m["hw.substream.keyed_records.distinct"] = (lay["keyed_distinct"], "count")
    m["hw.substream.keyed_records.distinct_ratio"] = (
        lay["keyed_distinct"] / calls if calls else 0.0, "ratio")
    gets = lay["store_gets"]
    m["exp.store.hit_ratio"] = (lay["store_hits"] / gets if gets else 0.0, "ratio")
    m["workloads.tracestore.records"] = (traced["trace_store"]["records"], "count")
    m["setup.workloads.tracestore.record_s"] = (lay["setup_record_s"], "s")
    m["setup.workloads.generate_s"] = (lay["setup_generate_s"], "s")
    campaigns = [r["campaign"] for r in untraced if "campaign" in r]
    m["exp.service.worker_util"] = (
        statistics.median([r.get("worker_util", 0.0) for r in untraced]), "ratio")
    for key in ("failures", "retries", "respawns", "re_records"):
        m[f"exp.service.{key}"] = (sum(c[key] for c in campaigns), "count")
    m["unattributed_s"] = (lay["unattributed_s"], "s")
    m["traced_wall_s"] = (traced["wall_s"], "s")
    untraced_wall = statistics.median([r["wall_s"] for r in untraced])
    m["trace_overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    return m


def print_layer_table(metrics: dict, wall: float) -> None:
    rows = sorted(tracing.LAYERS, key=lambda layer: -metrics[f"{layer}_s"][0])
    print(f"per-layer self time, traced serial run (wall {wall:.3f} s):")
    for layer in rows + ["unattributed"]:
        value = metrics[f"{layer}_s"][0]
        calls = metrics.get(f"{layer}.calls")
        count = f" {calls[0]:8d} calls" if calls else ""
        print(f"  {layer:32s} {value:9.4f} s {value / wall:7.1%}{count}")
    total = sum(metrics[f"{layer}_s"][0] for layer in rows + ["unattributed"])
    print(f"  {'sum (reconciles to wall)':32s} {total:9.4f} s")
    layer_keys = {f"{layer}{suffix}" for layer in rows + ["unattributed"]
                  for suffix in ("_s", ".calls")}
    for key, (value, unit) in metrics.items():
        if key not in layer_keys:
            print(f"  {key:42s} {value:g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Whole-job benchmark of the PACT simulator.")
    parser.add_argument("--workload", required=True, choices=sorted(job.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke divides the work by 16 (self-test only)")
    parser.add_argument("--pinned", type=Path, default=PINNED,
                        help="pinned digests file (default: perfbench/pinned.json)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests as the pinned ones")
    args = parser.parse_args(argv)
    # A terminated run still stops its iteration and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # The build: byte-compile the sources once, so no iteration pays it.
    if not compileall.compile_dir(str(SRC), quiet=2):
        print("perfbench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        setups, reports = [], []
        start = time.monotonic()
        deadline = start + RUN_TIMEOUT
        cost = 0.0
        while time.monotonic() - start + cost <= SETUP_SHARE * args.seconds:
            t = time.monotonic()
            index = len(setups)
            setups.append(run_iteration(args, index, run_dir, "setup", deadline)["setup_s"])
            cost = time.monotonic() - t
        longest = 0.0
        while len(reports) < MIN_ITERATIONS or (
            time.monotonic() - start + longest <= args.seconds
        ):
            t = time.monotonic()
            index = len(setups) + len(reports)
            reports.append(run_iteration(args, index, run_dir, "job", deadline))
            longest = max(longest, time.monotonic() - t)
        setups += [r["setup_s"] for r in reports]
        traced = None
        if args.trace:
            traced = run_iteration(args, len(setups), run_dir, "traced", deadline)
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    pins = load_pins(args.pinned, args.scale, args.workload, args.seed)
    reference = pins if pins is not None else dict(reports[0]["digests"])
    attempted = failed = 0
    for r in reports + ([traced] if traced else []):
        attempted += r["attempted"]
        failed += r["failed"] + r["bad_results"] + mismatches(r["digests"], reference)
    if args.pin and failed == 0:
        save_pins(args.pinned, args.scale, args.workload, args.seed, reports[0]["digests"])

    median = statistics.median
    e2e = {
        "wall_s": median([r["wall_s"] for r in reports]),
        "sim_misses_per_s": median([r["sim_misses"] / r["wall_s"] for r in reports]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024.0 for r in reports]),
    }
    error_rate = failed / attempted
    listing = "\n".join(f"{label} {d}" for label, d in reports[0]["digests"])
    print(f"workload {args.workload}, seed {args.seed}, {len(reports)} iterations, "
          f"{len(setups)} set-ups, "
          f"digests {'pinned' if pins is not None else 'self-consistent'}, "
          f"job digest {hashlib.sha256(listing.encode()).hexdigest()[:16]}")
    for name, unit in END_TO_END:
        print(f"  {name:18s} {e2e[name]:14.4f} {unit}")
    print("  wall_s per iteration: " + ", ".join(f"{r['wall_s']:.3f}" for r in reports))
    print(f"  {'error_rate':18s} {error_rate:14.4f} fraction ({failed} of {attempted} requests)")

    if traced is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layers = layer_metrics(traced, reports)
        print_layer_table(layers, traced["wall_s"])
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
