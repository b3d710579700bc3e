"""Small-scale self-test of the benchmark.

Runs every workload at 1/16 scale and checks that:

1. every metric ``BENCHMARK.json`` names prints with its unit, untraced
   (end-to-end) and traced (per-layer);
2. the traced layer table plus ``unattributed_s`` reconciles to the
   traced wall;
3. a wrong pinned digest raises ``error_rate``: ``failed`` > 0 and
   ``correct`` false.

Usage: ``python3 perfbench/selftest.py`` from the repository root; exits
non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int, *extra: str) -> dict:
    """One smoke-scale run; its final JSON line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "smoke", *extra,
    ]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(out: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise AssertionError(f"{what}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = bench(workload, 0)
        check_metrics(untraced, spec["end_to_end"], f"{workload} --trace 0")
        assert untraced["correct"] and untraced["failed"] == 0, untraced

        traced = bench(workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
        assert traced["correct"] and traced["failed"] == 0, traced
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith("_s") and k[:-2] + ".calls" in m)
        total = layers + m["unattributed_s"]
        if abs(total - m["traced_wall_s"]) > 1e-6 * max(1.0, m["traced_wall_s"]):
            raise AssertionError(
                f"{workload}: layers {layers:.6f} + unattributed {m['unattributed_s']:.6f}"
                f" != traced wall {m['traced_wall_s']:.6f}"
            )
        if m["unattributed_s"] < 0:
            raise AssertionError(f"{workload}: negative unattributed time")
        print(f"ok {workload}: metrics and units, layer table reconciles")

    # A wrong pin must surface as errors, never as a quiet pass.
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        pinned = Path(tmp) / "pinned.json"
        bench("footprint-1m", 0, "--pinned", str(pinned), "--pin")
        doc = json.loads(pinned.read_text())
        digests = doc["smoke"]["footprint-1m"]["3"]
        label = next(iter(digests))
        digests[label] = "0" * 16
        pinned.write_text(json.dumps(doc))
        out = bench("footprint-1m", 0, "--pinned", str(pinned))
        if out["correct"] or out["failed"] != out["attempted"]:
            raise AssertionError(f"wrong pinned digest not reported: {out}")
    print("ok wrong pinned digest raises error_rate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
