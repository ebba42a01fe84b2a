"""Harness smoke test: tiny sizes, every metric emitted, the gate fires.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks that ``run.py``'s metric tables match ``BENCHMARK.json`` name for
name and unit for unit; that every workload, run at the tiny size, emits
every end-to-end metric (finite and nonzero) untraced and every per-layer
metric traced, all correct; and that the digest gate rejects a perturbed
stats dict. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print("FAIL", message)


def check_tables() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, "end-to-end table differs from BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == run.PER_LAYER, "per-layer table differs from BENCHMARK.json")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "workload list differs from BENCHMARK.json")


def check_run(workload: str, trace: int) -> None:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    label = f"{workload} trace={trace}"
    expect(result["correct"] and result["failed"] == 0, f"{label}: not correct")
    table = run.PER_LAYER if trace else run.END_TO_END
    metrics = result["metrics"]
    expect(set(metrics) == set(table), f"{label}: missing {sorted(set(table) - set(metrics))}")
    for name, entry in metrics.items():
        expect(entry["unit"] == table[name], f"{label}: {name} unit {entry['unit']}")
        expect(math.isfinite(entry["value"]), f"{label}: {name} not finite")
        if not trace:
            expect(entry["value"] != 0, f"{label}: {name} is 0")
    print("ok", label)


def check_gate() -> None:
    from repro.sim.stats import SimStats

    stats = SimStats(injected=4, delivered=4, last_delivery_cycle=9, end_cycle=10)
    stats.delivered_per_source[3] = 4
    text = json.dumps(stats.asdict(), separators=(",", ":"))
    committed = gate.digest(text)
    expect(gate.check(committed, committed, stats.asdict())[0], "gate rejects its own digest")
    perturbed = stats.asdict()
    perturbed["delivered_per_source"][3] = 5
    observed = gate.digest(json.dumps(perturbed, separators=(",", ":")))
    expect(not gate.check(committed, observed, perturbed)[0], "gate accepts a perturbed digest")
    perturbed = stats.asdict()
    perturbed["delivered"] = 3
    expect(not gate.check(None, "", perturbed)[0], "gate accepts broken invariants")
    digests = gate.load_digests()
    for workload in run.WORKLOADS:
        expect(gate.expected_digest(digests, workload, 0, "full") is not None,
               f"no committed digest for {workload} at the default seed")
    print("ok gate")


def main() -> int:
    check_tables()
    check_gate()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    print("smoke:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
