"""Regenerate ``digests.json`` after an intended change to simulated output.

Usage (from the repository root)::

    python3 perfbench/digests.py

Runs one full-size sample of each simulation workload at each of the
seeds 0 to 9 and records the SHA-256 of its canonical stats. The sharded
workload is held to ``machine512_uniform``'s digests, so it is not run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("machine512_uniform", "tornado_iw_fig10", "hotspot_faults_checkpointed")
#: The seeds the gate holds to a committed digest.
SEEDS = range(10)


def main() -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    jobs = [(w, seed) for w in WORKLOADS for seed in SEEDS]
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as scratch:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "sample.py"), "full", scratch],
            input="".join(f"{w} {seed} 0\n" for w, seed in jobs),
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    digests: dict = {w: {} for w in WORKLOADS}
    for (workload, seed), line in zip(jobs, out.splitlines()):
        result = json.loads(line)
        if not result.get("invariants_ok"):
            print(f"{workload} seed {seed} failed: {result['check']}", file=sys.stderr)
            return 1
        digests[workload][str(seed)] = result["digest"]
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
