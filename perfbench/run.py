"""The repository benchmark: three workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics: it runs
samples of the workload, each in a fresh process, as long as another
sample fits in ``--seconds`` and until at least the workload's minimum
number are in. Every sample of a seed does the same work in the same
pieces (spans), and each piece is read at its fastest over the samples.
With ``--trace 1`` it runs a few untraced samples, then one traced
sample (spans at the benchmark's call boundaries plus a cProfile of the
whole sample), and reports the per-layer metrics and the tracing
overhead. Spans are written to ``.perfbench/traces/``.

Every line before the last is for people; the last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from profiling import SELF_TIME_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = ("full", "tiny")

#: End-to-end metrics and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "normalized_throughput": "ratio",
}

_S, _N = "s", "count"
#: Per-layer metrics and their units (module names as layers).
PER_LAYER = {
    "core.machine.elaborate_s": _S,
    "core.routing.compute_calls": _N,
    "core.routing.plan_builds": _N,
    "core.routing.mesh_segments": _N,
    "core.routing.hit_ratio": "ratio",
    "core.routing.compute_s": _S,
    "traffic.generate_s": _S,
    "traffic.packets": _N,
    "traffic.loads.compute_s": _S,
    "arbiters.weights.program_s": _S,
    "sim.engine.build_s": _S,
    "sim.engine.enqueue_s": _S,
    "arbiters.constructed": _N,
    "sim.engine.run_s": _S,
    "sim.engine.events": _N,
    "sim.engine.grants": _N,
    "sim.engine.cycles_stepped": _N,
    "sim.engine.events_per_s": "1/s",
    "sim.engine.drain_self_s": _S,
    "sim.engine.sort_self_s": _S,
    "sim.engine.sort_calls": _N,
    "sim.engine.alloc_self_s": _S,
    "sim.engine.depart_self_s": _S,
    "sim.engine.inject_self_s": _S,
    "sim.engine.fastpath": "flag",
    "arbiters.commit_calls": _N,
    "sim.trace.emit_calls": _N,
    "sim.trace.sink_s": _S,
    "faults.rerouted": _N,
    "faults.dropped": _N,
    "faults.reroute_s": _S,
    "sim.checkpoint.saves": _N,
    "sim.checkpoint.save_s": _S,
    "sim.checkpoint.bytes": "bytes",
    "sim.checkpoint.restore_s": _S,
    "sim.stats.serialize_s": _S,
    "sim.stats.bytes": "bytes",
    "sim.shard.setup_s": _S,
    "sim.shard.windows_s": _S,
    "sim.shard.compute_s": _S,
    "sim.shard.wait_s": _S,
    "sim.shard.speedup_vs_serial": "ratio",
    **{
        f"serve.{rtype}_{stat}_ms": "ms"
        for rtype in ("create", "step", "stats", "close")
        for stat in ("p50", "tail")
    },
    "serve.p50_ms": "ms",
    "serve.p95_ms": "ms",
    "serve.max_rate": "1/s",
    "serve.cycles_per_s": "1/s",
    "serve.handler_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.evictions": _N,
    "serve.thaws": _N,
    "serve.generator_lag_ms": "ms",
    "serve.peak_live": _N,
    **{f"{layer}.self_s": _S for layer in SELF_TIME_LAYERS},
    "trace.overhead_s": _S,
}

WORKLOADS = (
    "machine512_uniform",
    "tornado_iw_fig10",
    "hotspot_faults_checkpointed",
)
#: Samples per untraced run, at least.
MIN_SAMPLES = 3
#: Untraced samples a traced run takes as its baseline.
TRACE_BASELINE = 2
#: Hard limit on one invocation, inside the 180 s the caller allows.
DEADLINE_S = 170.0


class Runner:
    """Feeds samples to one ``sample.py`` process under a deadline.

    The sampler runs in a session of its own with every ``REPRO_*``
    variable removed from its environment, so the default engine path
    is measured; on the deadline the whole session is killed.
    """

    def __init__(self, size: str, scratch: str, deadline: float) -> None:
        self.deadline = deadline
        self.samples: List[dict] = []
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sample.py"), size, scratch],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            start_new_session=True,
        )

    def sample(self, workload: str, seed: int, trace: bool) -> dict:
        result = {"ok": False, "check": "sample timed out"}
        if self._proc.poll() is not None:
            result["check"] = "sampler process ended"
        else:
            self._proc.stdin.write(f"{workload} {seed} {int(trace)}\n".encode())
            self._proc.stdin.flush()
            ready, _, _ = select.select(
                [self._proc.stdout], [], [], max(0.0, self.deadline - time.monotonic())
            )
            line = self._proc.stdout.readline() if ready else b""
            if line:
                result = json.loads(line)
            else:
                self.kill()
        result["workload"] = workload
        result["traced"] = trace
        self.samples.append(result)
        return result

    def kill(self) -> None:
        """Kill the sampler's whole session, strays included, and reap it."""
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._proc.wait()

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        self._proc.stdout.close()


def _median(samples: List[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def best_pieces(samples: List[dict]) -> List[Tuple[str, float]]:
    """``(phase, seconds)`` of each piece of the samples at its fastest.

    Samples of one seed run the same work in the same pieces (see
    ``Spans.pieces``). A shared 2-core host ran the same work up to
    2.4x slower in stretches from milliseconds to spells of 5-25 s
    (other tenants); a slow stretch only ever adds time, and one sample
    in a few misses it for any given piece.
    """
    shape = [piece[:2] for piece in samples[0]["pieces"]]
    same = [s["pieces"] for s in samples if [p[:2] for p in s["pieces"]] == shape]
    return [
        (phase, min(pieces[i][2] for pieces in same))
        for i, (phase, _name) in enumerate(shape)
    ]


def end_to_end(samples: List[dict]) -> Dict[str, float]:
    """One run's figures, over the samples that passed the correctness gate.

    Host times add up the pieces of a sample at their fastest (see
    :func:`best_pieces`); simulated figures are the same in every sample.
    """
    good = [s for s in samples if s["ok"]]
    if not good:
        return {}
    best = best_pieces(good)
    wall = sum(seconds for _, seconds in best)
    loop = sum(seconds for phase, seconds in best if phase == "loop")
    return {
        "wall_s": wall,
        "setup_s": sum(seconds for phase, seconds in best if phase == "setup"),
        "sim_cycles_per_s": _median(good, "sim_cycles") / loop,
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "sim_cycles": _median(good, "sim_cycles"),
        "normalized_throughput": _median(good, "normalized_throughput"),
    }


def traced(runner: Runner, workload: str, seed: int) -> Dict[str, float]:
    """Per-layer metrics: untraced baseline samples, then one traced one."""
    baseline = [runner.sample(workload, seed, False) for _ in range(TRACE_BASELINE)]
    sample = runner.sample(workload, seed, True)
    good = [s for s in baseline if s["ok"]]
    if not sample["ok"] or not good:
        return {}
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(sample["layers"])
    layers["trace.overhead_s"] = sample["wall_s"] - _median(good, "wall_s")
    if workload == "machine512_uniform":
        extra = _shard_layer(runner, seed, good)
    elif workload == "hotspot_faults_checkpointed":
        extra = _serve_layer(runner, seed)
    else:
        extra = {}
    if extra is None:
        return {}
    layers.update(extra)
    layers["sim.engine.events_per_s"] = layers["sim.engine.events"] / _median(good, "loop_s")
    _write_spans(workload, seed, runner.samples)
    return layers


def _shard_layer(runner: Runner, seed: int, serial: List[dict]) -> Optional[Dict[str, float]]:
    """The shard layer: the same experiment over two process shards.

    The serial anchor is this invocation's untraced cycle loop. Each
    shard's share of the window-phase work comes from its profile on the
    inline transport; the slowest shard's share of the serial loop
    estimates its busy time, and the rest of the process transport's
    window phase is barrier and exchange wait. Both sharded runs are
    held to the serial run's digest.
    """
    sharded = runner.sample("machine512_sharded", seed, False)
    inline = runner.sample("machine512_sharded_inline", seed, False)
    if not (sharded["ok"] and inline["ok"]):
        return None
    serial_loop = _median(serial, "loop_s")
    windows_s = sharded["loop_s"]
    busy = inline["extra"]["busy_s"]
    compute = serial_loop * max(busy) / sum(busy)
    return {
        "sim.shard.setup_s": sharded["extra"]["hub_setup_s"],
        "sim.shard.windows_s": windows_s,
        "sim.shard.compute_s": compute,
        "sim.shard.wait_s": windows_s - compute,
        "sim.shard.speedup_vs_serial": serial_loop / windows_s,
        "sim.shard.self_s": inline["extra"]["layers"]["sim.shard.self_s"],
    }


def _serve_layer(runner: Runner, seed: int) -> Optional[Dict[str, float]]:
    """The serve layer: one traced sample of the session fleet
    (``serve_load.py``), whose sessions run the engine the way this
    workload does, a slice at a time and with spooling (checkpoints)."""
    sample = runner.sample("serve_open_loop", seed, True)
    return sample["layers"] if sample["ok"] else None


def _write_spans(workload: str, seed: int, samples: List[dict]) -> None:
    out_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(out_dir, exist_ok=True)
    spans = [span for s in samples for span in s.get("spans", ())]
    with open(os.path.join(out_dir, f"{workload}-seed{seed}.json"), "w") as handle:
        json.dump(spans, handle)


def _host_line() -> str:
    load = os.getloadavg()
    return (
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"load average {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}"
    )


def _report(workload: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, unit in units.items():
        if name in metrics:
            print(f"{workload} {name} = {metrics[name]:.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: the harness smoke-test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    print(_host_line())
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    runner = Runner(args.size, scratch, start + DEADLINE_S)
    try:
        if args.trace:
            metrics = traced(runner, args.workload, args.seed)
            units = PER_LAYER
        else:
            measured: List[dict] = []
            took = 0.0
            # Start another sample while it fits in --seconds.
            while len(measured) < MIN_SAMPLES or time.monotonic() - start + took <= args.seconds:
                began = time.monotonic()
                measured.append(runner.sample(args.workload, args.seed, False))
                took = time.monotonic() - began
            metrics = end_to_end(measured)
            units = END_TO_END
    finally:
        runner.close()
        shutil.rmtree(scratch, ignore_errors=True)
    for s in runner.samples:
        wall = f"wall {s['wall_s']:.3f} s, " if "wall_s" in s else ""
        print(f"sample {s['workload']} traced={int(s['traced'])}: "
              f"{'ok' if s['ok'] else 'FAILED'} ({s['check'].strip().splitlines()[-1]}), "
              f"{wall}fastpath={s.get('fastpath', 0)}")
    _report(args.workload, metrics, units)
    serve = [s for s in runner.samples if "serve_count" in s]
    for s in serve:
        print(f"serve: p95 over {s['serve_count']} requests at the middle rate, each at its "
              f"fastest over the replays; "
              f"phases {json.dumps(s['phases'])}")
    attempted = sum(s.get("attempted", 1) for s in runner.samples)
    failed = sum(s.get("failed", 0 if s["ok"] else 1) for s in runner.samples)
    correct = all(s["ok"] for s in runner.samples) and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
