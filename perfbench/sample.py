"""Run samples of the workloads, each in a process of its own.

Usage: ``python3 perfbench/sample.py SIZE SCRATCH``, then one line per
sample on stdin: ``WORKLOAD SEED TRACE``. For each line this process
forks a child that runs the sample and prints one JSON object on
stdout: the sample's timings, outputs, the correctness verdict and,
when ``TRACE`` is 1, its spans and the per-layer figures of a cProfile
attached for the whole sample. The package is imported once, before
the first fork, so every sample starts from the same interpreter and
heap state without paying for the import.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import traceback


def _peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def simulation_sample(workload: str, seed: int, size: str, trace: bool, scratch: str) -> dict:
    import gate
    import profiling
    from repro.sim.engine import DeadlockError
    from spans import Spans
    from workloads import WORKLOADS, canonical_stats

    spans = Spans(f"{workload}/seed{seed}/pid{os.getpid()}")
    profiler = cProfile.Profile() if trace else None
    wheel_events = profiling.count_wheel_events() if trace else [0]
    gc.collect()
    result: dict = {"ok": False}
    try:
        if profiler is not None:
            profiler.enable()
        try:
            with spans.span("sample"):
                outcome = WORKLOADS[workload](seed, size, spans, scratch)
                with spans.span("sim.stats.serialize"):
                    text = canonical_stats(outcome.stats)
        finally:
            if profiler is not None:
                profiler.disable()
    except DeadlockError as exc:
        result["check"] = f"DeadlockError: {exc}"
        return result
    stats = outcome.stats
    observed = gate.digest(text)
    expected = gate.expected_digest(gate.load_digests(), workload, seed, size)
    stats_dict = stats.asdict()
    ok, reason = gate.check(expected, observed, stats_dict)
    engine = outcome.engine
    result.update(
        ok=ok,
        check=reason,
        invariants_ok=gate.invariants(stats_dict)[0],
        digest=observed,
        wall_s=spans.total("sample"),
        loop_s=spans.total("loop"),
        pieces=spans.pieces(),
        sim_cycles=stats.end_cycle,
        normalized_throughput=outcome.ideal_cycles() / stats.last_delivery_cycle,
        peak_rss_mb=_peak_rss_mb(),
        fastpath=int(getattr(engine, "_fastpath", None) is not None),
        extra=outcome.extra,
    )
    if trace:
        layers = profiling.layer_metrics(profiling.Profile(profiler), wheel_events[0])
        layers.update({
            "core.machine.elaborate_s": spans.total("core.machine.elaborate"),
            "traffic.loads.compute_s": spans.total("traffic.loads.compute"),
            "arbiters.weights.program_s": spans.total("arbiters.weights.program"),
            "sim.engine.run_s": spans.total("loop"),
            "faults.rerouted": stats.rerouted,
            "faults.dropped": stats.dropped,
            "sim.checkpoint.saves": spans.count("sim.checkpoint.save"),
            "sim.checkpoint.save_s": spans.total("sim.checkpoint.save"),
            "sim.checkpoint.bytes": outcome.extra.get("bytes", 0),
            "sim.checkpoint.restore_s": spans.total("sim.checkpoint.restore"),
            "sim.stats.serialize_s": spans.total("sim.stats.serialize"),
            "sim.stats.bytes": len(text),
            "sim.shard.setup_s": spans.total("sim.shard.setup"),
            "sim.shard.windows_s": spans.total("sim.shard.windows"),
        })
        result["layers"] = layers
        result["spans"] = spans.records
    return result


def run_sample(workload: str, seed: int, size: str, trace: bool, scratch: str) -> dict:
    if workload == "serve_open_loop":
        from serve_load import serve_sample

        return serve_sample(seed, size, trace, scratch)
    return simulation_sample(workload, seed, size, trace, scratch)


def _child(line: str, size: str, scratch: str, out_fd: int) -> None:
    """Body of a forked sample process; never returns."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # stray prints must not corrupt the result lines
    try:
        workload, seed, trace = line.split()
        result = run_sample(workload, int(seed), size, trace == "1", scratch)
    except BaseException:
        result = {"ok": False, "check": traceback.format_exc()}
    with os.fdopen(out_fd, "w") as out:
        out.write(json.dumps(result))
    os._exit(0)


def main(argv) -> int:
    size, scratch = argv
    import gate  # noqa: F401
    import profiling  # noqa: F401
    import serve_load  # noqa: F401
    import workloads  # noqa: F401

    for line in sys.stdin:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _child(line, size, scratch, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd) as src:
            text = src.read()
        _, status = os.waitpid(pid, 0)
        if not text:
            text = json.dumps({"ok": False, "check": f"sample process ended with status {status}"})
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
