"""Per-layer figures from a :mod:`cProfile` profile of one sample.

cProfile names a function by file, line and code name, so a function is
looked up here by its module under ``repro/`` and its name. Call counts
are deterministic; times include cProfile's own per-call cost.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: Layer of each module (longest prefix wins) for per-layer self time.
LAYERS = (
    ("core/machine.py", "core.machine"),
    ("core/routing.py", "core.routing"),
    ("core/", "core"),
    ("traffic/", "traffic"),
    ("arbiters/", "arbiters"),
    ("sim/engine.py", "sim.engine"),
    ("sim/wheel.py", "sim.engine"),
    ("sim/packet.py", "sim.engine"),
    ("sim/simulator.py", "sim.engine"),
    ("sim/fastpath.py", "sim.engine"),
    ("sim/trace.py", "sim.trace"),
    ("sim/metrics.py", "sim.trace"),
    ("sim/checkpoint.py", "sim.checkpoint"),
    ("sim/stats.py", "sim.stats"),
    ("sim/shard.py", "sim.shard"),
    ("faults/", "faults"),
)

#: Layers reported as ``<layer>.self_s``; everything else is ``other``.
SELF_TIME_LAYERS = (
    "core.machine", "core.routing", "core", "traffic", "arbiters", "sim.engine",
    "sim.trace", "sim.checkpoint", "sim.stats", "sim.shard", "faults", "other",
)

Key = Tuple[str, str]


def _module(filename: str) -> str:
    """``repro/sim/engine.py`` -> ``sim/engine.py``; '' outside the package."""
    marker = "/repro/"
    index = filename.replace("\\", "/").rfind(marker)
    return filename[index + len(marker):] if index >= 0 else ""


def _layer(module: str) -> str:
    if module:
        for prefix, layer in LAYERS:
            if module.startswith(prefix):
                return layer
    return "other"


class Profile:
    """Call counts and times of finished profilers, by (module, name)."""

    def __init__(self, *profilers) -> None:
        self.calls: Dict[Key, int] = defaultdict(int)
        self.self_s: Dict[Key, float] = defaultdict(float)
        self.cum_s: Dict[Key, float] = defaultdict(float)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        #: (caller key, callee key) -> (calls, self seconds).
        self.edges: Dict[Tuple[Key, Key], Tuple[int, float]] = {}
        merged = pstats.Stats(profilers[0])
        for profiler in profilers[1:]:
            merged.add(profiler)
        raw = merged.stats
        for (filename, _line, name), (_cc, nc, tt, ct, callers) in raw.items():
            module = _module(filename)
            key = (module, name)
            self.calls[key] += nc
            self.self_s[key] += tt
            self.cum_s[key] += ct
            self.layer_self_s[_layer(module)] += tt
            for (cfile, _cline, cname), value in callers.items():
                edge = ((_module(cfile), cname), key)
                calls, seconds = self.edges.get(edge, (0, 0.0))
                self.edges[edge] = (calls + value[1], seconds + value[2])

    def count(self, module: str, *names: str) -> int:
        return sum(self.calls.get((module, name), 0) for name in names)

    def own(self, module: str, *names: str) -> float:
        return sum(self.self_s.get((module, name), 0.0) for name in names)

    def cumulative(self, module: str, *names: str) -> float:
        return sum(self.cum_s.get((module, name), 0.0) for name in names)

    def module_calls(self, prefix: str, names: Iterable[str]) -> int:
        wanted = set(names)
        return sum(
            calls for (module, name), calls in self.calls.items()
            if module.startswith(prefix) and name in wanted
        )

    def edge(self, caller: Key, callee: Key) -> Tuple[int, float]:
        return self.edges.get((caller, callee), (0, 0.0))


def count_wheel_events() -> List[int]:
    """Count the events the engine takes from its timing-wheel buckets.

    Wraps ``TimingWheel.take_due`` for the rest of the process, so only
    a traced sample (a process of its own) installs it. The returned
    one-element list accumulates the count. Events the engine pops from
    the wheel's overflow heap are counted from the profile instead.
    """
    from repro.sim.wheel import TimingWheel

    take_due = TimingWheel.take_due
    taken = [0]

    def counting_take_due(self, now: int) -> list:
        bucket = take_due(self, now)
        taken[0] += len(bucket)
        return bucket

    TimingWheel.take_due = counting_take_due
    return taken


def layer_metrics(profile: Profile, wheel_events: int) -> Dict[str, float]:
    """Per-layer counts and self times the traced run reports.

    ``wheel_events`` is the count :func:`count_wheel_events` gathered
    while the profile ran.
    """
    p = profile
    engine = "sim/engine.py"
    sort_calls, sort_s = p.edge((engine, "_process_events"), ("", "<method 'sort' of 'list' objects>"))
    heappop = ("", "<built-in method _heapq.heappop>")
    overflow_events = (
        p.edge((engine, "_process_events"), heappop)[0]
        + p.edge(("sim/fastpath.py", "process_events"), heappop)[0]
    )
    compute_calls = p.count("core/routing.py", "compute")
    builds = p.count("core/routing.py", "_build")
    out = {
        "core.routing.compute_calls": compute_calls,
        "core.routing.plan_builds": p.count("core/routing.py", "_build_plan"),
        "core.routing.mesh_segments": p.count("core/routing.py", "emit_mesh_path"),
        "core.routing.hit_ratio": 1.0 - builds / compute_calls if compute_calls else 0.0,
        "core.routing.compute_s": p.cumulative("core/routing.py", "compute"),
        "traffic.generate_s": p.cumulative("traffic/batch.py", "generate_batch")
        + p.cumulative("traffic/demand.py", "generate_demand"),
        "traffic.packets": p.count(engine, "enqueue"),
        "sim.engine.build_s": p.cumulative(engine, "__init__"),
        "sim.engine.enqueue_s": p.cumulative(engine, "enqueue"),
        "arbiters.constructed": p.count("arbiters/base.py", "__init__"),
        # Every event processed: arrivals, credit returns, wakes, faults.
        "sim.engine.events": wheel_events + overflow_events,
        "sim.engine.grants": p.count(engine, "_depart"),
        "sim.engine.cycles_stepped": p.count(engine, "_step"),
        "sim.engine.drain_self_s": p.own(engine, "_process_events", "_handle_arrival"),
        "sim.engine.sort_self_s": p.own(engine, "event_sort_key") + sort_s,
        "sim.engine.sort_calls": sort_calls,
        "sim.engine.alloc_self_s": p.own(engine, "_step"),
        "sim.engine.depart_self_s": p.own(engine, "_depart"),
        "sim.engine.inject_self_s": p.own(engine, "_inject_endpoint"),
        "sim.engine.fastpath": int(
            any(m == "sim/fastpath.py" and n != "<module>" and c
                for (m, n), c in p.calls.items())
        ),
        "arbiters.commit_calls": p.module_calls("arbiters/", ["commit"]),
        "sim.trace.emit_calls": p.count("sim/trace.py", "emit")
        + p.count("sim/metrics.py", "emit"),
        "sim.trace.sink_s": p.cumulative("sim/trace.py", "emit")
        + p.cumulative("sim/metrics.py", "emit"),
        "faults.reroute_s": p.cumulative(engine, "_apply_fault", "_screen_source_packet"),
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = p.layer_self_s.get(layer, 0.0)
    return out
