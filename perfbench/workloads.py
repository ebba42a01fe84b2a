"""The simulation workloads, each run once per sample in a fresh process.

A workload function builds its experiment from the seed through the
package's public entry points, runs it, and returns a :class:`Outcome`.
It marks its phases on the sample's :class:`~spans.Spans`: ``setup``
ends when the engine is built and enqueued, and ``loop`` is the cycle
loop (or the sharded window phase); the caller times the stats
serialization. The cycle loop runs in chunks of a fixed number of
cycles, one span each (a split run is bit for bit the same as one
``run()``), so two samples of one seed are the same sequence of spans
over the same work, and the caller can compare them piece by piece.
Sizes come in two flavours: ``full`` (the measured configuration)
and ``tiny`` (the harness smoke test).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from typing import Callable, Dict, Optional

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.engine import Engine
from repro.sim.simulator import (
    build_batch_engine,
    make_vc_weight_tables,
    make_weight_tables,
)
from repro.traffic.batch import BatchSpec
from repro.traffic.loads import compute_loads, ideal_batch_cycles
from repro.traffic.patterns import Tornado, UniformRandom

from spans import Spans

#: Experiment sizes. ``full`` is what the benchmark measures; ``tiny``
#: keeps every code path but runs in well under a second.
SIZES = {
    "full": {
        "machine512": {"shape": (8, 8, 8), "endpoints": 2, "packets": 8},
        "tornado": {"shape": (8, 2, 2), "endpoints": 4, "packets": 64},
        "hotspot": {"shape": (4, 4, 4), "endpoints": 2, "epoch": 128,
                    "rate": 0.1, "hot": 0.3, "every": 128},
    },
    "tiny": {
        "machine512": {"shape": (2, 2, 2), "endpoints": 2, "packets": 2},
        "tornado": {"shape": (4, 2, 2), "endpoints": 2, "packets": 4},
        "hotspot": {"shape": (2, 2, 2), "endpoints": 2, "epoch": 32,
                    "rate": 0.1, "hot": 0.3, "every": 32},
    },
}

#: Shards of the sharded runs of the machine512 experiment.
SHARDS = 2
#: Cycles per timed chunk of the cycle loop, about 30 ms of host time
#: at full size (one 8x8x8 cycle costs ~15 ms, a tornado cycle ~2 ms, a
#: hotspot cycle ~8 ms). A shared host slows work in stretches of a few
#: to hundreds of milliseconds as well as in spells of seconds; short
#: chunks let each one be read at a time the host was fast. The
#: checkpoint cadence of the hotspot workload is a multiple of its chunk.
CHUNK_CYCLES = {"machine512": 2, "tornado": 16, "hotspot": 4}


@dataclasses.dataclass
class Outcome:
    """What one run of a simulation workload produced."""

    stats: object
    #: Ideal completion cycles for the Section 4.1 normalization,
    #: computed after the timed window (it is analysis, not the run).
    ideal_cycles: Callable[[], float]
    #: Engine used for the cycle loop (None for sharded runs).
    engine: Optional[Engine] = None
    #: Workload-specific figures for the traced run.
    extra: dict = dataclasses.field(default_factory=dict)


def _uniform_batch(size: str, seed: int):
    cfg = SIZES[size]["machine512"]
    config = MachineConfig(shape=cfg["shape"], endpoints_per_chip=cfg["endpoints"])
    spec = BatchSpec(
        UniformRandom(cfg["shape"]),
        packets_per_source=cfg["packets"],
        cores_per_chip=cfg["endpoints"],
        seed=seed,
    )
    return config, spec


#: Ideal cycles of the full-size uniform batch. The expected loads of a
#: uniform pattern do not depend on the seed, and computing them at
#: 8x8x8 takes about 100 s, so the value is committed. It is
#: ``ideal_batch_cycles(machine, compute_loads(machine,
#: RouteComputer(machine), UniformRandom((8, 8, 8)), 2), 8)``.
UNIFORM_512_IDEAL_CYCLES = 25.76460721274834


def _uniform_reference(machine: Machine, spec: BatchSpec, size: str) -> float:
    """Ideal batch cycles of the uniform batch (Section 4.1)."""
    if size == "full":
        return UNIFORM_512_IDEAL_CYCLES
    table = compute_loads(
        machine, RouteComputer(machine), spec.pattern, spec.cores_per_chip
    )
    return ideal_batch_cycles(machine, table, spec.packets_per_source)


def run_chunked(engine: Engine, spans: Spans, cycles: int) -> None:
    """Run ``engine`` until it drains, one ``run_for`` span per chunk."""
    while not engine.drained:
        with spans.span("sim.engine.run_for"):
            engine.run_for(cycles)


def machine512_uniform(seed: int, size: str, spans: Spans, scratch: str) -> Outcome:
    """8x8x8, 2 endpoints/chip, uniform batch, round-robin, serial."""
    config, spec = _uniform_batch(size, seed)
    with spans.span("setup"):
        with spans.span("core.machine.elaborate"):
            machine = Machine(config)
        with spans.span("sim.engine.build"):
            engine = build_batch_engine(machine, RouteComputer(machine), spec)
    with spans.span("loop"):
        run_chunked(engine, spans, CHUNK_CYCLES["machine512"])
    return Outcome(engine.stats, lambda: _uniform_reference(machine, spec, size), engine)


def machine512_sharded(seed: int, size: str, spans: Spans, scratch: str) -> Outcome:
    """The machine512_uniform experiment over two process shards.

    Used by the traced run of ``machine512_uniform`` for the shard
    layer's phases."""
    from repro.sim.shard import ShardedRun, run_sharded

    config, spec = _uniform_batch(size, seed)
    timings: dict = {}
    with spans.span("setup"):
        with spans.span("core.machine.elaborate"):
            machine = Machine(config)
    run = ShardedRun(config=config, spec=spec)
    start = time.perf_counter()
    stats = run_sharded(
        run, SHARDS, machine=machine, transport="process", timings=timings
    )
    # The hub reports its two phases; book them as the sample's own.
    ready = start + timings["setup_s"]
    done = ready + timings["windows_s"]
    spans.add("sim.shard.setup", start, ready, spans.add("setup", start, ready))
    spans.add("sim.shard.windows", ready, done, spans.add("loop", ready, done))
    return Outcome(
        stats,
        lambda: _uniform_reference(machine, spec, size),
        extra={"hub_setup_s": timings["setup_s"]},
    )


def machine512_sharded_inline(seed: int, size: str, spans: Spans, scratch: str) -> Outcome:
    """The sharded run on the inline transport with per-shard profiles.

    Used by the traced run only: each shard's window-phase busy time is
    the cumulative time of its barrier-message handler in its profile,
    and the merged profiles give the per-layer work of the workers.
    """
    from profiling import Profile, count_wheel_events, layer_metrics
    from repro.sim.shard import ShardedRun, run_sharded

    config, spec = _uniform_batch(size, seed)
    machine = Machine(config)
    wheel_events = count_wheel_events()
    profiles: list = []
    with spans.span("loop"):
        stats = run_sharded(
            ShardedRun(config=config, spec=spec), SHARDS, machine=machine,
            transport="inline", profiles=profiles,
        )
    extra = {
        "busy_s": [
            Profile(profiler).cumulative("sim/shard.py", "_dispatch")
            for profiler in profiles
        ],
        "layers": layer_metrics(Profile(*profiles), wheel_events[0]),
    }
    return Outcome(stats, lambda: _uniform_reference(machine, spec, size), extra=extra)


def tornado_iw_fig10(seed: int, size: str, spans: Spans, scratch: str) -> Outcome:
    """Tornado batch with inverse-weighted arbitration at both stages."""
    cfg = SIZES[size]["tornado"]
    shape, cores = cfg["shape"], cfg["endpoints"]
    pattern = Tornado(shape)
    spec = BatchSpec(
        pattern, packets_per_source=cfg["packets"], cores_per_chip=cores, seed=seed
    )
    with spans.span("setup"):
        with spans.span("core.machine.elaborate"):
            machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=cores))
        routes = RouteComputer(machine)
        with spans.span("traffic.loads.compute"):
            table = compute_loads(machine, routes, pattern, cores)
        with spans.span("arbiters.weights.program"):
            weights = make_weight_tables(
                machine, routes, [pattern], cores, load_tables=[table]
            )
            vc_weights = make_vc_weight_tables(
                machine, routes, [pattern], cores, load_tables=[table]
            )
        with spans.span("sim.engine.build"):
            engine = build_batch_engine(
                machine,
                routes,
                spec,
                arbitration="iw",
                weight_tables=weights,
                vc_weight_tables=vc_weights,
            )
    with spans.span("loop"):
        run_chunked(engine, spans, CHUNK_CYCLES["tornado"])
    return Outcome(
        engine.stats,
        lambda: ideal_batch_cycles(machine, table, spec.packets_per_source),
        engine,
    )


def hotspot_faults_checkpointed(seed: int, size: str, spans: Spans, scratch: str) -> Outcome:
    """Open-loop hotspot demand with link faults, a metrics sink, and
    periodic checkpoints, resuming once through ``restore_engine``."""
    from repro.faults import (
        FaultAwareRouteComputer,
        FaultPolicy,
        FaultRuntime,
        FaultSet,
        FaultSpec,
        failable_channels,
    )
    from repro.sim.checkpoint import load_checkpoint, restore_engine, save_checkpoint
    from repro.sim.metrics import MetricsCollector
    from repro.traffic.demand import (
        DemandMatrix,
        DemandSchedule,
        DemandSpec,
        build_demand_engine,
    )

    cfg = SIZES[size]["hotspot"]
    shape, cores, epoch = cfg["shape"], cfg["endpoints"], cfg["epoch"]
    rng = random.Random(seed)
    matrices = [
        DemandMatrix.hotspot(
            shape, rate=cfg["rate"], hotspots=2, hot_fraction=cfg["hot"],
            seed=rng.randrange(2**31),
        )
        for _ in range(3)
    ]
    spec = DemandSpec(
        demand=DemandSchedule.from_matrices(matrices, epoch),
        cores_per_chip=cores,
        mode="open",
        duration_cycles=3 * epoch,
        injection="bernoulli",
        seed=seed,
    )
    with spans.span("setup"):
        with spans.span("core.machine.elaborate"):
            machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=cores))
        torus = failable_channels(machine)
        first, second = rng.sample(torus, 2)
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=first, down_cycle=epoch - epoch // 4),
                FaultSpec(
                    kind="link",
                    channel=second,
                    down_cycle=epoch + epoch // 2,
                    up_cycle=2 * epoch + epoch // 2,
                ),
            ),
            shape=shape,
        )
        routes = FaultAwareRouteComputer(machine)
        faults = FaultRuntime(
            machine, fault_set, policy=FaultPolicy("reroute"), route_computer=routes
        )
        with spans.span("sim.engine.build"):
            engine = build_demand_engine(
                machine,
                routes,
                spec,
                trace=MetricsCollector(),
                latency_quantiles=True,
                faults=faults,
            )
    path = os.path.join(scratch, "hotspot.ckpt")
    saves = 0
    ckpt_bytes = 0
    resumed = False
    chunk = CHUNK_CYCLES["hotspot"]
    with spans.span("loop"):
        while not engine.drained:
            for _ in range(cfg["every"] // chunk):
                with spans.span("sim.engine.run_for"):
                    engine.run_for(chunk)
            if engine.drained:
                break
            with spans.span("sim.checkpoint.save"):
                save_checkpoint(engine, path)
            saves += 1
            ckpt_bytes += os.path.getsize(path)
            if not resumed:
                # The restored engine revives the checkpointed collector.
                with spans.span("sim.checkpoint.restore"):
                    engine = restore_engine(load_checkpoint(path), machine=machine)
                resumed = True
    if os.path.exists(path):
        os.unlink(path)
    # Open loop: the offered schedule length stands in for the ideal
    # completion, so 1.0 means the network kept pace with the schedule.
    return Outcome(
        engine.stats,
        lambda: float(spec.duration_cycles),
        engine,
        extra={"saves": saves, "bytes": ckpt_bytes},
    )


WORKLOADS: Dict[str, Callable[[int, str, Spans, str], Outcome]] = {
    "machine512_uniform": machine512_uniform,
    "tornado_iw_fig10": tornado_iw_fig10,
    "hotspot_faults_checkpointed": hotspot_faults_checkpointed,
    "machine512_sharded": machine512_sharded,
    "machine512_sharded_inline": machine512_sharded_inline,
}


def canonical_stats(stats) -> str:
    """The canonical text the digest gate hashes."""
    return json.dumps(stats.asdict(), separators=(",", ":"))
