"""The serve fleet: open-loop sessions against ``repro serve``.

The traced run of ``hotspot_faults_checkpointed`` runs one sample of it
for the serve layer's figures.

The fleet runs in phases, each against a ``repro serve`` process of its
own with a spool directory: replays of one fleet at the committed middle
rate, where the latency metrics are read; replays of a burst far above
the server's capacity, where the completion rate is the capacity; and a
small burst into a session table half its size, where LRU eviction and
thaw run. The servers run side by side and the phases' replays take
turns (see :func:`schedule`). One client process opens two connections
to each server. Sessions arrive on
a seeded Poisson schedule (open loop: arrivals do not wait for earlier
sessions). Each session sends create, two step(64), stats and close,
each request after the previous reply. Every request is timed from when
it was due: a create from its arrival time, any later request from the
previous reply.

The replays of a phase are the same fleet: the same arrival times, the
same sessions, the same requests, and the same simulations on the
server. Each request's latency is read as its fastest over the replays,
and a burst's completion rate as the fastest replay's, so a spell of
host slowness during one replay does not enter the figures.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from repro.serve.client import ServeClient, ServeError

from spans import Spans

#: The committed middle rate in sessions per second, where the latency
#: metrics are read. One session costs the server about 25 ms (small)
#: or 300 ms (large) of handler time, so the mix saturates near 15
#: sessions/s on a 2-core host; at the middle rate the server is about
#: 40% busy.
RATE = 6.0
#: The bursts' arrival rate, far above saturation: a burst's sessions
#: all arrive within a few milliseconds and are live at once.
BURST_RATE = 1000.0
#: Live-session table size of the middle rate, whose concurrency is a
#: few sessions.
MAX_SESSIONS = 10
#: (rate, sessions per fleet, replays, table size) of each phase, each
#: against a server of its own: the middle rate (24 sessions, 120
#: requests, 6 beyond the p95), the capacity burst, whose table holds
#: all its sessions, and the thaw burst of four small sessions over a
#: table of two. On a 2-core host the same burst took up to 1.4x as
#: long from one replay to the next, and up to twice as long in spells
#: of 10 s and more. A burst that overflows the table thrashes: the
#: sessions' requests take turns, so the least recently used session is
#: the next one asked, and nearly every request thaws its session and
#: evicts another. With 36 sessions over a table of 10 the server
#: completed ~1 session/s against ~12/s without eviction, and 12 over 10
#: thrashed in some runs and not in others, so the capacity bursts do
#: not evict, and the thaw burst, whose four sessions are all live at
#: once, always thrashes.
PHASES = {
    "full": ((RATE, 24, 4, MAX_SESSIONS), (BURST_RATE, 16, 8, 16), (BURST_RATE, 4, 1, 2)),
    "tiny": ((RATE, 12, 2, MAX_SESSIONS), (BURST_RATE, 8, 2, 8), (BURST_RATE, 4, 1, 2)),
}
CONNECTIONS = 2
#: Steps per session. With three, steps were half the requests and the
#: median fell on the edge between the ~1 ms steps and the ~4 ms stats
#: and close requests, moving between them from seed to seed; with two
#: it falls among the small sessions' steps, stats and closes, whose
#: medians all lie between 3 and 5 ms. One request in six belongs to a
#: large session, so the p95 falls among the large sessions' costliest
#: requests (create and the first step), not on the edge between
#: request classes.
STEPS = 2
STEP_CYCLES = 64
REQUEST_TYPES = ("create", "step", "stats", "close")


def is_large(index: int) -> bool:
    """The committed session mix: five small sessions to one larger."""
    return index % 6 == 5


def session_workload(index: int, rng: random.Random) -> dict:
    if is_large(index):
        return {"kind": "batch", "shape": [4, 4, 2], "endpoints": 2,
                "cores": 2, "pattern": "uniform", "batch": 4,
                "seed": rng.randrange(2**31)}
    return {"kind": "batch", "shape": [2, 2, 2], "endpoints": 1, "cores": 1,
            "pattern": "uniform", "batch": 2, "seed": rng.randrange(2**31)}


def supported_percentile(count: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class _Fleet:
    """One rate's open-loop session fleet over the shared connections."""

    def __init__(self, clients, spans: Spans, rate: float) -> None:
        self.clients = clients
        self.spans = spans
        self.rate = rate
        #: (session, request type, latency ms, ok, due time) per request.
        self.requests: List[tuple] = []
        self.sessions: List[dict] = []
        self.lag_ms: List[float] = []
        self.live = 0
        self.peak_live = 0

    async def _request(self, index: int, span: int, rtype: str, due: float, call):
        try:
            result = await call
            ok = True
        except ServeError:
            result, ok = None, False
        end = time.perf_counter()
        self.spans.add(rtype, due, end, parent=span)
        self.requests.append((index, rtype, (end - due) * 1000.0, ok, due))
        return result, ok, end

    async def session(self, index: int, due: float, workload: dict) -> None:
        client = self.clients[index % len(self.clients)]
        span = self.spans.add(f"session{index}", due, due)
        record = {"index": index, "due": due, "ok": False, "advanced": 0}
        self.sessions.append(record)
        reply, ok, end = await self._request(index, span, "create", due, client.create(workload))
        if not ok:
            return
        sid = reply["session"]
        self.live += 1
        self.peak_live = max(self.peak_live, self.live)
        try:
            for _ in range(STEPS):
                reply, ok, end = await self._request(
                    index, span, "step", end, client.step(sid, STEP_CYCLES)
                )
                if not ok:
                    return
                record["advanced"] += reply["advanced"]
            reply, ok, end = await self._request(index, span, "stats", end, client.stats(sid))
            if not ok:
                return
            reply, ok, end = await self._request(index, span, "close", end, client.close_session(sid))
            if not ok:
                return
            final = reply["final"]["stats"]
            record["ok"] = final["delivered"] + final["dropped"] == final["injected"]
            record["end"] = end
        finally:
            self.live -= 1
            self.spans.records[span]["end"] = end

    async def run(self, count: int, rng: random.Random) -> None:
        """Offer ``count`` sessions over ``count / rate`` seconds.

        The arrival times are those of a Poisson process at ``rate``
        given ``count`` arrivals in the window: independent and uniform
        over it. Fixing the window keeps the fleet's length the same
        for every seed. The same ``rng`` state gives the same fleet.
        """
        start = time.perf_counter() + 0.05
        offsets = sorted(rng.uniform(0.0, count / self.rate) for _ in range(count))
        tasks = []
        for index, offset in enumerate(offsets):
            due = start + offset
            workload = session_workload(index, rng)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
            tasks.append(asyncio.ensure_future(self.session(index, due, workload)))
        await asyncio.gather(*tasks)


async def _start_server(scratch: str, tag: str, max_sessions: int, cpus: set):
    spool = os.path.join(scratch, f"spool-{tag}")
    shutil.rmtree(spool, ignore_errors=True)
    cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
           "--port", "0", "--spool-dir", spool,
           "--max-sessions", str(max_sessions)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    line = await asyncio.get_running_loop().run_in_executor(None, proc.stdout.readline)
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repro serve did not start: {line!r}")
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, port, spool


def _stop_server(proc, spool: str) -> None:
    # SIGTERM, not SIGINT: a shell starts background jobs with SIGINT
    # ignored, and the server would then never see it.
    proc.terminate()
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    shutil.rmtree(spool, ignore_errors=True)


async def _open_phase(
    phase: int, spec: tuple, scratch: str, spans: Spans, server_cpus: set, phases: list
) -> None:
    """Start a phase's server and open its connections.

    The phase joins ``phases`` as soon as its server runs, so the
    caller's cleanup stops it whatever fails next.
    """
    rate, count, repeats, table = spec
    start = time.perf_counter()
    proc, port, spool = await _start_server(scratch, str(phase), table, server_cpus)
    record = {"rate": rate, "count": count, "repeats": repeats, "proc": proc,
              "spool": spool, "clients": [], "fleets": []}
    phases.append(record)
    for _ in range(CONNECTIONS):
        record["clients"].append(await ServeClient.connect("127.0.0.1", port))
    spans.add("setup", start, time.perf_counter())


async def _close_phase(record: dict) -> None:
    for client in record["clients"]:
        await client.close()
    _stop_server(record["proc"], record["spool"])


def schedule(phases: List[dict]) -> List[int]:
    """The phase of each fleet in turn: each middle-rate replay followed
    by its share of the capacity bursts, then the thaw burst. Spreading
    the replays over the whole sample makes a spell of host slowness
    less likely to cover every replay of a phase."""
    rounds = phases[0]["repeats"]
    per_round = phases[1]["repeats"] // rounds
    return [0, *[1] * per_round] * rounds + [2] * phases[2]["repeats"]


async def _run_phases(size: str, seed: int, scratch: str, spans: Spans, server_cpus: set):
    """Every phase's server up at once, the fleets in :func:`schedule`
    order, then each server's stats."""
    phases: List[dict] = []
    try:
        for phase, spec in enumerate(PHASES[size]):
            await _open_phase(phase, spec, scratch, spans, server_cpus, phases)
        for phase in schedule(phases):
            record = phases[phase]
            record["fleets"].append(_Fleet(record["clients"], spans, record["rate"]))
            await record["fleets"][-1].run(record["count"], random.Random(f"{seed}/{phase}"))
        for record in phases:
            record["server"] = await record["clients"][0].server_stats()
    finally:
        for record in phases:
            await _close_phase(record)
    return phases


def _span_s(fleet: _Fleet) -> float:
    """Seconds from the fleet's first arrival to its last close."""
    first = min(s["due"] for s in fleet.sessions)
    return max(s.get("end", first) for s in fleet.sessions) - first


def _completion_rate(fleet: _Fleet) -> float:
    """Sessions drained per second over the fleet's span. Under
    overload this is the rate the server sustains."""
    return sum(1 for s in fleet.sessions if s["ok"]) / _span_s(fleet)


def _cycle_rate(fleet: _Fleet) -> float:
    """Simulated cycles the fleet's steps advanced per second of its span."""
    return sum(s["advanced"] for s in fleet.sessions) / _span_s(fleet)


def _best_latencies(fleets: List[_Fleet]) -> Dict[tuple, tuple]:
    """Each request's fastest latency over replays of one fleet.

    A request is keyed by its session and its place in the session;
    the value is ``(request type, ms)``. Failed requests are left out
    (they fail the sample).
    """
    best: Dict[tuple, tuple] = {}
    for fleet in fleets:
        made: Dict[int, int] = {}
        for index, rtype, ms, ok, _due in fleet.requests:
            key = (index, made.get(index, 0))
            made[index] = key[1] + 1
            if ok and (key not in best or ms < best[key][1]):
                best[key] = (rtype, ms)
    return best


def serve_sample(seed: int, size: str, trace: bool, scratch: str) -> dict:
    spans = Spans(f"serve_open_loop/seed{seed}/pid{os.getpid()}")
    # The client (this process) and the server each keep one CPU, two
    # different ones where there are two. Left to the scheduler, their
    # placement changed from run to run, and the median request of the
    # same fleet moved between 4.5 and 7.2 ms against 4.4 to 5.1 ms pinned.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})

    start = time.perf_counter()
    phases = asyncio.run(_run_phases(size, seed, scratch, spans, {cpus[-1]}))
    wall_s = time.perf_counter() - start
    middle, bursts, _thaw = phases
    windows: List[_Fleet] = middle["fleets"]
    best = _best_latencies(windows)
    latencies = [ms for _, ms in best.values()]
    every = [f for p in phases for f in p["fleets"]]
    requests = [r for f in every for r in f.requests]
    failed = sum(1 for r in requests if not r[3])
    broken = sum(1 for f in every for s in f.sessions if not s["ok"])
    result = {
        "ok": failed == 0 and broken == 0,
        "check": f"{failed} failed requests, {broken} sessions not drained",
        "attempted": len(requests),
        "failed": failed,
        "wall_s": wall_s,
        "serve_count": len(best),
        "phases": [
            {
                "rate": p["rate"],
                "p95_ms": [
                    round(percentile([r[2] for r in f.requests if r[3]], 95), 1)
                    for f in p["fleets"]
                ],
                "completed_per_s": [round(_completion_rate(f), 2) for f in p["fleets"]],
            }
            for p in phases
        ],
        "layers": {
            **_layers(phases, windows, best, middle["server"]),
            "serve.p50_ms": percentile(latencies, 50),
            "serve.p95_ms": percentile(latencies, 95),
            "serve.max_rate": max(_completion_rate(f) for f in bursts["fleets"]),
            # In a burst the server is never idle, so queueing does not
            # enter the figure.
            "serve.cycles_per_s": max(_cycle_rate(f) for f in bursts["fleets"]),
        },
    }
    if trace:
        result["spans"] = spans.records
    return result


def _layers(
    phases: List[dict], windows: List[_Fleet], best: Dict[tuple, tuple], server: dict
) -> Dict[str, float]:
    """Per-request-type and server-side figures at the middle rate."""
    out: Dict[str, float] = {}
    for rtype in REQUEST_TYPES:
        values = [ms for kind, ms in best.values() if kind == rtype]
        out[f"serve.{rtype}_p50_ms"] = percentile(values, 50) if values else 0.0
        out[f"serve.{rtype}_tail_ms"] = (
            percentile(values, supported_percentile(len(values))) if values else 0.0
        )
    handler_ms = server["latency_us"]["p50"] / 1000.0
    out["serve.handler_ms"] = handler_ms
    out["serve.queue_ms"] = percentile([ms for _, ms in best.values()], 50) - handler_ms
    out["serve.evictions"] = sum(p["server"]["evictions"] for p in phases)
    out["serve.thaws"] = sum(p["server"]["thaws"] for p in phases)
    out["serve.generator_lag_ms"] = max(lag for f in windows for lag in f.lag_ms)
    out["serve.peak_live"] = max(f.peak_live for p in phases for f in p["fleets"])
    return out
