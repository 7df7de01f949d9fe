"""Closed-loop clients over the real asyncio serving path.

:data:`CLIENTS` client coroutines share one event loop with the
front-end's flush loop.  Each sends one op through
``ServingFrontend.lookup/put/delete``, awaits the reply and sends the
next at once (no think time).  512 clients is twice ``max_batch``, so
flushes fill by size and the 1 ms deadline timer never paces the run;
with no timer firing, the interleaving of clients, flushes and migration
ticks is fixed by the op sequence alone, which is what makes the counted
metrics repeat exactly for a seed.

Ops take consecutive sequence numbers from one shared counter; op ``n``
is entry ``n`` of the workload's seeded stream, and a put writes ``n``
as its value, so every read names the write it observed.
"""

from __future__ import annotations

import asyncio
import resource
import time
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

import calibrate
from calibrate import Calibration
from repro.service import MigrationExecutor
from tracing import Tracer, percentile
from truth import ABSENT, MISS, OK, Truth, verdict
from workloads import (
    GET,
    GROWN,
    KEYS_PER_TICK,
    PUT,
    SERVERS,
    STREAM,
    Fleet,
    Workload,
)

CLIENTS = 512

#: Ops per chunk of the timed part of a session; the rate and the read
#: percentiles are medians over chunks.  Small, so that the chunks a
#: stall of the host hits stay few and far from the median even when
#: stalls come every second; large enough for eight timings of the
#: host-speed reference and, on every workload, over 4,000 reads (a p99
#: with 40 reads beyond it).
CHUNK_OPS = 8 * calibrate.EVERY

#: Writes per chunk of the write p99, so that it has ten writes beyond
#: it (hot-read writes 5% of its ops, so these chunks span more ops).
WRITE_CHUNK = 1_024

clock = time.perf_counter


@dataclass
class Epoch:
    """One membership change and its verified migration."""

    first_op: int
    resize_s: float
    moved: int
    tracked: int
    committed: int
    verified: int
    traced: bool

    @property
    def moved_frac(self) -> float:
        return self.moved / self.tracked


@dataclass
class Session:
    """Timings of one closed-loop session (counts live on the run)."""

    traced: bool
    warm_op: int
    started: float = 0.0
    warm_at: float = 0.0
    #: When the last client got its last reply.
    clients_done: float = 0.0
    #: When the session's last work (a migration under way) ended.
    ended: float = 0.0
    client_self_s: float = 0.0
    #: Hot-key cache lookups during the session.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per op from ``warm_op`` on: its kind, reply time and latency.
    kind: array = field(default_factory=lambda: array("b"))
    replied_at: array = field(default_factory=lambda: array("d"))
    latency: array = field(default_factory=lambda: array("d"))
    #: Positions, among the timed ops, of reads sent while a migration
    #: was running.
    migrating_gets: array = field(default_factory=lambda: array("q"))
    #: Timings of the host-speed reference taken during the session.
    calibration: Calibration = field(default_factory=Calibration)

    @property
    def wall_s(self) -> float:
        """The session's duration, less the time the reference ran."""
        return self.ended - self.started - self.calibration.total_s

    def chunks(self) -> List[Tuple[slice, float, float]]:
        """The timed ops cut into runs of :data:`CHUNK_OPS`, with each
        run's duration and the host's slowdown during it.

        Ops are recorded in reply order (one thread), so a chunk lasts
        from the previous chunk's last reply (the end of the warm-up,
        for the first) to its own last reply, less the time the
        reference ran in between.  The partial chunk at the end (clients
        leaving) is dropped, unless it is the only one.
        """
        timed = len(self.replied_at)
        count = timed // CHUNK_OPS
        if count == 0:
            bounds = np.array([self.warm_at, self.clients_done])
            parts = [slice(0, timed)]
        else:
            ends = np.array(self.replied_at)[CHUNK_OPS - 1 :: CHUNK_OPS][:count]
            bounds = np.concatenate(([self.warm_at], ends))
            parts = [
                slice(index * CHUNK_OPS, (index + 1) * CHUNK_OPS)
                for index in range(count)
            ]
        calibration = self.calibration
        widths = np.diff(bounds - calibration.paused_before(bounds))
        return [
            (part, float(width), calibration.slowdown(bounds[i], bounds[i + 1]))
            for i, (part, width) in enumerate(zip(parts, widths))
        ]

    def latencies(self) -> np.ndarray:
        """Each timed op's latency, less the reference time inside it."""
        replied = np.array(self.replied_at)
        latency = np.array(self.latency)
        paused = self.calibration.paused_before
        return latency - (paused(replied) - paused(replied - latency))

    def medians(self, normalized: bool = False) -> dict:
        """Medians over chunks of the rate and latency percentiles.

        A stall of the host slows the chunk it falls in; the median
        across chunks ignores it, where a whole-run figure would not.
        The rate and the read percentiles are taken per chunk of ops;
        the write p99 per :data:`WRITE_CHUNK` writes in reply order, so
        that each has ten writes beyond it whatever the mix.  With
        ``normalized``, each figure is divided by how much the host's
        slowdown during the ops' chunk stretches it (see
        ``calibrate.py``).  Times are in seconds; each percentile comes
        with the sample count behind it.
        """
        chunks = self.chunks()
        sizes = [part.stop - part.start for part, __, __ in chunks]
        covered = sum(sizes)
        kind = np.array(self.kind)[:covered]
        latency = self.latencies()[:covered]
        slowdown = np.array([slowdown for __, __, slowdown in chunks])

        share = calibrate.SERVING_SHARE if normalized else 0.0
        stretch = calibrate.stretch(slowdown, share)
        result = {
            "ops_per_s": float(
                np.median(
                    [
                        size * by / width
                        for (__, width, __), size, by in zip(chunks, sizes, stretch)
                    ]
                )
            ),
            "chunks": len(chunks),
        }
        # Each timed op's latency over its chunk's stretch.
        latency = latency / np.repeat(stretch, sizes)
        gets = kind == GET
        for name, q in (("get_p50", 50), ("get_p99", 99)):
            picked = [latency[part][gets[part]] for part, __, __ in chunks]
            result[name] = float(np.median([percentile(p, q)[0] for p in picked]))
            result[name + "_samples"] = int(gets.sum())
        writes = latency[kind == PUT]
        groups = max(1, writes.size // WRITE_CHUNK)
        used = writes[: groups * WRITE_CHUNK] if writes.size >= WRITE_CHUNK else writes
        result["put_p99"] = float(
            np.median([percentile(p, 99)[0] for p in np.array_split(used, groups)])
        )
        result["put_p99_samples"] = int(used.size)
        return result


class Run:
    """A fleet under load: the op stream, its truth, and what was seen."""

    def __init__(self, workload: Workload, fleet: Fleet, ops: list, keys: list):
        self.workload = workload
        self.fleet = fleet
        self.ops = ops
        self.keys = keys
        self.truth = Truth.preloaded(workload.keys)
        self.next_op = 0
        self.tracer: Optional[Tracer] = None
        #: ``(op, key, migrations finished at send, started at reply)``.
        self.misses: List[Tuple[int, int, int, int]] = []
        #: ``(op, key, value read, acked, in flight)``.
        self.wrong: List[tuple] = []
        #: ``(op, error)`` for every op whose call raised.
        self.raised: List[Tuple[int, str]] = []
        self.epochs: List[Epoch] = []
        #: Keys each migration moves, in start order.
        self.plans: List[frozenset] = []
        self.migrations_started = 0
        self.migrations_finished = 0
        #: Peak resident memory (KiB) when op ``window`` was sent: a fixed
        #: amount of work, so the figure does not grow with throughput.
        self.peak_rss_kib = 0
        self._wake_at = -1
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False

    # -- clients -------------------------------------------------------------

    async def _client(self, session: Session, stop_at: float, min_ops: int):
        frontend = self.fleet.frontend
        lookup, put, delete = frontend.lookup, frontend.put, frontend.delete
        ops, keys = self.ops, self.keys
        truth = self.truth
        snapshot, begin, end = truth.snapshot, truth.begin_write, truth.end_write
        kinds, replies = session.kind, session.replied_at
        latencies = session.latency
        migrating_gets = session.migrating_gets
        measure = session.calibration.measure
        every = calibrate.EVERY
        tracer = self.tracer
        warm_op = session.warm_op
        window = self.workload.window
        own = 0.0
        replied = clock()
        while True:
            n = self.next_op
            if n >= min_ops and replied >= stop_at:
                break
            self.next_op = n + 1
            if n % every == 0:
                own -= measure()
            if n == self._wake_at:
                self._wake.set()
            if n == warm_op:
                session.warm_at = replied
            if n == window:
                self.peak_rss_kib = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
            op = ops[n % STREAM]
            key = keys[n % STREAM]
            if tracer is not None:
                tracer.request_id = n
            try:
                if op == GET:
                    allowed = snapshot(key)
                    finished = self.migrations_finished
                    migrating = self.migrations_started > finished
                    sent = clock()
                    own += sent - replied
                    found, value = await lookup(key)
                    replied = clock()
                    seen = verdict(allowed, found, value)
                    if seen != OK:
                        if seen == MISS:
                            self.misses.append(
                                (n, key, finished, self.migrations_started)
                            )
                        else:
                            self.wrong.append((n, key, value) + allowed)
                    if migrating and n >= warm_op:
                        migrating_gets.append(len(latencies))
                elif op == PUT:
                    begin(key, n)
                    sent = clock()
                    own += sent - replied
                    await put(key, n)
                    replied = clock()
                    end(key, n)
                else:
                    begin(key, ABSENT)
                    sent = clock()
                    own += sent - replied
                    await delete(key)
                    replied = clock()
                    end(key, ABSENT)
            except Exception as error:  # the program failed this op
                replied = clock()
                self.raised.append((n, repr(error)))
                continue
            if n >= warm_op:
                kinds.append(op)
                replies.append(replied)
                latencies.append(replied - sent)
        session.client_self_s += own

    # -- membership changes ---------------------------------------------------

    async def _resizer(self, session: Session) -> None:
        """Grow and shrink the fleet at the workload's op counts.

        Each change re-tracks the stored keys, syncs the router (one
        epoch; the front-end's invalidator evicts the moved keys), then
        runs the plan one tick at a time with a yield between ticks, so
        migration and client traffic share the loop.
        """
        workload = self.workload
        fleet = self.fleet
        while not self._stopping:
            at = workload.first_resize + len(self.epochs) * workload.resize_every
            if self.next_op < at:
                self._wake = asyncio.Event()
                self._wake_at = at
                await self._wake.wait()
                self._wake_at = -1
                if self._stopping:
                    return
            grow = len(self.epochs) % 2 == 0
            started = clock()
            # Reference timings the clients take meanwhile are not resize time.
            paused = session.calibration.total_s
            fleet.plane.track()
            result = fleet.router.sync(GROWN if grow else SERVERS)
            plan = result.plan
            self.plans.append(
                frozenset(key for batch in plan.batches for key in batch.keys)
            )
            self.migrations_started += 1
            executor = MigrationExecutor(
                plan, fleet.plane, max_keys_per_tick=KEYS_PER_TICK
            )
            while not executor.status.done:
                executor.tick()
                await asyncio.sleep(0)
            verified = executor.verify()
            fleet.plane.prune()
            self.migrations_finished += 1
            resize_s = clock() - started - (session.calibration.total_s - paused)
            self.epochs.append(
                Epoch(
                    first_op=at,
                    resize_s=resize_s,
                    moved=plan.total_keys,
                    tracked=plan.tracked,
                    committed=executor.status.committed,
                    verified=verified,
                    traced=session.traced,
                )
            )

    # -- sessions -------------------------------------------------------------

    async def session(
        self, seconds: float, min_ops: int, warmup: int, tracer: Optional[Tracer]
    ) -> Session:
        """Run the clients until ``seconds`` pass and ``min_ops`` are sent.

        Latencies and throughput count ops from ``warmup`` ops into the
        session on, once the cache has filled.
        """
        session = Session(traced=tracer is not None, warm_op=self.next_op + warmup)
        self.tracer = tracer
        self._stopping = False
        frontend = self.fleet.frontend
        cache = frontend.cache
        hits, misses = cache.hits, cache.misses
        frontend.start()
        resizer = None
        if self.workload.resize_every:
            resizer = asyncio.get_running_loop().create_task(self._resizer(session))
        session.started = clock()
        stop_at = session.started + seconds
        await asyncio.gather(
            *(self._client(session, stop_at, min_ops) for _ in range(CLIENTS))
        )
        session.clients_done = clock()
        if resizer is not None:
            # A migration under way completes; a wait for the next
            # change ends here.
            self._stopping = True
            if self._wake is not None:
                self._wake.set()
            await resizer
        session.ended = clock()
        session.cache_hits = cache.hits - hits
        session.cache_misses = cache.misses - misses
        self.tracer = None
        await frontend.stop()
        return session
