"""The client workloads, their seeded op streams and their fleets.

Every workload runs against the same fleet shape: 16 servers
``srv-000`` .. ``srv-015`` on ``hd`` at its registry defaults (dim
10,000, codebook 4,096), behind a :class:`~repro.serve.ServingFrontend`
at its defaults (``max_batch`` 256, ``max_delay`` 1 ms, 4,096-entry
cache).  Keys are the dense integers ``0 .. keys - 1``; the program sees
only the generated ops.  Every random choice (op mix, keys, Zipf rank
order, flip sites) is drawn from a generator derived from the seed
argument, and the resize schedule is keyed to op counts, so one seed
gives one op sequence on every machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import make_table
from repro.hashing.base import DynamicHashTable
from repro.memory import FaultInjector, SingleBitFlips
from repro.serve import ServingFrontend
from repro.service import Router
from repro.store import DataPlane
from truth import preload_value

GET, PUT, DELETE = 0, 1, 2

#: Ops in one generated stream; longer runs cycle through it.
STREAM = 1 << 20

#: Keys per preload write (bounds the preload's transient memory).
PRELOAD_CHUNK = 1 << 16

SERVERS = tuple("srv-{:03d}".format(index) for index in range(16))
GROWN = SERVERS + tuple("srv-{:03d}".format(index) for index in range(16, 20))

#: Generator tags: each random stream has its own child of the seed.
_OPS, _KEYS, _RANKS, _FLIPS = range(4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: int
    #: ``"zipf"`` (exponent :data:`ZIPF_EXPONENT`) or ``"uniform"``.
    distribution: str
    #: Shares of get, put and delete.
    mix: Tuple[float, float, float]
    #: Ops over which the counted metrics (``failed_frac``, ``moved_frac``,
    #: ``hashing.misrouted_reads``) are taken; every run completes them.
    window: int
    #: Membership changes happen at ``first_resize + k * resize_every``
    #: ops, alternately growing 16 -> 20 and shrinking back (0: never).
    resize_every: int = 0
    first_resize: int = 0
    #: Avoid the member owning the most preloaded keys (``Router.avoid``).
    avoid: bool = False
    #: Single-bit upsets injected into the live routing table.
    flips: int = 0


ZIPF_EXPONENT = 1.1

#: Keys per migration tick; one tick, then one yield to the event loop.
KEYS_PER_TICK = 1_024

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot-read",
            why=(
                "Zipf 1.1 reads over 131,072 keys, 95% get: the hot set "
                "fits the 4,096-entry cache, so batcher, front-end and "
                "cache carry the load"
            ),
            keys=1 << 17,
            distribution="zipf",
            mix=(0.95, 0.05, 0.0),
            window=100_000,
        ),
        Workload(
            name="cold-mixed",
            why=(
                "uniform 50/40/10 get/put/delete over 1,048,576 keys "
                "(256x the cache): every op pays hashing, routing and "
                "store fan-out"
            ),
            keys=1 << 20,
            distribution="uniform",
            mix=(0.5, 0.4, 0.1),
            window=60_000,
        ),
        Workload(
            name="resize",
            why=(
                "cold-mixed over 262,144 keys while the fleet grows "
                "16->20 and shrinks back under traffic: migration, epoch "
                "close and cache invalidation"
            ),
            keys=1 << 18,
            distribution="uniform",
            mix=(0.5, 0.4, 0.1),
            window=100_000,
            resize_every=40_000,
            first_resize=10_000,
        ),
        Workload(
            name="failover",
            why=(
                "uniform 90/10 get/put over 262,144 keys with the busiest "
                "member avoided: every read of its keys takes the router's "
                "failover path"
            ),
            keys=1 << 18,
            distribution="uniform",
            mix=(0.9, 0.1, 0.0),
            window=60_000,
            avoid=True,
        ),
        Workload(
            name="degraded",
            why=(
                "failover plus 10 bit flips (the top of the paper's Figure 5 "
                "axis) in the live HD table: the robustness claim"
            ),
            keys=1 << 18,
            distribution="uniform",
            mix=(0.9, 0.1, 0.0),
            window=60_000,
            avoid=True,
            flips=10,
        ),
    )
}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def make_ops(workload: Workload, seed: int) -> Tuple[list, list]:
    """The seeded op stream: ``(op codes, keys)``, :data:`STREAM` long."""
    draws = _rng(seed, _OPS).random(STREAM)
    get_share, put_share, __ = workload.mix
    ops = np.full(STREAM, DELETE, dtype=np.int64)
    ops[draws < get_share + put_share] = PUT
    ops[draws < get_share] = GET
    key_rng = _rng(seed, _KEYS)
    if workload.distribution == "zipf":
        weights = np.arange(1, workload.keys + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        cdf = np.cumsum(weights)
        ranks = np.searchsorted(cdf, key_rng.random(STREAM) * cdf[-1], side="right")
        ranks = np.minimum(ranks, workload.keys - 1)
        # Spread the hot ranks over the key space, so popularity is not
        # tied to key order (or to the owners of low keys).
        keys = _rng(seed, _RANKS).permutation(workload.keys)[ranks]
    else:
        keys = key_rng.integers(0, workload.keys, STREAM)
    return ops.tolist(), keys.tolist()


@dataclass
class Fleet:
    router: Router
    plane: DataPlane
    frontend: ServingFrontend
    #: With flips: the table as it was before them, and the flipped
    #: ``(region, bit)`` sites.  With avoid: the avoided member.
    clean: Optional[DynamicHashTable] = None
    avoided: Optional[str] = None
    flips: Tuple[Tuple[str, int], ...] = ()


def build_fleet(workload: Workload, seed: int) -> Tuple[Fleet, float]:
    """Build, preload, track and fault (per the workload) a fleet.

    Returns the fleet and its set-up time; the clean table copy the
    benchmark keeps for its own misroute check is not timed.
    """
    started = time.perf_counter()
    router = Router(make_table("hd"))
    router.sync(SERVERS)
    plane = DataPlane(router)
    for first in range(0, workload.keys, PRELOAD_CHUNK):
        chunk = range(first, min(first + PRELOAD_CHUNK, workload.keys))
        plane.put_many(list(chunk), [preload_value(key) for key in chunk])
    plane.track()
    frontend = ServingFrontend(plane)
    fleet = Fleet(router=router, plane=plane, frontend=frontend)
    elapsed = time.perf_counter() - started
    if workload.flips:
        fleet.clean = DynamicHashTable.from_state(router.table.state_dict())
    started = time.perf_counter()
    if workload.avoid:
        loads = {server: len(store) for server, store in plane.stores.items()}
        fleet.avoided = max(SERVERS, key=lambda server: loads.get(server, 0))
        router.avoid(fleet.avoided)
    if workload.flips:
        injector = FaultInjector(router.table.memory_regions())
        fleet.flips = tuple(
            injector.inject(SingleBitFlips(workload.flips), _rng(seed, _FLIPS))
        )
    elapsed += time.perf_counter() - started
    return fleet, elapsed
