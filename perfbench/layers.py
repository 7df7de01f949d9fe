"""Which public calls the traced run wraps, and the per-layer metrics.

Each span is named ``<module>.<call>`` after the ``repro`` module that
defines the call.  Every span's self time lands in exactly one
``*_self_s`` metric below, so those metrics, ``client.self_s`` and
``loop.residual_s`` (event-loop scheduling, coroutine frames and future
callbacks: everything no span or client segment covers) add up to
``trace.wall_s``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.hashfn import HashFamily
from repro.hashing.base import DynamicHashTable
from repro.serve import EpochInvalidator, HotKeyCache, MicroBatcher
from repro.service import MigrationExecutor, Router
from repro.store import DataPlane
from repro.store.store import ServerStore
from tracing import (
    Tracer,
    count_by_name,
    percentile,
    root_time,
    self_time_by_name,
    total_by_name,
)

#: ``(class, method, span name, position of the key batch or None)``.
#: Table methods (``"table"``) are wrapped on whichever class of the live
#: table's MRO defines them.
_CALLS: List[Tuple[type, str, str, object]] = [
    (HotKeyCache, "get_many", "serve.cache.get_many", 1),
    (HotKeyCache, "put_many", "serve.cache.put_many", 1),
    (HotKeyCache, "invalidate_many", "serve.cache.invalidate_many", 1),
    (EpochInvalidator, "on_epoch", "serve.frontend.on_epoch", None),
    (DataPlane, "get_many", "store.dataplane.get_many", 1),
    (DataPlane, "put_many", "store.dataplane.put_many", 1),
    (DataPlane, "delete_many", "store.dataplane.delete_many", 1),
    (DataPlane, "track", "store.dataplane.track", None),
    (ServerStore, "get_many", "store.store.get_many", 1),
    (ServerStore, "put_many", "store.store.put_many", 1),
    (ServerStore, "delete_many", "store.store.delete_many", 1),
    (ServerStore, "read_many", "store.store.read_many", 1),
    (ServerStore, "evict_many", "store.store.evict_many", 1),
    (HashFamily, "words", "hashfn.words", 1),
    ("table", "words_of_keys", "hashing.words_of_keys", 1),
    ("table", "lookup_words", "hashing.lookup_words", 1),
    ("table", "route_batch", "hashing.route_batch", 1),
    ("table", "route_word", "hashing.route_word", None),
    ("table", "route_word_replicas", "hashing.route_word_replicas", None),
    (Router, "route_batch", "service.router.route_batch", 1),
    (Router, "assign_batch", "service.router.assign_batch", 1),
    (Router, "sync", "service.router.sync", None),
    (MigrationExecutor, "tick", "service.migration.tick", None),
    (MigrationExecutor, "verify", "service.migration.verify", None),
]

#: Self-time metrics: each span name belongs to exactly one.
_SELF: Dict[str, Tuple[str, ...]] = {
    "serve.batcher.submit_self_s": ("serve.batcher.submit",),
    "serve.batcher.dispatch_self_s": ("serve.batcher.dispatch",),
    "serve.cache.self_s": (
        "serve.cache.get_many",
        "serve.cache.put_many",
        "serve.cache.invalidate_many",
    ),
    "serve.frontend.invalidate_self_s": ("serve.frontend.on_epoch",),
    "store.dataplane.self_s": (
        "store.dataplane.get_many",
        "store.dataplane.put_many",
        "store.dataplane.delete_many",
    ),
    "store.dataplane.track_self_s": ("store.dataplane.track",),
    "store.store.self_s": (
        "store.store.get_many",
        "store.store.put_many",
        "store.store.delete_many",
        "store.store.read_many",
        "store.store.evict_many",
    ),
    "hashfn.self_s": ("hashfn.words",),
    "hashing.words_self_s": ("hashing.words_of_keys",),
    "hashing.route_self_s": (
        "hashing.route_batch",
        "hashing.route_word",
        "hashing.route_word_replicas",
    ),
    "hashing.gather_self_s": ("hashing.lookup_words",),
    "service.router.self_s": (
        "service.router.route_batch",
        "service.router.assign_batch",
    ),
    "service.router.sync_self_s": ("service.router.sync",),
    "service.migration.tick_self_s": ("service.migration.tick",),
    "service.migration.verify_self_s": ("service.migration.verify",),
}


def install(tracer: Tracer, table: DynamicHashTable) -> None:
    """Wrap every call in :data:`_CALLS` (undo with ``tracer.uninstall``)."""
    tracer.patch_submit(MicroBatcher, "serve.batcher.submit")
    tracer.patch_dispatch(MicroBatcher, "serve.batcher.dispatch")
    for owner, method, name, keys_arg in _CALLS:
        if owner == "table":
            owner = next(k for k in type(table).__mro__ if method in k.__dict__)
        tracer.patch(owner, method, name, keys_arg)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _store_calls_under_dispatch(tracer: Tracer) -> int:
    """Store calls whose outermost span is a batch dispatch."""
    spans = tracer.arrays()
    parent = spans["parent"]
    root = np.arange(parent.size)
    while True:
        up = parent[root]
        climbing = up >= 0
        if not climbing.any():
            break
        root[climbing] = up[climbing]
    names = tracer.names
    store = np.isin(
        spans["name"],
        [code for code, name in enumerate(names) if name.startswith("store.store.")],
    )
    dispatch = names.index("serve.batcher.dispatch")
    return int((store & (spans["name"][root] == dispatch)).sum())


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    client_self_s: float,
    max_batch: int,
    cache_hits: int,
    cache_misses: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced session."""
    own = self_time_by_name(tracer)
    total = total_by_name(tracer)
    count = count_by_name(tracer)
    keys = tracer.keys
    metrics = {
        metric: sum(own[name] for name in names) for metric, names in _SELF.items()
    }
    wait_p50, __ = percentile(tracer.queue_waits, 50)
    wait_p99, __ = percentile(tracer.queue_waits, 99)
    dispatches = count["serve.batcher.dispatch"]
    routed = keys["service.router.route_batch"]
    failover = count["hashing.route_word_replicas"]
    metrics.update(
        {
            "serve.batcher.queue_wait_p50_ms": wait_p50 * 1e3,
            "serve.batcher.queue_wait_p99_ms": wait_p99 * 1e3,
            "serve.batcher.batch_fill": _ratio(
                sum(tracer.batch_sizes), dispatches * max_batch
            ),
            "serve.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
            "store.dataplane.keys": sum(
                keys[name] for name in _SELF["store.dataplane.self_s"]
            ),
            "store.store.calls_per_batch": _ratio(
                _store_calls_under_dispatch(tracer), dispatches
            ),
            "hashfn.keys": keys["hashfn.words"],
            "hashing.keys_per_call": _ratio(
                keys["hashing.route_batch"], count["hashing.route_batch"]
            ),
            "service.router.failover_keys": failover,
            "service.router.failover_ratio": _ratio(failover, routed),
            "service.router.sync_s": total["service.router.sync"],
            "service.migration.ticks": count["service.migration.tick"],
            "service.migration.verify_s": total["service.migration.verify"],
            "client.self_s": client_self_s,
            "loop.residual_s": wall_s - root_time(tracer) - client_self_s,
            "trace.wall_s": wall_s,
            "trace.spans": len(tracer),
        }
    )
    return metrics
