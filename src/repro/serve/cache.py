"""The hot-key cache: an array-backed LRU with *epoch-based* invalidation.

Zipfian traffic concentrates on a small hot set, so a small LRU in
front of the :class:`~repro.store.DataPlane` absorbs most reads.  The
hard part is staying correct while membership changes underneath: after
a resize epoch, a remapped key's routed read would miss (the key is in
flight to its new owner), so serving it from cache would diverge from
what the data plane answers.  The router already names exactly the
remapped keys -- every epoch's :class:`~repro.service.migration.
MigrationPlan` is built from the same assignment diff as the remap
accounting -- so the cache evicts precisely those keys and keeps the
rest warm.  No blanket flush, no stale entry; see
:class:`~repro.serve.frontend.EpochInvalidator` for the wiring.

Write semantics are write-through: a put refreshes the cached value, a
delete evicts it, so a cached read can never observe an overwritten
value.

The layout is columnar, sized to the serving tier's batch dispatch: a
plain ``dict`` maps key -> slot, and three capacity-length arrays hold
each slot's key, value and *recency stamp* (a monotonic counter ticked
once per touch).  The LRU entry is the live slot with the lowest stamp,
so recency refreshes are bulk fancy-index writes and batch reads are
one C-level ``dict.get`` sweep plus one gather.  A fill into a full
cache picks all its victims with one ``argpartition`` of the stamp
column -- the lowest-stamp entries the batch does not touch -- and
installs the batch with bulk dict and array writes.  A batch that
evicts an entry before touching it (sequential puts then re-insert it)
instead walks its evictions one by one over the lowest stamps, counted
in ``walked_fills``, and still installs in bulk.  The bulk
entry points are bit-equivalent to their scalar counterparts issued in
sequence -- contents, eviction order *and* hit/miss/eviction counters
-- which ``tests/serve/test_cache_oracle.py`` pins against an
``OrderedDict`` reference on random and serving-scale schedules.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import repeat
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key

__all__ = ["HotKeyCache"]

#: Sentinel distinguishing "cached None" from "absent".
_ABSENT = object()

#: Default hot-set capacity.
DEFAULT_CAPACITY = 4_096

#: Stamp parked on free slots -- above every live stamp, so victim
#: selection over the raw stamp column can never pick an empty slot.
_FREE = np.iinfo(np.int64).max


class HotKeyCache:
    """Bounded LRU of hot keys with exact, epoch-driven invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._capacity = int(capacity)
        self._slots: dict = {}
        self._keys = np.empty(self._capacity, dtype=object)
        self._values = np.empty(self._capacity, dtype=object)
        self._stamps = np.full(self._capacity, _FREE, dtype=np.int64)
        #: Free slots, consumed LIFO; empty exactly when the cache is full.
        self._free: List[int] = list(range(self._capacity - 1, -1, -1))
        #: Monotonic recency clock; every touch (hit or put) takes a tick.
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: ``put_many`` batches whose victims one ``argpartition`` could
        #: not name, walked one eviction at a time instead.
        self.walked_fills = 0
        #: ``put_many`` batches replayed as scalar puts: the walk ran past
        #: every pre-batch entry (only a cache narrower than the batch).
        self.sequential_fills = 0

    # -- introspection ----------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Key) -> bool:
        return key in self._slots

    def __repr__(self) -> str:
        return "HotKeyCache(size={}, capacity={}, hit_rate={:.3f})".format(
            len(self._slots), self._capacity, self.hit_rate
        )

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def keys(self) -> Tuple[Key, ...]:
        """Cached keys, least recently used first."""
        if not self._slots:
            return ()
        live = np.fromiter(
            self._slots.values(), dtype=np.int64, count=len(self._slots)
        )
        order = np.argsort(self._stamps[live])
        return tuple(self._keys[live[order]])

    def key_set(self) -> frozenset:
        """The cached key set (no order, no copy of the arrays).

        The epoch invalidator intersects each migration plan's moved
        keys against this before evicting, so a million-key plan over a
        few-thousand-entry cache costs one C-level membership sweep
        instead of a million Python-level pops.
        """
        return frozenset(self._slots)

    # -- read path ---------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Cached value (refreshing recency) or ``default`` on a miss."""
        slot = self._slots.get(key, -1)
        if slot < 0:
            self.misses += 1
            return default
        self.hits += 1
        self._stamps[slot] = self._clock
        self._clock += 1
        return self._values[slot]

    def get_many(
        self, keys: Sequence[Key], default: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`get`: ``(values, found)`` aligned to ``keys``.

        One C-level ``dict.get`` sweep resolves slots, one gather pulls
        the hit values, and every hit's recency stamp is assigned in
        bulk (duplicate keys in one batch: the later position wins,
        exactly as sequential gets would leave it).  Misses carry
        ``default`` in ``values``.  Counter accounting matches the
        scalar loop: one hit or miss per position.
        """
        n = len(keys)
        values = np.empty(n, dtype=object)
        if n == 0:
            return values, np.zeros(0, dtype=bool)
        slots = np.fromiter(
            map(self._slots.get, keys, repeat(-1)), dtype=np.int64, count=n
        )
        found = slots >= 0
        hit_count = int(np.count_nonzero(found))
        self.hits += hit_count
        self.misses += n - hit_count
        if hit_count:
            hit_slots = slots[found]
            values[found] = self._values[hit_slots]
            self._stamps[hit_slots] = np.arange(
                self._clock, self._clock + hit_count, dtype=np.int64
            )
            self._clock += hit_count
        if default is not None and hit_count < n:
            values[~found] = default
        return values, found

    def peek(self, key: Key, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        slot = self._slots.get(key, -1)
        return default if slot < 0 else self._values[slot]

    # -- write path --------------------------------------------------------

    def put(self, key: Key, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU past capacity."""
        slot = self._slots.get(key, -1)
        if slot < 0:
            if self._free:
                slot = self._free.pop()
            else:
                slot = self._evict_lru()
            self._slots[key] = slot
            self._keys[slot] = key
        self._values[slot] = value
        self._stamps[slot] = self._clock
        self._clock += 1

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """Batched :meth:`put`, bit-equivalent to the sequential loop.

        The batch's distinct new keys take the free slots first (in
        scalar LIFO pop order), then the victims :meth:`_pick_victims`
        names, and the batch lands as bulk dict and array writes.
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(n, len(values))
            )
        slots_map = self._slots
        slots = np.fromiter(
            map(slots_map.get, keys, repeat(-1)), dtype=np.int64, count=n
        )
        new_positions = np.flatnonzero(slots < 0)
        if new_positions.size:
            batch_new = [keys[position] for position in new_positions.tolist()]
            new_keys = list(dict.fromkeys(batch_new))
            free = self._free
            keep = max(len(free) - len(new_keys), 0)
            claimed = np.array(free[keep:][::-1], dtype=np.int64)
            if len(new_keys) > len(claimed):
                picked = self._pick_victims(
                    keys, slots, batch_new, new_positions, new_keys[len(claimed) :]
                )
                if picked is None:
                    self.sequential_fills += 1
                    for key, value in zip(keys, values):
                        self.put(key, value)
                    return
                victims, installed = picked
                for victim in self._keys[victims].tolist():
                    del slots_map[victim]
                self.evictions += len(victims)
                new_keys = new_keys[: len(claimed)] + installed
                claimed = np.concatenate((claimed, victims))
            del free[keep:]
            slots_map.update(zip(new_keys, claimed.tolist()))
            self._keys[claimed] = np.fromiter(
                new_keys, dtype=object, count=len(new_keys)
            )
            slots = np.fromiter(
                map(slots_map.__getitem__, keys), dtype=np.int64, count=n
            )
        # fromiter stores each value as one object -- equal-length
        # arrays or tuples are never broadcast into the column (object
        # dtype needs NumPy 1.23, the floor pyproject.toml declares).
        self._values[slots] = np.fromiter(values, dtype=object, count=n)
        self._stamps[slots] = np.arange(
            self._clock, self._clock + n, dtype=np.int64
        )
        self._clock += n

    def _pick_victims(
        self,
        keys: Sequence[Key],
        slots: np.ndarray,
        batch_new: List[Key],
        new_positions: np.ndarray,
        evicting_keys: List[Key],
    ) -> Optional[Tuple[np.ndarray, List[Key]]]:
        """The slots a full cache evicts for ``keys`` and the keys taking them.

        Each of ``evicting_keys`` (the new keys past the free room)
        evicts the LRU entry at its first position.  Touched entries
        take batch stamps, above every pre-batch stamp, so the victims
        are the lowest-stamp entries the batch leaves untouched (one
        ``argpartition``) -- unless a touched entry below the last
        victim is first touched after the eviction that reaches it
        (``searchsorted`` over the victim stamps), or too few stay
        untouched: then :meth:`_walk_victims` replays the evictions.
        """
        evict = len(evicting_keys)
        stamps = self._stamps
        hit_positions = np.flatnonzero(slots >= 0)
        hit_slots = slots[hit_positions]
        untouched = stamps.copy()
        untouched[hit_slots] = _FREE
        pick = min(evict, self._capacity)
        victims = np.argpartition(untouched, pick - 1)[:pick]
        victims = victims[np.argsort(untouched[victims])]
        victim_stamps = untouched[victims]
        hit_stamps = stamps[hit_slots]
        below = np.flatnonzero(hit_stamps < victim_stamps[-1])
        fits = pick == evict and victim_stamps[-1] != _FREE
        if fits and not below.size:
            return victims, evicting_keys
        first_position = dict(
            zip(reversed(batch_new), reversed(new_positions.tolist()))
        )
        events = np.fromiter(
            map(first_position.__getitem__, evicting_keys), dtype=np.int64
        )
        if fits and np.all(
            hit_positions[below]
            < events[np.searchsorted(victim_stamps, hit_stamps[below])]
        ):
            return victims, evicting_keys
        self.walked_fills += 1
        return self._walk_victims(keys, hit_positions, hit_slots, events.tolist())

    def _walk_victims(
        self,
        keys: Sequence[Key],
        hit_positions: np.ndarray,
        hit_slots: np.ndarray,
        events: List[int],
    ) -> Optional[Tuple[np.ndarray, List[Key]]]:
        """Replay the evictions at the ascending positions ``events``.

        The LRU pointer walks pre-batch entries in stamp order, skipping
        each one touched before the eviction that reaches it; an entry
        evicted before its first touch is re-inserted there, one more
        eviction.  Each position consumes at most one entry, so the
        ``len(keys) + 1`` lowest stamps cover the walk; ``None`` when it
        runs past every live entry (only a cache narrower than the batch).
        """
        n = len(keys)
        stamps = self._stamps
        touch = np.full(self._capacity, n, dtype=np.int64)
        touch[hit_slots[::-1]] = hit_positions[::-1]
        pool = np.argpartition(stamps, min(n, self._capacity - 1))[: n + 1]
        pool = pool[np.argsort(stamps[pool])]
        pool = pool[stamps[pool] != _FREE].tolist()
        pool_touch = touch[pool].tolist()
        victims: List[int] = []
        installed: List[Key] = []
        cursor = 0
        while events:
            position = heappop(events)
            while cursor < len(pool) and pool_touch[cursor] < position:
                cursor += 1
            if cursor == len(pool):
                return None
            victims.append(pool[cursor])
            installed.append(keys[position])
            if pool_touch[cursor] < n:
                heappush(events, pool_touch[cursor])
            cursor += 1
        return np.array(victims, dtype=np.int64), installed

    def _evict_lru(self) -> int:
        """Drop the lowest-stamp entry; returns its now-reusable slot.

        Only called with the cache full, so every slot is live and the
        raw ``argmin`` over the stamp column is the LRU entry.
        """
        slot = int(np.argmin(self._stamps))
        del self._slots[self._keys[slot]]
        self._keys[slot] = None
        self._values[slot] = None
        self.evictions += 1
        return slot

    def _release(self, slot: int) -> None:
        """Return a slot to the free pool (invalidation/flush path)."""
        self._keys[slot] = None
        self._values[slot] = None
        self._stamps[slot] = _FREE
        self._free.append(slot)

    def invalidate(self, key: Key) -> bool:
        """Drop one entry; True when it was cached."""
        slot = self._slots.pop(key, -1)
        if slot < 0:
            return False
        self._release(slot)
        self.invalidations += 1
        return True

    def invalidate_many(self, keys: Iterable[Key]) -> int:
        """Drop exactly ``keys``; returns how many were actually cached.

        This is the epoch path: fed the (pre-intersected, see
        :meth:`key_set`) moved-key set of a migration plan, it evicts
        precisely the entries whose routing changed and leaves every
        other hot entry warm.  One dict pop per key, one counter update
        per call.
        """
        pop = self._slots.pop
        release = self._release
        evicted = 0
        for key in keys:
            slot = pop(key, -1)
            if slot >= 0:
                release(slot)
                evicted += 1
        self.invalidations += evicted
        return evicted

    def flush(self) -> int:
        """Drop everything; returns the number of entries dropped.

        The blanket fallback -- correct but cold.  The serving tier
        only takes it when an epoch closes with *no* tracked probe
        population, i.e. when the remapped-key set is unknowable.
        """
        dropped = len(self._slots)
        if dropped:
            self._slots.clear()
            self._keys[:] = None
            self._values[:] = None
            self._stamps[:] = _FREE
            self._free = list(range(self._capacity - 1, -1, -1))
            self.invalidations += dropped
        return dropped
