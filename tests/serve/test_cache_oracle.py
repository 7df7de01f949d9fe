"""LRU-oracle property suite for the array-backed hot-key cache.

The columnar :class:`~repro.serve.HotKeyCache` promises bit-equivalence
with a plain ``OrderedDict`` LRU on *every* op sequence -- scalar ops,
bulk ops, and any interleaving -- covering contents, eviction (LRU)
order, and the hit/miss/eviction/invalidation counters.  This suite
drives random schedules of get/put/invalidate/flush (scalar and bulk,
including capacity 1, duplicate keys inside one batch, and invalidation
mid-stream) against the reference implementation below and asserts the
full observable state after every step.  The serving-scale schedules
(capacity 1,024-4,096, 256-key batches) reach the columnar eviction
path of ``put_many`` and its counted per-eviction walk.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.serve import HotKeyCache

_ABSENT = object()


class OracleLRU:
    """The pre-columnar implementation: OrderedDict + move_to_end."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key, default=None):
        value = self.entries.get(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            return default
        self.hits += 1
        self.entries.move_to_end(key)
        return value

    def put(self, key, value):
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key):
        if self.entries.pop(key, _ABSENT) is _ABSENT:
            return False
        self.invalidations += 1
        return True

    def flush(self):
        dropped = len(self.entries)
        self.entries.clear()
        self.invalidations += dropped
        return dropped

    def keys(self):
        return tuple(self.entries)


def assert_equivalent(cache: HotKeyCache, oracle: OracleLRU) -> None:
    """Full observable-state equality: contents, LRU order, counters."""
    assert len(cache) == len(oracle.entries)
    assert cache.keys() == oracle.keys()
    for key, value in oracle.entries.items():
        assert key in cache
        assert cache.peek(key, _ABSENT) is value
    assert cache.hits == oracle.hits
    assert cache.misses == oracle.misses
    assert cache.evictions == oracle.evictions
    assert cache.invalidations == oracle.invalidations


def drive(cache, oracle, rng, steps, universe, batch_max=24):
    """One random schedule over both implementations, checked stepwise."""
    for step in range(steps):
        op = rng.integers(0, 8)
        if op <= 1:  # scalar get
            key = int(rng.integers(0, universe))
            assert cache.get(key, _ABSENT) is oracle.get(key, _ABSENT)
        elif op == 2:  # scalar put
            key = int(rng.integers(0, universe))
            value = object()
            cache.put(key, value)
            oracle.put(key, value)
        elif op == 3:  # bulk get (duplicates allowed)
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            values, found = cache.get_many(keys, default=_ABSENT)
            expected = [oracle.get(key, _ABSENT) for key in keys]
            assert list(found) == [want is not _ABSENT for want in expected]
            for got, want in zip(values, expected):
                assert got is want
        elif op == 4:  # bulk put (duplicates allowed)
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            values = [object() for __ in keys]
            cache.put_many(keys, values)
            for key, value in zip(keys, values):
                oracle.put(key, value)
        elif op == 5:  # scalar invalidate
            key = int(rng.integers(0, universe))
            assert cache.invalidate(key) == oracle.invalidate(key)
        elif op == 6:  # bulk invalidate mid-stream
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            evicted = cache.invalidate_many(keys)
            assert evicted == sum(oracle.invalidate(key) for key in keys)
        else:  # occasional flush
            if rng.integers(0, 10) == 0:
                assert cache.flush() == oracle.flush()
        assert_equivalent(cache, oracle)


class TestOracleEquivalence:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, capacity, seed):
        rng = np.random.default_rng(1000 * capacity + seed)
        cache = HotKeyCache(capacity)
        oracle = OracleLRU(capacity)
        # A universe a few times the capacity keeps hits, misses,
        # evictions and re-puts of just-evicted keys all frequent.
        drive(cache, oracle, rng, steps=220, universe=3 * capacity + 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_larger_than_capacity(self, seed):
        # Batches wider than the whole cache: every put_many overflows,
        # and a key can be inserted, evicted and re-inserted inside ONE
        # batch -- the sequential eviction schedule must be reproduced
        # event for event.
        rng = np.random.default_rng(77 + seed)
        cache = HotKeyCache(4)
        oracle = OracleLRU(4)
        drive(cache, oracle, rng, steps=150, universe=10, batch_max=13)

    def test_capacity_one_duplicate_batch(self):
        cache = HotKeyCache(1)
        oracle = OracleLRU(1)
        values = [object() for __ in range(4)]
        keys = ["a", "b", "a", "a"]
        cache.put_many(keys, values)
        for key, value in zip(keys, values):
            oracle.put(key, value)
        assert_equivalent(cache, oracle)
        assert cache.keys() == ("a",)
        assert cache.peek("a") is values[-1]

    def test_bulk_equals_scalar_sequences(self):
        # The same op stream issued bulk on one cache and scalar on
        # another must leave identical observable state.
        rng = np.random.default_rng(5)
        bulk = HotKeyCache(8)
        scalar = HotKeyCache(8)
        for __ in range(60):
            keys = [int(key) for key in rng.integers(0, 20, 9)]
            values = [object() for __ in keys]
            bulk.put_many(keys, values)
            for key, value in zip(keys, values):
                scalar.put(key, value)
            probes = [int(key) for key in rng.integers(0, 20, 7)]
            got, found = bulk.get_many(probes, default=_ABSENT)
            for position, key in enumerate(probes):
                want = scalar.get(key, _ABSENT)
                assert got[position] is want
                assert bool(found[position]) == (want is not _ABSENT)
            drops = [int(key) for key in rng.integers(0, 20, 3)]
            assert bulk.invalidate_many(drops) == sum(
                scalar.invalidate(key) for key in drops
            )
            assert bulk.keys() == scalar.keys()
            assert (bulk.hits, bulk.misses, bulk.evictions) == (
                scalar.hits,
                scalar.misses,
                scalar.evictions,
            )


class TestBulkSurfaces:
    def test_get_many_shapes_and_defaults(self):
        cache = HotKeyCache(8)
        cache.put_many(["a", "b"], [1, None])
        values, found = cache.get_many(["a", "b", "ghost"])
        assert list(found) == [True, True, False]
        assert values[0] == 1
        assert values[1] is None  # cached None is a hit, not a default
        assert values[2] is None
        values, found = cache.get_many(["ghost"], default="d")
        assert values[0] == "d" and not found[0]
        values, found = cache.get_many([])
        assert values.shape == (0,) and found.shape == (0,)

    def test_get_many_duplicate_key_counts_each_position(self):
        cache = HotKeyCache(4)
        cache.put("k", "v")
        values, found = cache.get_many(["k", "k", "nope"])
        assert cache.hits == 2 and cache.misses == 1
        assert list(found) == [True, True, False]

    def test_put_many_rejects_misaligned_batches(self):
        cache = HotKeyCache(4)
        with pytest.raises(ValueError, match="aligned"):
            cache.put_many(["a"], [1, 2])

    def test_put_many_array_values_stay_intact(self):
        # Stored values may be numpy arrays; the scatter must never
        # broadcast them elementwise.
        cache = HotKeyCache(4)
        payload = [np.arange(3), np.arange(5)]
        cache.put_many(["a", "b"], payload)
        assert cache.peek("a") is payload[0]
        assert cache.peek("b") is payload[1]
        values, found = cache.get_many(["b"])
        assert values[0] is payload[1] and found[0]

    def test_key_set_is_membership_view(self):
        cache = HotKeyCache(4)
        cache.put_many(["a", "b"], [1, 2])
        assert cache.key_set() == {"a", "b"}
        cache.invalidate("a")
        assert cache.key_set() == {"b"}


#: Serving-scale batch width (the micro-batcher's default flush size).
SERVING_BATCH = 256

#: Key spellings the serving tier accepts.
KEY_KINDS = {
    "int": int,
    "str": "key-{}".format,
    "bytes": lambda index: b"key-%d" % index,
}


def put_both(cache, oracle, keys, values):
    cache.put_many(keys, values)
    for key, value in zip(keys, values):
        oracle.put(key, value)


def full_pair(capacity, make_key=int, fill=None):
    """A cache and its oracle holding keys ``0..fill-1`` (default full)."""
    cache = HotKeyCache(capacity)
    oracle = OracleLRU(capacity)
    keys = [make_key(index) for index in range(capacity if fill is None else fill)]
    put_both(cache, oracle, keys, [object() for __ in keys])
    return cache, oracle


class TestServingScaleEviction:
    """Full caches of 1,024-4,096 entries absorbing 256-key batches."""

    @pytest.mark.parametrize("capacity", [1024, 4096])
    def test_all_new_batches_stay_columnar(self, capacity):
        cache, oracle = full_pair(capacity)
        fresh = iter(range(capacity, 10 * capacity))
        for __ in range(6):
            keys = [next(fresh) for __ in range(SERVING_BATCH)]
            put_both(cache, oracle, keys, [object() for __ in keys])
            assert_equivalent(cache, oracle)
        assert cache.evictions == 6 * SERVING_BATCH
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0

    @pytest.mark.parametrize("capacity", [1024, 4096])
    def test_lru_tail_after_new_keys_walks(self, capacity):
        # The LRU entries are touched only after the new keys that
        # evict them: sequential puts evict them first and re-insert
        # them on their touch, which only the per-eviction walk follows.
        cache, oracle = full_pair(capacity)
        new = list(range(capacity, capacity + 200))
        tail = list(oracle.keys()[:40])
        keys = new + tail
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.walked_fills == 1
        assert cache.sequential_fills == 0

    @pytest.mark.parametrize("capacity", [1024, 4096])
    def test_lru_tail_before_new_keys_stays_columnar(self, capacity):
        # Touched before any eviction, the tail entries are refreshed
        # out of the victims' way and the next-oldest entries go.
        cache, oracle = full_pair(capacity)
        tail = list(oracle.keys()[:40])
        keys = tail + list(range(capacity, capacity + 216))
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0

    def test_touch_before_the_eviction_that_reaches_it_stays_columnar(self):
        # The odd-ranked LRU entries are touched, each right after the
        # new key that evicts the even-ranked entry below it and so
        # before the eviction that would reach it.
        cache, oracle = full_pair(1024)
        tail = oracle.keys()
        keys = []
        for offset in range(SERVING_BATCH // 2):
            keys += [1024 + offset, tail[2 * offset + 1]]
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0

    def test_touch_after_the_eviction_that_reaches_it_walks(self):
        # One new key earlier, and every odd-ranked entry is the LRU
        # when the new key in front of its touch arrives.
        cache, oracle = full_pair(1024)
        tail = oracle.keys()
        keys = [1024]
        for offset in range(SERVING_BATCH // 2):
            keys += [1025 + offset, tail[2 * offset + 1]]
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.walked_fills == 1
        assert cache.sequential_fills == 0

    def test_reinserted_keys_recur_later_in_the_batch(self):
        # Every LRU-tail key is evicted by the new keys in front of it,
        # re-inserted at its first touch (evicting once more), then hit
        # again as a batch entry after more new keys.
        cache, oracle = full_pair(1024)
        tail = list(oracle.keys()[:64])
        keys = list(range(1024, 1152)) + tail + list(range(2048, 2080)) + tail[::2]
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.evictions == 128 + 64 + 32
        assert cache.walked_fills == 1
        assert cache.sequential_fills == 0

    def test_batch_wider_than_the_cache_replays_scalar_puts(self):
        # A batch that evicts more pre-batch entries than the cache
        # holds outruns the walk; sequential puts then evict entries
        # the batch itself installed.
        cache, oracle = full_pair(64)
        keys = list(range(64, 64 + 200)) + list(range(0, 64, 3))
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.sequential_fills == 1

    @pytest.mark.parametrize("capacity", [1024, 4096])
    def test_duplicate_new_keys(self, capacity):
        cache, oracle = full_pair(capacity)
        distinct = list(range(capacity, capacity + 100))
        rng = np.random.default_rng(capacity)
        keys = distinct + [int(key) for key in rng.choice(distinct, 156)]
        rng.shuffle(keys)
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.evictions == len(set(keys))
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0

    @pytest.mark.parametrize("capacity", [1024, 4096])
    def test_partial_free_room_plus_evictions(self, capacity):
        cache, oracle = full_pair(capacity, fill=capacity - 100)
        cache.invalidate_many(range(0, 300, 3))
        for key in range(0, 300, 3):
            oracle.invalidate(key)
        keys = list(range(capacity, capacity + SERVING_BATCH))
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)
        assert cache.evictions == SERVING_BATCH - 200
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0
        # The freed slots were reused: the next batch evicts in full.
        keys = list(range(2 * capacity, 2 * capacity + SERVING_BATCH))
        put_both(cache, oracle, keys, [object() for __ in keys])
        assert_equivalent(cache, oracle)

    @pytest.mark.parametrize("kind", sorted(KEY_KINDS))
    @pytest.mark.parametrize("capacity", [1024, 4096])
    @pytest.mark.parametrize("seed", range(2))
    def test_random_serving_schedules(self, kind, capacity, seed):
        # Read-then-install batches over a universe 3x the cache.  Even
        # steps splice LRU-tail keys in at random positions (mostly the
        # walk); odd steps mix uncached keys, duplicates and most-recent
        # entries (the single victim pick).
        make_key = KEY_KINDS[kind]
        rng = np.random.default_rng(97 * capacity + seed)
        cache, oracle = full_pair(capacity, make_key)
        universe = 3 * capacity
        steps = 24
        for step in range(steps):
            drawn = [make_key(int(key)) for key in rng.integers(0, universe, 192)]
            if step % 2:
                keys = [key for key in drawn if key not in oracle.entries]
                spliced = oracle.keys()[-SERVING_BATCH:] + tuple(keys)
            else:
                keys = drawn
                spliced = oracle.keys()[: 2 * SERVING_BATCH]
            for index in rng.choice(len(spliced), SERVING_BATCH - len(keys)):
                position = int(rng.integers(0, len(keys) + 1))
                keys.insert(position, spliced[index])
            probes = keys[::4]
            values, found = cache.get_many(probes, default=_ABSENT)
            for got, key in zip(values, probes):
                assert got is oracle.get(key, _ABSENT)
            put_both(cache, oracle, keys, [object() for __ in keys])
            assert_equivalent(cache, oracle)
        assert 0 < cache.walked_fills < steps
        assert cache.sequential_fills == 0

    @pytest.mark.parametrize(
        "make_value",
        [lambda index: np.arange(index, index + 3), lambda index: (index, -index)],
        ids=["arrays", "tuples"],
    )
    def test_equal_length_values_are_not_broadcast(self, make_value):
        cache, oracle = full_pair(1024)
        keys = list(range(1024, 1024 + SERVING_BATCH))
        values = [make_value(key) for key in keys]
        put_both(cache, oracle, keys, values)
        assert_equivalent(cache, oracle)
        assert cache.walked_fills == 0
        assert cache.sequential_fills == 0
        for key, value in zip(keys, values):
            assert cache.peek(key) is value
        # The same through an object array, the read path's install shape.
        column = np.empty(SERVING_BATCH, dtype=object)
        column[:] = [make_value(-key) for key in keys]
        fresh = list(range(4096, 4096 + SERVING_BATCH))
        put_both(cache, oracle, fresh, column)
        assert_equivalent(cache, oracle)
        for key, value in zip(fresh, column):
            assert cache.peek(key) is value
