"""Coherence of the HD table's per-position inference memo.

Every answer must equal an uncached sweep over the live bytes that
``memory_regions()`` exposes at call time, whatever happened since the
memo was filled: joins, leaves, bit flips in the item memory or an
exposed codebook, region restores and snapshot round-trips.  The memo
may skip work only while those bytes are unchanged, and every clear and
fill is counted.
"""

import numpy as np
import pytest

from repro.errors import ReplicaCountError
from repro.hashing import HDHashTable
from repro.hashing.base import DynamicHashTable
from repro.hdc.basis import BasisSet
from repro.hdc.item_memory import ItemMemory
from repro.hdc.packing import as_words, nearest_rows_words, top_k_rows_words

from ..conftest import populate

#: Small tables: few circle nodes, so positions repeat within a batch.
CONFIG = dict(seed=7, dim=256, codebook_size=64)


def _table(**kwargs):
    return HDHashTable(**dict(CONFIG, **kwargs))


def _live_bytes(table):
    """The codebook and item-memory bytes the table routes from now."""
    regions = {region.name: region.array for region in table.memory_regions()}
    codebook = regions.get("codebook", table.codebook.packed())
    return as_words(codebook), as_words(regions["item_memory"])


def _positions(table, words):
    words = np.asarray(words, dtype=np.uint64)
    return (words % np.uint64(table.codebook_size)).astype(np.int64)


def _oracle_route(table, words):
    codebook, memory = _live_bytes(table)
    queries = codebook[_positions(table, words)]
    return nearest_rows_words(queries, memory, table.item_memory.backend)


def _oracle_replicas(table, words, k):
    codebook, memory = _live_bytes(table)
    queries = codebook[_positions(table, words)]
    slots, __ = top_k_rows_words(queries, memory, k, table.item_memory.backend)
    return slots


def _assert_coherent(table, words, k):
    """Every memo-served entry point against the uncached oracle."""
    slots, distances = _oracle_route(table, words)
    assert np.array_equal(table.route_batch(words), slots)
    assert np.array_equal(table._delta_scores(words), -distances)
    word = int(words[0])
    assert table.route_word(word) == slots[0]
    replicas = _oracle_replicas(table, words, k)
    assert np.array_equal(table.route_replicas_batch(words, k), replicas)
    assert np.array_equal(table.route_word_replicas(word, k), replicas[0])


class _SweepCounter:
    """Records the query-row count of every item-memory kernel sweep."""

    def __init__(self, monkeypatch):
        self.rows = []
        nearest = ItemMemory.query_batch_words
        top_k = ItemMemory.query_top_k_words

        def count_nearest(memory, query_words, **kwargs):
            self.rows.append(np.atleast_2d(query_words).shape[0])
            return nearest(memory, query_words, **kwargs)

        def count_top_k(memory, query_words, k, **kwargs):
            self.rows.append(np.atleast_2d(query_words).shape[0])
            return top_k(memory, query_words, k, **kwargs)

        monkeypatch.setattr(ItemMemory, "query_batch_words", count_nearest)
        monkeypatch.setattr(ItemMemory, "query_top_k_words", count_top_k)


@pytest.mark.parametrize("seed", range(6))
def test_random_interleavings_match_the_uncached_oracle(seed):
    rng = np.random.default_rng(seed)
    table = populate(_table(expose_codebook=bool(seed % 2)), 6, prefix="s")
    # A small pool of words keeps positions repeating across calls, so
    # most answers come from the memo rather than a fresh sweep.
    pool = rng.integers(0, 2**64, 48, dtype=np.uint64)
    next_server = 6
    saved = None  # (region name, membership at snapshot, snapshot bytes)
    for __ in range(150):
        regions = {region.name: region for region in table.memory_regions()}
        op = rng.integers(8)
        if op == 0 and table.server_count < 12:
            table.join("s{}".format(next_server))
            next_server += 1
        elif op == 1 and table.server_count > 2:
            before = table.server_count
            table.leave(table.server_ids[rng.integers(before)])
            # A k valid a moment ago can now exceed the fleet.
            with pytest.raises(ReplicaCountError):
                table.route_replicas_batch(pool[:4], before)
            with pytest.raises(ReplicaCountError):
                table.route_word_replicas(int(pool[0]), before)
        elif op == 2:
            names = sorted(regions)
            region = regions[names[rng.integers(len(names))]]
            if rng.integers(2):
                saved = (region.name, table.server_ids, region.snapshot())
            region.flip(int(rng.integers(region.n_bits)))
        elif op == 3 and saved is not None:
            name, members, snapshot = saved
            if members == table.server_ids:
                regions[name].restore(snapshot)
            saved = None
        elif op == 4:
            table = DynamicHashTable.from_state(table.state_dict())
            saved = None
        words = pool[rng.integers(pool.size, size=int(rng.integers(1, 40)))]
        if rng.integers(4) == 0:
            words = rng.integers(0, 2**64, 30, dtype=np.uint64)
        k = int(rng.integers(1, table.server_count + 1))
        _assert_coherent(table, words, k)


def test_k_valid_before_a_leave_is_rejected_after_it():
    table = populate(_table(), 5)
    words = np.arange(40, dtype=np.uint64)
    _assert_coherent(table, words, 5)
    table.leave(2)
    with pytest.raises(ReplicaCountError):
        table.route_replicas_batch(words, 5)
    _assert_coherent(table, words, 4)


def test_widest_ranking_serves_every_smaller_k(monkeypatch):
    table = populate(_table(), 8)
    words = np.arange(64, dtype=np.uint64)
    table.route_replicas_batch(words, 6)
    sweeps = _SweepCounter(monkeypatch)
    for k in range(1, 7):
        assert np.array_equal(
            table.route_replicas_batch(words, k), _oracle_replicas(table, words, k)
        )
    assert sweeps.rows == []
    table.route_replicas_batch(words, 7)  # wider: refilled at the new width
    assert sweeps.rows == [64]


class TestKernelCounts:
    def test_repeated_calls_on_unchanged_state_run_no_sweep(self, monkeypatch):
        table = populate(_table(), 8)
        words = np.asarray([3, 9, 3, 70, 9, 3], dtype=np.uint64)
        table.route_batch(words)
        table.route_replicas_batch(words, 3)
        sweeps = _SweepCounter(monkeypatch)
        table.route_batch(words)
        table.route_word(9)
        table.route_replicas_batch(words, 3)
        table.route_word_replicas(70, 2)
        table._delta_scores(words)
        assert sweeps.rows == []

    def test_after_a_flip_only_the_positions_read_are_swept(self, monkeypatch):
        table = populate(_table(), 8)
        table.route_batch(np.arange(64, dtype=np.uint64))  # every position
        table.memory_regions()[0].flip(5)
        sweeps = _SweepCounter(monkeypatch)
        words = np.asarray([3, 9, 3, 73, 9, 3], dtype=np.uint64)  # 73 % 64 == 9
        assert np.array_equal(table.route_batch(words), _oracle_route(table, words)[0])
        assert sweeps.rows == [2]

    def test_only_unknown_positions_are_swept(self, monkeypatch):
        table = populate(_table(), 8)
        table.route_batch(np.asarray([1, 2], dtype=np.uint64))
        sweeps = _SweepCounter(monkeypatch)
        table.route_batch(np.asarray([1, 2, 3, 4, 3], dtype=np.uint64))
        assert sweeps.rows == [2]


class TestCounters:
    def test_a_flip_clears_the_memo_exactly_once(self):
        table = populate(_table(), 8)
        words = np.arange(200, dtype=np.uint64)
        table.route_batch(words)
        clears = table.memo_clears
        table.memory_regions()[0].flip(11)
        for __ in range(3):
            table.route_batch(words)
            table.route_replicas_batch(words, 2)
        assert table.memo_clears == clears + 1

    def test_fills_count_the_positions_swept(self):
        table = populate(_table(), 8)
        fills = table.memo_fills
        table.route_batch(np.asarray([5, 6, 5, 69], dtype=np.uint64))
        assert table.memo_fills == fills + 2
        table.route_batch(np.asarray([5, 6], dtype=np.uint64))
        assert table.memo_fills == fills + 2

    def test_membership_events_clear_the_memo(self):
        table = populate(_table(), 4)
        table.route_word(1)
        clears = table.memo_clears
        table.join("late")
        table.route_word(1)
        table.leave("late")
        table.route_word(1)
        assert table.memo_clears == clears + 2

    def test_a_flip_undone_before_the_next_call_keeps_the_memo(self):
        # Answers depend on bytes only: the same bytes, the same memo.
        table = populate(_table(), 8)
        table.route_word(1)
        clears = table.memo_clears
        region = table.memory_regions()[0]
        region.flip(3)
        region.flip(3)
        table.route_word(1)
        assert table.memo_clears == clears


class TestExposedCodebook:
    def test_codebook_flip_is_seen_when_its_row_is_read(self):
        table = populate(_table(expose_codebook=True), 8)
        words = np.arange(64, dtype=np.uint64)
        table.route_batch(words)
        clears = table.memo_clears
        codebook = next(
            region for region in table.memory_regions() if region.name == "codebook"
        )
        for bit in range(0, 256, 2):  # half of row 0: enough to move it
            codebook.flip(bit)
        assert table.route_word(1) == _oracle_route(table, [1])[0][0]
        assert table.memo_clears == clears  # row 0 not read yet
        assert np.array_equal(table.route_batch(words), _oracle_route(table, words)[0])
        assert table.memo_clears == clears + 1

    def test_restore_of_a_corrupted_snapshot_routes_like_the_source(self):
        table = populate(_table(expose_codebook=True), 8)
        words = np.arange(64, dtype=np.uint64)
        table.route_batch(words)
        for region in table.memory_regions():
            for bit in range(0, region.n_bits, 37):
                region.flip(bit)
        restored = DynamicHashTable.from_state(table.state_dict())
        for replica in (table, restored):
            _assert_coherent(replica, words, 3)


def test_restoring_a_different_codebook_into_a_live_table_clears_the_memo():
    # The item-memory bytes stay identical; only the codebook rows no
    # server sits on differ, so a byte check on the item memory alone
    # would keep serving the old answers.
    table = populate(_table(), 6)
    words = np.arange(64, dtype=np.uint64)
    table.route_batch(words)
    vectors = np.array(table.codebook.vectors)
    free = sorted(set(range(64)) - {table.position_of(s) for s in table.server_ids})
    vectors[free] = vectors[free[::-1]]
    other = populate(HDHashTable(codebook=BasisSet("circular", vectors), **CONFIG), 6)
    state = other.state_dict()
    assert np.array_equal(
        state["payload"]["memory_rows"], table.item_memory.memory_view()
    )
    table._restore(state)
    _assert_coherent(table, words, 3)
