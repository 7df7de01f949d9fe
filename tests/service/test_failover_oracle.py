"""Avoid-set failover against a per-key replica-walk oracle.

The oracle is the direct reading of the failover contract, one key at
a time: hash the key, take its primary; when the primary is avoided,
walk the key's replica set of depth ``min(pool, len(avoided) + 1)``
and serve the first server that is not avoided.  ``Router.route_words``
does the same for a whole batch with one replica lookup, and
``ClusterRouter`` hands each shard its slice; both must agree with the
oracle key for key, on every registered algorithm, under seeded random
persistent and per-call avoid sets.
"""

import numpy as np
import pytest

from repro.errors import EmptyTableError, UnknownServerError
from repro.hashing import make_table, registered_algorithms
from repro.service import ClusterRouter, Router

ALGORITHMS = sorted(registered_algorithms())
LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}
FLEET = tuple("srv-{:02d}".format(index) for index in range(8))
#: Ids outside the fleet: a per-call avoid set may name them (a stale
#: failure-detector entry), and a tuple must not confuse the flag test.
GHOSTS = ("ghost", ("ghost", 7), 404)
SEED = 5


def keys_for(seed):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**40, 150).tolist()
    return words + ["user:{}".format(index) for index in range(30)]


def table_factory(name):
    return lambda: make_table(name, seed=SEED, **LIGHT_CONFIG.get(name, {}))


def build(name, kind):
    if kind == "router":
        router = Router(table_factory(name)())
    else:
        router = ClusterRouter(table_factory(name), n_shards=3)
    router.sync(FLEET)
    return router


def table_of(router, key):
    if isinstance(router, ClusterRouter):
        return router.shard(router.shard_of(key)).table
    return router.table


def oracle_route(table, key, avoided):
    """The per-key replica walk (the reference failover)."""
    word = table.family.word(key)
    primary = table.server_ids[table.route_word(word)]
    if primary not in avoided:
        return primary
    k = min(table.server_count, len(avoided) + 1)
    for slot in table.route_word_replicas(word, k):
        server_id = table.server_ids[int(slot)]
        if server_id not in avoided:
            return server_id
    raise EmptyTableError("every candidate server is avoided")


def oracle_assign(table, key):
    return table.server_ids[table.route_word(table.family.word(key))]


def random_avoid_sets(seed):
    """Seeded ``(persistent, per_call)`` pairs, edge cases included."""
    rng = np.random.default_rng(seed)
    cases = [
        ((), None),
        (FLEET[:1], None),
        ((), FLEET[2:4]),
        (FLEET[:-1], None),  # all but one member avoided
        (FLEET[:3], FLEET[3:-1] + GHOSTS),  # all but one, split
        ((), GHOSTS),  # only ids outside the fleet
    ]
    for __ in range(4):
        persistent = tuple(
            rng.choice(FLEET, size=int(rng.integers(0, 4)), replace=False)
        )
        extra = tuple(rng.choice(FLEET, size=int(rng.integers(0, 3)), replace=False))
        per_call = extra + GHOSTS[: int(rng.integers(0, len(GHOSTS) + 1))]
        cases.append((persistent, per_call if per_call else None))
    return cases


@pytest.mark.parametrize("kind", ["router", "cluster"])
@pytest.mark.parametrize("name", ALGORITHMS)
class TestFailoverOracle:
    def test_batch_scalar_and_oracle_agree(self, name, kind):
        router = build(name, kind)
        keys = keys_for(SEED)
        for persistent, per_call in random_avoid_sets(SEED):
            for server_id in persistent:
                router.avoid(server_id)
            avoided = set(persistent) | set(per_call or ())
            batch = router.route_batch(keys, per_call).tolist()
            oracle = [oracle_route(table_of(router, key), key, avoided) for key in keys]
            assert batch == oracle
            assert not avoided & set(batch)
            # The scalar path pays a one-key batch per flagged key;
            # every third key keeps the suite fast on slow walks.
            sample = keys[::3]
            scalar = [router.route(key, per_call) for key in sample]
            assert scalar == oracle[::3]
            for server_id in persistent:
                router.readmit(server_id)
            assert router.avoided == frozenset()

    def test_all_but_one_avoided_serves_the_survivor(self, name, kind):
        router = build(name, kind)
        for server_id in FLEET[:-1]:
            router.avoid(server_id)
        keys = keys_for(SEED + 1)
        assert set(router.route_batch(keys).tolist()) == {FLEET[-1]}
        assert {router.route(key) for key in keys[::6]} == {FLEET[-1]}

    def test_assign_ignores_avoid_flags(self, name, kind):
        router = build(name, kind)
        keys = keys_for(SEED + 2)
        for server_id in FLEET[:5]:
            router.avoid(server_id)
        expected = [oracle_assign(table_of(router, key), key) for key in keys]
        assert router.assign_batch(keys).tolist() == expected
        assert [router.assign(key) for key in keys] == expected
        assert set(expected) & set(FLEET[:5])  # flags really were ignored

    def test_fully_avoided_fleet_raises(self, name, kind):
        router = build(name, kind)
        keys = keys_for(SEED + 3)
        for server_id in FLEET[:-1]:
            router.avoid(server_id)
        with pytest.raises(EmptyTableError):
            router.route(keys[0], avoid=FLEET[-1:])
        with pytest.raises(EmptyTableError):
            router.route_batch(keys, avoid=FLEET[-1:])
        for server_id in FLEET[-1:]:
            router.avoid(server_id)
        with pytest.raises(EmptyTableError):
            router.route(keys[0])
        with pytest.raises(EmptyTableError):
            router.route_batch(keys)
        assert router.route_batch([]).size == 0


class TestClusterFlagsLiveInShards:
    def test_avoid_flags_every_holding_shard(self):
        cluster = build("rendezvous", "cluster")
        cluster.shard(1).sync(FLEET[1:])  # shard 1 no longer holds srv-00
        cluster.avoid(FLEET[0])
        assert cluster.avoided == frozenset(FLEET[:1])
        assert [cluster.shard(i).avoided for i in range(3)] == [
            frozenset(FLEET[:1]),
            frozenset(),
            frozenset(FLEET[:1]),
        ]
        cluster.readmit(FLEET[0])
        assert cluster.avoided == frozenset()

    def test_avoid_rejects_servers_no_shard_holds(self):
        cluster = build("rendezvous", "cluster")
        for ghost in GHOSTS:
            with pytest.raises(UnknownServerError):
                cluster.avoid(ghost)
        assert cluster.avoided == frozenset()

    def test_leave_drops_the_flag_on_every_shard(self):
        cluster = build("maglev", "cluster")
        cluster.avoid(FLEET[2])
        cluster.sync(FLEET[:2] + FLEET[3:])
        assert cluster.avoided == frozenset()
        cluster.sync(FLEET)  # re-admitting the id starts unflagged
        assert cluster.avoided == frozenset()
