"""The sharded cluster layer: S independent routing shards, one fleet.

One table scales until one machine's routing state (or one control
plane's churn rate) becomes the bottleneck; production fleets scale past
that by *sharding* the key space -- S independent tables, each owning
1/S of the keys, reconciled and snapshotted independently.
:class:`ClusterRouter` realises that layer over the PR-1 ``Router``
facade:

* keys are partitioned by a dedicated shard hash over their routing
  word (derived sub-family, so shard choice is decorrelated from every
  algorithm's own placement math);
* batch routing fans out shard by shard, reusing each table's deduped
  batch kernel on the pre-hashed word stream;
* membership is declarative fleet-wide (:meth:`sync` reconciles every
  shard as one cluster epoch) while each shard keeps its own monotonic
  epoch -- the per-shard epoch vector a cache compares entry-wise;
* remap accounting is cluster-wide: the tracked probe population is
  partitioned onto the shards that own it (each shard's
  :class:`~repro.service.migration.DeltaTracker` covers exactly the
  keys it serves), and every cluster epoch aggregates the per-shard
  probe movement into one fleet-level bill *and* merges the per-shard
  migration plans into one fleet-level
  :class:`~repro.service.migration.MigrationPlan`;
* snapshots nest one ``Router`` snapshot per shard; a single shard can
  be restored in place (:meth:`restore_shard`) without touching its
  peers -- and instead of silently stranding the keys the swap
  reroutes, the restore emits the migration plan that rescues them;
* avoid flags and failover live in the shard routers: :meth:`avoid` /
  :meth:`readmit` flag a server on every shard that holds it (and a
  flagged server that joins a shard through the cluster is flagged
  there too), and :meth:`route` / :meth:`route_batch` hand each shard
  its words (plus any per-call ``avoid``) for
  :meth:`Router.route_word` / :meth:`Router.route_words` to fail over;
  :meth:`assign` / :meth:`assign_batch` stay avoid-blind (writes land
  at the assigned owner so a transient health flag never strands data).

Every shard shares the same key-hashing family (same seed), so the
cluster hashes each key exactly once and feeds the pre-routed words to
whichever shard owns them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import StateError, UnknownServerError
from ..hashfn import Key
from ..hashing.base import DynamicHashTable
from ..hashing.registry import TableSpec, make_table
from .migration import MigrationPlan
from .router import (
    EpochRecord,
    EpochResult,
    MembershipUpdate,
    Router,
    RouterObserver,
    _record_from_state,
    _unique,
)

__all__ = ["ClusterEpochRecord", "ClusterEpochResult", "ClusterRouter"]

#: Version stamp written into every :meth:`ClusterRouter.snapshot`.
CLUSTER_FORMAT_VERSION = 1

#: Source of shard tables: a registry spec (one table built per shard)
#: or a zero-argument factory returning a fresh empty table per call.
TableSource = Union[TableSpec, Callable[[], DynamicHashTable]]


@dataclass(frozen=True)
class ClusterEpochRecord:
    """What one cluster-wide membership change did, fleet-level.

    ``records`` holds the per-shard :class:`EpochRecord` (``None`` for
    shards the change was a no-op on); ``epochs`` is the per-shard epoch
    vector *after* the change.
    """

    epochs: Tuple[int, ...]
    records: Tuple[Optional[EpochRecord], ...]
    server_counts: Tuple[int, ...]
    #: Fraction of all tracked probe keys (across every shard) whose
    #: assignment moved in this cluster epoch.
    remapped: float
    #: Absolute number of tracked probe keys that moved, fleet-wide.
    probes_moved: int

    @property
    def remap_fraction(self) -> float:
        """Alias of :attr:`remapped`, the paper's remap-fraction term."""
        return self.remapped


class ClusterEpochResult(NamedTuple):
    """What one cluster-wide membership change emits.

    ``record`` aggregates the per-shard accounting; ``plan`` merges the
    per-shard migration plans into the fleet-level data movement the
    change requires (``plan.total_keys == record.probes_moved``).
    """

    record: ClusterEpochRecord
    plan: MigrationPlan


class ClusterRouter:
    """S-way sharded routing over independent :class:`Router` shards."""

    def __init__(
        self,
        table_source: TableSource,
        n_shards: int,
        seed: int = 0,
        probe_keys: Optional[Sequence[Key]] = None,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._shards: List[Router] = [
            Router(self._build_table(table_source, seed))
            for __ in range(n_shards)
        ]
        families = {router.table.family.seed for router in self._shards}
        if len(families) != 1:
            raise ValueError(
                "shard tables must share one hash-family seed so the "
                "cluster can hash each key once; factory produced seeds "
                "{}".format(sorted(families))
            )
        self._family = self._shards[0].table.family
        self._shard_family = self._family.derive("cluster-shard")
        self._history: List[ClusterEpochRecord] = []
        self._probe_keys: Optional[np.ndarray] = None
        if probe_keys is not None:
            self.track(probe_keys)

    @staticmethod
    def _build_table(source: TableSource, seed: int) -> DynamicHashTable:
        if callable(source):
            return source()
        return make_table(source, seed=seed)

    # -- introspection ----------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of independent routing shards."""
        return len(self._shards)

    @property
    def algorithm(self) -> str:
        """Registry name of the shard tables' algorithm."""
        return self._shards[0].algorithm

    @property
    def epochs(self) -> Tuple[int, ...]:
        """The per-shard membership epoch vector."""
        return tuple(router.epoch for router in self._shards)

    @property
    def history(self) -> Tuple[ClusterEpochRecord, ...]:
        """Every cluster-wide membership change, in order."""
        return tuple(self._history)

    @property
    def server_ids(self) -> Tuple[Key, ...]:
        """Union of every shard's members, in first-seen shard order.

        Under purely declarative fleet management (:meth:`sync`) every
        shard holds the same set and this is simply the fleet.
        """
        return _unique(
            server_id
            for router in self._shards
            for server_id in router.server_ids
        )

    @property
    def server_counts(self) -> Tuple[int, ...]:
        """Per-shard pool sizes."""
        return tuple(router.server_count for router in self._shards)

    def shard(self, index: int) -> Router:
        """The ``index``-th shard's :class:`Router`."""
        return self._shards[index]

    def __len__(self) -> int:
        return len(self.server_ids)

    def __repr__(self) -> str:
        return "ClusterRouter({}, shards={}, epochs={})".format(
            self.algorithm, self.n_shards, list(self.epochs)
        )

    # -- shard assignment --------------------------------------------------

    def shard_of_word(self, word: int) -> int:
        """Shard that owns a pre-hashed routing word."""
        return int(self._shard_family.pair(int(word), 0)) % self.n_shards

    def shard_of(self, key: Key) -> int:
        """Shard that owns a request key."""
        return self.shard_of_word(self._family.word(key))

    def shards_of_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of_word` over a word batch."""
        words = np.asarray(words, dtype=np.uint64)
        owners = self._shard_family.pair_vec(words, np.uint64(0))
        return (owners % np.uint64(self.n_shards)).astype(np.int64)

    def words_of_keys(self, keys: Sequence[Key]) -> np.ndarray:
        """Hash a key batch once, for the whole cluster."""
        return self._shards[0].table.words_of_keys(keys)

    # -- observers ---------------------------------------------------------

    def subscribe(self, observer: RouterObserver) -> RouterObserver:
        """Attach an observer to every shard; returns it.

        Shard routers dispatch their own events, so a cluster-level
        subscriber sees one ``on_epoch`` per shard whose membership
        actually changed -- each carrying that shard's migration plan,
        which covers exactly the tracked keys the shard serves (the
        granularity an epoch-invalidated cache wants).
        """
        for router in self._shards:
            router.subscribe(observer)
        return observer

    def unsubscribe(self, observer: RouterObserver) -> None:
        """Detach an observer previously attached to every shard."""
        for router in self._shards:
            router.unsubscribe(observer)

    # -- failure / drain flagging ------------------------------------------

    @property
    def avoided(self) -> frozenset:
        """Servers currently excluded from serving: every shard's flags."""
        return frozenset().union(*(router.avoided for router in self._shards))

    def avoid(self, server_id: Key) -> None:
        """Exclude a member from serving cluster-wide, same contract as
        :meth:`Router.avoid`: every shard that holds ``server_id`` flags
        it (no membership change, no epoch) until the flag lifts or the
        control plane reconciles it out."""
        holders = [router for router in self._shards if server_id in router]
        if not holders:
            raise UnknownServerError(server_id)
        for router in holders:
            router.avoid(server_id)

    def readmit(self, server_id: Key) -> None:
        """Lift a previous :meth:`avoid` flag (no-op when not flagged)."""
        for router in self._shards:
            router.readmit(server_id)

    def _reflag(self, flags: frozenset) -> None:
        """Flag each of ``flags`` on every shard that now holds it.

        Membership changes made through the cluster (:meth:`apply`,
        :meth:`sync`, :meth:`restore_shard`) take :attr:`avoided` first
        and hand it here afterwards, so a flagged server that joins (or
        is restored onto) another shard stays avoided there too, and a
        server that left every shard sheds its flag.
        """
        for router in self._shards:
            for server_id in flags:
                if server_id in router:
                    router.avoid(server_id)

    # -- routing -----------------------------------------------------------

    def _fan_out(
        self,
        words: np.ndarray,
        call: Callable[[Router, np.ndarray], np.ndarray],
        width: Tuple[int, ...] = (),
    ) -> np.ndarray:
        """``call(shard, shard_words)`` per shard, scattered back in order.

        The only Python-level loop is over the (few) shards; each
        shard's slice goes through that shard's own batched path.
        """
        words = np.asarray(words, dtype=np.uint64)
        out = np.empty((words.size,) + width, dtype=object)
        if words.size == 0:
            return out
        owners = self.shards_of_words(words)
        for shard_index in np.unique(owners):
            mask = owners == shard_index
            out[mask] = call(self._shards[int(shard_index)], words[mask])
        return out

    def _locate(self, key: Key) -> Tuple[int, Router]:
        """The key's routing word (hashed once) and its owning shard."""
        word = self._family.word(key)
        return word, self._shards[self.shard_of_word(word)]

    def assign(self, key: Key) -> Key:
        """The key's *assigned* owner, from its shard (the write path).

        Avoid-blind by contract, exactly like :meth:`Router.assign`: a
        suspect server is served *around* on the read path but still
        owns its keys, so writes keep landing at the assignment -- a
        transient health flag must never strand data on a failover
        replica.
        """
        word, router = self._locate(key)
        return router.table.lookup_word(word)

    def assign_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Batched :meth:`assign`: raw shard fan-out, avoid-blind."""
        return self._fan_out(
            self.words_of_keys(keys),
            lambda router, part: router.table.lookup_words(part),
        )

    def route(self, key: Key, avoid: Optional[Iterable[Key]] = None) -> Key:
        """Route one key through its owning shard's
        :meth:`Router.route_word` (failover around the shard's flags plus
        any per-call ``avoid``)."""
        word, router = self._locate(key)
        return router.route_word(word, avoid)

    def route_words(
        self, words: np.ndarray, avoid: Optional[Iterable[Key]] = None
    ) -> np.ndarray:
        """Route pre-hashed words, each shard's slice through its own
        :meth:`Router.route_words` (vectorized kernel plus failover)."""
        if avoid is not None:
            avoid = frozenset(avoid)  # every shard reads it; an iterator would not last
        return self._fan_out(
            words, lambda router, part: router.route_words(part, avoid)
        )

    def route_batch(
        self, keys: Sequence[Key], avoid: Optional[Iterable[Key]] = None
    ) -> np.ndarray:
        """Route a key batch: hash once, fan out shard by shard
        (avoid-aware, same contract as :meth:`Router.route_batch`)."""
        return self.route_words(self.words_of_keys(keys), avoid)

    def route_replicas(self, key: Key, k: int) -> Tuple[Key, ...]:
        """The key's ``k``-replica set, from its owning shard.

        Per-shard, the contract is
        :meth:`~repro.hashing.base.DynamicHashTable.route_word_replicas`:
        k distinct servers, head equal to :meth:`assign`'s owner,
        batch/scalar bit-exact.  :meth:`route` fails over along this
        set when the primary is in the avoid set.
        """
        word, router = self._locate(key)
        table = router.table
        slots = table.route_word_replicas(word, k)
        return tuple(table.server_ids[int(slot)] for slot in slots)

    def route_replicas_words(self, words: np.ndarray, k: int) -> np.ndarray:
        """Batched ``(n, k)`` replica sets over pre-hashed words."""
        return self._fan_out(
            words,
            lambda router, part: router.table.lookup_words_replicas(part, k),
            width=(k,),
        )

    def route_replicas_batch(self, keys: Sequence[Key], k: int) -> np.ndarray:
        """Batched ``(len(keys), k)`` replica sets for a key batch."""
        return self.route_replicas_words(self.words_of_keys(keys), k)

    # -- remap accounting --------------------------------------------------

    def track(self, probe_keys: Sequence[Key]) -> None:
        """Install the cluster-wide probe population.

        Probes are partitioned onto their owning shards, so each shard
        accounts exactly the keys it serves; cluster epochs aggregate
        the per-shard movement into the fleet-level remap bill.
        """
        self._probe_keys = np.asarray(probe_keys)
        owners = self.shards_of_words(self.words_of_keys(self._probe_keys))
        for shard_index, router in enumerate(self._shards):
            router.track(self._probe_keys[owners == shard_index])

    @property
    def probe_keys(self) -> Optional[np.ndarray]:
        """The tracked probe population, or None when accounting is off."""
        return self._probe_keys

    # -- membership --------------------------------------------------------

    def _close_epoch(
        self, results: Sequence[Optional[EpochResult]]
    ) -> ClusterEpochResult:
        records = tuple(
            result.record if result is not None else None
            for result in results
        )
        moved = sum(
            record.probes_moved for record in records if record is not None
        )
        total = 0 if self._probe_keys is None else int(self._probe_keys.size)
        record = ClusterEpochRecord(
            epochs=self.epochs,
            records=records,
            server_counts=self.server_counts,
            remapped=(moved / total) if total else 0.0,
            probes_moved=int(moved),
        )
        plan = MigrationPlan.merge(
            [result.plan for result in results if result is not None],
            tracked=total,
        )
        self._history.append(record)
        return ClusterEpochResult(record=record, plan=plan)

    def apply(self, update: MembershipUpdate) -> ClusterEpochResult:
        """Apply one membership batch to every shard atomically-per-shard."""
        flags = self.avoided
        results = [router.apply(update) for router in self._shards]
        self._reflag(flags)
        return self._close_epoch(results)

    def sync(self, target_server_ids: Iterable[Key]) -> ClusterEpochResult:
        """Reconcile every shard to the declared fleet, as one result.

        The declaration may mix bare server ids and spec-like objects
        (:class:`~repro.control.ServerSpec`); joining specs carry their
        capacity weight into every shard's update.  Each shard applies
        its own minimal diff (shards that already match are no-ops and
        keep their epoch); the returned result carries the aggregated
        fleet-level remap accounting and the merged fleet-level
        migration plan.
        """
        target = tuple(target_server_ids)
        flags = self.avoided
        results: List[Optional[EpochResult]] = []
        for router in self._shards:
            update = router.diff(target)
            if update.is_empty:
                # Untouched shard: membership already matches, so its
                # epoch close would provably produce an empty delta --
                # skip the close (a full tracked-slice re-route on
                # algorithms without the delta-scoped fast path) along
                # with the epoch bump.
                results.append(None)
            else:
                results.append(router.apply(update))
        self._reflag(flags)
        return self._close_epoch(results)

    def join(
        self, server_id: Key, weight: Optional[float] = None
    ) -> ClusterEpochResult:
        """Admit one server fleet-wide (optionally at a capacity weight)."""
        weights = () if weight is None else ((server_id, weight),)
        return self.apply(
            MembershipUpdate(joins=(server_id,), weights=weights)
        )

    def leave(self, server_id: Key) -> ClusterEpochResult:
        """Retire one server fleet-wide."""
        return self.apply(MembershipUpdate(leaves=(server_id,)))

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A restorable snapshot: cluster metadata + one per shard.

        The cluster-level :class:`ClusterEpochRecord` history is
        persisted alongside each shard's own, so fleet-level remap
        accounting survives the round-trip just like the per-shard
        bills do.
        """
        return {
            "cluster": {
                "format": CLUSTER_FORMAT_VERSION,
                "n_shards": self.n_shards,
                "seed": self._family.seed,
                "history": [asdict(record) for record in self._history],
            },
            "shards": [router.snapshot() for router in self._shards],
        }

    def snapshot_shard(self, index: int) -> Dict[str, Any]:
        """One shard's snapshot (same shape as ``Router.snapshot``)."""
        return self._shards[index].snapshot()

    def restore_shard(
        self, index: int, snapshot: Dict[str, Any]
    ) -> Tuple[Router, MigrationPlan]:
        """Swap one shard's router in from a snapshot, peers untouched.

        Returns the restored router *and* the migration plan covering
        the shard's tracked keys whose owner changed across the swap --
        the keys a pure in-place restore would silently strand on
        servers the restored table no longer assigns them to.  The
        diff reuses the outgoing shard's cached probe words (no
        re-hashing); the restored shard then re-tracks its slice of
        the cluster probe population, so fleet-level accounting keeps
        working.  The restored router starts with the outgoing one's
        observers (so cluster subscribers keep hearing this shard's
        epochs), and every cluster-wide avoid flag on a server it holds
        is set on it.  The outgoing router leaves the cluster: later
        subscriptions to it reach only it, not the restored shard.
        """
        outgoing = self._shards[index]
        flags = self.avoided
        router = Router.restore(snapshot, observers=outgoing.observers)
        if router.table.family.seed != self._family.seed:
            raise StateError(
                "shard snapshot hash-family seed {} does not match the "
                "cluster's {}".format(
                    router.table.family.seed, self._family.seed
                )
            )
        plan = MigrationPlan(tracked=0, batches=(), epoch=router.epoch)
        if self._probe_keys is not None:
            delta = outgoing.delta_tracker.diff_against(
                lambda words: (
                    router.table.lookup_words(words)
                    if router.table.server_count
                    else None
                )
            )
            plan = MigrationPlan.from_delta(delta, epoch=router.epoch)
        self._shards[index] = router
        self._reflag(flags)
        if self._probe_keys is not None:
            owners = self.shards_of_words(
                self.words_of_keys(self._probe_keys)
            )
            router.track(self._probe_keys[owners == index])
        return router, plan

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        probe_keys: Optional[Sequence[Key]] = None,
    ) -> "ClusterRouter":
        """Rebuild a cluster (every shard) from :meth:`snapshot`."""
        meta = snapshot.get("cluster", {})
        if meta.get("format") != CLUSTER_FORMAT_VERSION:
            raise StateError(
                "unsupported cluster snapshot format {!r}".format(
                    meta.get("format")
                )
            )
        shards = [Router.restore(state) for state in snapshot["shards"]]
        if len(shards) != int(meta.get("n_shards", len(shards))):
            raise StateError(
                "cluster snapshot declares {} shards but carries {}".format(
                    meta.get("n_shards"), len(shards)
                )
            )
        if not shards:
            raise StateError("cluster snapshot has no shards")
        seeds = {router.table.family.seed for router in shards}
        if len(seeds) != 1:
            raise StateError(
                "cluster snapshot mixes shard hash-family seeds {}; the "
                "cluster hashes each key once, so every shard must share "
                "one seed".format(sorted(seeds))
            )
        cluster = cls.__new__(cls)
        cluster._shards = shards
        cluster._family = shards[0].table.family
        cluster._shard_family = cluster._family.derive("cluster-shard")
        cluster._history = [
            ClusterEpochRecord(
                epochs=tuple(int(epoch) for epoch in record["epochs"]),
                records=tuple(
                    None if state is None else _record_from_state(state)
                    for state in record["records"]
                ),
                server_counts=tuple(
                    int(count) for count in record["server_counts"]
                ),
                remapped=float(record["remapped"]),
                probes_moved=int(record["probes_moved"]),
            )
            for record in meta.get("history", ())
        ]
        cluster._probe_keys = None
        if probe_keys is not None:
            cluster.track(probe_keys)
        return cluster
