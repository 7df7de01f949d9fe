"""Hyperdimensional (HD) hashing: the paper's contribution (Section 3).

The table holds a codebook ``C`` of ``n`` circular-hypervectors
(Algorithm 1).  A joining server is encoded as ``Enc(s) = C[h(s) mod n]``
and its hypervector is stored in an associative item memory; a request is
encoded the same way and routed to the server with the most similar
stored hypervector (Eq. 2) -- the nearest node on the hyperdimensional
circle, in either direction.

Why this is robust (Figure 5): the routing state is ``k`` hypervectors of
``d`` bits (d = 10,000 by default).  A flipped memory bit moves one
similarity score by exactly 1 out of d, while distinct circle nodes are
separated by ~2d/n bits per step; a handful of upsets can never cross the
inter-node gap, so corrupted lookups still return the pristine winner.
Contrast with consistent hashing, where the same flip displaces a ring
position by up to half the key space.

Batched inference: every request lands on one of the codebook's ``n``
circle nodes, so while the item memory is unchanged an answer is a
function of at most ``n`` inputs.  The table memoizes, per circle
position, the winning slot and its distance (plus a replica ranking for
the largest ``k`` asked), filled on demand: a call marks the positions
it reads in a boolean mask over the ``n`` nodes and runs one contiguous
XOR+popcount sweep -- the stand-in for the paper's GPU (and, ultimately,
for the single-cycle associative memory of Schmuck et al.) -- over only
the positions not yet known.  The memo stays coherent by comparing
bytes, not by hooks: every call compares the live item-memory words
(and, with ``expose_codebook``, the codebook rows it reads) against the
copy the memo was filled from, and any difference -- a join, a leave, a
restore or an injected bit flip -- clears it.  Answers are therefore a
pure function of the bytes :meth:`HDHashTable.memory_regions` exposes.
Because routing calls write the memo, one table must not be routed from
several threads at once.

Placement details the paper leaves open (documented choices):

* ``h(x) mod n`` collides for distinct servers once ``k ~ sqrt(n)``
  (birthday effect).  Identical encodings would make the two servers
  indistinguishable, so joins probe linearly to the next free circle node
  (deterministic, at most a 1-node placement shift).  Joining more than
  ``n`` servers raises :class:`~repro.errors.CapacityError`.
* Similarity ties break toward the earliest-joined server, matching the
  item memory's first-minimum rule, so replicas built by replaying the
  same join order agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import CapacityError, StateError
from ..hashfn import HashFamily, Key
from ..hdc.basis import BasisSet, circular_basis
from ..hdc.item_memory import ItemMemory
from ..hdc.packing import as_words, hamming_words, unpack_bits
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import register_table

__all__ = ["HDHashTable", "HDConfig"]

#: Paper defaults: 10,000-bit hypervectors (Section 2.3).
DEFAULT_DIM = 10_000
#: Codebook size; the paper requires n > k and leaves n unreported.
DEFAULT_CODEBOOK_SIZE = 4_096


@dataclass(frozen=True)
class HDConfig:
    """Constructor config for :class:`HDHashTable`.

    ``codebook`` accepts a pre-built :class:`~repro.hdc.basis.BasisSet`
    (shared across sweeps by the experiment harness); it is not part of
    serialized snapshots, which carry the codebook in their payload.
    """

    seed: int = 0
    dim: int = DEFAULT_DIM
    codebook_size: int = DEFAULT_CODEBOOK_SIZE
    codebook: Optional[BasisSet] = None
    backend: str = "auto"
    expose_codebook: bool = False
    batch_size: int = 256
    require_circular: bool = True


@register_table(
    "hd",
    config=HDConfig,
    description="the paper's HDC inference over circular-hypervectors",
    paper=True,
)
class HDHashTable(DynamicHashTable):
    """Dynamic hash table routed by hyperdimensional inference."""

    name = "hd"

    def __init__(
        self,
        family: HashFamily = None,
        seed: int = 0,
        dim: int = DEFAULT_DIM,
        codebook_size: int = DEFAULT_CODEBOOK_SIZE,
        codebook: Optional[BasisSet] = None,
        backend: str = "auto",
        expose_codebook: bool = False,
        batch_size: int = 256,
        require_circular: bool = True,
    ):
        super().__init__(family=family, seed=seed)
        self._codebook_derived = codebook is None
        if codebook is not None:
            if require_circular and codebook.kind != "circular":
                # Level codebooks re-introduce the wrap-around similarity
                # discontinuity of Section 4; ablation E11 passes
                # require_circular=False to demonstrate exactly that.
                raise ValueError("HD hashing requires a circular codebook")
            self._codebook = codebook
        else:
            rng = np.random.default_rng(self.family.derive("codebook").seed)
            self._codebook = circular_basis(codebook_size, dim, rng)
        # The table owns a writable packed copy: it is the memory the
        # lookups actually read, hence the corruptible region when
        # ``expose_codebook`` is set.  The uint64 word alias of the same
        # storage is what the routing kernels consume; it is refreshed
        # only here and on restore, never per query.
        self._codebook_packed = self._codebook.packed().copy()
        self._codebook_words = as_words(self._codebook_packed)
        self._expose_codebook = expose_codebook
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self._batch_size = batch_size
        self._memory = ItemMemory(self._codebook.dim, backend=backend)
        self._position_of: Dict[Key, int] = {}
        self._occupied: Dict[int, Key] = {}
        self._forget()
        #: Memo clears (the bytes it was filled from changed) and circle
        #: positions swept into it, so no recompute goes uncounted.
        self.memo_clears = 0
        self.memo_fills = 0

    # -- introspection ----------------------------------------------------

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``d``."""
        return self._codebook.dim

    @property
    def codebook_size(self) -> int:
        """Circle size ``n = |C|``."""
        return self._codebook.count

    @property
    def codebook(self) -> BasisSet:
        """The circular-hypervector codebook ``C``."""
        return self._codebook

    @property
    def item_memory(self) -> ItemMemory:
        """The associative memory holding one row per server."""
        return self._memory

    @property
    def batch_size(self) -> int:
        """Configured inference batch size (the paper uses 256 on its GPU).

        Kept as declarative config: a call sweeps only the circle
        positions the memo does not know yet, and the kernel sizes that
        sweep by memory budget rather than by fixed query counts.
        """
        return self._batch_size

    def position_of(self, server_id: Key) -> int:
        """Circle node a server was placed on (after probing)."""
        return self._position_of[server_id]

    # -- membership ---------------------------------------------------------

    def _place(self, word: int) -> int:
        n = self.codebook_size
        if len(self._occupied) >= n:
            raise CapacityError(
                "circle is full: {} servers on {} nodes".format(len(self._occupied), n)
            )
        position = int(word % n)
        while position in self._occupied:
            position = (position + 1) % n
        return position

    def _join(self, server_id: Key, server_word: int) -> None:
        position = self._place(server_word)
        self._memory.add_packed(server_id, self._codebook_packed[position])
        self._position_of[server_id] = position
        self._occupied[position] = server_id

    def _leave(self, server_id: Key, slot: int) -> None:
        self._memory.remove(server_id)
        position = self._position_of.pop(server_id)
        del self._occupied[position]

    # -- routing: the per-position memo ----------------------------------

    def _forget(self) -> None:
        """Empty the memo and copy the bytes it will next be filled from."""
        n = self.codebook_size
        self._memo_rows = self._memory.memory_view().tobytes()
        self._memo_codebook = (
            self._codebook_words.copy() if self._expose_codebook else None
        )
        self._memo_known = np.zeros(n, dtype=bool)
        self._memo_slot = np.zeros(n, dtype=np.int64)
        self._memo_distance = np.zeros(n, dtype=np.int64)
        self._memo_ranked = np.zeros(n, dtype=bool)
        self._memo_ranking = np.zeros((n, 0), dtype=np.int64)

    def _positions(self, words: np.ndarray) -> np.ndarray:
        return (words % np.uint64(self.codebook_size)).astype(np.int64)

    def _recall(self, positions, k: int = 0) -> None:
        """Make the memo answer every circle position in ``positions``.

        ``k = 0`` asks for winners only, ``k >= 1`` also for ``k``-long
        replica rankings.  The memo is first checked against the live
        bytes it depends on -- the item-memory rows, plus the codebook
        rows read here when the codebook is an exposed region -- and
        cleared on any difference.  The positions read and not yet
        known then take one kernel sweep.  A ranking narrower than
        ``k`` is dropped and refilled at width ``k``; rankings are
        prefix-stable, so the widest one serves every smaller ``k``.
        """
        need = np.zeros(self.codebook_size, dtype=bool)
        need[positions] = True
        stale = self._memory.memory_view().tobytes() != self._memo_rows
        if not stale and self._memo_codebook is not None:
            read = need.nonzero()[0]
            stale = not np.array_equal(
                self._codebook_words[read], self._memo_codebook[read]
            )
        if stale:
            self._forget()
            self.memo_clears += 1
        if k > self._memo_ranking.shape[1]:
            self._memo_ranked[:] = False
            self._memo_ranking = np.zeros((self.codebook_size, k), dtype=np.int64)
        need &= ~(self._memo_ranked if k else self._memo_known)
        missing = need.nonzero()[0]
        if not missing.size:
            return
        queries = self._codebook_words[missing]
        if k:
            ranking, distances = self._memory.query_top_k_words(
                queries, self._memo_ranking.shape[1]
            )
            self._memo_ranking[missing] = ranking
            self._memo_ranked[missing] = True
            slots, distances = ranking[:, 0], distances[:, 0]
        else:
            slots, distances = self._memory.query_batch_words(queries)
        self._memo_slot[missing] = slots
        self._memo_distance[missing] = distances
        self._memo_known[missing] = True
        self.memo_fills += int(missing.size)

    def route_word(self, word: int) -> int:
        self._require_servers()
        position = int(word) % self.codebook_size
        self._recall(position)
        return int(self._memo_slot[position])

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        """Batched inference through the per-position memo.

        Requests sharing a circle position share a similarity query, so
        a batch costs at most one kernel sweep over the distinct
        positions it reads that the memo does not know yet -- none at
        all on a warm memo -- then one gather.
        """
        positions = self._positions(words)
        self._recall(positions)
        return self._memo_slot[positions]

    # -- delta kernels ------------------------------------------------------

    def _delta_scores(self, words: np.ndarray) -> Optional[np.ndarray]:
        # Similarity (Eq. 2) is monotone in negated Hamming distance, so
        # the winning score of a word is minus its winner's distance.
        # Ties break toward the earliest item-memory row, and a joiner
        # is always the *latest* row, so the strict-win rule of the
        # delta contract reproduces the first-minimum argmin exactly.
        if not self._server_ids:
            return None
        positions = self._positions(words)
        self._recall(positions)
        return -self._memo_distance[positions]

    def _delta_challenge(
        self, server_id: Key, words: np.ndarray
    ) -> Optional[np.ndarray]:
        try:
            row = self._memory.index_of(server_id)
        except KeyError:
            return None
        positions = self._positions(words)
        reads = np.zeros(self.codebook_size, dtype=bool)
        reads[positions] = True
        read = reads.nonzero()[0]
        scores = np.zeros(self.codebook_size, dtype=np.int64)
        scores[read] = -hamming_words(
            self._codebook_words[read],
            self._memory.memory_words()[row],
            self._memory.backend,
        )
        return scores[positions]

    def _route_word_replicas(self, word: int, k: int) -> np.ndarray:
        """Native replica path: the ``k`` nearest item-memory rows.

        HD inference ranks the whole pool for free -- the similarity
        scores of Eq. 2 are computed against every stored hypervector
        anyway -- so the replica set is the top-k of the same sweep the
        single-server lookup argmins over.  Served from the same memo
        as the batch path, so scalar and batch agree bit-exactly
        (including tie-breaks toward the earliest-joined server).
        """
        position = int(word) % self.codebook_size
        self._recall(position, k)
        return self._memo_ranking[position, :k].copy()

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Batched replica inference through the per-position memo.

        At most one packed-word top-k sweep over the distinct circle
        positions not yet ranked, then one gather -- no per-key Python
        loop, mirroring :meth:`_route_batch`.
        """
        positions = self._positions(words)
        self._recall(positions, k)
        return self._memo_ranking[positions, :k]

    # -- snapshot / restore -------------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        return {
            "seed": self._family.seed,
            "dim": self.dim,
            "codebook_size": self.codebook_size,
            "backend": self._memory.backend,
            "batch_size": self._batch_size,
            "expose_codebook": self._expose_codebook,
        }

    def _state_payload(self) -> Dict[str, Any]:
        """The replica-defining state of Section 3: codebook + item memory.

        A seed-derived codebook is recorded by reference (the family seed
        in the config regenerates it bit-identically); an externally
        supplied codebook is embedded packed.  The live packed codebook
        copy is embedded only when it has diverged from the pristine
        basis (i.e. fault injection with ``expose_codebook`` hit it), and
        the item-memory rows are always captured live -- so a restored
        replica reproduces even a corrupted table bit-for-bit.
        """
        pristine = self._codebook.packed()
        if self._codebook_derived:
            codebook: Dict[str, Any] = {"mode": "derived"}
        else:
            codebook = {
                "mode": "explicit",
                "kind": self._codebook.kind,
                "packed": np.array(pristine, copy=True),
            }
        return {
            "codebook": codebook,
            "codebook_packed": (
                None
                if np.array_equal(self._codebook_packed, pristine)
                else self._codebook_packed.copy()
            ),
            "positions": [
                (server_id, int(self._position_of[server_id]))
                for server_id in self._server_ids
            ],
            "memory_rows": self._memory.memory_view().copy(),
        }

    @classmethod
    def _build_for_restore(cls, state: Dict[str, Any]) -> "HDHashTable":
        # Hand an explicit payload codebook straight to the constructor,
        # so it does not derive a throwaway basis from the family seed.
        from .registry import make_table

        config = dict(state.get("config", {}))
        codebook = state["payload"]["codebook"]
        if codebook["mode"] == "explicit":
            packed = np.asarray(codebook["packed"], dtype=np.uint8)
            config["codebook"] = BasisSet(
                codebook["kind"],
                unpack_bits(packed, config.get("dim", DEFAULT_DIM)),
            )
            config["require_circular"] = False
        return make_table(state["algorithm"], **config)

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        codebook = payload["codebook"]
        if codebook["mode"] == "explicit" and self._codebook_derived:
            # Fallback for restores that did not come through
            # _build_for_restore (the constructor-supplied codebook path
            # above already installed it).
            packed = np.asarray(codebook["packed"], dtype=np.uint8)
            vectors = unpack_bits(packed, self.dim)
            self._codebook = BasisSet(codebook["kind"], vectors)
            self._codebook_packed = self._codebook.packed().copy()
            self._codebook_words = as_words(self._codebook_packed)
        if codebook["mode"] == "explicit":
            self._codebook_derived = False
        # (derived mode: the constructor already rebuilt the identical
        # codebook from the family seed)
        if payload.get("codebook_packed") is not None:
            self._codebook_packed = np.array(
                payload["codebook_packed"], dtype=np.uint8, copy=True
            )
            self._codebook_words = as_words(self._codebook_packed)
        self._memory = ItemMemory(self.dim, backend=self._memory.backend)
        rows = np.asarray(payload["memory_rows"], dtype=np.uint8)
        if rows.shape[0] != len(server_ids):
            raise StateError(
                "snapshot has {} item-memory rows for {} servers".format(
                    rows.shape[0], len(server_ids)
                )
            )
        for label, row in zip(server_ids, rows):
            self._memory.add_packed(label, row)
        self._position_of = {
            server_id: int(position) for server_id, position in payload["positions"]
        }
        self._occupied = {
            position: server_id for server_id, position in self._position_of.items()
        }
        # The codebook itself may have been replaced above, not just
        # rewritten in place, so the memo restarts from the new bytes.
        self._forget()
        self.memo_clears += 1

    # -- fault-injection surface ------------------------------------------------

    def memory_regions(self) -> List[MemoryRegion]:
        regions = [MemoryRegion("item_memory", self._memory.memory_view(), self.dim)]
        if self._expose_codebook:
            regions.append(MemoryRegion("codebook", self._codebook_packed, self.dim))
        return regions
