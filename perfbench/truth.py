"""Which replies a key's write history allows.

The load generator writes a unique value per put (the op's sequence
number) over a dense integer key space, so every reply names the write
it observed.  A read may return the last acknowledged write or any write
that was in flight when the read was sent; nothing else.  That rule is
exact for the serving tier: a flushed batch takes a FIFO prefix of the
queue and its reads observe the state before the batch, so no write
sent after a read can be visible to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The state of a deleted (or never written) key.
ABSENT = None

#: Read verdicts.
OK, MISS, WRONG = 0, 1, 2


class Truth:
    """Acknowledged and in-flight writes for keys ``0 .. n_keys - 1``."""

    def __init__(self, acked: List[Optional[int]]):
        #: ``acked[key]`` is the last acknowledged value, or ``ABSENT``.
        self.acked = acked
        self._pending: Dict[int, List[Optional[int]]] = {}

    @classmethod
    def preloaded(cls, n_keys: int) -> "Truth":
        """Every key present with its preload value."""
        return cls([preload_value(key) for key in range(n_keys)])

    def begin_write(self, key: int, value: Optional[int]) -> None:
        """A put (``value``) or delete (``ABSENT``) was sent."""
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = [value]
        else:
            pending.append(value)

    def end_write(self, key: int, value: Optional[int]) -> None:
        """The write was acknowledged: it is now the key's state."""
        pending = self._pending[key]
        pending.remove(value)
        if not pending:
            del self._pending[key]
        self.acked[key] = value

    def snapshot(self, key: int) -> Tuple[Optional[int], Optional[tuple]]:
        """What a read sent now may observe: ``(acked, in_flight)``."""
        pending = self._pending.get(key)
        return self.acked[key], (tuple(pending) if pending else None)

    @property
    def in_flight(self) -> int:
        """Keys with at least one unacknowledged write."""
        return len(self._pending)


def verdict(
    allowed: Tuple[Optional[int], Optional[tuple]], found: bool, value
) -> int:
    """``OK``, ``MISS`` (absent but the truth says present) or ``WRONG``."""
    acked, pending = allowed
    if found:
        if value == acked or (pending is not None and value in pending):
            return OK
        return WRONG
    if acked is ABSENT or (pending is not None and ABSENT in pending):
        return OK
    return MISS


def preload_value(key: int) -> int:
    """The value a key is preloaded with (negative: no op writes it)."""
    return -1 - key
