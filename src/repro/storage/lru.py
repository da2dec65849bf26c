"""A bounded, thread-safe least-recently-used map.

One class for the process's small caches: a catalog's prepared
statements (:attr:`repro.storage.database.Database.plan_cache`) and the
two exactly-once maps — the replicated ⟨client, key⟩ → seq map of a
:class:`~repro.storage.database.Database` and a server's volatile replies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """At most *capacity* entries; reading or writing one makes it the most
    recent, and the least recent is evicted first."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def drop(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def items(self) -> "list[tuple[Hashable, Any]]":
        """A copy of the entries, least recently used first (not a use)."""
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
