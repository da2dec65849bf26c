"""Persisted failover epochs.

An epoch is a monotonically increasing integer naming one primary's
reign.  Promotion bumps it; every replication message carries it; a
message from a lower epoch is fenced off with
``StaleEpochError``.  The value is persisted next to
the WAL (atomic write) so a restarting node cannot be fooled back into
an old reign.
"""

from __future__ import annotations

import os

from ...storage.durability.atomic import atomic_write_text

__all__ = ["EPOCH_FILE", "load_epoch", "store_epoch"]

EPOCH_FILE = "epoch"


def load_epoch(data_dir: str, default: int = 1) -> int:
    """The persisted epoch under *data_dir* (``default`` if none/garbage)."""
    path = os.path.join(data_dir, EPOCH_FILE)
    try:
        with open(path, encoding="utf-8") as handle:
            return max(default, int(handle.read().strip()))
    except (FileNotFoundError, ValueError):
        return default


def store_epoch(data_dir: str, epoch: int) -> None:
    """Durably persist *epoch* under *data_dir*."""
    os.makedirs(data_dir, exist_ok=True)
    atomic_write_text(os.path.join(data_dir, EPOCH_FILE), f"{epoch}\n")
