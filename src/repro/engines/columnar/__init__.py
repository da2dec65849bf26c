"""Columnar engine package: batches, kernels, and the engine driver."""

from __future__ import annotations

from .batch import ColumnBatch
from .engine import execute

__all__ = ["ColumnBatch", "execute"]
