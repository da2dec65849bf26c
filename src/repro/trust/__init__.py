"""Provenance-based confidence assignment (paper element 1)."""

from .provenance import (
    CollectionMethod,
    ConfidenceAssigner,
    DataSource,
    ProvenanceRecord,
)

__all__ = [
    "DataSource",
    "CollectionMethod",
    "ProvenanceRecord",
    "ConfidenceAssigner",
]
