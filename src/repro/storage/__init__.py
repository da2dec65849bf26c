"""Typed in-memory relational storage with per-tuple confidence annotations.

This is the substrate beneath the PCQE framework: tables hold
:class:`~repro.storage.tuples.StoredTuple` rows, each carrying a confidence
value (element 1 of the paper) and a :class:`~repro.cost.CostModel`
describing what raising that confidence costs (element 4).

Databases are in-memory by default; ``Database.open(data_dir)`` returns
one persisted through a write-ahead log and checksummed snapshots (see
:mod:`repro.storage.durability`).
"""

from .csvio import CONFIDENCE_COLUMN, dump_csv, load_csv
from .database import Database
from .durability import (
    DurabilityManager,
    FaultInjector,
    FaultSpec,
    RecoveryReport,
    RetryPolicy,
    SimulatedCrash,
    recover,
)
from .schema import Column, Schema
from .statistics import ColumnStatistics, TableStatistics, collect_statistics
from .table import Table
from .tuples import StoredTuple, TupleId
from .types import BOOLEAN, INTEGER, REAL, TEXT, DataType

__all__ = [
    "DataType",
    "INTEGER",
    "REAL",
    "TEXT",
    "BOOLEAN",
    "Column",
    "Schema",
    "TupleId",
    "StoredTuple",
    "Table",
    "Database",
    "load_csv",
    "dump_csv",
    "CONFIDENCE_COLUMN",
    "ColumnStatistics",
    "TableStatistics",
    "collect_statistics",
    "DurabilityManager",
    "FaultInjector",
    "FaultSpec",
    "RecoveryReport",
    "RetryPolicy",
    "SimulatedCrash",
    "recover",
]
