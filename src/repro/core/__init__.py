"""The PCQE framework (paper Figure 1): query → policy → increment → reply."""

from .framework import (
    BatchResult,
    CostQuote,
    PCQEngine,
    PCQEResult,
    QueryRequest,
    QueryStatus,
    SOLVERS,
    greedy_fallback,
    make_solver,
)

__all__ = [
    "PCQEngine",
    "BatchResult",
    "QueryRequest",
    "QueryStatus",
    "PCQEResult",
    "CostQuote",
    "SOLVERS",
    "make_solver",
    "greedy_fallback",
]
