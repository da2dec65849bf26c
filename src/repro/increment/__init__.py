"""Confidence-increment strategy finding (paper element 4, §4).

The NP-hard optimization — which base tuples to verify, and to what
confidence, so that enough query results clear the policy threshold at
minimum cost — with the paper's three solvers:

* :func:`solve_heuristic` — exact branch-and-bound with heuristics H1–H4;
* :func:`solve_greedy` — two-phase greedy approximation;
* :func:`solve_dnc` — graph-partitioned divide-and-conquer.
"""

from .dnc import DncOptions, solve_dnc
from .greedy import GreedyOptions, solve_greedy
from .heuristic import HeuristicOptions, cost_beta, solve_heuristic
from .improvement import (
    ImprovementAction,
    ImprovementReceipt,
    ImprovementService,
    SimulatedImprovementService,
)
from .localsearch import LocalSearchOptions, solve_local_search
from .latency import (
    LeadTimeEstimate,
    VerificationLatencyModel,
    estimate_lead_time,
)
from .partition import PartitionOptions, partition_results
from .runtime import (
    Budget,
    DegradationChain,
    PartialProgress,
    SolverAttempt,
)
from .problem import (
    BaseTupleState,
    IncrementPlan,
    IncrementProblem,
    SearchState,
    SolverStats,
    ceil_required,
)

__all__ = [
    "IncrementProblem",
    "IncrementPlan",
    "BaseTupleState",
    "SearchState",
    "SolverStats",
    "ceil_required",
    "HeuristicOptions",
    "solve_heuristic",
    "cost_beta",
    "GreedyOptions",
    "solve_greedy",
    "PartitionOptions",
    "partition_results",
    "DncOptions",
    "solve_dnc",
    "LocalSearchOptions",
    "solve_local_search",
    "Budget",
    "DegradationChain",
    "PartialProgress",
    "SolverAttempt",
    "ImprovementService",
    "SimulatedImprovementService",
    "ImprovementAction",
    "ImprovementReceipt",
    "VerificationLatencyModel",
    "LeadTimeEstimate",
    "estimate_lead_time",
]
