"""repro — Policy-Compliant Query Evaluation with data confidence policies.

A complete, from-scratch implementation of Dai, Lin, Kantarcioglu, Bertino,
Celikel, Thuraisingham, *Query Processing Techniques for Compliance with
Data Confidence Policies* (SDM @ VLDB 2009), and every substrate it needs:

* :mod:`repro.storage` — typed relational storage with per-tuple
  confidence and cost-model annotations;
* :mod:`repro.sql` / :mod:`repro.algebra` — a SQL engine whose results
  carry boolean lineage over base tuples;
* :mod:`repro.lineage` — exact probability of lineage
  under tuple independence;
* :mod:`repro.trust` — provenance-based confidence assignment;
* :mod:`repro.policy` — RBAC roles, purposes and ⟨role, purpose, β⟩
  confidence policies enforced on query results;
* :mod:`repro.cost` — cost-of-confidence models (linear / binomial /
  exponential / logarithmic);
* :mod:`repro.increment` — the paper's three strategy-finding algorithms
  (exact branch-and-bound with heuristics H1–H4, two-phase greedy,
  divide-and-conquer over a partitioned result graph);
* :mod:`repro.core` — the PCQE engine tying it all together;
* :mod:`repro.obs` — tracing spans, metrics, and profiling for every
  stage above (see ``docs/OBSERVABILITY.md``);
* :mod:`repro.workload` — the §5.1 synthetic-workload generator and the
  paper's running example as ready-made scenarios.

Quickstart::

    from repro import PCQEngine, QueryRequest
    from repro.workload import venture_capital_database

    scenario = venture_capital_database()
    engine = PCQEngine(scenario.db, scenario.policies)
    result = engine.execute(
        QueryRequest(scenario.QUERY, purpose="investment",
                     required_fraction=0.5),
        user="bob",
    )
    print(result.status, result.rows)
"""

from . import obs
from .core import (
    CostQuote,
    PCQEngine,
    PCQEResult,
    QueryRequest,
    QueryStatus,
    make_solver,
)
from .errors import ReproError
from .storage import Database, Schema, TupleId

__version__ = "1.0.0"

__all__ = [
    "PCQEngine",
    "QueryRequest",
    "QueryStatus",
    "PCQEResult",
    "CostQuote",
    "make_solver",
    "Database",
    "Schema",
    "TupleId",
    "ReproError",
    "obs",
    "__version__",
]
