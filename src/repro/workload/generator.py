"""Synthetic workload generator (paper §5.1, Table 4).

The paper's experiments generate base tuples with "a randomly generated
confidence value around 0.1 and a cost function" drawn from the binomial /
exponential / logarithm families, associate "a certain number of base
tuples with each result tuple", and use "randomly generated DAGs to
represent queries" — i.e. random monotone lineage over the base tuples.
This module reproduces that setup deterministically from a seed.

Key knobs (Table 4 defaults in parentheses): data size = number of distinct
base tuples (10K), base tuples per result (5), increment step δ (0.1),
required fraction θ (50 %), confidence threshold β (0.6).

``locality`` controls how much results share base tuples: each result
draws its tuples from a sliding window over the tuple array, so nearby
results overlap — the structure the D&C partitioner exploits.  With
``locality=0`` tuples are drawn globally at random (minimal sharing).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..cost import CostModelSampler
from ..errors import ReproError
from ..lineage.circuit import CircuitPool
from ..lineage.confidence import ConfidenceFunction
from ..lineage.formula import Lineage, lineage_and, lineage_or, var
from ..storage.tuples import TupleId
from ..increment.problem import BaseTupleState, IncrementProblem

__all__ = ["WorkloadSpec", "GeneratedWorkload", "generate_problem"]


@dataclass
class WorkloadSpec:
    """Parameters of one synthetic strategy-finding instance.

    Defaults follow Table 4 of the paper (bold values).
    """

    data_size: int = 10_000
    tuples_per_result: int = 5
    delta: float = 0.1
    theta: float = 0.5
    threshold: float = 0.6
    confidence_center: float = 0.1
    confidence_spread: float = 0.05
    or_bias: float = 0.55
    locality: float = 3.0
    cost_sampler: CostModelSampler = field(default_factory=CostModelSampler)
    table_name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.data_size < 1:
            raise ReproError(
                f"data_size must be positive, got {self.data_size}",
                code="WorkloadError",
            )
        if self.tuples_per_result < 1:
            raise ReproError(
                f"tuples_per_result must be positive, got {self.tuples_per_result}",
                code="WorkloadError",
            )
        if self.tuples_per_result > self.data_size:
            raise ReproError(
                "tuples_per_result cannot exceed data_size "
                f"({self.tuples_per_result} > {self.data_size})",
                code="WorkloadError",
            )
        if not 0.0 < self.theta <= 1.0:
            raise ReproError(
                f"theta must be in (0, 1], got {self.theta}", code="WorkloadError"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ReproError(
                f"threshold must be in [0, 1], got {self.threshold}",
                code="WorkloadError",
            )
        if not 0.0 <= self.or_bias <= 1.0:
            raise ReproError(
                f"or_bias must be in [0, 1], got {self.or_bias}", code="WorkloadError"
            )
        if self.locality < 0:
            raise ReproError(
                f"locality must be >= 0, got {self.locality}", code="WorkloadError"
            )

    @property
    def result_count(self) -> int:
        """Number of intermediate result tuples.

        Each base tuple participates in roughly one result on average —
        "data size means the total number of distinct base tuples
        associated with results of a single query".
        """
        return max(1, self.data_size // self.tuples_per_result)


@dataclass
class GeneratedWorkload:
    """A generated instance plus its derived problem."""

    spec: WorkloadSpec
    seed: int
    problem: IncrementProblem
    requested_count: int
    achievable_count: int

    @property
    def clamped(self) -> bool:
        """Whether the θ requirement had to be reduced to stay feasible."""
        return self.requested_count > self.achievable_count


def _random_confidence(rng: random.Random, spec: WorkloadSpec) -> float:
    low = max(0.0, spec.confidence_center - spec.confidence_spread)
    high = min(1.0, spec.confidence_center + spec.confidence_spread)
    return rng.uniform(low, high)


def _random_lineage(
    rng: random.Random, variables: list[Lineage], or_bias: float
) -> Lineage:
    """A random monotone AND/OR tree over *variables* (each used once)."""
    if len(variables) == 1:
        return variables[0]
    split = rng.randint(1, len(variables) - 1)
    left = _random_lineage(rng, variables[:split], or_bias)
    right = _random_lineage(rng, variables[split:], or_bias)
    if rng.random() < or_bias:
        return lineage_or(left, right)
    return lineage_and(left, right)


def generate_problem(spec: WorkloadSpec, seed: int = 0) -> GeneratedWorkload:
    """Generate one strategy-finding instance from *spec* and *seed*.

    The required result count is ``ceil(θ · n)`` (all generated results
    start below the threshold), clamped to the number of results that can
    reach β at all — random AND-heavy lineage over capped-confidence
    tuples occasionally produces unreachable results, and the paper's
    requirement is meaningless beyond the achievable set.
    """
    rng = random.Random(seed)
    tuple_states: dict[TupleId, BaseTupleState] = {}
    tids: list[TupleId] = []
    for ordinal in range(spec.data_size):
        tid = TupleId(spec.table_name, ordinal)
        tuple_states[tid] = BaseTupleState(
            tid,
            _random_confidence(rng, spec),
            spec.cost_sampler.sample(rng),
        )
        tids.append(tid)

    results: list[ConfidenceFunction] = []
    circuit_pool = CircuitPool()  # one pool per instance (shared circuits)
    window = max(
        spec.tuples_per_result,
        int(round(spec.tuples_per_result * max(spec.locality, 1.0))),
    )
    for index in range(spec.result_count):
        if spec.locality > 0 and window < spec.data_size:
            start = rng.randint(0, spec.data_size - window)
            pool = tids[start : start + window]
        else:
            pool = tids
        chosen = rng.sample(pool, min(spec.tuples_per_result, len(pool)))
        lineage = _random_lineage(rng, [var(tid) for tid in chosen], spec.or_bias)
        results.append(
            ConfidenceFunction(lineage, f"λ{index}", pool=circuit_pool)
        )

    requested = math.ceil(spec.theta * len(results) - 1e-9)
    probe = IncrementProblem(
        results, tuple_states, spec.threshold, 0, spec.delta
    )
    achievable = probe.satisfied_count(probe.maximal_assignment())
    required = min(requested, achievable)
    problem = IncrementProblem(
        results, tuple_states, spec.threshold, required, spec.delta
    )
    return GeneratedWorkload(spec, seed, problem, requested, achievable)
