"""Lightweight result-graph partitioning for the D&C algorithm (§4.3).

Nodes are intermediate result tuples; two results are connected when they
share at least one base tuple, with edge weight = the number of shared base
tuples.  Partitioning greedily merges the pair of groups joined by the
heaviest (summed) edge while that weight is at least γ, subject to a cap on
the number of base tuples per group (the paper's first requirement — each
sub-problem must stay solvable in reasonable time).

Finding an optimal partition is NP-complete; this merging scheme is the
paper's "lightweight yet effective approach".  Complexity is
O(E log E) with the lazy-deletion heap (the paper quotes O(n²), which is
the dense-graph bound of the same procedure).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..errors import IncrementError
from .problem import IncrementProblem

__all__ = ["PartitionOptions", "partition_results"]


@dataclass
class PartitionOptions:
    """Partitioning knobs.

    ``gamma`` — stop merging when the heaviest inter-group weight drops
    below it (the paper's γ; its worked example merges down to weight 2
    with γ = 2, so the comparison is inclusive).  Our default is 1.0 —
    "merge anything that shares a base tuple" — which the γ-ablation bench
    shows dominates larger values on both cost and time for the §5.1
    workloads.
    ``max_group_tuples`` — refuse merges that would put more than this many
    base tuples in one group (``None`` disables the cap).
    """

    gamma: float = 1.0
    max_group_tuples: int | None = 200

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise IncrementError(f"gamma must be non-negative, got {self.gamma}")
        if self.max_group_tuples is not None and self.max_group_tuples < 1:
            raise IncrementError(
                f"max_group_tuples must be positive, got {self.max_group_tuples}"
            )


def partition_results(
    problem: IncrementProblem, options: PartitionOptions | None = None
) -> list[list[int]]:
    """Partition the problem's result indexes into groups.

    Returns a list of groups (each a sorted list of result indexes);
    singleton results with no shared base tuples stay alone.
    """
    options = options or PartitionOptions()
    count = len(problem.results)
    if count == 0:
        return []

    # Build inter-result edge weights from shared base tuples: every base
    # tuple contributes 1 to each pair of results it feeds.
    weights: dict[tuple[int, int], float] = {}
    for indexes in problem.results_by_slot:
        for position, a in enumerate(indexes):
            for b in indexes[position + 1 :]:
                key = (a, b) if a < b else (b, a)
                weights[key] = weights.get(key, 0.0) + 1.0

    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    # Per-group adjacency (summed weights) and base-tuple sets.
    adjacency: dict[int, dict[int, float]] = {index: {} for index in range(count)}
    for (a, b), weight in weights.items():
        adjacency[a][b] = weight
        adjacency[b][a] = weight
    group_tuples: dict[int, set[int]] = {
        index: set(slots) for index, slots in enumerate(problem.result_slots)
    }

    heap: list[tuple[float, int, int]] = [
        (-weight, a, b) for (a, b), weight in weights.items()
    ]
    heapq.heapify(heap)

    while heap:
        negated, a, b = heapq.heappop(heap)
        weight = -negated
        if weight < options.gamma:
            break
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        # Stale entry? The live weight between the two groups must match.
        live = adjacency[root_a].get(root_b)
        if live is None or live != weight:
            continue
        if options.max_group_tuples is not None:
            merged_size = len(group_tuples[root_a] | group_tuples[root_b])
            if merged_size > options.max_group_tuples:
                # Unmergeable pair: drop the edge so it never resurfaces.
                del adjacency[root_a][root_b]
                del adjacency[root_b][root_a]
                continue
        # Merge the smaller adjacency into the larger.
        if len(adjacency[root_a]) < len(adjacency[root_b]):
            root_a, root_b = root_b, root_a
        parent[root_b] = root_a
        group_tuples[root_a] |= group_tuples.pop(root_b)
        merged = adjacency.pop(root_b)
        neighbours = adjacency[root_a]
        neighbours.pop(root_b, None)
        for other, other_weight in merged.items():
            if other == root_a:
                continue
            combined = neighbours.get(other, 0.0) + other_weight
            neighbours[other] = combined
            adjacency[other].pop(root_b, None)
            adjacency[other][root_a] = combined
            heapq.heappush(heap, (-combined, root_a, other))

    groups: dict[int, list[int]] = {}
    for index in range(count):
        groups.setdefault(find(index), []).append(index)
    return [sorted(group) for group in sorted(groups.values())]
