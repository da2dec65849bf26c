"""Policy-domain model: roles, users, purposes, confidence policies.

A confidence policy (paper Definition 1) is a triple ``⟨role, purpose, β⟩``:
a user acting under *role* who issues a query for *purpose* may only access
result tuples whose confidence exceeds ``β``.  The policy store organizes
roles in an RBAC hierarchy and purposes in a tree, so policies written
against general roles/purposes cover their specializations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = ["Role", "User", "Purpose", "ConfidencePolicy"]


@dataclass(frozen=True)
class Role:
    """A job function within the organization (RBAC role).

    ``juniors`` in the registry point from a senior role to the roles it
    inherits from; policies attached to a junior role also apply to its
    seniors only if the store is configured that way (see
    :class:`~repro.policy.store.PolicyStore`).
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("role name must be non-empty", code="PolicyError")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Purpose:
    """A reason for accessing data, organized in a tree.

    ``parent`` is the name of the broader purpose (``None`` for roots), e.g.
    ``investment`` might specialize ``decision-making``.
    """

    name: str
    parent: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("purpose name must be non-empty", code="PolicyError")

    def __str__(self) -> str:
        return self.name


@dataclass
class User:
    """A human subject holding one or more roles."""

    name: str
    roles: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("user name must be non-empty", code="PolicyError")


@dataclass(frozen=True)
class ConfidencePolicy:
    """``⟨role, purpose, threshold⟩`` — Definition 1 of the paper.

    Results of a query issued by a user under *role* for *purpose* are
    accessible only when their confidence value is strictly higher than
    *threshold* (the paper uses "higher than β").
    """

    role: str
    purpose: str
    threshold: float

    def __post_init__(self) -> None:
        if not self.role:
            raise ReproError("policy role must be non-empty", code="PolicyError")
        if not self.purpose:
            raise ReproError("policy purpose must be non-empty", code="PolicyError")
        if not 0.0 <= self.threshold <= 1.0:
            raise ReproError(
                f"policy threshold must be in [0, 1], got {self.threshold}",
                code="PolicyError",
            )

    def admits(self, confidence: float) -> bool:
        """Whether a result with *confidence* passes this policy."""
        return confidence > self.threshold

    def __str__(self) -> str:
        return f"<{self.role}, {self.purpose}, {self.threshold}>"
