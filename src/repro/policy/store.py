"""The policy store: RBAC registry + confidence-policy selection.

The store holds roles (with an inheritance hierarchy), purposes (a tree),
users (with role assignments) and confidence policies.  Policy selection —
"the policy evaluation component first selects the confidence policy
associated with the role of user U [and] his query purpose" (§3.2) —
resolves which threshold applies to a (subject, purpose) pair:

* every role the subject holds, **plus all junior roles those inherit**,
  is considered (a Manager who inherits Secretary is covered by
  Secretary policies too);
* the purpose and **all its ancestors** are considered (a policy on
  ``decision-making`` covers ``investment`` if that is its child);
* among applicable policies the *strictest* (maximum threshold) wins by
  default; ``combination="most_specific"`` instead prefers the policy whose
  purpose is nearest the query's purpose, breaking ties by strictness.

With no applicable policy the store either denies (``default_threshold
= None`` → ``NoApplicablePolicyError``) or applies a
configured default threshold.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ReproError
from .model import ConfidencePolicy, Purpose, Role, User

__all__ = ["PolicyStore"]


class PolicyStore:
    """Registry of roles, purposes, users and confidence policies."""

    def __init__(
        self,
        default_threshold: float | None = None,
        combination: str = "strictest",
    ) -> None:
        if combination not in ("strictest", "most_specific"):
            raise ReproError(
                f"unknown combination mode {combination!r}", code="PolicyError"
            )
        if default_threshold is not None and not 0.0 <= default_threshold <= 1.0:
            raise ReproError(
                f"default threshold must be in [0, 1], got {default_threshold}",
                code="PolicyError",
            )
        self.default_threshold = default_threshold
        self.combination = combination
        self._roles: dict[str, Role] = {}
        self._juniors: dict[str, set[str]] = {}
        self._purposes: dict[str, Purpose] = {}
        self._users: dict[str, User] = {}
        self._policies: list[ConfidencePolicy] = []

    # -- roles -------------------------------------------------------------

    def add_role(self, name: str, inherits: Iterable[str] = ()) -> Role:
        """Register a role; *inherits* names junior roles it subsumes."""
        if name in self._roles:
            raise ReproError(f"role {name!r} already exists", code="PolicyError")
        juniors = set(inherits)
        for junior in juniors:
            self._require_role(junior)
        role = Role(name)
        self._roles[name] = role
        self._juniors[name] = juniors
        return role

    def role(self, name: str) -> Role:
        return self._require_role(name)

    def role_closure(self, name: str) -> set[str]:
        """The role plus every junior role it transitively inherits."""
        self._require_role(name)
        closure: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current in closure:
                continue
            closure.add(current)
            frontier.extend(self._juniors.get(current, ()))
        return closure

    def _require_role(self, name: str) -> Role:
        try:
            return self._roles[name]
        except KeyError:
            raise ReproError(f"no role {name!r}", code="UnknownRoleError") from None

    # -- purposes ------------------------------------------------------------

    def add_purpose(
        self, name: str, parent: str | None = None, description: str = ""
    ) -> Purpose:
        """Register a purpose under an optional *parent* purpose."""
        if name in self._purposes:
            raise ReproError(f"purpose {name!r} already exists", code="PolicyError")
        if parent is not None and parent not in self._purposes:
            raise ReproError(
                f"no parent purpose {parent!r}", code="UnknownPurposeError"
            )
        purpose = Purpose(name, parent, description)
        self._purposes[name] = purpose
        return purpose

    def purpose(self, name: str) -> Purpose:
        try:
            return self._purposes[name]
        except KeyError:
            raise ReproError(
                f"no purpose {name!r}", code="UnknownPurposeError"
            ) from None

    def purpose_ancestry(self, name: str) -> list[str]:
        """The purpose followed by its ancestors, nearest first."""
        ancestry = []
        current: str | None = name
        while current is not None:
            purpose = self.purpose(current)
            ancestry.append(purpose.name)
            current = purpose.parent
            if current in ancestry:
                raise ReproError(f"purpose cycle at {current!r}", code="PolicyError")
        return ancestry

    # -- users ---------------------------------------------------------------

    def add_user(self, name: str, roles: Iterable[str] = ()) -> User:
        if name in self._users:
            raise ReproError(f"user {name!r} already exists", code="PolicyError")
        user = User(name)
        self._users[name] = user
        for role in roles:
            self.grant_role(name, role)
        return user

    def user(self, name: str) -> User:
        try:
            return self._users[name]
        except KeyError:
            raise ReproError(f"no user {name!r}", code="UnknownUserError") from None

    def grant_role(self, user_name: str, role_name: str) -> None:
        self._require_role(role_name)
        self.user(user_name).roles.add(role_name)

    def revoke_role(self, user_name: str, role_name: str) -> None:
        self.user(user_name).roles.discard(role_name)

    # -- policies ------------------------------------------------------------

    def add_policy(
        self, role: str, purpose: str, threshold: float
    ) -> ConfidencePolicy:
        """Register ``⟨role, purpose, threshold⟩``."""
        self._require_role(role)
        self.purpose(purpose)
        policy = ConfidencePolicy(role, purpose, threshold)
        self._policies.append(policy)
        return policy

    def policies(self) -> list[ConfidencePolicy]:
        return list(self._policies)

    def applicable_policies(
        self, subject: str, purpose: str, subject_is_user: bool = True
    ) -> list[ConfidencePolicy]:
        """All policies covering the subject's roles and the purpose chain.

        *subject* is a user name by default, or a role name when
        ``subject_is_user=False``.
        """
        if subject_is_user:
            roles = set()
            for role in self.user(subject).roles:
                roles |= self.role_closure(role)
        else:
            roles = self.role_closure(subject)
        ancestry = self.purpose_ancestry(purpose)
        covered_purposes = set(ancestry)
        return [
            policy
            for policy in self._policies
            if policy.role in roles and policy.purpose in covered_purposes
        ]

    def threshold_for(
        self, subject: str, purpose: str, subject_is_user: bool = True
    ) -> float:
        """The effective confidence threshold for (subject, purpose).

        Applies the store's combination mode across applicable policies.
        Raises ``NoApplicablePolicyError`` when nothing
        applies and no default threshold is configured.
        """
        applicable = self.applicable_policies(subject, purpose, subject_is_user)
        if not applicable:
            if self.default_threshold is None:
                raise ReproError(
                    f"no confidence policy covers ({subject!r}, {purpose!r}) "
                    f"and the store denies by default",
                    code="NoApplicablePolicyError",
                )
            return self.default_threshold
        if self.combination == "strictest":
            return max(policy.threshold for policy in applicable)
        # most_specific: prefer the policy nearest the query's purpose.
        ancestry = self.purpose_ancestry(purpose)
        depth = {name: index for index, name in enumerate(ancestry)}
        best = min(
            applicable,
            key=lambda policy: (depth[policy.purpose], -policy.threshold),
        )
        return best.threshold

    def select_policy(
        self, subject: str, purpose: str, subject_is_user: bool = True
    ) -> ConfidencePolicy:
        """The single policy whose threshold :meth:`threshold_for` returns.

        Useful for audit trails; synthesizes a pseudo-policy when only the
        default threshold applies.
        """
        applicable = self.applicable_policies(subject, purpose, subject_is_user)
        if not applicable:
            threshold = self.threshold_for(subject, purpose, subject_is_user)
            return ConfidencePolicy("*", purpose, threshold)
        threshold = self.threshold_for(subject, purpose, subject_is_user)
        for policy in applicable:
            if policy.threshold == threshold:
                return policy
        return applicable[0]  # pragma: no cover - unreachable by construction
