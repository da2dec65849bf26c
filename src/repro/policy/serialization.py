"""Policy-store persistence.

Administrators version policy sets alongside code; these helpers round-trip
a :class:`~repro.policy.PolicyStore` through a plain JSON-able dict (and
files), preserving roles (with inheritance), the purpose tree, users with
role assignments, policies, and the store's configuration.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

from ..errors import ReproError
from .store import PolicyStore

__all__ = ["store_to_dict", "store_from_dict", "save_store", "load_store"]

_FORMAT_VERSION = 1


def store_to_dict(store: PolicyStore) -> dict[str, Any]:
    """A JSON-able snapshot of *store*."""
    return {
        "version": _FORMAT_VERSION,
        "default_threshold": store.default_threshold,
        "combination": store.combination,
        "roles": [
            {"name": role.name, "inherits": sorted(store._juniors[role.name])}
            for role in store._roles.values()
        ],
        "purposes": [
            {
                "name": purpose.name,
                "parent": purpose.parent,
                "description": purpose.description,
            }
            for purpose in store._purposes.values()
        ],
        "users": [
            {"name": user.name, "roles": sorted(user.roles)}
            for user in store._users.values()
        ],
        "policies": [
            {
                "role": policy.role,
                "purpose": policy.purpose,
                "threshold": policy.threshold,
            }
            for policy in store.policies()
        ],
    }


def store_from_dict(data: dict[str, Any]) -> PolicyStore:
    """Rebuild a :class:`PolicyStore` from :func:`store_to_dict` output.

    Roles and purposes are inserted in dependency order, so the snapshot's
    ordering does not matter.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported policy snapshot version {version!r}", code="PolicyError"
        )
    store = PolicyStore(
        default_threshold=data.get("default_threshold"),
        combination=data.get("combination", "strictest"),
    )

    # Roles: topological insert (a role's juniors must exist first).
    pending = {
        role["name"]: list(role.get("inherits", ())) for role in data["roles"]
    }
    while pending:
        ready = [
            name
            for name, inherits in pending.items()
            if all(junior not in pending for junior in inherits)
        ]
        if not ready:
            raise ReproError(
                f"role inheritance cycle among {sorted(pending)}",
                code="PolicyError",
            )
        for name in sorted(ready):
            store.add_role(name, inherits=pending.pop(name))

    pending_purposes = {
        purpose["name"]: purpose for purpose in data["purposes"]
    }
    while pending_purposes:
        ready = [
            name
            for name, purpose in pending_purposes.items()
            if purpose.get("parent") not in pending_purposes
        ]
        if not ready:
            raise ReproError(
                f"purpose parent cycle among {sorted(pending_purposes)}",
                code="PolicyError",
            )
        for name in sorted(ready):
            purpose = pending_purposes.pop(name)
            store.add_purpose(
                name,
                parent=purpose.get("parent"),
                description=purpose.get("description", ""),
            )

    for user in data["users"]:
        store.add_user(user["name"], roles=user.get("roles", ()))
    for policy in data["policies"]:
        store.add_policy(
            policy["role"], policy["purpose"], policy["threshold"]
        )
    return store


def save_store(store: PolicyStore, target: "str | Path | TextIO") -> None:
    """Write *store* as JSON to a path or open file.

    Path targets are replaced atomically (temp file + fsync + rename):
    the policy store is the system's access-control state, and a crash
    mid-save must leave the previous snapshot intact, not a truncated
    JSON document.
    """
    if isinstance(target, (str, Path)):
        from ..storage.durability.atomic import atomic_text_writer

        with atomic_text_writer(target) as handle:
            save_store(store, handle)
        return
    json.dump(store_to_dict(store), target, indent=2, sort_keys=True)
    target.write("\n")


def load_store(source: "str | Path | TextIO") -> PolicyStore:
    """Read a JSON policy snapshot from a path or open file."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            return load_store(handle)
    return store_from_dict(json.load(source))
