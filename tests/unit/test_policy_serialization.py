"""Unit tests for policy-store persistence."""

import io

import pytest

from repro.errors import ReproError
from repro.policy import (
    PolicyStore,
    load_store,
    save_store,
    store_from_dict,
    store_to_dict,
)
from tests.error_codes import raises_code


@pytest.fixture
def store() -> PolicyStore:
    s = PolicyStore(default_threshold=0.1, combination="most_specific")
    s.add_role("junior")
    s.add_role("senior", inherits=["junior"])
    s.add_role("chief", inherits=["senior"])
    s.add_purpose("ops", description="operations")
    s.add_purpose("reporting", parent="ops")
    s.add_user("uma", roles=["senior"])
    s.add_user("vik")
    s.add_policy("junior", "ops", 0.3)
    s.add_policy("senior", "reporting", 0.7)
    return s


def equivalent(a: PolicyStore, b: PolicyStore) -> bool:
    return store_to_dict(a) == store_to_dict(b)


class TestRoundTrip:
    def test_dict_roundtrip(self, store):
        rebuilt = store_from_dict(store_to_dict(store))
        assert equivalent(store, rebuilt)

    def test_behaviour_survives_roundtrip(self, store):
        rebuilt = store_from_dict(store_to_dict(store))
        assert rebuilt.threshold_for("uma", "reporting") == store.threshold_for(
            "uma", "reporting"
        )
        assert rebuilt.role_closure("chief") == {"chief", "senior", "junior"}
        assert rebuilt.purpose_ancestry("reporting") == ["reporting", "ops"]
        assert rebuilt.default_threshold == 0.1
        assert rebuilt.combination == "most_specific"

    def test_file_roundtrip(self, store, tmp_path):
        path = tmp_path / "policies.json"
        save_store(store, path)
        assert equivalent(store, load_store(path))

    def test_stream_roundtrip(self, store):
        buffer = io.StringIO()
        save_store(store, buffer)
        buffer.seek(0)
        assert equivalent(store, load_store(buffer))

    def test_order_independent_rebuild(self, store):
        data = store_to_dict(store)
        data["roles"].reverse()  # chief (depends on senior) now first
        data["purposes"].reverse()
        rebuilt = store_from_dict(data)
        assert equivalent(store, rebuilt)

    def test_empty_store(self):
        empty = PolicyStore()
        assert equivalent(empty, store_from_dict(store_to_dict(empty)))
        assert store_from_dict(store_to_dict(empty)).default_threshold is None


class TestValidation:
    def test_unknown_version_rejected(self, store):
        data = store_to_dict(store)
        data["version"] = 99
        with raises_code(ReproError, "PolicyError"):
            store_from_dict(data)

    def test_role_cycle_rejected(self, store):
        data = store_to_dict(store)
        for role in data["roles"]:
            if role["name"] == "junior":
                role["inherits"] = ["chief"]
        with raises_code(ReproError, "PolicyError"):
            store_from_dict(data)

    def test_purpose_cycle_rejected(self, store):
        data = store_to_dict(store)
        for purpose in data["purposes"]:
            if purpose["name"] == "ops":
                purpose["parent"] = "reporting"
        with raises_code(ReproError, "PolicyError"):
            store_from_dict(data)


class TestCliPersistence:
    def test_save_and_load_through_shell(self, tmp_path):
        from repro.cli import CommandShell

        shell = CommandShell()
        shell.execute_line("role add analyst")
        shell.execute_line("purpose add reporting")
        shell.execute_line("user add mira analyst")
        shell.execute_line("policy add analyst reporting 0.5")
        path = tmp_path / "p.json"
        assert "saved" in shell.execute_line(f"policy save {path}")

        fresh = CommandShell()
        assert "loaded" in fresh.execute_line(f"policy load {path}")
        assert fresh.policies.threshold_for("mira", "reporting") == 0.5
