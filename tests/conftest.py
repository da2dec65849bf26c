"""Shared fixtures: small databases, increment problems, chaos tooling."""

from __future__ import annotations

import pytest

from repro.cost import LinearCost
from repro.increment import IncrementProblem
from repro.lineage import lineage_and, lineage_or, var
from repro.server.faults import NetworkFaultInjector, NetworkFaultSpec
from repro.storage import Database, REAL, Schema, TEXT
from repro.workload import venture_capital_database


@pytest.fixture
def empty_db() -> Database:
    return Database("test")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` patches ``owner.name`` to count its calls
    and returns the one-element counter list — for the work-count guards
    (counts repeat exactly, timings do not)."""

    def count(owner, name):
        calls = [0]
        original = getattr(owner, name)

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count


@pytest.fixture
def no_new_threads(monkeypatch):
    """From here on, starting any thread fails the test."""
    import threading

    def refuse(self):
        raise AssertionError(f"thread {self.name!r} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.fixture
def network_fault():
    """Factory for armed, seeded network fault injectors (chaos tests).

    Usage: ``injector = network_fault("server.write", "torn_frame",
    occurrence=2, seed=7)``.  Occurrence 1 is the hello exchange; chaos
    tests usually target occurrence 2+ so the handshake survives.
    """

    def arm(
        point: str, mode: str, occurrence: int = 1, seed: int = 0, **kwargs
    ) -> NetworkFaultInjector:
        return NetworkFaultInjector(
            NetworkFaultSpec(
                point=point, mode=mode, occurrence=occurrence, seed=seed, **kwargs
            )
        )

    return arm


@pytest.fixture
def proposal_db() -> Database:
    """Two tables mirroring the paper's schemas, with mixed confidences."""
    db = Database("test")
    proposal = db.create_table(
        "Proposal",
        Schema.of(("Company", TEXT), ("Proposal", TEXT), ("Funding", REAL)),
    )
    rows = [
        ("A", "p1", 1.5, 0.2),
        ("B", "p2", 0.8, 0.3),
        ("B", "p3", 0.9, 0.4),
        ("C", "p4", 1.2, 0.5),
        ("D", "p5", 0.6, 0.6),
    ]
    for company, text, funding, confidence in rows:
        proposal.insert(
            [company, text, funding],
            confidence=confidence,
            cost_model=LinearCost(100.0),
        )
    info = db.create_table(
        "CompanyInfo", Schema.of(("Company", TEXT), ("Income", REAL))
    )
    for company, income, confidence in [
        ("A", 1.0, 0.05),
        ("B", 2.0, 0.10),
        ("C", 3.0, 0.15),
        ("E", 4.0, 0.20),
    ]:
        info.insert(
            [company, income],
            confidence=confidence,
            cost_model=LinearCost(100.0),
        )
    return db


@pytest.fixture
def running_example():
    """The paper's §3.1 scenario (database + policies + notable tuples)."""
    return venture_capital_database()


@pytest.fixture
def paper_increment_problem() -> tuple[IncrementProblem, dict]:
    """The §3.1 increment instance: F = (p02 + p03 − p02·p03)·p13, β=0.06.

    Cost structure: +0.1 on tuple "02" costs 100, on "03" costs 10, and on
    "13" costs 10.
    """
    db = Database("paper")
    proposal = db.create_table(
        "Proposal",
        Schema.of(("Company", TEXT), ("Proposal", TEXT), ("Funding", REAL)),
    )
    t02 = proposal.insert(
        ["B", "p2", 0.8], confidence=0.3, cost_model=LinearCost(1000.0)
    )
    t03 = proposal.insert(
        ["B", "p3", 0.9], confidence=0.4, cost_model=LinearCost(100.0)
    )
    info = db.create_table(
        "CompanyInfo", Schema.of(("Company", TEXT), ("Income", REAL))
    )
    t13 = info.insert(
        ["B", 2.0], confidence=0.1, cost_model=LinearCost(100.0)
    )
    lineage = lineage_and(lineage_or(var(t02), var(t03)), var(t13))
    problem = IncrementProblem.from_results(
        [lineage], db, threshold=0.06, required_count=1, delta=0.1
    )
    return problem, {"db": db, "t02": t02, "t03": t03, "t13": t13}
