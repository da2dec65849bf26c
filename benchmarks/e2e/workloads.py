"""Seeded op schedules for the four end-to-end workloads.

This module is the only place ``--seed`` reaches: the same seed yields a
byte-identical op stream (:func:`schedule_digest` proves it),
and the system under test only ever receives the generated ops.  The
database itself is the fixed healthcare scenario (``DATA_SEED``) so that
what changes between seeds is *which* keys, slices and filter values are
asked, not how much data there is — result sizes and therefore latencies
stay comparable from seed to seed.

Sizes are named for their base-row counts (~2.5 base rows per patient).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "DATA_SEED",
    "Op",
    "Workload",
    "WORKLOADS",
    "SMOKE_PATIENTS",
    "TRACE_OPS",
    "schedule_digest",
    "trace_ops",
]

#: Seed of ``healthcare_database``; fixed so every seed queries one dataset.
DATA_SEED = 7

#: Ops replayed by the traced run (per-layer metrics are per these ops).
TRACE_OPS = 120

DIAGNOSES = ("breast", "lung", "colon", "prostate", "lymphoma")
STAGES = ("I", "II", "III", "IV")
SOURCES = ("registry", "survey", "chart")


@dataclass(frozen=True)
class Op:
    """One request: an ``ask`` (``fraction`` set) or a DML ``sql``."""

    kind: str  # "ask" | "dml"
    label: str  # op class, e.g. "ask.join" — informational latency rows
    sql: str
    fraction: float = 0.0
    #: False for an op that is not the last of its iteration; the client
    #: only stops between iterations, so the final database state is
    #: always a whole number of them.
    closes: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    patients: int
    user: str
    purpose: str
    #: β of the ⟨role, purpose⟩ policy the user runs under.
    beta: float
    #: True when the stream commits; False workloads must see 0 commits.
    writes: bool
    #: True when a query's reply never depends on earlier ops of the
    #: stream, so the oracle may memoise it by SQL text.
    repeatable: bool
    make_stream: Callable[["Workload", int], Iterator[Op]]

    def stream(self, seed: int) -> Iterator[Op]:
        """The one client's endless op stream under *seed*."""
        return self.make_stream(self, seed)


def _rng(workload: Workload, seed: int) -> random.Random:
    return random.Random(f"{seed}/{workload.name}")


def _pid(index: int) -> str:
    return f"P{index:04d}"  # the scenario's own key format


# -- point-ask-250 ----------------------------------------------------------


def _point_stream(workload: Workload, seed: int) -> Iterator[Op]:
    # One point filter to three one-patient joins.  The join costs half
    # as much again as the filter; at 1 : 1 the median of all asks would
    # fall in the gap between the two classes and jump from one to the
    # other on a breath of noise, at 1 : 3 it sits a third of the way
    # into the join class, where the samples are dense.
    rng = _rng(workload, seed)
    while True:
        pid = _pid(rng.randrange(workload.patients))
        yield Op(
            "ask", "ask.point",
            f"SELECT PatientId, Diagnosis, Stage FROM Patients "
            f"WHERE PatientId = '{pid}'",
        )
        for _ in range(3):
            pid = _pid(rng.randrange(workload.patients))
            yield Op(
                "ask", "ask.point-join",
                f"SELECT p.PatientId, t.Treatment, t.ResponseRate "
                f"FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
                f"WHERE p.PatientId = '{pid}'",
            )


# -- scan-ask-25k ----------------------------------------------------------

_FILTER = ("ask.filter",
           "SELECT PatientId, Source FROM Patients "
           "WHERE Diagnosis = '{d}' AND Stage = '{s}'")
_JOIN = ("ask.join",
         "SELECT p.PatientId, t.Treatment, t.ResponseRate "
         "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
         "WHERE p.Diagnosis = '{d}' AND p.Stage = '{s}'")
_JOIN_FILTERED = ("ask.join-filtered",
                  "SELECT p.PatientId, t.Treatment FROM Patients p "
                  "JOIN Treatments t ON p.PatientId = t.PatientId "
                  "WHERE p.Diagnosis = '{d}' AND p.Stage = '{s}' "
                  "AND t.ResponseRate > 0.4")
_DISTINCT = ("ask.distinct",
             "SELECT DISTINCT t.Treatment "
             "FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
             "WHERE p.Diagnosis = '{d}' AND p.Stage = '{s}'")
_SEMIJOIN = ("ask.semijoin",
             "SELECT PatientId FROM Patients "
             "WHERE Diagnosis = '{d}' AND Stage = '{s}' AND PatientId IN "
             "(SELECT PatientId FROM Treatments WHERE ResponseRate > 0.6)")
#: One cycle per Diagnosis × Stage value.  In latency the classes order
#: filter < semijoin < filtered join < distinct < join; with the filtered
#: join asked twice, a third of the asks lie below its class and a third
#: above, so the median of all asks sits in the middle of that class —
#: inside a dense cluster of samples, not in a gap between two classes.
_SCAN_CYCLE = (_FILTER, _JOIN_FILTERED, _DISTINCT, _JOIN_FILTERED, _SEMIJOIN, _JOIN)


def _scan_stream(workload: Workload, seed: int) -> Iterator[Op]:
    # Every seed visits all 20 Diagnosis×Stage values under the whole
    # cycle; the seed only permutes the order, so the work per round of
    # 120 ops is the same for every seed.
    combos = [(d, s) for d in DIAGNOSES for s in STAGES]
    _rng(workload, seed).shuffle(combos)
    for d, s in itertools.cycle(combos):
        for label, template in _SCAN_CYCLE:
            yield Op("ask", label, template.format(d=d, s=s))


# -- improve-ask-2.5k -------------------------------------------------------

#: Patients per improvement slice; slices tile the whole registry.
SLICE_PATIENTS = 200
#: Confidence every slice is reset to before its ask.  Low on purpose:
#: lifting a row from 0.1 × 0.1 over β = 0.75 takes the greedy solver
#: about twice the δ-steps that 0.5 would, for the same write-back size —
#: which is what lets strategy finding outweigh the three commits of an
#: iteration (see README, "improve-ask-2.5k").
RESET_CONFIDENCE = 0.1


def _improve_stream(workload: Workload, seed: int) -> Iterator[Op]:
    # The seed permutes the order in which the slices are visited; every
    # slice is reset to one confidence before its ask, so each ask faces
    # the same shortfall whenever (and however often) it is asked.
    width = min(SLICE_PATIENTS, workload.patients)
    starts = list(range(0, workload.patients - width + 1, width))
    _rng(workload, seed).shuffle(starts)
    for start in itertools.cycle(starts):
        lo, hi = _pid(start), _pid(start + width)
        for table in ("Patients", "Treatments"):
            yield Op(
                "dml", "dml.reset",
                f"UPDATE {table} SET Source = Source "
                f"WHERE PatientId >= '{lo}' AND PatientId < '{hi}' "
                f"WITH CONFIDENCE {RESET_CONFIDENCE}",
                closes=False,
            )
        yield Op(
            "ask", "ask.improve",
            f"SELECT p.PatientId, t.Treatment, t.ResponseRate "
            f"FROM Patients p JOIN Treatments t ON p.PatientId = t.PatientId "
            f"WHERE p.PatientId >= '{lo}' AND p.PatientId < '{hi}'",
            fraction=0.5,
        )


# -- write-dml-10k ---------------------------------------------------------


def _write_stream(workload: Workload, seed: int) -> Iterator[Op]:
    rng = _rng(workload, seed)
    for iteration in itertools.count():
        key = f"W-{iteration:06d}"  # fresh per iteration
        diagnosis, source = rng.choice(DIAGNOSES), rng.choice(SOURCES)
        stage, new_stage = rng.sample(STAGES, 2)
        inserted = rng.choice((0.5, 0.6, 0.7))
        # Straddles omar's β = 0.75: the read-after-write ask releases
        # the row for 0.8/0.9 and withholds it for 0.7.
        updated = rng.choice((0.7, 0.8, 0.9))
        yield Op(
            "dml", "dml.insert",
            f"INSERT INTO Patients VALUES "
            f"('{key}', '{diagnosis}', '{stage}', '{source}') "
            f"WITH CONFIDENCE {inserted}",
            closes=False,
        )
        yield Op(
            "dml", "dml.update",
            f"UPDATE Patients SET Stage = '{new_stage}' "
            f"WHERE PatientId = '{key}' WITH CONFIDENCE {updated}",
            closes=False,
        )
        yield Op(
            "ask", "ask.read-own-write",
            f"SELECT PatientId, Stage FROM Patients WHERE PatientId = '{key}'",
            closes=False,
        )
        yield Op("dml", "dml.delete",
                 f"DELETE FROM Patients WHERE PatientId = '{key}'")


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "point-ask-250", 100, "rachel", "research", 0.45,
            writes=False, repeatable=True,
            make_stream=_point_stream,
        ),
        Workload(
            "scan-ask-25k", 10000, "rachel", "research", 0.45,
            writes=False, repeatable=True,
            make_stream=_scan_stream,
        ),
        Workload(
            "improve-ask-2.5k", 1000, "omar", "treatment-evaluation", 0.75,
            writes=True, repeatable=True,
            make_stream=_improve_stream,
        ),
        Workload(
            "write-dml-10k", 4000, "omar", "treatment-evaluation", 0.75,
            writes=True, repeatable=False,
            make_stream=_write_stream,
        ),
    )
}

#: Registry size for ``--smoke`` (every workload, tiny).
SMOKE_PATIENTS = 200


def trace_ops(workload: Workload, seed: int, count: int = TRACE_OPS) -> list[Op]:
    """The ops the traced run replays: the stream's first *count*,
    extended to the end of the iteration they fall in."""
    ops: list[Op] = []
    for op in workload.stream(seed):
        ops.append(op)
        if len(ops) >= count and op.closes:
            return ops
    raise AssertionError("op streams are endless")


def schedule_digest(workload: Workload, seed: int, ops: int = 400) -> str:
    """SHA-256 over the first *ops* ops of the stream."""
    digest = hashlib.sha256()
    for op in itertools.islice(workload.stream(seed), ops):
        digest.update(
            f"{op.kind}\t{op.label}\t{op.sql}\t{op.fraction!r}\n".encode("utf-8")
        )
    return digest.hexdigest()
