"""Provenance-based confidence assignment (paper element 1).

The paper obtains per-tuple confidence values with the technique of Dai et
al. 2008 ("An approach to evaluate data trustworthiness based on data
provenance"), which scores a data item from the trustworthiness of its
providers and the way it was collected.  This module implements a faithful-
in-spirit model sufficient to seed the PCQE pipeline:

* a :class:`DataSource` has a trust score in ``[0, 1]``;
* a :class:`CollectionMethod` has a reliability factor in ``[0, 1]``
  (e.g. automated sensor feed vs. manual transcription);
* a :class:`ProvenanceRecord` ties a tuple to one *originating* source +
  method, any number of *corroborating* sources, and an age;
* :class:`ConfidenceAssigner` combines them:

  .. math::

     p = \\Big(1 - \\prod_{s ∈ sources} (1 - trust_s · rel)\\Big)
         · decay^{age/half\\_life}

  — corroborating sources combine like independent witnesses (noisy-OR),
  collection reliability scales each witness, and confidence decays
  geometrically with data age.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ReproError
from ..storage.table import Table
from ..storage.tuples import TupleId

__all__ = [
    "DataSource",
    "CollectionMethod",
    "ProvenanceRecord",
    "ConfidenceAssigner",
]


def _check_unit(value: float, label: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ReproError(
            f"{label} must be in [0, 1], got {value}", code="ProvenanceError"
        )
    return float(value)


@dataclass(frozen=True)
class DataSource:
    """A data provider with a trust score."""

    name: str
    trust: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("source name must be non-empty", code="ProvenanceError")
        _check_unit(self.trust, f"trust of source {self.name!r}")


@dataclass(frozen=True)
class CollectionMethod:
    """How a data item was gathered, with a reliability factor."""

    name: str
    reliability: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError(
                "collection method name must be non-empty", code="ProvenanceError"
            )
        _check_unit(
            self.reliability, f"reliability of method {self.name!r}"
        )


@dataclass(frozen=True)
class ProvenanceRecord:
    """The provenance of one tuple."""

    source: DataSource
    method: CollectionMethod
    corroborations: tuple[DataSource, ...] = ()
    age_days: float = 0.0

    def __post_init__(self) -> None:
        if self.age_days < 0:
            raise ReproError(
                f"age_days must be >= 0, got {self.age_days}", code="ProvenanceError"
            )
        object.__setattr__(self, "corroborations", tuple(self.corroborations))


@dataclass
class ConfidenceAssigner:
    """Derives tuple confidences from provenance records.

    Parameters
    ----------
    half_life_days:
        Age at which confidence halves the decay factor's distance to zero
        (``decay ** (age / half_life)``); ``None`` disables aging.
    decay:
        Per-half-life retention factor in (0, 1].
    floor:
        Minimum confidence assigned to any record (never report data as
        impossible just because provenance is weak).
    """

    half_life_days: float | None = 365.0
    decay: float = 0.5
    floor: float = 0.01

    def __post_init__(self) -> None:
        if self.half_life_days is not None and self.half_life_days <= 0:
            raise ReproError(
                f"half_life_days must be positive, got {self.half_life_days}",
                code="ProvenanceError",
            )
        if not 0.0 < self.decay <= 1.0:
            raise ReproError(
                f"decay must be in (0, 1], got {self.decay}", code="ProvenanceError"
            )
        _check_unit(self.floor, "floor")

    def score(self, record: ProvenanceRecord) -> float:
        """Confidence of a tuple with the given provenance."""
        reliability = record.method.reliability
        miss = 1.0 - record.source.trust * reliability
        for witness in record.corroborations:
            miss *= 1.0 - witness.trust * reliability
        confidence = 1.0 - miss
        if self.half_life_days is not None and record.age_days > 0:
            confidence *= self.decay ** (record.age_days / self.half_life_days)
        return max(self.floor, min(1.0, confidence))

    def assign(
        self,
        table: Table,
        provenance: Mapping[TupleId, ProvenanceRecord],
        default: ProvenanceRecord | None = None,
    ) -> dict[TupleId, float]:
        """Score and store confidences for every tuple of *table*.

        Tuples missing from *provenance* use *default* (or keep their
        current confidence if no default is given).  Returns the applied
        confidences.
        """
        applied: dict[TupleId, float] = {}
        for row in table.scan():
            record = provenance.get(row.tid, default)
            if record is not None:
                applied[row.tid] = min(self.score(record), row.max_confidence)
        # Every row scored: one mutation, one WAL record on a durable table.
        table.update_rows(
            [tid.ordinal for tid in applied], confidence=list(applied.values())
        )
        return applied
