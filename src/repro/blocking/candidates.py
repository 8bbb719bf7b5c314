"""Candidate record-pair generation: blocking + role/temporal filters.

Implements the two filtering steps of paper Section 4.1: after blocking,
record pairs of *impossible role types* (incompatible genders, unlinkable
role combinations, same certificate) are dropped, and pairs violating the
temporal constraints (non-overlapping plausible birth-year ranges) are
dropped.  What remains becomes the relational nodes of the dependency
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.blocking.base import Blocker, block_key_pairs
from repro.data.records import Dataset, Record
from repro.data.roles import CENSUS_ROLES, LINKABLE_ROLE_PAIRS, SINGLETON_ROLES, Role

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CandidatePair",
    "RecordTable",
    "generate_candidate_pairs",
    "pair_masks",
    "roles_linkable",
]


@dataclass(frozen=True)
class CandidatePair:
    """An unordered pair of records that survived blocking and filtering.

    ``rid_a < rid_b`` always holds, so a pair has one canonical identity.
    """

    rid_a: int
    rid_b: int

    def __post_init__(self) -> None:
        if self.rid_a >= self.rid_b:
            raise ValueError(f"pair must be ordered: ({self.rid_a}, {self.rid_b})")

    def key(self) -> tuple[int, int]:
        return (self.rid_a, self.rid_b)


def roles_linkable(role_a: Role, role_b: Role) -> bool:
    """True when one person could hold both roles (see repro.data.roles)."""
    pair = tuple(sorted((role_a, role_b), key=lambda r: r.value))
    return pair in LINKABLE_ROLE_PAIRS


def _genders_compatible(a: Record, b: Record) -> bool:
    gender_a, gender_b = a.gender, b.gender
    if gender_a is None or gender_b is None:
        return True  # unknown gender carries no evidence either way
    return gender_a == gender_b


def _temporally_compatible(a: Record, b: Record, slack_years: int) -> bool:
    lo_a, hi_a = a.birth_range()
    lo_b, hi_b = b.birth_range()
    return lo_a - slack_years <= hi_b and lo_b - slack_years <= hi_a


def generate_candidate_pairs(
    dataset: Dataset,
    blocker: Blocker,
    temporal_slack_years: int = 2,
    roles: Iterable[Role] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> Iterator[CandidatePair]:
    """Yield filtered candidate pairs for ``dataset`` under ``blocker``.

    Filters applied, in order:

    1. both records share a block key (the blocker's job);
    2. the records come from *different* certificates — two roles on one
       certificate are distinct people by construction;
    3. the role combination is linkable and genders agree;
    4. the plausible birth-year ranges overlap within ``slack`` years
       (the temporal constraints of Section 4.2.2 as a pre-filter).

    ``roles`` optionally restricts which records participate at all.

    ``metrics``, when given, receives per-filter rejection counters
    (``blocking.rejected_*``), the surviving ``blocking.candidate_pairs``
    count, and the ``blocking.reduction_ratio`` gauge (fraction of the
    full cross product pruned away) once the generator is exhausted.
    """
    if roles is None:
        records: list[Record] = list(dataset)
    else:
        records = dataset.records_with_role(roles)
    candidates = 0
    for rid_a, rid_b in block_key_pairs(records, blocker, metrics=metrics):
        a, b = dataset.record(rid_a), dataset.record(rid_b)
        if a.cert_id == b.cert_id:
            if metrics is not None:
                metrics.inc("blocking.rejected_same_cert")
            continue
        if not roles_linkable(a.role, b.role):
            if metrics is not None:
                metrics.inc("blocking.rejected_role")
            continue
        if (
            a.role in CENSUS_ROLES
            and b.role in CENSUS_ROLES
            and a.event_year == b.event_year
        ):
            # One household per person per census.
            if metrics is not None:
                metrics.inc("blocking.rejected_same_census")
            continue
        if not _genders_compatible(a, b):
            if metrics is not None:
                metrics.inc("blocking.rejected_gender")
            continue
        if not _temporally_compatible(a, b, temporal_slack_years):
            if metrics is not None:
                metrics.inc("blocking.rejected_temporal")
            continue
        candidates += 1
        yield CandidatePair(rid_a, rid_b)
    if metrics is not None:
        metrics.inc("blocking.candidate_pairs", candidates)
        total = len(records) * (len(records) - 1) // 2
        if total:
            metrics.set_gauge("blocking.reduction_ratio", 1.0 - candidates / total)


class RecordTable:
    """Records as integer columns, so the filters above run as numpy masks.

    Gender values and roles are dictionary-encoded; equality between
    codes is equality between the original values, so every mask of
    :func:`pair_masks` decides exactly what the per-record predicate
    decides.  A record whose ``birth_range()`` raises (no ``event_year``,
    or an unparsable age) is marked ``False`` in ``dated`` and the first
    such error is kept in ``error``: vectorised filtering re-raises it,
    and the graph build leaves that record's pairs to the per-record
    checks, which raise only if they are ever reached.
    """

    def __init__(self, records: list[Record]) -> None:
        roles = list(Role)
        role_of = {role: code for code, role in enumerate(roles)}
        self.linkable = np.array(
            [[roles_linkable(a, b) for b in roles] for a in roles], dtype=bool
        )
        self.singleton_role = np.array(
            [role in SINGLETON_ROLES for role in roles], dtype=bool
        )
        self.census_role = np.array(
            [role in CENSUS_ROLES for role in roles], dtype=bool
        )
        n = len(records)
        self.index: dict[int, int] = {}
        self.cert = np.empty(n, dtype=np.int64)
        self.role = np.empty(n, dtype=np.int64)
        self.gender = np.empty(n, dtype=np.int64)
        self.year = np.zeros(n, dtype=np.int64)
        self.lo = np.zeros(n, dtype=np.int64)
        self.hi = np.zeros(n, dtype=np.int64)
        self.dated = np.ones(n, dtype=bool)
        self.error: ValueError | None = None
        gender_codes: dict[str, int] = {}
        for i, record in enumerate(records):
            self.index[record.record_id] = i
            self.cert[i] = record.cert_id
            self.role[i] = role_of[record.role]
            gender = record.gender
            if gender is None:
                self.gender[i] = -1
            else:
                self.gender[i] = gender_codes.setdefault(gender, len(gender_codes))
            try:
                self.lo[i], self.hi[i] = record.birth_range()
                self.year[i] = record.event_year
            except ValueError as error:
                self.dated[i] = False
                if self.error is None:
                    self.error = error
        # Row lookup: an O(1) array when record ids are reasonably dense,
        # else the dict.
        max_rid = max(self.index, default=0)
        self._lut: np.ndarray | None = None
        if 0 <= min(self.index, default=0) and max_rid < 8 * n + 1024:
            self._lut = np.full(max_rid + 1, -1, dtype=np.int64)
            for rid, row in self.index.items():
                self._lut[rid] = row

    def rows(self, rids: np.ndarray) -> np.ndarray:
        """Row of each record id; ``KeyError`` for an id not in the table."""
        lut = self._lut
        if lut is not None and rids.size and rids.min() >= 0 and rids.max() < len(lut):
            rows = lut[rids]
            if rows.min() >= 0:
                return rows
        index = self.index
        return np.fromiter(
            (index[rid] for rid in rids.tolist()), dtype=np.int64, count=len(rids)
        )


def pair_masks(table: RecordTable, ia: np.ndarray, ib: np.ndarray, slack: int):
    """The five filter rejection masks of :func:`generate_candidate_pairs`,
    in its application order, for the row pairs ``(ia[k], ib[k])``."""
    role_a, role_b = table.role[ia], table.role[ib]
    gender_a, gender_b = table.gender[ia], table.gender[ib]
    return (
        table.cert[ia] == table.cert[ib],
        ~table.linkable[role_a, role_b],
        table.census_role[role_a]
        & table.census_role[role_b]
        & (table.year[ia] == table.year[ib]),
        (gender_a >= 0) & (gender_b >= 0) & (gender_a != gender_b),
        (table.lo[ia] - slack > table.hi[ib])
        | (table.lo[ib] - slack > table.hi[ia]),
    )
