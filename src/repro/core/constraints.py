"""Temporal and link constraints with global propagation (PROP-C).

Paper Section 4.2.2: relationships observed at different points in time
cannot be compared directly, but their *characteristics* constrain links:

* **temporal constraints** — each role implies a plausible birth-year
  range given the certificate year (e.g. a birth mother is 15–55 years
  older than her baby); every record a cluster accumulates narrows the
  cluster's feasible birth-year interval, and a merge requiring an empty
  interval is rejected;
* **link constraints** — a person has exactly one birth and one death
  record (one-to-one), cannot appear twice on the same certificate, and
  two roles can only co-refer when biologically linkable
  (:data:`repro.data.roles.LINKABLE_ROLE_PAIRS`).

*Propagation* means the constraints are evaluated against the **entities**
records currently belong to — every previously accepted link tightens what
future links are admissible.  With PROP-C disabled (ablation), only the
two original records are checked, so earlier decisions exert no negative
evidence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.entities import Entity, EntityStore
from repro.data.records import Record
from repro.data.roles import CENSUS_ROLES, SINGLETON_ROLES
from repro.blocking.candidates import roles_linkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ConstraintChecker"]


class ConstraintChecker:
    """Validates whether two records (or their entities) may co-refer.

    Every :meth:`can_merge` rejection is counted by level in plain ints
    (:attr:`rejected_record_level`, :attr:`rejected_entity_level`);
    :meth:`publish_metrics` adds them to ``metrics``, when given, as
    ``constraints.rejected_record_level`` /
    ``constraints.rejected_entity_level`` — the PROP-C negative-evidence
    volume the telemetry reports surface.
    """

    def __init__(
        self,
        temporal_slack_years: int = 2,
        propagate: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if temporal_slack_years < 0:
            raise ValueError("slack cannot be negative")
        self.slack = temporal_slack_years
        self.propagate = propagate
        self.metrics = metrics
        self.rejected_record_level = 0
        self.rejected_entity_level = 0
        # Rejection level per node id, precomputed by the graph build
        # for every worker count, under the both-entities-are-singletons
        # assumption: 0 = mergeable, 1 = record-level reject, 2 =
        # entity-level reject, -1 = not seeded.  A memoryview over an
        # int8 column, or ``None`` when unseeded.
        self._verdict: memoryview | None = None
        # Entity-level verdict memo, active alongside the seeded table.
        # (entity_id, size) identifies an entity state exactly — ids are
        # never reused, and every membership change either grows the
        # entity or replaces it with a fresh id — so a verdict computed
        # once holds for every record pair meeting in the same states.
        self._entity_memo: dict[tuple[int, int, int, int], bool] = {}

    def seed_verdicts(self, verdict: np.ndarray) -> None:
        """Install precomputed singleton-state :meth:`can_merge` outcomes,
        one per node id of the graph they were built with.

        Level 1 (record-level) entries are valid forever — record checks
        never depend on merge state.  Levels 0 and 2 encode the verdict
        for *singleton* entities, so :meth:`can_merge` only consults them
        while both records still sit in single-record entities.  The
        seeded verdicts are read only by calls that name their node.
        """
        self._verdict = memoryview(np.ascontiguousarray(verdict, dtype=np.int8))

    def publish_metrics(self) -> None:
        """Add the rejection counts to ``metrics`` and restart them.

        A counter is created only when it is non-zero.
        """
        if self.metrics is not None:
            if self.rejected_record_level:
                self.metrics.inc(
                    "constraints.rejected_record_level", self.rejected_record_level
                )
            if self.rejected_entity_level:
                self.metrics.inc(
                    "constraints.rejected_entity_level", self.rejected_entity_level
                )
        self.rejected_record_level = self.rejected_entity_level = 0

    # ------------------------------------------------------------------
    # Record-level checks (always applied)
    # ------------------------------------------------------------------

    def records_compatible(self, a: Record, b: Record, node: int = -1) -> bool:
        """Constraints between the two raw records only.

        ``node`` is the id of the records' node in the seeded graph, if
        any.
        """
        if node >= 0 and self._verdict is not None:
            level = self._verdict[node]
            if level >= 0:
                return level != 1
        if a.cert_id == b.cert_id:
            return False
        if not roles_linkable(a.role, b.role):
            return False
        if (
            a.role in CENSUS_ROLES
            and b.role in CENSUS_ROLES
            and a.event_year == b.event_year
        ):
            # Two households of the same census never share a person.
            return False
        if a.role in SINGLETON_ROLES and a.role is b.role:
            return False
        gender_a, gender_b = a.gender, b.gender
        if gender_a is not None and gender_b is not None and gender_a != gender_b:
            return False
        lo_a, hi_a = a.birth_range()
        lo_b, hi_b = b.birth_range()
        return lo_a - self.slack <= hi_b and lo_b - self.slack <= hi_a

    # ------------------------------------------------------------------
    # Entity-level checks (PROP-C)
    # ------------------------------------------------------------------

    def entities_compatible(self, ea: Entity, eb: Entity) -> bool:
        """Constraints between two whole clusters.

        Checks certificate disjointness, combined singleton-role counts,
        gender consensus, the intersection of birth-year intervals, and
        pairwise role linkability across the clusters.
        """
        if self._verdict is not None:
            key = (
                ea.entity_id,
                len(ea.record_ids),
                eb.entity_id,
                len(eb.record_ids),
            )
            verdict = self._entity_memo.get(key)
            if verdict is None:
                verdict = self._entity_memo[key] = self._entities_compatible(
                    ea, eb
                )
            return verdict
        return self._entities_compatible(ea, eb)

    def _entities_compatible(self, ea: Entity, eb: Entity) -> bool:
        if ea.entity_id == eb.entity_id:
            return True
        if ea.cert_ids & eb.cert_ids:
            return False
        for role in SINGLETON_ROLES:
            if ea.role_counts.get(role, 0) + eb.role_counts.get(role, 0) > 1:
                return False
        if (
            ea.gender is not None
            and eb.gender is not None
            and ea.gender != eb.gender
        ):
            return False
        if (
            ea.birth_lo - self.slack > eb.birth_hi
            or eb.birth_lo - self.slack > ea.birth_hi
        ):
            return False
        if ea.census_years & eb.census_years:
            # A person appears in exactly one household per census year.
            return False
        for role_a in ea.role_counts:
            for role_b in eb.role_counts:
                if not roles_linkable(role_a, role_b):
                    return False
        return True

    def can_merge(
        self, store: EntityStore, a: Record, b: Record, node: int = -1
    ) -> bool:
        """Full validation of merging the entities of ``a`` and ``b``.

        With propagation enabled this is the PROP-C behaviour: the check
        runs between the records' *current entities*, so every earlier
        link contributes negative evidence.  Without propagation only the
        two records themselves are checked (Table 3 ablation).  ``node``
        is the id of the records' node in the seeded graph, if any.
        """
        rid_a, rid_b = a.record_id, b.record_id
        level = -1
        if node >= 0 and self._verdict is not None:
            level = self._verdict[node]
        if level == 1:
            self.rejected_record_level += 1
            return False
        if level < 0:
            if not self.records_compatible(a, b):
                self.rejected_record_level += 1
                return False
            if not self.propagate:
                return True
        ea = store.entity_of(rid_a)
        eb = store.entity_of(rid_b)
        if level >= 0:
            # Levels 0 and 2 already say the two records are compatible;
            # for two singletons they are the whole verdict.
            if len(ea.record_ids) == 1 and len(eb.record_ids) == 1:
                if level == 0:
                    return True
                self.rejected_entity_level += 1
                return False
            if not self.propagate:
                return True
        if not self.entities_compatible(ea, eb):
            self.rejected_entity_level += 1
            return False
        return True
