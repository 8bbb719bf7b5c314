"""Expert feedback on generated links (paper future work, Section 12).

The paper plans to collect domain-expert feedback on correctly and
wrongly generated family trees and feed it back into linkage.  This
module implements that loop deterministically (the simplest sound
variant, before any active learning):

* a **confirmed** record pair is a must-link: the records' entities are
  merged immediately, overriding similarity thresholds (but never hard
  constraints — confirming a biologically impossible link raises);
* a **rejected** record pair is a cannot-link: if currently linked the
  connecting structure is cut, and the pair is remembered so no later
  merge can re-join the two records (directly or transitively).

``FeedbackSession`` wraps an :class:`~repro.core.entities.EntityStore`
and keeps the accumulated feedback; ``checker`` produces a
feedback-aware constraint checker to thread into re-runs of the merging
step so expert knowledge persists across re-resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import ConstraintChecker
from repro.core.entities import EntityStore
from repro.data.records import Dataset, Record

__all__ = ["FeedbackSession", "FeedbackAwareChecker"]

Pair = tuple[int, int]


def _key(rid_a: int, rid_b: int) -> Pair:
    if rid_a == rid_b:
        raise ValueError(f"a record cannot be linked to itself: {rid_a}")
    return (rid_a, rid_b) if rid_a < rid_b else (rid_b, rid_a)


@dataclass
class FeedbackSession:
    """Accumulates expert link feedback and applies it to an entity store."""

    dataset: Dataset
    store: EntityStore
    confirmed: set[Pair] = field(default_factory=set)
    rejected: set[Pair] = field(default_factory=set)

    def confirm(self, rid_a: int, rid_b: int) -> None:
        """Expert asserts the two records are the same person.

        Raises ``ValueError`` when the pair was previously rejected or
        violates a hard constraint (roles/gender/temporal) — feedback can
        override *similarity*, not biology.
        """
        pair = _key(rid_a, rid_b)
        if pair in self.rejected:
            raise ValueError(f"pair {pair} was previously rejected")
        a, b = self.dataset.record(pair[0]), self.dataset.record(pair[1])
        checker = ConstraintChecker()
        if not checker.can_merge(self.store, a, b):
            raise ValueError(
                f"pair {pair} violates hard constraints and cannot be confirmed"
            )
        self.confirmed.add(pair)
        self.store.merge(pair[0], pair[1])

    def reject(self, rid_a: int, rid_b: int) -> None:
        """Expert asserts the two records are different people.

        If the records currently share an entity, the entity is split so
        they no longer do: direct links between them are removed, and if
        they remain transitively connected the weaker-attached of the two
        records is unmerged into a singleton.
        """
        pair = _key(rid_a, rid_b)
        if pair in self.confirmed:
            raise ValueError(f"pair {pair} was previously confirmed")
        self.rejected.add(pair)
        if not self.store.same_entity(*pair):
            return
        entity = self.store.entity_of(pair[0])
        direct = {link for link in entity.links if set(link) == set(pair)}
        if direct:
            created = self.store.remove_links(entity, direct)
        if self.store.same_entity(*pair):
            entity = self.store.entity_of(pair[0])
            loosest = min(pair, key=entity.degree)
            self.store.remove_record(loosest)

    def checker(self, base: ConstraintChecker | None = None) -> "FeedbackAwareChecker":
        """A constraint checker that additionally enforces cannot-links."""
        return FeedbackAwareChecker(self, base or ConstraintChecker())

    def summary(self) -> dict[str, int]:
        return {
            "confirmed": len(self.confirmed),
            "rejected": len(self.rejected),
        }


class FeedbackAwareChecker(ConstraintChecker):
    """ConstraintChecker that also vetoes merges joining rejected pairs.

    A merge is vetoed when any rejected pair would end up inside one
    entity — including transitively (the rejected records sit in the two
    entities being merged).
    """

    def __init__(self, session: FeedbackSession, base: ConstraintChecker) -> None:
        super().__init__(
            temporal_slack_years=base.slack, propagate=base.propagate
        )
        self._session = session

    def can_merge(
        self, store: EntityStore, a: Record, b: Record, node: int = -1
    ) -> bool:
        if not super().can_merge(store, a, b, node):
            return False
        entity_a = store.entity_of(a.record_id)
        entity_b = store.entity_of(b.record_id)
        if entity_a.entity_id == entity_b.entity_id:
            return True
        combined = entity_a.record_ids | entity_b.record_ids
        for rid_x, rid_y in self._session.rejected:
            if rid_x in combined and rid_y in combined:
                return False
        return True
