"""Entity store: record clusters with their internal link structure.

An *entity* is a cluster of records believed to refer to one real-world
person (paper Section 3).  Unlike a plain union-find, the store keeps the
individual merge links inside each cluster because the refinement step
(REF, Section 4.2.5) reasons about the cluster's *graph shape* — density
and bridges — and unmerges records, which requires recomputing connected
components after link removal.

The store also maintains per-entity aggregates used by constraint checking
(PROP-C): the intersection of plausible birth-year ranges, role counts,
gender consensus, and the set of source certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.data.records import Dataset, Record
from repro.data.roles import CENSUS_ROLES, Role

__all__ = ["Entity", "EntityStore"]


@dataclass
class Entity:
    """One record cluster and its aggregates.

    ``links`` are the direct record-pair merges that built the cluster —
    the edges of the per-entity graph that REF analyses.
    """

    entity_id: int
    record_ids: set[int] = field(default_factory=set)
    links: set[tuple[int, int]] = field(default_factory=set)
    birth_lo: int = -(10**9)
    birth_hi: int = 10**9
    gender: str | None = None
    role_counts: dict[Role, int] = field(default_factory=dict)
    cert_ids: set[int] = field(default_factory=set)
    # Census years this entity has a record in: a person appears in at
    # most one household per census, so these must stay unique.
    census_years: set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.record_ids)

    def degree(self, record_id: int) -> int:
        """Number of direct links touching ``record_id``."""
        return sum(1 for a, b in self.links if record_id in (a, b))

    def density(self) -> float:
        """Graph density 2|E| / (|N| (|N|-1)); 1.0 for singletons/pairs."""
        n = len(self.record_ids)
        if n < 3:
            return 1.0
        return 2.0 * len(self.links) / (n * (n - 1))


class EntityStore:
    """Mutable mapping from records to entities, supporting merge and unlink.

    Every record of the dataset starts as a singleton entity.  ``merge``
    combines two entities via a witnessing record-pair link; ``unlink``
    operations remove records or links and re-split entities into
    connected components (used by REF).
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._entities: dict[int, Entity] = {}
        self._entity_of: dict[int, int] = {}
        # Plain int (not itertools.count) so checkpointing can capture and
        # restore the exact id sequence — see state()/from_state().
        self._next_id = 1
        for record in dataset:
            self._new_singleton(record)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _take_id(self) -> int:
        entity_id = self._next_id
        self._next_id += 1
        return entity_id

    def _new_singleton(self, record: Record) -> Entity:
        entity = Entity(entity_id=self._take_id())
        entity.record_ids.add(record.record_id)
        lo, hi = record.birth_range()
        entity.birth_lo, entity.birth_hi = lo, hi
        entity.gender = record.gender
        entity.role_counts[record.role] = 1
        entity.cert_ids.add(record.cert_id)
        if record.role in CENSUS_ROLES:
            entity.census_years.add(record.event_year)
        self._entities[entity.entity_id] = entity
        self._entity_of[record.record_id] = entity.entity_id
        return entity

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def entity_of(self, record_id: int) -> Entity:
        """The entity currently containing ``record_id``."""
        return self._entities[self._entity_of[record_id]]

    def get_entity(self, entity_id: int) -> Entity | None:
        """Entity by id, or None if it has been merged away or rebuilt."""
        return self._entities.get(entity_id)

    def same_entity(self, rid_a: int, rid_b: int) -> bool:
        """True when both records are currently in one cluster."""
        return self._entity_of[rid_a] == self._entity_of[rid_b]

    def entities(self, min_size: int = 1) -> Iterator[Entity]:
        """All entities with at least ``min_size`` records."""
        return (e for e in self._entities.values() if len(e) >= min_size)

    def records_of(self, entity: Entity) -> list[Record]:
        """The Record objects in ``entity``, in record-id order.

        The order is canonical (not merge order) so that everything
        derived from it — pedigree-graph value lists, tie-breaks — is a
        function of the membership alone.  A store restored from a
        checkpoint must behave identically to the live one it mirrors,
        and set iteration order does not survive serialisation.
        """
        return [self._dataset.record(rid) for rid in sorted(entity.record_ids)]

    def values_of(self, entity: Entity, attribute: str) -> list[str]:
        """All non-missing values of ``attribute`` across the cluster.

        This is the value set PROP-A compares against: an entity that has
        been seen under both a maiden and a married surname exposes both.
        Sorted, so similarity ties resolve the same way on every run
        (and after a checkpoint restore).
        """
        return self.value_table(entity, (attribute,))[attribute]

    def value_table(
        self, entity: Entity, attributes: Iterable[str]
    ) -> dict[str, list[str]]:
        """:meth:`values_of` for each of ``attributes``, from one pass
        over the entity's records."""
        records = self.records_of(entity)
        table = {}
        for attribute in attributes:
            values = {record.get(attribute) for record in records}
            values.discard(None)
            table[attribute] = sorted(values)
        return table

    def matched_pairs(self, roles_a: frozenset[Role], roles_b: frozenset[Role]) -> set[tuple[int, int]]:
        """All within-entity record pairs with one role on each side.

        This is the linkage output evaluated against ground truth for a
        role pair such as Bp-Bp.
        """
        pairs: set[tuple[int, int]] = set()
        for entity in self._entities.values():
            if len(entity) < 2:
                continue
            records = self.records_of(entity)
            for i, a in enumerate(records):
                for b in records[i + 1 :]:
                    if (a.role in roles_a and b.role in roles_b) or (
                        a.role in roles_b and b.role in roles_a
                    ):
                        lo, hi = sorted((a.record_id, b.record_id))
                        pairs.add((lo, hi))
        return pairs

    def all_matched_pairs(self) -> set[tuple[int, int]]:
        """Every within-entity record pair (any roles)."""
        pairs: set[tuple[int, int]] = set()
        for entity in self._entities.values():
            ids = sorted(entity.record_ids)
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    pairs.add((a, b))
        return pairs

    def cluster_sizes(self) -> list[int]:
        """Sizes of all non-singleton clusters (for diagnostics)."""
        return sorted(
            (len(e) for e in self._entities.values() if len(e) > 1), reverse=True
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def merge(self, rid_a: int, rid_b: int) -> Entity:
        """Merge the entities of the two records, linked via this pair.

        The caller is responsible for having validated constraints
        (``ConstraintChecker.can_merge``); the store only refreshes its
        aggregates.  Merging records already in one entity just adds the
        link (strengthening the cluster graph, which matters for REF).
        """
        link = tuple(sorted((rid_a, rid_b)))
        ea = self.entity_of(rid_a)
        eb = self.entity_of(rid_b)
        if ea.entity_id == eb.entity_id:
            ea.links.add(link)  # type: ignore[arg-type]
            return ea
        # Merge the smaller into the larger.
        if len(ea) < len(eb):
            ea, eb = eb, ea
        ea.record_ids |= eb.record_ids
        ea.links |= eb.links
        ea.links.add(link)  # type: ignore[arg-type]
        ea.birth_lo = max(ea.birth_lo, eb.birth_lo)
        ea.birth_hi = min(ea.birth_hi, eb.birth_hi)
        if ea.gender is None:
            ea.gender = eb.gender
        for role, count in eb.role_counts.items():
            ea.role_counts[role] = ea.role_counts.get(role, 0) + count
        ea.cert_ids |= eb.cert_ids
        ea.census_years |= eb.census_years
        for rid in eb.record_ids:
            self._entity_of[rid] = ea.entity_id
        del self._entities[eb.entity_id]
        return ea

    def remove_record(self, record_id: int) -> list[Entity]:
        """Unmerge ``record_id`` from its cluster into a fresh singleton.

        Links incident to the record are dropped; if that disconnects the
        remaining cluster it is split into components (REF's "remove the
        node with the lowest degree").  Returns the entities created,
        including the new singleton.
        """
        entity = self.entity_of(record_id)
        if len(entity) == 1:
            return [entity]
        entity.record_ids.discard(record_id)
        entity.links = {
            link for link in entity.links if record_id not in link
        }
        del self._entities[entity.entity_id]
        for rid in entity.record_ids:
            del self._entity_of[rid]
        del self._entity_of[record_id]
        created = [self._new_singleton(self._dataset.record(record_id))]
        created.extend(self._rebuild_components(entity.record_ids, entity.links))
        return created

    def remove_links(
        self, entity: Entity, links: Iterable[tuple[int, int]]
    ) -> list[Entity]:
        """Remove ``links`` from ``entity``; return the split components."""
        remaining = entity.links - set(links)
        record_ids = set(entity.record_ids)
        del self._entities[entity.entity_id]
        for rid in record_ids:
            del self._entity_of[rid]
        return self._rebuild_components(record_ids, remaining)

    def _rebuild_components(
        self, record_ids: set[int], links: set[tuple[int, int]]
    ) -> list[Entity]:
        """Recreate entities as the connected components of (records, links)."""
        adjacency: dict[int, set[int]] = {rid: set() for rid in record_ids}
        for a, b in links:
            adjacency[a].add(b)
            adjacency[b].add(a)
        created: list[Entity] = []
        unvisited = set(record_ids)
        # Seed components in record-id order so split entities get their
        # ids in a canonical sequence (checkpoint-resume determinism).
        for start in sorted(record_ids):
            if start not in unvisited:
                continue
            unvisited.discard(start)
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency[node]:
                    if neighbour in unvisited:
                        unvisited.discard(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            created.append(
                self._create_entity(
                    component,
                    {l for l in links if l[0] in component and l[1] in component},
                )
            )
        return created

    def _create_entity(
        self,
        record_ids: set[int],
        links: set[tuple[int, int]],
        entity_id: int | None = None,
    ) -> Entity:
        entity = Entity(
            entity_id=self._take_id() if entity_id is None else entity_id
        )
        entity.record_ids = set(record_ids)
        entity.links = set(links)
        # Record-id order, so order-sensitive aggregates (first non-None
        # gender) come out the same for a live store and one restored
        # from a checkpoint.
        for rid in sorted(record_ids):
            record = self._dataset.record(rid)
            lo, hi = record.birth_range()
            entity.birth_lo = max(entity.birth_lo, lo)
            entity.birth_hi = min(entity.birth_hi, hi)
            if entity.gender is None:
                entity.gender = record.gender
            entity.role_counts[record.role] = entity.role_counts.get(record.role, 0) + 1
            entity.cert_ids.add(record.cert_id)
            if record.role in CENSUS_ROLES:
                entity.census_years.add(record.event_year)
            self._entity_of[rid] = entity.entity_id
        self._entities[entity.entity_id] = entity
        return entity

    def __len__(self) -> int:
        return len(self._entities)

    # ------------------------------------------------------------------
    # Checkpointable state
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-serialisable snapshot of the clustering, exact to the id.

        Captures entity ids, membership, intra-cluster links, *and* the
        id counter, in the store's own iteration order — everything
        needed for :meth:`from_state` to rebuild a store whose further
        evolution (merges, refinement splits) is indistinguishable from
        the original's.  Aggregates are not stored: they are recomputed
        from the dataset and are functions of the membership alone.
        """
        return {
            "next_id": self._next_id,
            "entities": [
                {
                    "id": entity.entity_id,
                    "records": sorted(entity.record_ids),
                    "links": sorted(list(link) for link in entity.links),
                }
                for entity in self._entities.values()
            ],
        }

    @classmethod
    def from_state(cls, dataset: Dataset, state: dict) -> "EntityStore":
        """Rebuild a store from :meth:`state` output over ``dataset``."""
        store = cls.__new__(cls)
        store._dataset = dataset
        store._entities = {}
        store._entity_of = {}
        store._next_id = 1  # placeholder while _create_entity runs
        max_id = 0
        for blob in state["entities"]:
            entity_id = int(blob["id"])
            if entity_id in store._entities:
                raise ValueError(f"duplicate entity id {entity_id} in state")
            store._create_entity(
                {int(rid) for rid in blob["records"]},
                {(int(a), int(b)) for a, b in blob["links"]},
                entity_id=entity_id,
            )
            max_id = max(max_id, entity_id)
        covered = set(store._entity_of)
        expected = set(dataset.records)
        if covered != expected:
            missing = sorted(expected - covered)[:5]
            extra = sorted(covered - expected)[:5]
            raise ValueError(
                "entity state does not cover the dataset "
                f"(missing records {missing}, unknown records {extra})"
            )
        next_id = int(state["next_id"])
        if next_id <= max_id:
            raise ValueError(
                f"next_id {next_id} not above max entity id {max_id}"
            )
        store._next_id = next_id
        return store
