"""Pedigree graph generation (Algorithm 1 of the paper).

The dependency graph's merged nodes associate records with entities; this
module lifts those entities into a graph whose edges are the family
relationships observed on certificates.  Following Algorithm 1, nodes are
added for every entity touched by a merged relational node — and, so that
unlinked people still appear in search results, for every remaining
singleton record's entity as well (the paper's keyword index covers all
entities ``o ∈ O``).

Relationships come from the certificate structure: on a birth certificate
the Bm record's entity is *motherOf* the Bb record's entity, and so on.
``childOf`` is materialised as the reverse of mother/father edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.entities import EntityStore
from repro.data.records import Dataset
from repro.data.roles import Role

__all__ = ["PedigreeEntity", "PedigreeGraph", "build_pedigree_graph"]

# Relationship labels on pedigree edges.
MOTHER_OF = "Mof"
FATHER_OF = "Fof"
SPOUSE_OF = "Sof"
CHILD_OF = "Cof"


@dataclass
class PedigreeEntity:
    """One person in the pedigree graph, with merged QID values.

    ``values`` maps each attribute to all distinct values the entity's
    records carry (a woman appears under maiden and married surnames).
    ``record_ids`` preserves provenance back to the certificates.
    """

    entity_id: int
    record_ids: tuple[int, ...]
    values: dict[str, tuple[str, ...]] = field(default_factory=dict)
    gender: str | None = None
    roles: tuple[Role, ...] = ()

    def first(self, attribute: str) -> str | None:
        """The first (most common) value of ``attribute``, if any."""
        values = self.values.get(attribute)
        return values[0] if values else None

    def display_name(self) -> str:
        """Human-readable "first surname" label for rendering."""
        first = self.first("first_name") or "?"
        surname = self.first("surname") or "?"
        return f"{first} {surname}"

    def year_range(self) -> tuple[int, int] | None:
        """(earliest, latest) event year across the entity's records."""
        years = [int(y) for y in self.values.get("event_year", ()) if y]
        if not years:
            return None
        return (min(years), max(years))


class PedigreeGraph:
    """Entities + typed relationship edges + provenance indices."""

    def __init__(self) -> None:
        self.entities: dict[int, PedigreeEntity] = {}
        # adjacency[entity][relationship] -> set of neighbour entity ids
        self._adjacency: dict[int, dict[str, set[int]]] = {}
        self._entity_of_record: dict[int, int] = {}

    # ------------------------------------------------------------------

    def add_entity(self, entity: PedigreeEntity) -> None:
        self.entities[entity.entity_id] = entity
        self._adjacency.setdefault(entity.entity_id, {})
        for rid in entity.record_ids:
            self._entity_of_record[rid] = entity.entity_id

    def add_edge(self, source: int, relationship: str, target: int) -> None:
        """Directed relationship edge; Sof is stored in both directions."""
        if source not in self.entities or target not in self.entities:
            raise KeyError(f"unknown entity in edge {source}-{relationship}->{target}")
        if source == target:
            return
        self._adjacency[source].setdefault(relationship, set()).add(target)
        if relationship == SPOUSE_OF:
            self._adjacency[target].setdefault(relationship, set()).add(source)
        elif relationship in (MOTHER_OF, FATHER_OF):
            self._adjacency[target].setdefault(CHILD_OF, set()).add(source)

    # ------------------------------------------------------------------

    def entity(self, entity_id: int) -> PedigreeEntity:
        return self.entities[entity_id]

    def entity_of_record(self, record_id: int) -> PedigreeEntity | None:
        entity_id = self._entity_of_record.get(record_id)
        return self.entities.get(entity_id) if entity_id is not None else None

    def neighbours(self, entity_id: int, relationship: str) -> set[int]:
        """Neighbour entity ids under ``relationship``."""
        return set(self._adjacency.get(entity_id, {}).get(relationship, ()))

    def all_neighbours(self, entity_id: int) -> set[int]:
        """Neighbours under any relationship."""
        out: set[int] = set()
        for targets in self._adjacency.get(entity_id, {}).values():
            out |= targets
        return out

    def parents(self, entity_id: int) -> set[int]:
        """Entities that are mother or father of ``entity_id``."""
        return self.neighbours(entity_id, CHILD_OF)

    def children(self, entity_id: int) -> set[int]:
        out = self.neighbours(entity_id, MOTHER_OF) | self.neighbours(
            entity_id, FATHER_OF
        )
        return out

    def spouses(self, entity_id: int) -> set[int]:
        return self.neighbours(entity_id, SPOUSE_OF)

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[PedigreeEntity]:
        return iter(self.entities.values())

    def n_edges(self) -> int:
        return sum(
            len(targets)
            for adjacency in self._adjacency.values()
            for targets in adjacency.values()
        )


def build_pedigree_graph(dataset: Dataset, store: EntityStore) -> PedigreeGraph:
    """Algorithm 1: lift resolved entities and certificate relationships
    into the pedigree graph.

    Pedigree entity ids are *canonical*: entities are ranked by their
    smallest member record id and numbered 1..K.  ``EntityStore`` ids
    depend on merge order; re-ranking here makes the pedigree graph —
    and every artefact serialized from it — a pure function of the
    dataset and the final clustering, so runs that reach the same
    clustering by different merge orders write the same bytes.
    """
    graph = PedigreeGraph()
    # Pass 1: nodes — one per entity, carrying merged QID values.
    seen_entities: set[int] = set()
    pending: list[PedigreeEntity] = []
    canonical: dict[int, int] = {}  # store entity id -> canonical id
    for record in dataset:
        entity = store.entity_of(record.record_id)
        if entity.entity_id in seen_entities:
            continue
        seen_entities.add(entity.entity_id)
        records = store.records_of(entity)
        values: dict[str, list[str]] = {}
        gender: str | None = None
        roles: list[Role] = []
        for member in records:
            if gender is None:
                gender = member.gender
            if member.role not in roles:
                roles.append(member.role)
            for attribute, value in member.attributes.items():
                if not value:
                    continue
                bucket = values.setdefault(attribute, [])
                if value not in bucket:
                    bucket.append(value)
        pending.append(
            PedigreeEntity(
                entity_id=entity.entity_id,
                record_ids=tuple(sorted(entity.record_ids)),
                # Sorted keys: attribute order must not leak the source
                # dict's insertion history (a CSV round trip alphabetises
                # columns; checkpoint-resume must stay byte-identical).
                values={k: tuple(values[k]) for k in sorted(values)},
                gender=gender,
                roles=tuple(roles),
            )
        )
    pending.sort(key=lambda e: e.record_ids[0])
    for rank, entity in enumerate(pending, start=1):
        canonical[entity.entity_id] = rank
        entity.entity_id = rank
        graph.add_entity(entity)
    # Pass 2: edges — from each certificate's relationship structure
    # (covers statutory certificates and census households alike).
    for cert in dataset.certificates.values():
        for rid_a, relationship, rid_b in cert.relationships():
            entity_a = store.entity_of(rid_a)
            entity_b = store.entity_of(rid_b)
            graph.add_edge(
                canonical[entity_a.entity_id],
                relationship,
                canonical[entity_b.entity_id],
            )
    return graph
