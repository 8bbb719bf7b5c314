"""One JSON serialisation of query results and pedigrees.

The offline CLI (``repro query --format json``, ``repro pedigree
--format json``) and the online server (``POST /v1/search``,
``GET /v1/pedigree/<id>``) share these helpers so a scripted client can
switch between the two without changing its parser — the acceptance
contract is that the served payload is byte-for-byte the offline one.
"""

from __future__ import annotations

from typing import Mapping

from repro.pedigree.extraction import Pedigree
from repro.pedigree.graph import PedigreeEntity
from repro.query.engine import Query, RankedMatch

__all__ = [
    "entity_to_dict",
    "match_to_dict",
    "search_payload",
    "pedigree_payload",
    "query_from_mapping",
]


def entity_to_dict(entity: PedigreeEntity) -> dict:
    """Public JSON shape of one pedigree-graph entity."""
    year_range = entity.year_range()
    return {
        "entity_id": entity.entity_id,
        "name": entity.display_name(),
        "gender": entity.gender,
        "year_range": list(year_range) if year_range else None,
        "roles": [role.value for role in entity.roles],
        "record_ids": list(entity.record_ids),
        "values": {k: list(v) for k, v in entity.values.items()},
    }


def match_to_dict(match: RankedMatch) -> dict:
    """One ranked hit: the entity plus its score breakdown (Figure 6)."""
    return {
        "entity": entity_to_dict(match.entity),
        "score_percent": match.score_percent,
        "attribute_scores": dict(match.attribute_scores),
        "match_kinds": dict(match.match_kinds),
    }


def search_payload(matches: list[RankedMatch]) -> dict:
    """The full ``/v1/search`` (and ``query --format json``) response body."""
    return {
        "count": len(matches),
        "matches": [match_to_dict(match) for match in matches],
    }


def pedigree_payload(pedigree: Pedigree) -> dict:
    """The ``format=json`` pedigree body: entities with hop/generation
    annotations plus the typed edges among them."""
    entities = []
    generations = pedigree.generations()
    for entity_id in sorted(pedigree.entities):
        blob = entity_to_dict(pedigree.entities[entity_id])
        blob["hops"] = pedigree.hops[entity_id]
        blob["generation"] = generations.get(entity_id, 0)
        entities.append(blob)
    return {
        "root_id": pedigree.root_id,
        "count": len(pedigree),
        "entities": entities,
        "edges": [list(edge) for edge in pedigree.edges],
    }


# Longest accepted string field.  An unseen name is scored against every
# index value sharing a bigram with it, at a cost per character, so the
# server refuses values far longer than any real name or parish.
MAX_FIELD_CHARS = 100


def query_from_mapping(payload: Mapping) -> tuple[Query, int]:
    """Build a validated ``(Query, top_m)`` from a JSON request body.

    Raises ``ValueError`` with a client-presentable message on unknown
    fields, wrong types, over-long strings, or ``Query``'s own
    validation failures — the server maps that straight to HTTP 400.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("request body must be a JSON object")
    allowed = {
        "first_name", "surname", "record_type", "gender",
        "year_from", "year_to", "parish", "top",
    }
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown query fields: {', '.join(sorted(unknown))}")

    def string_field(name: str, required: bool = False) -> str | None:
        value = payload.get(name)
        if value is None:
            if required:
                raise ValueError(f"missing required field: {name}")
            return None
        if not isinstance(value, str):
            raise ValueError(f"field {name} must be a string")
        if len(value) > MAX_FIELD_CHARS:
            raise ValueError(
                f"field {name} is longer than {MAX_FIELD_CHARS} characters"
            )
        return value

    def int_field(name: str) -> int | None:
        value = payload.get(name)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"field {name} must be an integer")
        return value

    top_m = int_field("top")
    if top_m is None:
        top_m = 10
    if not 1 <= top_m <= 100:
        raise ValueError(f"top must be in [1, 100], got {top_m}")
    query = Query(
        first_name=string_field("first_name", required=True),
        surname=string_field("surname", required=True),
        record_type=string_field("record_type"),
        gender=string_field("gender"),
        year_from=int_field("year_from"),
        year_to=int_field("year_to"),
        parish=string_field("parish"),
    )
    return query, top_m
