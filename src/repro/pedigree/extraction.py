"""Family pedigree extraction: the g-hop neighbourhood of an entity.

Paper Section 8: for a selected entity the pedigree is the subgraph of
G_P within ``g`` hops (default ``g = 2``): one hop reaches parents,
children, and spouses; two hops reach grandparents, grandchildren,
siblings (via parents), and in-laws (via spouses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import fire
from repro.pedigree.graph import PedigreeEntity, PedigreeGraph

__all__ = ["Pedigree", "extract_pedigree"]


@dataclass
class Pedigree:
    """The extracted family neighbourhood of one root entity."""

    root_id: int
    entities: dict[int, PedigreeEntity] = field(default_factory=dict)
    hops: dict[int, int] = field(default_factory=dict)  # entity -> distance
    # Edges restricted to the extracted entities: (source, rel, target).
    edges: list[tuple[int, str, int]] = field(default_factory=list)

    @property
    def root(self) -> PedigreeEntity:
        return self.entities[self.root_id]

    def generation_of(self, entity_id: int) -> int:
        """Signed generation relative to the root (+1 = parents' level).

        Computed from parent/child edges along a BFS; spouses share their
        partner's generation.  Entities unreachable through typed edges
        default to the root's generation.  Each call reruns the BFS: to
        label every entity, read :meth:`generations` once instead.
        """
        return self.generations().get(entity_id, 0)

    def generations(self) -> dict[int, int]:
        """Generation of every entity the BFS reaches (see
        :meth:`generation_of`; absent entities are at generation 0)."""
        from repro.pedigree.graph import CHILD_OF, FATHER_OF, MOTHER_OF, SPOUSE_OF

        generation = {self.root_id: 0}
        adjacency: dict[int, list[tuple[str, int]]] = {}
        for source, rel, target in self.edges:
            adjacency.setdefault(source, []).append((rel, target))
            # Typed reverse traversal.
            if rel in (MOTHER_OF, FATHER_OF):
                adjacency.setdefault(target, []).append((CHILD_OF, source))
            elif rel == SPOUSE_OF:
                adjacency.setdefault(target, []).append((SPOUSE_OF, source))
        frontier = [self.root_id]
        while frontier:
            node = frontier.pop()
            for rel, neighbour in adjacency.get(node, ()):
                if neighbour in generation:
                    continue
                if rel in (MOTHER_OF, FATHER_OF):
                    generation[neighbour] = generation[node] - 1
                elif rel == CHILD_OF:
                    generation[neighbour] = generation[node] + 1
                else:  # spouse
                    generation[neighbour] = generation[node]
                frontier.append(neighbour)
        return generation

    def __len__(self) -> int:
        return len(self.entities)


def extract_pedigree(
    graph: PedigreeGraph, entity_id: int, generations: int = 2
) -> Pedigree:
    """Extract the ``generations``-hop pedigree of ``entity_id`` from G_P.

    Raises ``KeyError`` for an unknown entity.
    """
    if generations < 0:
        raise ValueError(f"generations must be non-negative, got {generations}")
    fire("pedigree.extract")
    root = graph.entity(entity_id)
    pedigree = Pedigree(root_id=entity_id)
    pedigree.entities[entity_id] = root
    pedigree.hops[entity_id] = 0
    frontier = [entity_id]
    for hop in range(1, generations + 1):
        next_frontier: list[int] = []
        for node in frontier:
            for neighbour in graph.all_neighbours(node):
                if neighbour in pedigree.entities:
                    continue
                pedigree.entities[neighbour] = graph.entity(neighbour)
                pedigree.hops[neighbour] = hop
                next_frontier.append(neighbour)
        frontier = next_frontier
    # Keep every typed edge among the extracted entities (deduplicated;
    # only the canonical direction of each stored edge).
    from repro.pedigree.graph import CHILD_OF, FATHER_OF, MOTHER_OF, SPOUSE_OF

    seen: set[tuple[int, str, int]] = set()
    for source in pedigree.entities:
        for rel in (MOTHER_OF, FATHER_OF, SPOUSE_OF):
            for target in graph.neighbours(source, rel):
                if target not in pedigree.entities:
                    continue
                edge = (source, rel, target)
                if rel == SPOUSE_OF:
                    canonical = (min(source, target), rel, max(source, target))
                else:
                    canonical = edge
                if canonical not in seen:
                    seen.add(canonical)
                    pedigree.edges.append(canonical)
    return pedigree
