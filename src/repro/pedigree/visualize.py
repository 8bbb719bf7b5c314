"""Pedigree rendering: ASCII family tree and Graphviz DOT.

Stands in for the paper's web family-tree view (Figures 7/8): the ASCII
tree lists generations top-down (older generations higher, as in the
paper's hierarchical trees) and tags each person with gender and the year
span of their records; the DOT output can be rendered with Graphviz for a
graphical tree.
"""

from __future__ import annotations

from repro.pedigree.extraction import Pedigree
from repro.pedigree.graph import FATHER_OF, MOTHER_OF, SPOUSE_OF

__all__ = ["render_ascii_tree", "render_dot"]


def _label(pedigree: Pedigree, entity_id: int) -> str:
    entity = pedigree.entities[entity_id]
    gender = {"m": "♂", "f": "♀"}.get(entity.gender or "", "·")
    span = entity.year_range()
    years = f" [{span[0]}–{span[1]}]" if span else ""
    marker = " *" if entity_id == pedigree.root_id else ""
    return f"{entity.display_name()} {gender}{years}{marker}"


def render_ascii_tree(pedigree: Pedigree) -> str:
    """Multi-line text rendering, one generation per block, oldest first.

    The root entity is starred.  Spouse pairs are shown joined with ``⚭``;
    parent→child edges are listed under each person.
    """
    generation_of = pedigree.generations()
    by_generation: dict[int, list[int]] = {}
    for entity_id in pedigree.entities:
        by_generation.setdefault(
            generation_of.get(entity_id, 0), []
        ).append(entity_id)
    lines: list[str] = []
    spouse_pairs = {
        (min(s, t), max(s, t))
        for s, rel, t in pedigree.edges
        if rel == SPOUSE_OF
    }
    children_of: dict[int, list[int]] = {}
    for source, rel, target in pedigree.edges:
        if rel in (MOTHER_OF, FATHER_OF):
            children_of.setdefault(source, []).append(target)
    for generation in sorted(by_generation, reverse=True):
        label = {2: "grandparents", 1: "parents", 0: "self & siblings",
                 -1: "children", -2: "grandchildren"}.get(
            generation, f"generation {generation:+d}"
        )
        lines.append(f"=== {label} ===")
        rendered: set[int] = set()
        for entity_id in sorted(by_generation[generation]):
            if entity_id in rendered:
                continue
            spouse = next(
                (
                    b if a == entity_id else a
                    for a, b in spouse_pairs
                    if entity_id in (a, b)
                    and generation_of.get(b if a == entity_id else a, 0)
                    == generation
                ),
                None,
            )
            if spouse is not None and spouse not in rendered:
                lines.append(
                    f"  {_label(pedigree, entity_id)}  ⚭  {_label(pedigree, spouse)}"
                )
                rendered.update((entity_id, spouse))
                kids = sorted(
                    set(children_of.get(entity_id, []))
                    | set(children_of.get(spouse, []))
                )
            else:
                lines.append(f"  {_label(pedigree, entity_id)}")
                rendered.add(entity_id)
                kids = sorted(set(children_of.get(entity_id, [])))
            for kid in kids:
                if kid in pedigree.entities:
                    lines.append(f"      └─ {_label(pedigree, kid)}")
    return "\n".join(lines)


def render_dot(pedigree: Pedigree) -> str:
    """Graphviz DOT source of the pedigree (genders coloured as in the
    paper's Figures 7/8)."""
    lines = [
        "digraph pedigree {",
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fontname="Helvetica"];',
    ]
    for entity_id, entity in sorted(pedigree.entities.items()):
        colour = {"m": "#cfe2ff", "f": "#ffd6e7"}.get(entity.gender or "", "#eeeeee")
        shape_extra = ', penwidth=2, color="#d62728"' if entity_id == pedigree.root_id else ""
        span = entity.year_range()
        years = f"\\n{span[0]}–{span[1]}" if span else ""
        lines.append(
            f'  e{entity_id} [label="{entity.display_name()}{years}", '
            f'fillcolor="{colour}"{shape_extra}];'
        )
    for source, rel, target in pedigree.edges:
        if rel == SPOUSE_OF:
            lines.append(
                f"  e{source} -> e{target} [dir=none, style=dashed, label=\"⚭\"];"
            )
        else:
            lines.append(f"  e{source} -> e{target};")
    lines.append("}")
    return "\n".join(lines)
