"""Dependency graph G_D: atomic nodes, relational nodes, relationship edges.

Paper Section 4.1: the dependency graph contains

* **atomic nodes** (``N_A``) — pairs of QID values with their similarity,
  admitted when the similarity reaches the threshold ``t_a``;
* **relational nodes** (``N_R``) — pairs of records that may refer to the
  same person (the blocked, filtered candidate pairs);
* **edges** — a relational node depends on its atomic nodes, and
  relational nodes arising from the same certificate pair are connected
  by relationship edges (*motherOf*, *fatherOf*, *spouseOf*, *childOf*).

Relational nodes from one certificate pair form a *node group* — the unit
the bootstrap and merging steps operate on (e.g. for two birth
certificates the group holds the mother, father, and baby pair nodes).
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.blocking.candidates import CandidatePair, RecordTable, pair_masks
from repro.core.batchscore import (
    STATE_ABSENT,
    STATE_MATCHED,
    STATE_PRESENT,
    batch_atomic_similarity,
)
from repro.core.config import SnapsConfig
from repro.data.records import Dataset, Record
from repro.faults import fire
from repro.similarity.registry import ComparatorRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.core.scoring import NameFrequencyIndex

__all__ = [
    "AtomicNode",
    "RelationalNode",
    "NodeGroup",
    "DependencyGraph",
    "GraphSeeds",
    "build_dependency_graph",
    "build_graph_and_seeds",
]

GroupKey = tuple[int, int]  # sorted certificate-id pair


@dataclass(frozen=True)
class AtomicNode:
    """A pair of QID values of one attribute and their similarity."""

    attribute: str
    value_a: str
    value_b: str
    similarity: float

    def key(self) -> tuple[str, str, str]:
        lo, hi = sorted((self.value_a, self.value_b))
        return (self.attribute, lo, hi)


@dataclass
class RelationalNode:
    """A candidate record pair, with its currently attached atomic nodes.

    ``atomic`` maps attribute name to the best-matching atomic node; under
    PROP-A these are re-pointed as entities accumulate alternative QID
    values (the (Smith, Taylor) → (Tayler, Taylor) example of Figure 4).
    """

    rid_a: int
    rid_b: int
    group: GroupKey
    atomic: dict[str, AtomicNode] = field(default_factory=dict)
    merged: bool = False

    def key(self) -> tuple[int, int]:
        return (self.rid_a, self.rid_b)

    def atomic_mean(self) -> float:
        """Unweighted mean of attached atomic similarities (0 if none)."""
        if not self.atomic:
            return 0.0
        return sum(n.similarity for n in self.atomic.values()) / len(self.atomic)


@dataclass
class NodeGroup:
    """All relational nodes sharing one certificate pair, plus the
    relationship edges between them."""

    key: GroupKey
    node_keys: list[tuple[int, int]] = field(default_factory=list)
    # Edges: (node_key_a, relationship, node_key_b).  Most groups hold a
    # single node and no edge; they share the empty tuple rather than
    # each owning an empty list.
    edges: Sequence[tuple[tuple[int, int], str, tuple[int, int]]] = ()


class DependencyGraph:
    """Container for the relational nodes, atomic registry, and groups."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.nodes: dict[tuple[int, int], RelationalNode] = {}
        self.groups: dict[GroupKey, NodeGroup] = {}
        self._atomic_registry: set[tuple[str, str, str]] = set()

    # ------------------------------------------------------------------

    def add_node(self, node: RelationalNode) -> None:
        """Insert a relational node and register it with its group."""
        self.nodes[node.key()] = node
        group = self.groups.get(node.group)
        if group is None:
            group = NodeGroup(key=node.group)
            self.groups[node.group] = group
        group.node_keys.append(node.key())
        for atomic in node.atomic.values():
            self._atomic_registry.add(atomic.key())

    def register_atomic(self, atomic: AtomicNode) -> None:
        """Count a (possibly re-pointed) atomic node in |N_A|."""
        self._atomic_registry.add(atomic.key())

    def node(self, key: tuple[int, int]) -> RelationalNode:
        return self.nodes[key]

    def records_of(self, node: RelationalNode) -> tuple[Record, Record]:
        return (
            self.dataset.record(node.rid_a),
            self.dataset.record(node.rid_b),
        )

    def alive_group_nodes(self, group: NodeGroup) -> list[RelationalNode]:
        """Unmerged nodes of ``group`` (merging consumes nodes)."""
        return [
            self.nodes[key] for key in group.node_keys if not self.nodes[key].merged
        ]

    @property
    def n_atomic(self) -> int:
        """|N_A| — distinct atomic (value-pair) nodes ever admitted."""
        return len(self._atomic_registry)

    @property
    def n_relational(self) -> int:
        """|N_R| — relational (record-pair) nodes."""
        return len(self.nodes)

    def __iter__(self) -> Iterator[RelationalNode]:
        return iter(self.nodes.values())

    def merged_nodes(self) -> list[RelationalNode]:
        return [n for n in self.nodes.values() if n.merged]


@dataclass
class GraphSeeds:
    """Build-time tables the resolver seeds its scorer and checker with.

    * ``sim_table`` — every comparator output the pairs imply, keyed
      ``(attribute, lo, hi)`` like ``PairScorer``'s similarity cache;
    * ``node_scores`` — each node's initial ``[s_a, s_d]`` (``s_a`` is
      ``None`` where it must be computed lazily);
    * ``pair_validity`` — each pair's singleton-state constraint verdict.
    """

    sim_table: dict[tuple[str, str, str], float] = field(default_factory=dict)
    node_scores: dict[tuple[int, int], list] = field(default_factory=dict)
    pair_validity: dict[tuple[int, int], int] = field(default_factory=dict)


def _group_edges(graph: DependencyGraph, group: NodeGroup) -> None:
    """Derive relationship edges inside one certificate-pair group.

    Two relational nodes (ra, rc) and (rb, rd) are connected with label
    ``rel`` when certificate A relates ra→rb and certificate B relates
    rc→rd with the same relationship (Figure 3).  ``childOf`` edges are
    the reverses of Mof/Fof and are represented implicitly.
    """
    cert_a = graph.dataset.certificates[group.key[0]]
    cert_b = graph.dataset.certificates[group.key[1]]
    present = set(group.node_keys)
    rels_a = cert_a.relationships()
    rels_b = cert_b.relationships()
    edges = []
    for ra, rel_a, rb in rels_a:
        for rc, rel_b, rd in rels_b:
            if rel_a != rel_b:
                continue
            for left, right in (((ra, rc), (rb, rd)),):
                key_left = tuple(sorted(left))
                key_right = tuple(sorted(right))
                if key_left in present and key_right in present:
                    edges.append((key_left, rel_a, key_right))
            if rel_a == "Sof":
                # Spouse links are symmetric: also try the crossed pairing.
                key_left = tuple(sorted((ra, rd)))
                key_right = tuple(sorted((rb, rc)))
                if key_left in present and key_right in present:
                    edges.append((key_left, "Sof", key_right))
    if edges:
        group.edges = edges


def build_dependency_graph(
    dataset: Dataset,
    candidate_pairs: Iterable[CandidatePair],
    config: SnapsConfig,
    registry: ComparatorRegistry | None = None,
) -> DependencyGraph:
    """Construct G_D from filtered candidate pairs (seeds discarded)."""
    return build_graph_and_seeds(dataset, candidate_pairs, config, registry)[0]


def build_graph_and_seeds(
    dataset: Dataset,
    candidate_pairs: Iterable[CandidatePair],
    config: SnapsConfig,
    registry: ComparatorRegistry | None = None,
    frequencies: "NameFrequencyIndex | None" = None,
) -> tuple[DependencyGraph, GraphSeeds]:
    """Construct G_D from filtered candidate pairs, plus its seed tables.

    For each candidate pair a relational node is created; each schema
    attribute present on both records whose similarity reaches ``t_a``
    contributes an atomic node.  The build is one array pass: each
    attribute's values get integer codes in sorted string order, the
    distinct unordered ``(attribute, lo, hi)`` code pairs are found with
    ``np.unique``, and the registry is called once per distinct pair, in
    the orientation in which that pair first appears — so the cost
    follows *distinct* value pairs rather than record pairs (names
    repeat heavily — that is the ambiguity problem itself).  Equation (1)
    and (2) scores and the constraint verdicts are whole-column numpy
    expressions, bit-identical to the scalar scorer and checker.

    ``frequencies`` is the name-frequency index ``s_d`` is seeded from
    (the resolver passes the one its scorer uses); it defaults to one
    built from ``dataset``.  Cyclic GC is paused while the objects are created:
    the build makes no reference cycles, so collections would only
    re-scan the growing graph.
    """
    registry = registry or default_registry()
    if frequencies is None:
        from repro.core.scoring import NameFrequencyIndex

        frequencies = NameFrequencyIndex(dataset)
    graph = DependencyGraph(dataset)
    seeds = GraphSeeds()
    pairs = list(candidate_pairs)
    if not pairs:
        return graph, seeds
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _build(graph, seeds, pairs, config, registry, frequencies)
    finally:
        if gc_was_enabled:
            gc.enable()
    return graph, seeds


def _build(graph, seeds, pairs, config, registry, frequencies) -> None:
    records = list(graph.dataset)
    table = RecordTable(records)
    n = len(pairs)
    rids_a = np.fromiter((pair.rid_a for pair in pairs), dtype=np.int64, count=n)
    rids_b = np.fromiter((pair.rid_b for pair in pairs), dtype=np.int64, count=n)
    ia, ib = table.rows(rids_a), table.rows(rids_b)

    # Relational nodes and groups, in pair order.
    certs_a, certs_b = table.cert[ia], table.cert[ib]
    keys = list(zip(rids_a.tolist(), rids_b.tolist()))
    group_keys = list(
        zip(
            np.minimum(certs_a, certs_b).tolist(),
            np.maximum(certs_a, certs_b).tolist(),
        )
    )
    nodes = [RelationalNode(a, b, group) for (a, b), group in zip(keys, group_keys)]
    graph.nodes.update(zip(keys, nodes))
    groups = graph.groups
    for key, group_key in zip(keys, group_keys):
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = NodeGroup(group_key)
        group.node_keys.append(key)

    # Atomic nodes, attribute by attribute, so each node's ``atomic``
    # keeps schema order.
    sims: list[np.ndarray] = []
    states: list[np.ndarray] = []
    for attribute in config.schema.names():
        column = [record.get(attribute) for record in records]
        sim, state = _attach_atomic(
            graph, seeds, nodes, attribute, column, ia, ib, config, registry
        )
        sims.append(sim)
        states.append(state)

    for group in groups.values():
        # A single-node group has no edge unless its two certificates
        # are one (a hand-built same-certificate pair).
        if len(group.node_keys) > 1 or group.key[0] == group.key[1]:
            _group_edges(graph, group)

    # Seeds: Equations (1) and (2) per node.  With temporal decay, s_a
    # needs both event years; a pair lacking one is left to the scorer.
    dated = table.dated[ia] & table.dated[ib]
    half_life = config.temporal_decay_half_life
    gaps = np.abs(table.year[ia] - table.year[ib])
    s_a = batch_atomic_similarity(config.schema, half_life, gaps, sims, states)
    s_a = s_a.tolist()
    if half_life is not None:
        s_a = [value if ok else None for value, ok in zip(s_a, dated.tolist())]
    freq = np.array([frequencies.frequency(record) for record in records])
    n_total = max(2, frequencies.total_records)
    sums, sum_of = np.unique(freq[ia] + freq[ib], return_inverse=True)
    s_d_of = [
        min(1.0, max(0.0, math.log2(n_total / f) / math.log2(n_total)))
        for f in sums.tolist()
    ]
    s_d = [s_d_of[u] for u in sum_of.reshape(-1).tolist()]
    seeds.node_scores = {key: [a, d] for key, a, d in zip(keys, s_a, s_d)}

    # Singleton-state verdicts: 1 (record-level reject) or 0 (mergeable).
    # For single-record entities every entity-level check degenerates to
    # its record-level counterpart, so the two coincide until a merge
    # grows an entity.  Pairs with an undated record stay unseeded.
    reject = np.zeros(n, dtype=bool)
    for mask in pair_masks(table, ia, ib, config.temporal_slack_years):
        reject |= mask
    role_a = table.role[ia]
    reject |= table.singleton_role[role_a] & (role_a == table.role[ib])
    levels = reject.astype(np.int64).tolist()
    seeds.pair_validity = {
        keys[k]: levels[k] for k in np.flatnonzero(dated).tolist()
    }


def _attach_atomic(graph, seeds, nodes, attribute, column, ia, ib, config, registry):
    """Score one attribute over all pairs and attach its atomic nodes.

    ``column`` holds each record's value (``None`` when missing).
    Returns the per-node similarity and state columns Equation (1)
    reads.
    """
    values = sorted({value for value in column if value is not None})
    code_of = {value: code for code, value in enumerate(values)}
    codes = np.fromiter(
        (code_of.get(value, -1) for value in column), dtype=np.int64, count=len(column)
    )
    codes_a, codes_b = codes[ia], codes[ib]
    present = np.flatnonzero((codes_a >= 0) & (codes_b >= 0))
    codes_a, codes_b = codes_a[present], codes_b[present]
    # Codes follow string order, so (lo, hi) is the sorted value pair.
    lo, hi = np.minimum(codes_a, codes_b), np.maximum(codes_a, codes_b)
    _, first, pair_of = np.unique(
        lo * len(values) + hi, return_index=True, return_inverse=True
    )
    pair_of = pair_of.reshape(-1)
    first_a, first_b = codes_a[first], codes_b[first]
    batch = registry.batch_comparator(attribute)
    if batch is None:
        distinct_sims = []
        for u, v in zip(first_a.tolist(), first_b.tolist()):
            fire("similarity.compare")
            distinct_sims.append(
                registry.compare(attribute, values[u], values[v]) or 0.0
            )
        sims = np.array(distinct_sims, dtype=np.float64)
    else:
        # One fault-injection point per distinct pair, as in the loop.
        for _ in range(len(first)):
            fire("similarity.compare")
        # ``Record.get`` reads a blank value as missing, so no value is
        # the empty string ``compare()`` would refuse.
        sims = batch(values, first_a, first_b)
        distinct_sims = sims.tolist()
    admitted = sims >= config.atomic_threshold
    for x, y, sim, ok in zip(
        lo[first].tolist(), hi[first].tolist(), distinct_sims, admitted.tolist()
    ):
        key = (attribute, values[x], values[y])
        seeds.sim_table[key] = sim
        if ok:
            graph._atomic_registry.add(key)

    n = len(nodes)
    node_admitted = admitted[pair_of]
    sim = np.zeros(n, dtype=np.float64)
    sim[present] = np.where(node_admitted, sims[pair_of], 0.0)
    state = np.full(n, STATE_ABSENT, dtype=np.int8)
    state[present] = np.where(node_admitted, STATE_MATCHED, STATE_PRESENT)

    # One shared AtomicNode per oriented value pair: PROP-A compares
    # nodes by equality, and the dataclass is frozen, so sharing is
    # indistinguishable from a fresh instance per node.
    hits = np.flatnonzero(node_admitted)
    _, atom_first, atom_of = np.unique(
        codes_a[hits] * len(values) + codes_b[hits],
        return_index=True,
        return_inverse=True,
    )
    firsts = hits[atom_first]
    atoms = [
        AtomicNode(attribute, values[x], values[y], distinct_sims[u])
        for x, y, u in zip(
            codes_a[firsts].tolist(),
            codes_b[firsts].tolist(),
            pair_of[firsts].tolist(),
        )
    ]
    for k, a in zip(present[hits].tolist(), atom_of.reshape(-1).tolist()):
        nodes[k].atomic[attribute] = atoms[a]
    return sim, state
