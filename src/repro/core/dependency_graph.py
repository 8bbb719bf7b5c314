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

Storage is columnar: node ``k`` is row ``k`` of integer columns, a group
is a slice of a CSR index, and each attribute keeps one table of shared
:class:`AtomicNode` values that nodes point into by id.  No Python
object exists per node or per group — at perfbench scale that is 109k
nodes and 89k groups — and relationship edges are derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.blocking.candidates import RecordTable, pair_array, pair_masks
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
    "DependencyGraph",
    "GraphSeeds",
    "build_dependency_graph",
    "build_graph_and_seeds",
]

NodeKey = tuple[int, int]  # (rid_a, rid_b)
Edge = tuple[NodeKey, str, NodeKey]


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


class DependencyGraph:
    """G_D as columns.

    * Node ``k`` is the candidate pair ``(rid_a[k], rid_b[k])``, one per
      pair, in pair order; ``merged[k]`` is set once merging consumes it.
    * Group ``g`` holds the nodes of the certificate pair
      ``group_keys[g]`` (sorted certificate ids):
      ``group_nodes[group_offsets[g]:group_offsets[g + 1]]``, in pair
      order.  Groups run in order of first appearance.
    * ``atom_ids[attribute][k]`` is the node's atomic node for that
      attribute, as an index into ``atoms[attribute]``, or -1 when it has
      none.  Atomic nodes are shared; PROP-A re-points a node by writing
      an id (:meth:`set_atomic`).
    """

    def __init__(self, dataset: Dataset, attributes: Sequence[str] = ()) -> None:
        self.dataset = dataset
        self.rid_a = np.empty(0, dtype=np.int64)
        self.rid_b = np.empty(0, dtype=np.int64)
        self.merged = np.zeros(0, dtype=bool)
        self.group_keys = np.empty((0, 2), dtype=np.int64)
        self.group_offsets = np.zeros(1, dtype=np.int64)
        self.group_nodes = np.empty(0, dtype=np.int64)
        self.atoms: dict[str, list[AtomicNode]] = {name: [] for name in attributes}
        self.atom_ids = {name: np.empty(0, dtype=np.int32) for name in attributes}
        self._atom_index: dict[str, dict[AtomicNode, int]] = {}
        self._atomic_registry: set[tuple[str, str, str]] = set()
        self._views()

    def _views(self) -> None:
        # Per-node scalar reads go through memoryviews: indexing one
        # returns a Python int, where a numpy scalar would be slower and
        # would leak numpy integers into the entity store.
        self._rid_a = memoryview(self.rid_a)
        self._rid_b = memoryview(self.rid_b)
        self.atom_view = {
            name: memoryview(ids) for name, ids in self.atom_ids.items()
        }

    # ------------------------------------------------------------------

    @property
    def n_atomic(self) -> int:
        """|N_A| — distinct atomic (value-pair) nodes ever admitted."""
        return len(self._atomic_registry)

    @property
    def n_relational(self) -> int:
        """|N_R| — relational (record-pair) nodes."""
        return len(self.rid_a)

    @property
    def n_groups(self) -> int:
        return len(self.group_keys)

    def key(self, k: int) -> NodeKey:
        """Node ``k``'s record pair."""
        return self._rid_a[k], self._rid_b[k]

    def keys(self) -> list[NodeKey]:
        """Every node's record pair, in node order."""
        return list(zip(self.rid_a.tolist(), self.rid_b.tolist()))

    def records_of(self, k: int) -> tuple[Record, Record]:
        record = self.dataset.record
        return record(self._rid_a[k]), record(self._rid_b[k])

    def group_members(self, g: int) -> np.ndarray:
        """Node ids of group ``g``, in pair order."""
        return self.group_nodes[self.group_offsets[g] : self.group_offsets[g + 1]]

    def alive_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The unmerged nodes of every group that has one, in one pass.

        Returns the node ids, group after group in group order, and each
        such group's number of them.
        """
        if not len(self.group_nodes):
            return self.group_nodes, self.group_nodes
        alive = ~self.merged[self.group_nodes]
        counts = np.add.reduceat(alive, self.group_offsets[:-1], dtype=np.int64)
        return self.group_nodes[alive], counts[counts > 0]

    # ------------------------------------------------------------------
    # Atomic nodes
    # ------------------------------------------------------------------

    def atomic(self, k: int) -> dict[str, AtomicNode]:
        """Node ``k``'s atomic nodes by attribute, in schema order."""
        return {
            name: self.atoms[name][i]
            for name, ids in self.atom_view.items()
            if (i := ids[k]) >= 0
        }

    def set_atomic(self, k: int, attribute: str, atomic: AtomicNode | None) -> None:
        """Point node ``k``'s ``attribute`` at ``atomic`` (``None``: none)."""
        self.atom_view[attribute][k] = -1 if atomic is None else self.intern(atomic)

    def intern(self, atomic: AtomicNode) -> int:
        """Id of ``atomic`` in its attribute's table, appended if new."""
        table = self.atoms[atomic.attribute]
        index = self._atom_index.get(atomic.attribute)
        if index is None:
            index = self._atom_index[atomic.attribute] = {
                node: i for i, node in enumerate(table)
            }
        i = index.get(atomic)
        if i is None:
            i = index[atomic] = len(table)
            table.append(atomic)
        return i

    def register_atomic(self, atomic: AtomicNode) -> None:
        """Count a (possibly re-pointed) atomic node in |N_A|."""
        self._atomic_registry.add(atomic.key())

    # ------------------------------------------------------------------
    # Relationship edges
    # ------------------------------------------------------------------

    def group_edges(self, g: int) -> list[Edge]:
        """Relationship edges inside group ``g``, derived on demand.

        Two relational nodes (ra, rc) and (rb, rd) are connected with
        label ``rel`` when certificate A relates ra→rb and certificate B
        relates rc→rd with the same relationship (Figure 3).  ``childOf``
        edges are the reverses of Mof/Fof and are represented implicitly.
        """
        cert_a, cert_b = (
            self.dataset.certificates[c] for c in self.group_keys[g].tolist()
        )
        members = self.group_members(g)
        present = set(zip(self.rid_a[members].tolist(), self.rid_b[members].tolist()))
        edges = []
        for ra, rel_a, rb in cert_a.relationships():
            for rc, rel_b, rd in cert_b.relationships():
                if rel_a != rel_b:
                    continue
                pairings = [((ra, rc), (rb, rd))]
                if rel_a == "Sof":
                    # Spouse links are symmetric: also try the crossed pairing.
                    pairings.append(((ra, rd), (rb, rc)))
                for left, right in pairings:
                    key_left = tuple(sorted(left))
                    key_right = tuple(sorted(right))
                    if key_left in present and key_right in present:
                        edges.append((key_left, rel_a, key_right))
        return edges


@dataclass
class GraphSeeds:
    """Build-time tables the resolver seeds its scorer and checker with.

    * ``sim_table`` — every comparator output the pairs imply, keyed
      ``(attribute, lo, hi)`` like ``PairScorer``'s similarity cache;
    * ``s_a`` / ``s_d`` — each node's initial Eq. (1) / Eq. (2) score
      (``s_a`` is NaN where it must be computed lazily);
    * ``verdict`` — each node's singleton-state constraint verdict (-1
      where the build leaves it to the checker).
    """

    sim_table: dict[tuple[str, str, str], float] = field(default_factory=dict)
    s_a: np.ndarray = field(default_factory=lambda: np.empty(0))
    s_d: np.ndarray = field(default_factory=lambda: np.empty(0))
    verdict: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))


def build_dependency_graph(
    dataset: Dataset,
    candidate_pairs,
    config: SnapsConfig,
    registry: ComparatorRegistry | None = None,
) -> DependencyGraph:
    """Construct G_D from filtered candidate pairs (seeds discarded)."""
    return build_graph_and_seeds(dataset, candidate_pairs, config, registry)[0]


def build_graph_and_seeds(
    dataset: Dataset,
    candidate_pairs,
    config: SnapsConfig,
    registry: ComparatorRegistry | None = None,
    frequencies: "NameFrequencyIndex | None" = None,
) -> tuple[DependencyGraph, GraphSeeds]:
    """Construct G_D from filtered candidate pairs, plus its seed tables.

    ``candidate_pairs`` is anything :func:`~repro.blocking.candidates.pair_array`
    takes: the blocking phase's ``(n, 2)`` array, a
    :class:`~repro.blocking.candidates.PairArray`, or pairs.  For each
    candidate pair a relational node is created; each schema attribute
    present on both records whose similarity reaches ``t_a`` contributes
    an atomic node.  The build is one array pass: each attribute's
    values get integer codes in sorted string order, the distinct
    unordered ``(attribute, lo, hi)`` code pairs are found with
    ``np.unique``, and the registry is called once per distinct pair, in
    the orientation in which that pair first appears — so the cost
    follows *distinct* value pairs rather than record pairs (names
    repeat heavily — that is the ambiguity problem itself).  Equation (1)
    and (2) scores and the constraint verdicts are whole-column numpy
    expressions, bit-identical to the scalar scorer and checker.

    ``frequencies`` is the name-frequency index ``s_d`` is seeded from
    (the resolver passes the one its scorer uses); it defaults to one
    built from ``dataset``.
    """
    registry = registry or default_registry()
    if frequencies is None:
        from repro.core.scoring import NameFrequencyIndex

        frequencies = NameFrequencyIndex(dataset)
    graph = DependencyGraph(dataset, config.schema.names())
    seeds = GraphSeeds()
    pairs = pair_array(candidate_pairs)
    if len(pairs):
        _build(graph, seeds, pairs, config, registry, frequencies)
    return graph, seeds


def _build(graph, seeds, pairs, config, registry, frequencies) -> None:
    records = list(graph.dataset)
    table = RecordTable(records)
    n = len(pairs)
    graph.rid_a = np.ascontiguousarray(pairs[:, 0])
    graph.rid_b = np.ascontiguousarray(pairs[:, 1])
    graph.merged = np.zeros(n, dtype=bool)
    ia, ib = table.rows(graph.rid_a), table.rows(graph.rid_b)

    # Groups: each node's sorted certificate pair, numbered in order of
    # first appearance, then a stable sort lists each group's nodes in
    # pair order.
    certs_a, certs_b = table.cert[ia], table.cert[ib]
    cert_pairs = np.stack(
        (np.minimum(certs_a, certs_b), np.maximum(certs_a, certs_b)), axis=1
    )
    distinct, first, group_of = np.unique(
        cert_pairs, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    group_of = rank[group_of.reshape(-1)]
    graph.group_keys = distinct[order]
    graph.group_nodes = np.argsort(group_of, kind="stable")
    graph.group_offsets = np.concatenate(
        ([0], np.cumsum(np.bincount(group_of, minlength=len(order))))
    )

    # Atomic nodes, attribute by attribute.
    sims: list[np.ndarray] = []
    states: list[np.ndarray] = []
    for attribute in config.schema.names():
        column = [record.get(attribute) for record in records]
        sim, state = _attach_atomic(
            graph, seeds, attribute, column, ia, ib, config, registry
        )
        sims.append(sim)
        states.append(state)
    graph._views()

    # Seeds: Equations (1) and (2) per node.  With temporal decay, s_a
    # needs both event years; a pair lacking one is left to the scorer.
    dated = table.dated[ia] & table.dated[ib]
    half_life = config.temporal_decay_half_life
    gaps = np.abs(table.year[ia] - table.year[ib])
    s_a = batch_atomic_similarity(config.schema, half_life, gaps, sims, states)
    if half_life is not None:
        s_a[~dated] = np.nan
    freq = np.array([frequencies.frequency(record) for record in records])
    n_total = max(2, frequencies.total_records)
    sums, sum_of = np.unique(freq[ia] + freq[ib], return_inverse=True)
    s_d_of = [
        min(1.0, max(0.0, math.log2(n_total / f) / math.log2(n_total)))
        for f in sums.tolist()
    ]
    seeds.s_a = s_a
    seeds.s_d = np.array(s_d_of, dtype=np.float64)[sum_of.reshape(-1)]

    # Singleton-state verdicts: 1 (record-level reject) or 0 (mergeable).
    # For single-record entities every entity-level check degenerates to
    # its record-level counterpart, so the two coincide until a merge
    # grows an entity.  Pairs with an undated record stay unseeded (-1).
    reject = np.zeros(n, dtype=bool)
    for mask in pair_masks(table, ia, ib, config.temporal_slack_years):
        reject |= mask
    role_a = table.role[ia]
    reject |= table.singleton_role[role_a] & (role_a == table.role[ib])
    seeds.verdict = np.where(dated, reject, -1).astype(np.int8)


def _attach_atomic(graph, seeds, attribute, column, ia, ib, config, registry):
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

    n = len(ia)
    node_admitted = admitted[pair_of]
    sim = np.zeros(n, dtype=np.float64)
    sim[present] = np.where(node_admitted, sims[pair_of], 0.0)
    state = np.full(n, STATE_ABSENT, dtype=np.int8)
    state[present] = np.where(node_admitted, STATE_MATCHED, STATE_PRESENT)

    # One shared AtomicNode per oriented value pair, which every node
    # holding that pair points at.
    hits = np.flatnonzero(node_admitted)
    _, atom_first, atom_of = np.unique(
        codes_a[hits] * len(values) + codes_b[hits],
        return_index=True,
        return_inverse=True,
    )
    firsts = hits[atom_first]
    graph.atoms[attribute] = [
        AtomicNode(attribute, values[x], values[y], distinct_sims[u])
        for x, y, u in zip(
            codes_a[firsts].tolist(),
            codes_b[firsts].tolist(),
            pair_of[firsts].tolist(),
        )
    ]
    ids = np.full(n, -1, dtype=np.int32)
    ids[present[hits]] = atom_of.reshape(-1)
    graph.atom_ids[attribute] = ids
    return sim, state
