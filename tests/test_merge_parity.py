"""Parity of the iterative merge loop with its straightforward form.

``iterative_merge`` computes each group's alive nodes once, ranks the
groups with one array pass over the scorer's seeded scores, runs a
one-node group straight through instead of through the REL loop, looks
the pair-validity seed and each record's entity up once per
``can_merge``, registers PROP-A's atomic nodes once per memo entry, and
reads category attribute names precomputed by the scorer.  The oracle
below is the loop as it read before those shortcuts (group priorities as
``sorted`` tuples of per-node ``combined_similarity`` means, every group
through the REL loop, ``can_merge`` repeating lookups and counting each
rejection into the registry, PROP-A registering on every application).
Both run on identically prepared states, seeded as in
``SnapsResolver.resolve`` and unseeded as in
``ActiveLearningLoop.remerge``, under the default configuration, with
REL, PROP and AMB ablated, and with a two-Must schema; crafted states add
tied priorities and partly or wholly merged groups.  Every observable
outcome must match: the entity store, every node's atomic evidence and
merged flag, |N_A|, and the constraint, scoring and merging telemetry.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.candidates import CandidatePair
from repro.core.bootstrap import bootstrap_merge
from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import AtomicNode, build_graph_and_seeds
from repro.core.entities import EntityStore
from repro.core.merging import _group_means, iterative_merge
from repro.core.resolver import SnapsResolver
from repro.core.scoring import NameFrequencyIndex, PairScorer
from repro.data.schema import AttributeCategory, AttributeSpec, Schema
from repro.data.synthetic import make_tiny_dataset
from repro.obs.metrics import SIMILARITY_BUCKETS, MetricsRegistry

# ----------------------------------------------------------------------
# Oracle: the merge loop without the shortcuts
# ----------------------------------------------------------------------


def oracle_can_merge(checker, store, a, b) -> bool:
    if checker._pair_validity is not None:
        rid_a, rid_b = a.record_id, b.record_id
        key = (rid_a, rid_b) if rid_a < rid_b else (rid_b, rid_a)
        level = checker._pair_validity.get(key)
        if level is not None and (
            level == 1
            or (
                len(store.entity_of(rid_a).record_ids) == 1
                and len(store.entity_of(rid_b).record_ids) == 1
            )
        ):
            if level == 0:
                return True
            if checker.metrics is not None:
                checker.metrics.inc(
                    "constraints.rejected_record_level"
                    if level == 1
                    else "constraints.rejected_entity_level"
                )
            return False
    if not checker.records_compatible(a, b):
        if checker.metrics is not None:
            checker.metrics.inc("constraints.rejected_record_level")
        return False
    if not checker.propagate:
        return True
    ea = store.entity_of(a.record_id)
    eb = store.entity_of(b.record_id)
    if not checker.entities_compatible(ea, eb):
        if checker.metrics is not None:
            checker.metrics.inc("constraints.rejected_entity_level")
        return False
    return True


def oracle_propagate_values(scorer, graph, node, store) -> None:
    entity_a = store.entity_of(node.rid_a)
    entity_b = store.entity_of(node.rid_b)
    key = (node.rid_a, node.rid_b)
    if (
        len(entity_a.record_ids) == 1
        and len(entity_b.record_ids) == 1
        and key in scorer._node_scores
    ):
        return
    state = (
        entity_a.entity_id,
        len(entity_a.record_ids),
        entity_b.entity_id,
        len(entity_b.record_ids),
    )
    memo = scorer._propagate_memo.get(state)
    if memo is None:
        scorer._propagate_misses += 1
        memo = scorer._propagate_memo[state] = scorer._best_pairs(
            store, entity_a, entity_b
        )
    else:
        scorer._propagate_hits += 1
    changed = False
    for attribute, best in memo.items():
        if best is not None:
            if node.atomic.get(attribute) != best:
                changed = True
            node.atomic[attribute] = best
            graph.register_atomic(best)
        elif attribute in node.atomic:
            del node.atomic[attribute]
            changed = True
    if changed:
        entry = scorer._node_scores.get(key)
        if entry is not None:
            entry[0] = None


def oracle_must_values_disagree(graph, node, config) -> bool:
    a, b = graph.records_of(node)
    for attribute in config.schema.names_in(AttributeCategory.MUST):
        value_a, value_b = a.get(attribute), b.get(attribute)
        if value_a is None or value_b is None:
            continue
        if attribute in node.atomic:
            continue
        return True
    return False


def oracle_process_group(nodes, graph, store, scorer, checker, config, metrics):
    use_rel = config.use_relational
    disagreements = 0
    while nodes:
        valid = []
        invalid = []
        for node in nodes:
            a, b = graph.records_of(node)
            if oracle_can_merge(checker, store, a, b) or store.same_entity(
                node.rid_a, node.rid_b
            ):
                valid.append(node)
            else:
                invalid.append(node)
        if invalid:
            if not use_rel:
                return 0
            nodes = valid
            continue
        if not valid:
            return 0
        if config.use_propagation:
            for node in valid:
                oracle_propagate_values(scorer, graph, node, store)
        unsupported = [n for n in valid if not scorer.has_must_evidence(n)]
        if unsupported and use_rel:
            disagreements += sum(
                1 for n in unsupported if oracle_must_values_disagree(graph, n, config)
            )
            nodes = [n for n in valid if scorer.has_must_evidence(n)]
            continue
        atomic = [scorer.atomic_similarity(n) for n in valid]
        if use_rel and len(valid) > 1 and min(atomic) < config.node_floor:
            kept = [n for n, s in zip(valid, atomic) if s >= config.node_floor]
            disagreements += sum(
                1
                for n, s in zip(valid, atomic)
                if s < config.node_floor
                and oracle_must_values_disagree(graph, n, config)
            )
            nodes = kept
            continue
        if disagreements >= len(valid):
            return 0
        if len(valid) >= 2:
            mean_gate = sum(atomic) / len(atomic)
        elif config.gate_on_combined:
            mean_gate = scorer.combined_similarity(valid[0])
        else:
            mean_gate = atomic[0]
        if metrics is not None:
            metrics.observe("similarity.merge_gate", mean_gate, SIMILARITY_BUCKETS)
        if mean_gate >= config.merge_threshold:
            merged = 0
            for node in valid:
                a, b = graph.records_of(node)
                if store.same_entity(node.rid_a, node.rid_b) or oracle_can_merge(
                    checker, store, a, b
                ):
                    store.merge(node.rid_a, node.rid_b)
                    node.merged = True
                    merged += 1
            return merged
        if not use_rel or len(valid) == 1:
            return 0
        combined = [scorer.combined_similarity(n) for n in valid]
        weakest = min(range(len(valid)), key=lambda i: combined[i])
        if oracle_must_values_disagree(graph, valid[weakest], config):
            disagreements += 1
        if metrics is not None:
            metrics.inc("merging.nodes_dropped")
        nodes = valid[:weakest] + valid[weakest + 1 :]
    return 0


def oracle_bootstrap_merge(graph, store, scorer, checker, config, metrics=None):
    histogram = None
    if metrics is not None:
        histogram = metrics.histogram(
            "similarity.bootstrap_group_mean", SIMILARITY_BUCKETS
        )
    merged_nodes = 0
    for group in graph.groups.values():
        nodes = graph.alive_group_nodes(group)
        if len(nodes) < 2:
            continue
        mean_atomic = sum(scorer.atomic_similarity(n) for n in nodes) / len(nodes)
        if histogram is not None:
            histogram.observe(mean_atomic)
        if mean_atomic < config.bootstrap_threshold:
            continue
        records = [graph.records_of(node) for node in nodes]
        if not all(checker.records_compatible(a, b) for a, b in records):
            continue
        for node, (a, b) in zip(nodes, records):
            if not oracle_can_merge(checker, store, a, b):
                continue
            store.merge(node.rid_a, node.rid_b)
            node.merged = True
            merged_nodes += 1
    if metrics is not None:
        metrics.inc("bootstrap.nodes_merged", merged_nodes)
    return merged_nodes


def oracle_iterative_merge(graph, store, scorer, checker, config, metrics=None):
    groups = list(graph.groups.values())

    def priority(group):
        nodes = graph.alive_group_nodes(group)
        if not nodes:
            return (0, 0.0)
        mean = sum(scorer.combined_similarity(n) for n in nodes) / len(nodes)
        return (len(nodes), mean)

    groups.sort(key=priority, reverse=True)
    merged_count = 0
    for group in groups:
        nodes = graph.alive_group_nodes(group)
        if not nodes:
            continue
        merged = oracle_process_group(
            nodes, graph, store, scorer, checker, config, metrics
        )
        if metrics is not None:
            metrics.inc(
                "merging.groups_merged" if merged else "merging.groups_rejected"
            )
        merged_count += merged
    if metrics is not None:
        metrics.inc("merging.nodes_merged", merged_count)
    return merged_count


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

# Two Must attributes: a node can then carry Must evidence and still
# disagree on the other Must attribute.
TWO_MUST = Schema(
    attributes=(
        AttributeSpec("first_name", AttributeCategory.MUST),
        AttributeSpec("surname", AttributeCategory.MUST),
        AttributeSpec("parish", AttributeCategory.EXTRA),
        AttributeSpec("address", AttributeCategory.EXTRA),
        AttributeSpec("occupation", AttributeCategory.EXTRA),
    )
)

CONFIGS = {
    "default": SnapsConfig(),
    "no-rel": SnapsConfig(use_relational=False),
    "no-prop": SnapsConfig(use_propagation=False),
    "no-amb": SnapsConfig(use_ambiguity=False),
    "two-must": SnapsConfig(schema=TWO_MUST),
}

#: How the first pass's scorer and checker are prepared: seeded from the
#: graph build as in ``SnapsResolver.resolve``; seeded with every third
#: mergeable verdict turned into a singleton-state entity-level reject
#: (level 2, which the build never emits but the checker accepts);
#: seeded with every score rounded to a quarter, so that many groups tie
#: on both size and mean and the queue's tie order decides, and every
#: fifth s_a left out (as the build leaves an undated pair's under
#: temporal decay); or unseeded.
SEEDINGS = ("seeded", "level2", "ties", "unseeded")


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset(seed=5)


@pytest.fixture(scope="module")
def pairs(dataset):
    """Each configuration's candidate pairs, plus the pair of the two
    lowest record ids of each of the first 40 certificates: record-level
    rejects the remerge pass force-merges."""
    same_cert = []
    for cert in list(dataset.certificates.values())[:40]:
        members = sorted(cert.member_record_ids())
        if len(members) >= 2:
            same_cert.append(CandidatePair(members[0], members[1]))
    return {
        name: SnapsResolver(config).block(dataset) + same_cert
        for name, config in CONFIGS.items()
    }


def _quarter(score):
    return None if score is None else round(score * 4) / 4


def _premerge(graph, store, every) -> None:
    """Merge nodes by hand: with ``every == "all"`` every node; else, of
    every ``every``-th group with two or more alive nodes, all nodes in
    one such group, then only the first in the next, and so on (a
    two-node group is then left with one)."""
    if every == "all":
        groups, step = list(graph.groups.values()), 1
    else:
        groups = [
            group
            for group in graph.groups.values()
            if len(graph.alive_group_nodes(group)) >= 2
        ]
        step = every
    for i, group in enumerate(groups[::step]):
        nodes = graph.alive_group_nodes(group)
        for node in nodes if every == "all" or i % 2 == 0 else nodes[:1]:
            store.merge(node.rid_a, node.rid_b)
            node.merged = True


#: The bootstrap and merge steps under test, and their oracles.
ORACLE = (oracle_bootstrap_merge, oracle_iterative_merge)
ACTUAL = (bootstrap_merge, iterative_merge)


def _run(dataset, pairs, config, seeding, steps, premerge=None):
    """Bootstrap, merge, then remerge unseeded, with ``steps``.

    ``premerge`` merges nodes by hand after the bootstrap (see
    :func:`_premerge`).  Returns the observable state after each of the
    two merge passes.
    """
    bootstrap, merge = steps
    registry = SnapsResolver(config).registry
    frequencies = NameFrequencyIndex(dataset)
    graph, seeds = build_graph_and_seeds(
        dataset, pairs, config, registry, frequencies
    )
    store = EntityStore(dataset)
    metrics = MetricsRegistry()
    scorer = PairScorer(dataset, config, registry, frequencies)
    checker = ConstraintChecker(
        config.temporal_slack_years, config.use_propagation, metrics
    )
    if seeding != "unseeded":
        validity = seeds.pair_validity
        if seeding == "level2":
            validity = {
                key: 2 if level == 0 and i % 3 == 0 else level
                for i, (key, level) in enumerate(validity.items())
            }
        node_scores = seeds.node_scores
        if seeding == "ties":
            node_scores = {
                key: [None if i % 5 == 0 else _quarter(s_a), _quarter(s_d)]
                for i, (key, (s_a, s_d)) in enumerate(node_scores.items())
            }
        scorer.seed_caches(seeds.sim_table, node_scores)
        checker.seed_pair_validity(validity)
    bootstrap(graph, store, scorer, checker, config, metrics)
    if premerge:
        _premerge(graph, store, premerge)
    outcomes = []
    merged = merge(graph, store, scorer, checker, config, metrics)
    scorer.publish_cache_metrics(metrics)
    checker.publish_metrics()
    outcomes.append(_observe(graph, store, metrics, merged))
    # The remerge pass of active learning: a fresh unseeded scorer and
    # checker over the merged state, after a few confirmations that join
    # records the checker itself would keep apart (an expert may link
    # what the constraints reject).
    forced = [
        node
        for node in graph
        if not node.merged
        and not checker.records_compatible(*graph.records_of(node))
    ]
    for node in forced[:5]:
        store.merge(node.rid_a, node.rid_b)
    metrics = MetricsRegistry()
    scorer = PairScorer(dataset, config, registry, frequencies)
    checker = ConstraintChecker(
        config.temporal_slack_years, config.use_propagation, metrics
    )
    merged = merge(graph, store, scorer, checker, config, metrics)
    scorer.publish_cache_metrics(metrics)
    checker.publish_metrics()
    outcomes.append(_observe(graph, store, metrics, merged))
    return outcomes


def _observe(graph, store, metrics, merged) -> dict:
    snapshot = metrics.as_dict()
    return {
        "merged": merged,
        "store": store.state(),
        "nodes": {
            key: (list(node.atomic.items()), node.merged)
            for key, node in graph.nodes.items()
        },
        "n_atomic": graph.n_atomic,
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
    }


def _assert_same(expected, actual) -> None:
    for want, got in zip(expected, actual, strict=True):
        assert got["merged"] == want["merged"]
        assert got["store"] == want["store"]
        assert got["n_atomic"] == want["n_atomic"]
        assert got["nodes"] == want["nodes"]
        assert got["counters"] == want["counters"]
        assert got["gauges"] == want["gauges"]
        assert got["histograms"] == want["histograms"]


@pytest.mark.parametrize("seeding", SEEDINGS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_merge_matches_oracle(dataset, pairs, name, seeding):
    config = CONFIGS[name]
    expected = _run(dataset, pairs[name], config, seeding, ORACLE)
    actual = _run(dataset, pairs[name], config, seeding, ACTUAL)
    assert expected[0]["merged"] > 0
    _assert_same(expected, actual)


@pytest.mark.parametrize("seeding", ("ties", "unseeded"))
@pytest.mark.parametrize("name", ("default", "no-amb"))
def test_partly_merged_groups_match_oracle(dataset, pairs, name, seeding):
    config = CONFIGS[name]
    expected = _run(dataset, pairs[name], config, seeding, ORACLE, premerge=3)
    actual = _run(dataset, pairs[name], config, seeding, ACTUAL, premerge=3)
    assert expected[0]["merged"] > 0
    _assert_same(expected, actual)


def test_all_merged_groups_match_oracle(dataset, pairs):
    """Every node merged before the pass: nothing is queued, no gate is
    observed, and no gate histogram is created."""
    config = CONFIGS["default"]
    expected = _run(dataset, pairs["default"], config, "seeded", ORACLE, "all")
    actual = _run(dataset, pairs["default"], config, "seeded", ACTUAL, "all")
    assert expected[0]["merged"] == 0
    assert "similarity.merge_gate" not in expected[0]["histograms"]
    _assert_same(expected, actual)


@given(
    groups=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_group_means_equal_builtin_sum(groups):
    """The queue's group means are ``sum(group) / len(group)`` bit for
    bit, the order of the terms included."""
    flat = np.array([value for group in groups for value in group], dtype=np.float64)
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    got = _group_means(flat, sizes).tolist()
    assert got == [sum(group) / len(group) for group in groups]


def test_group_means_keep_term_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round apart.
    got = _group_means(np.array([0.1, 0.2, 0.3, 0.3, 0.2, 0.1]), np.array([3, 3]))
    assert got.tolist() == [sum([0.1, 0.2, 0.3]) / 3, sum([0.3, 0.2, 0.1]) / 3]
    if sys.version_info < (3, 12):  # a compensated sum rounds both to 0.6
        assert got[0] != got[1]


def oracle_best_pair(scorer, attribute, values_a, values_b):
    best = None
    for va in values_a:
        if best is not None and best.similarity >= 1.0:
            break
        for vb in values_b:
            similarity = scorer.value_similarity(attribute, va, vb)
            if best is None or similarity > best.similarity:
                best = AtomicNode(attribute, va, vb, similarity)
                if similarity >= 1.0:
                    break
    return best


_VALUES = st.lists(
    st.sampled_from(["ann", "anne", "anna", "mary", "m", "f", "1 high st", "high st"]),
    min_size=1,
    max_size=5,
    unique=True,
)


@given(
    attribute=st.sampled_from(["first_name", "gender", "address"]),
    values_a=_VALUES,
    values_b=_VALUES,
)
@settings(max_examples=200, deadline=None)
def test_best_pair_matches_oracle(dataset, attribute, values_a, values_b):
    """PROP-A's best cross pair, ties included (exact and token
    comparators tie often), and the similarity-cache counters."""
    config = SnapsConfig()
    actual, expected = PairScorer(dataset, config), PairScorer(dataset, config)
    for scorer in (actual, expected):  # a warm cache: hits and misses both
        scorer.value_similarity(attribute, values_a[0], values_b[0])
    got = actual._best_pair(attribute, values_a, values_b)
    want = oracle_best_pair(expected, attribute, values_a, values_b)
    assert got == want
    assert (actual._sim_hits, actual._sim_misses) == (
        expected._sim_hits,
        expected._sim_misses,
    )


def test_value_tables_match_store(dataset, pairs):
    """One PROP-A value table per entity state holds what
    ``EntityStore.values_of`` gives for every attribute."""
    config = CONFIGS["two-must"]
    _, seeds = build_graph_and_seeds(dataset, pairs["default"], config)
    store = EntityStore(dataset)
    for rid_a, rid_b in list(seeds.node_scores)[::7]:
        store.merge(rid_a, rid_b)
    scorer = PairScorer(dataset, config)
    entities = list(store.entities())
    assert any(len(entity) > 2 for entity in entities)
    for entity in entities:
        table = scorer._values_of(entity, store)
        assert table == {
            attribute: store.values_of(entity, attribute)
            for attribute in config.schema.names()
        }


def test_queue_ties_occur(dataset, pairs):
    """The tie seeding really ties groups on (size, mean), including
    lone-node groups, so the queue's tie order is exercised."""
    config = CONFIGS["default"]
    graph, seeds = build_graph_and_seeds(
        dataset, pairs["default"], config, SnapsResolver(config).registry
    )
    scorer = PairScorer(dataset, config)
    scorer.seed_caches(
        seeds.sim_table,
        {key: [_quarter(a), _quarter(d)] for key, (a, d) in seeds.node_scores.items()},
    )
    priorities = [
        (
            len(group.node_keys),
            sum(scorer.combined_similarity(graph.nodes[k]) for k in group.node_keys)
            / len(group.node_keys),
        )
        for group in graph.groups.values()
    ]
    repeated = {p for p in priorities if priorities.count(p) > 1}
    assert any(size == 1 for size, _ in repeated)
    assert any(size > 1 for size, _ in repeated)
