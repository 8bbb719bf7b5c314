"""Parity of the iterative merge loop with its straightforward form.

``iterative_merge`` computes each group's alive nodes once, looks the
pair-validity seed and each record's entity up once per ``can_merge``,
registers PROP-A's atomic nodes once per memo entry, and reads category
attribute names precomputed by the scorer.  The oracle below is the loop
as it read before those shortcuts (group priorities and processing each
re-deriving alive nodes, ``can_merge`` repeating lookups, PROP-A
registering on every application).  Both run on identically prepared
states, seeded as in ``SnapsResolver.resolve`` and unseeded as in
``ActiveLearningLoop.remerge``, under the default configuration, with
REL, PROP and AMB ablated, and with a two-Must schema; every observable
outcome must match: the entity store, every node's atomic evidence and
merged flag, |N_A|, and the constraint, scoring and merging telemetry.
"""

from __future__ import annotations

import pytest

from repro.blocking.candidates import CandidatePair
from repro.core.bootstrap import bootstrap_merge
from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import build_graph_and_seeds
from repro.core.entities import EntityStore
from repro.core.merging import iterative_merge
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
#: (level 2, which the build never emits but the checker accepts); or
#: unseeded.
SEEDINGS = ("seeded", "level2", "unseeded")


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


def _run(dataset, pairs, config, seeding, merge):
    """Bootstrap, merge with ``merge``, then remerge unseeded with it.

    Returns the observable state after each of the two merge passes.
    """
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
        scorer.seed_caches(seeds.sim_table, seeds.node_scores)
        checker.seed_pair_validity(validity)
    bootstrap_merge(graph, store, scorer, checker, config, metrics)
    outcomes = []
    merged = merge(graph, store, scorer, checker, config, metrics)
    scorer.publish_cache_metrics(metrics)
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


@pytest.mark.parametrize("seeding", SEEDINGS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_merge_matches_oracle(dataset, pairs, name, seeding):
    config = CONFIGS[name]
    expected = _run(dataset, pairs[name], config, seeding, oracle_iterative_merge)
    actual = _run(dataset, pairs[name], config, seeding, iterative_merge)
    assert expected[0]["merged"] > 0
    for want, got in zip(expected, actual):
        assert got["merged"] == want["merged"]
        assert got["store"] == want["store"]
        assert got["n_atomic"] == want["n_atomic"]
        assert got["nodes"] == want["nodes"]
        assert got["counters"] == want["counters"]
        assert got["gauges"] == want["gauges"]
        assert got["histograms"] == want["histograms"]
