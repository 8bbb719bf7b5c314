"""Tests for the active-learning feedback loop."""

import pytest

from repro.core import SnapsConfig, SnapsResolver
from repro.core.active_learning import ActiveLearningLoop
from repro.eval import evaluate_linkage


@pytest.fixture(scope="module")
def loop_ctx(tiny_dataset):
    result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
    return tiny_dataset, result


def _truth_oracle(dataset):
    def oracle(rid_a, rid_b):
        return dataset.record(rid_a).person_id == dataset.record(rid_b).person_id

    return oracle


class TestUncertaintySampling:
    def test_pairs_near_threshold(self, loop_ctx):
        dataset, result = loop_ctx
        loop = ActiveLearningLoop(result)
        pairs = loop.uncertain_pairs(k=10)
        assert len(pairs) <= 10
        threshold = loop.config.merge_threshold
        keys = result.graph.keys()
        for pair in pairs:
            similarity = loop._scorer.atomic_similarity(
                result.graph, keys.index(pair)
            )
            assert abs(similarity - threshold) < 0.15

    def test_sorted_by_informativeness(self, loop_ctx):
        dataset, result = loop_ctx
        loop = ActiveLearningLoop(result)
        pairs = loop.uncertain_pairs(k=10)
        threshold = loop.config.merge_threshold
        keys = result.graph.keys()
        distances = [
            abs(
                loop._scorer.atomic_similarity(result.graph, keys.index(p))
                - threshold
            )
            for p in pairs
        ]
        assert distances == sorted(distances)

    def test_k_validation(self, loop_ctx):
        _, result = loop_ctx
        with pytest.raises(ValueError):
            ActiveLearningLoop(result).uncertain_pairs(k=0)

    def test_answered_pairs_excluded(self, loop_ctx):
        dataset, result = loop_ctx
        loop = ActiveLearningLoop(result)
        first = loop.uncertain_pairs(k=3)
        if not first:
            pytest.skip("no uncertain pairs")
        loop.ask(first, _truth_oracle(dataset))
        second = loop.uncertain_pairs(k=10)
        assert not (set(first) & set(second))


class TestLoop:
    def test_full_loop_improves_or_preserves_quality(self, tiny_dataset):
        result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
        truth = tiny_dataset.true_match_pairs("Bp-Bp")
        before = evaluate_linkage(result.matched_pairs("Bp-Bp"), truth).f_star
        loop = ActiveLearningLoop(result)
        outcomes = loop.run(
            _truth_oracle(tiny_dataset), rounds=2, questions_per_round=15
        )
        from repro.data.roles import PARENT_ROLE_GROUPS

        after_pairs = loop.session.store.matched_pairs(
            PARENT_ROLE_GROUPS["Bp"], PARENT_ROLE_GROUPS["Bp"]
        )
        after = evaluate_linkage(after_pairs, truth).f_star
        assert after >= before - 1.0
        assert outcomes, "the loop should have asked something"

    def test_outcome_accounting(self, tiny_dataset):
        result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
        loop = ActiveLearningLoop(result)
        pairs = loop.uncertain_pairs(k=8)
        if not pairs:
            pytest.skip("no uncertain pairs")
        outcome = loop.ask(pairs, _truth_oracle(tiny_dataset))
        assert outcome.confirmed + outcome.rejected + outcome.skipped == len(pairs)

    def test_rejections_stick_after_remerge(self, tiny_dataset):
        result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
        loop = ActiveLearningLoop(result)
        pairs = loop.uncertain_pairs(k=15)
        outcome = loop.ask(pairs, _truth_oracle(tiny_dataset))
        loop.remerge()
        for rid_a, rid_b in loop.session.rejected:
            assert not loop.session.store.same_entity(rid_a, rid_b)

    def test_oracle_exceptions_do_not_corrupt_session(self, tiny_dataset):
        result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
        loop = ActiveLearningLoop(result)
        pairs = loop.uncertain_pairs(k=5)
        if not pairs:
            pytest.skip("no uncertain pairs")

        # An oracle that wrongly confirms everything: impossible pairs are
        # skipped rather than crashing.
        outcome = loop.ask(pairs, lambda a, b: True)
        assert outcome.confirmed + outcome.skipped == len(pairs)
