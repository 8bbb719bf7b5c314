"""Active learning over linkage decisions (paper future work, Section 12:
"Such feedback can then be employed within an active learning based
framework to improve the quality of generated links").

The loop is uncertainty sampling over the dependency graph's relational
nodes: the most *informative* pairs to show a domain expert are the ones
the similarity model is least sure about — gate similarity close to the
merge threshold ``t_m``.  Expert answers flow into a
:class:`~repro.core.feedback.FeedbackSession` (must-/cannot-links), and
the merging step can be re-run with the feedback-aware checker.

``ActiveLearningLoop.run`` drives the whole cycle against any oracle
callable; tests and benches use a ground-truth oracle to quantify the
quality gained per expert question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import SnapsConfig
from repro.core.feedback import FeedbackSession
from repro.core.merging import iterative_merge
from repro.core.resolver import LinkageResult
from repro.core.scoring import PairScorer

__all__ = ["ActiveLearningLoop", "QueryOutcome"]

Oracle = Callable[[int, int], bool]


@dataclass
class QueryOutcome:
    """One expert interaction round."""

    asked: list[tuple[int, int]]
    confirmed: int = 0
    rejected: int = 0
    skipped: int = 0
    merges_after: int = 0


class ActiveLearningLoop:
    """Uncertainty-sampling feedback loop over a resolved dataset."""

    def __init__(
        self,
        result: LinkageResult,
        config: SnapsConfig | None = None,
    ) -> None:
        self.result = result
        self.config = config or SnapsConfig()
        self.session = FeedbackSession(result.dataset, result.entities)
        self._scorer = PairScorer(result.dataset, self.config)

    # ------------------------------------------------------------------

    def uncertain_pairs(self, k: int = 10) -> list[tuple[int, int]]:
        """The ``k`` record pairs whose similarity sits closest to the
        merge threshold — the expert's answer changes the decision.

        Only unresolved disagreements qualify: unmerged nodes just below
        the threshold (potential missed links) and merged nodes just
        above it (potential wrong links).  Pairs with existing feedback
        are excluded.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        threshold = self.config.merge_threshold
        scored: list[tuple[float, tuple[int, int]]] = []
        answered = self.session.confirmed | self.session.rejected
        graph = self.result.graph
        for node, key in enumerate(graph.keys()):
            if key in answered:
                continue
            similarity = self._scorer.atomic_similarity(graph, node)
            distance = abs(similarity - threshold)
            if distance < 0.15:
                scored.append((distance, key))
        scored.sort()
        return [key for _, key in scored[:k]]

    def ask(self, pairs: list[tuple[int, int]], oracle: Oracle) -> QueryOutcome:
        """Put ``pairs`` to the oracle and apply the answers as feedback.

        Confirmations that violate hard constraints are skipped (the
        oracle may be a fallible human; biology wins).
        """
        outcome = QueryOutcome(asked=list(pairs))
        for rid_a, rid_b in pairs:
            try:
                if oracle(rid_a, rid_b):
                    if not self.session.store.same_entity(rid_a, rid_b):
                        self.session.confirm(rid_a, rid_b)
                    else:
                        self.session.confirmed.add(
                            (min(rid_a, rid_b), max(rid_a, rid_b))
                        )
                    outcome.confirmed += 1
                else:
                    self.session.reject(rid_a, rid_b)
                    outcome.rejected += 1
            except ValueError:
                outcome.skipped += 1
        return outcome

    def remerge(self) -> int:
        """Re-run iterative merging under the accumulated feedback.

        Confirmed links have already merged; this pass lets the new
        positive evidence propagate (PROP-A over the enlarged entities)
        while the feedback-aware checker enforces every cannot-link.
        Returns the number of additional node merges.
        """
        checker = self.session.checker()
        return iterative_merge(
            self.result.graph,
            self.session.store,
            self._scorer,
            checker,
            self.config,
        )

    def run(
        self,
        oracle: Oracle,
        rounds: int = 3,
        questions_per_round: int = 10,
    ) -> list[QueryOutcome]:
        """Full loop: select → ask → remerge, for ``rounds`` rounds."""
        outcomes = []
        for _ in range(rounds):
            pairs = self.uncertain_pairs(questions_per_round)
            if not pairs:
                break
            outcome = self.ask(pairs, oracle)
            outcome.merges_after = self.remerge()
            outcomes.append(outcome)
        return outcomes
