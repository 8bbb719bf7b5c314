"""End-to-end SNAPS resolver: blocking → G_D → bootstrap → merge → refine.

``SnapsResolver`` is the public entry point of the offline component.  It
runs the full pipeline of paper Section 4 and returns a
:class:`LinkageResult` with the final entity clusters, per-phase timings
(feeding the Table 5/6 benches), and graph statistics (|N_A|, |N_R|).

Every one of the four techniques can be ablated through
:class:`~repro.core.config.SnapsConfig` — the Table 3 experiment is just
four resolver runs with one switch off each.

The run is fully observable through :mod:`repro.obs`: pass a
:class:`~repro.obs.trace.Trace` and a
:class:`~repro.obs.metrics.MetricsRegistry` to :meth:`SnapsResolver.resolve`
and every phase becomes a span under the ``resolve`` root while the
pipeline stages emit candidate/merge/rejection counters and similarity
histograms.  Both default to off and cost nothing when absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.blocking.lsh import LshBlocker
from repro.blocking.composite import CompositeBlocker, PhoneticNameKeyBlocker
from repro.blocking.candidates import PairArray, generate_candidate_pairs, pair_array
from repro.core.bootstrap import bootstrap_merge
from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import DependencyGraph, build_graph_and_seeds
from repro.core.entities import EntityStore
from repro.core.merging import iterative_merge
from repro.core.refinement import RefinementStats, refine_clusters
from repro.core.scoring import NameFrequencyIndex, PairScorer
from repro.data.records import Dataset
from repro.data.roles import Role
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.similarity.registry import ComparatorRegistry, registry_for_config
from repro.utils.timer import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.parallel import ParallelConfig

__all__ = ["LinkageResult", "SnapsResolver"]

logger = get_logger("core.resolver")


@dataclass
class LinkageResult:
    """Output of one resolver run."""

    dataset: Dataset
    entities: EntityStore
    graph: DependencyGraph
    timings: Stopwatch = field(default_factory=Stopwatch)
    bootstrap_merges: int = 0
    iterative_merges: int = 0
    refinement: RefinementStats = field(default_factory=RefinementStats)
    metrics: MetricsRegistry | None = None
    trace: Trace | None = None

    def matched_pairs(self, role_pair: str) -> set[tuple[int, int]]:
        """Predicted matching record pairs for a paper-notation role pair
        (e.g. ``"Bp-Bp"``, ``"Bp-Dp"``, ``"Bb-Dd"``)."""
        from repro.data.roles import PARENT_ROLE_GROUPS

        left, right = role_pair.split("-")
        return self.entities.matched_pairs(
            PARENT_ROLE_GROUPS[left], PARENT_ROLE_GROUPS[right]
        )

    @property
    def n_atomic(self) -> int:
        return self.graph.n_atomic

    @property
    def n_relational(self) -> int:
        return self.graph.n_relational

    def summary(self) -> dict[str, float]:
        """Key counts and timings for benchmarking output.

        When the run carried a metrics registry, its pipeline counters
        (candidate pairs, constraint rejections, reduction ratio) join
        the summary, so bench artefacts report one consistent set of
        numbers.
        """
        summary: dict[str, float] = {
            "records": len(self.dataset),
            "n_atomic": self.n_atomic,
            "n_relational": self.n_relational,
            "bootstrap_merges": self.bootstrap_merges,
            "iterative_merges": self.iterative_merges,
            "refined_records_removed": self.refinement.records_removed,
            "refined_bridges_cut": self.refinement.bridges_cut,
            **{f"time_{k}": round(v, 4) for k, v in self.timings.times.items()},
            "time_total": round(self.timings.total(), 4),
        }
        if self.metrics is not None:
            snapshot = self.metrics.as_dict()
            for name in (
                "blocking.candidate_pairs",
                "blocking.raw_pairs",
                "constraints.rejected_record_level",
                "constraints.rejected_entity_level",
            ):
                if name in snapshot["counters"]:
                    summary[name] = snapshot["counters"][name]
            if "blocking.reduction_ratio" in snapshot["gauges"]:
                summary["blocking.reduction_ratio"] = round(
                    snapshot["gauges"]["blocking.reduction_ratio"], 6
                )
        return summary

    def report(self, meta: dict | None = None) -> dict:
        """The run as a machine-readable report (see repro.obs.report)."""
        from repro.obs.report import build_report

        base_meta = {"kind": "resolve", "dataset": self.dataset.name}
        base_meta.update(meta or {})
        base_meta.update(
            {k: v for k, v in self.summary().items() if not k.startswith("time_")}
        )
        return build_report(trace=self.trace, metrics=self.metrics, meta=base_meta)


class SnapsResolver:
    """Runs the unsupervised graph-based ER pipeline of Section 4.

    ``G_D`` is always built by one inline array pass
    (:func:`~repro.core.dependency_graph.build_graph_and_seeds`) that also
    seeds the scorer and constraint checker; a ``ParallelConfig``'s
    worker count chooses only the blocking-filter pool.
    """

    def __init__(
        self,
        config: SnapsConfig | None = None,
        registry: ComparatorRegistry | None = None,
    ) -> None:
        self.config = config or SnapsConfig()
        self.registry = registry or registry_for_config(self.config)

    def _effective_workers(
        self, dataset: Dataset, parallel: "ParallelConfig | None"
    ) -> int:
        """Blocking-filter workers for this run; 0 means the serial filter."""
        if parallel is None:
            return 0
        return parallel.effective_workers(len(dataset))

    def block(
        self,
        dataset: Dataset,
        roles: list[Role] | None = None,
        metrics: MetricsRegistry | None = None,
        parallel: "ParallelConfig | None" = None,
        trace: Trace | None = None,
    ) -> PairArray:
        """Run the configured blocking stack alone; return candidate pairs.

        The same pairs :meth:`resolve` would generate internally — exposed
        so callers can count or time blocking on its own and hand the
        pairs back through ``resolve(pairs=...)``.  The pairs come as one
        ``(n, 2)`` array (:attr:`PairArray.array`) whose items read as
        :class:`~repro.blocking.candidates.CandidatePair`.  ``parallel``
        enables the vectorised-signature + chunked-filter path (same
        pairs, same order, same metric totals as serial).
        """
        config = self.config
        blocker: object = LshBlocker(
            n_bands=config.lsh_bands,
            rows_per_band=config.lsh_rows_per_band,
            seed=config.lsh_seed,
            metrics=metrics,
        )
        if config.use_phonetic_blocking:
            blocker = CompositeBlocker([blocker, PhoneticNameKeyBlocker()])
        if config.use_per_attribute_phonetic_blocking:
            from repro.blocking.phonetic import PhoneticBlocker

            blocker = CompositeBlocker([blocker, PhoneticBlocker()])
        workers = self._effective_workers(dataset, parallel)
        if workers >= 1:
            from repro.parallel import parallel_candidate_pairs

            return PairArray(
                parallel_candidate_pairs(
                    dataset,
                    blocker,
                    config,
                    workers,
                    parallel,
                    roles=roles,
                    trace=trace,
                    metrics=metrics,
                )
            )
        return PairArray(
            pair_array(
                generate_candidate_pairs(
                    dataset,
                    blocker,
                    temporal_slack_years=config.temporal_slack_years,
                    roles=roles,
                    metrics=metrics,
                )
            )
        )

    def resolve(
        self,
        dataset: Dataset,
        roles: list[Role] | None = None,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        pairs=None,
        checkpoint=None,
        parallel: "ParallelConfig | None" = None,
    ) -> LinkageResult:
        """Resolve ``dataset`` and return the linkage result.

        ``roles`` optionally restricts which record roles participate
        (useful for focused experiments); by default all records do.
        ``trace``/``metrics`` plug the run into the telemetry layer; when
        omitted the pipeline runs uninstrumented at full speed.

        ``pairs`` substitutes the candidate pairs a caller already got
        from :meth:`block` on the same dataset for the blocking phase
        (the output is the same as letting ``resolve`` block); anything
        :func:`~repro.blocking.candidates.pair_array` takes will do.

        ``checkpoint`` accepts a
        :class:`~repro.core.checkpoint.ResolveCheckpointer`: each phase
        commits its state after completing, phases already committed are
        skipped (their state restored instead of recomputed), and the
        run continues from the first incomplete phase — so a crashed run
        resumed through the same checkpointer finishes with output
        byte-identical to an uninterrupted one.  The dependency graph is
        always rebuilt: it is deterministic in (dataset, pairs).

        ``parallel`` selects the :mod:`repro.parallel` blocking substrate
        (vectorised MinHash, chunked/pooled pair filtering); the graph
        phase is the same inline pass for every worker count.  Output is
        byte-identical to serial for any worker count — ``parallel`` is
        an execution detail, not part of the run's configuration
        fingerprint, so checkpointed runs may freely resume under a
        different worker count.
        """
        config = self.config
        timings = Stopwatch()
        if trace is None:
            trace = Trace.disabled()
        workers = self._effective_workers(dataset, parallel)
        completed = checkpoint.completed_prefix() if checkpoint is not None else ()
        if completed:
            logger.info(
                "resuming %s from checkpoint (completed: %s)",
                dataset.name,
                ", ".join(completed),
            )
            if metrics is not None:
                metrics.inc("resolver.phases_resumed", len(completed))
        logger.info("resolving %s (%d records)", dataset.name, len(dataset))
        with trace.span("resolve"):
            if pairs is not None:
                pairs = pair_array(pairs)
            if pairs is None:
                if "blocking" in completed:
                    pairs = checkpoint.load_pairs()
                    logger.info(
                        "blocking restored from checkpoint (%d pairs)", len(pairs)
                    )
                else:
                    with trace.span("blocking"), timings.phase("blocking"):
                        pairs = self.block(
                            dataset,
                            roles=roles,
                            metrics=metrics,
                            parallel=parallel,
                            trace=trace,
                        ).array
                    logger.info("blocking produced %d candidate pairs", len(pairs))
                    if checkpoint is not None:
                        checkpoint.save_pairs(pairs)
                        checkpoint.check_stop("blocking")
            elif checkpoint is not None and "blocking" not in completed:
                checkpoint.save_pairs(pairs)
                checkpoint.check_stop("blocking")
            frequency_index = NameFrequencyIndex(dataset)
            with trace.span("graph"), timings.phase("graph_generation"):
                graph, seeds = build_graph_and_seeds(
                    dataset, pairs, config, self.registry, frequency_index
                )
            logger.info(
                "dependency graph: |N_A|=%d |N_R|=%d",
                graph.n_atomic,
                graph.n_relational,
            )
            run_stats = {
                "bootstrap_merges": 0,
                "iterative_merges": 0,
                "refinement": {
                    "records_removed": 0,
                    "bridges_cut": 0,
                    "clusters_examined": 0,
                },
            }
            restore_from = next(
                (p for p in reversed(completed) if p != "blocking"), None
            )
            if restore_from is not None:
                store, run_stats = checkpoint.load_state(restore_from, dataset)
                logger.info(
                    "entity state restored from %r checkpoint (%d entities)",
                    restore_from,
                    len(store),
                )
            else:
                store = EntityStore(dataset)
            scorer = PairScorer(dataset, config, self.registry, frequency_index)
            checker = ConstraintChecker(
                temporal_slack_years=config.temporal_slack_years,
                propagate=config.use_propagation,
                metrics=metrics,
            )
            scorer.seed_caches(seeds.sim_table, seeds.s_a, seeds.s_d)
            checker.seed_verdicts(seeds.verdict)
            del seeds  # the scorer copied the similarity table; free it
            if metrics is not None and workers >= 1:
                metrics.set_gauge("parallel.workers", workers)

            def commit(phase: str) -> None:
                if checkpoint is not None:
                    checkpoint.save_state(phase, store, run_stats)
                    # A SIGTERM/SIGINT requested mid-phase drains here:
                    # the phase just committed, so resume is loss-free.
                    checkpoint.check_stop(phase)

            refinement = RefinementStats(**run_stats["refinement"])

            def refine(phase: str) -> None:
                stats = refine_clusters(store, config)
                refinement.records_removed += stats.records_removed
                refinement.bridges_cut += stats.bridges_cut
                refinement.clusters_examined += stats.clusters_examined
                run_stats["refinement"] = {
                    "records_removed": refinement.records_removed,
                    "bridges_cut": refinement.bridges_cut,
                    "clusters_examined": refinement.clusters_examined,
                }
                commit(phase)

            if "bootstrap" in completed:
                bootstrap_merges = run_stats["bootstrap_merges"]
            else:
                with trace.span("bootstrap"), timings.phase("bootstrap"):
                    bootstrap_merges = bootstrap_merge(
                        graph, store, scorer, checker, config, metrics
                    )
                logger.info("bootstrap merged %d nodes", bootstrap_merges)
                run_stats["bootstrap_merges"] = bootstrap_merges
                commit("bootstrap")
            if config.use_refinement and "refine_bootstrap" not in completed:
                with trace.span("refine"), timings.phase("refine_bootstrap"):
                    refine("refine_bootstrap")
            if "merging" in completed:
                iterative_merges = run_stats["iterative_merges"]
            else:
                with trace.span("merge"), timings.phase("merging"):
                    iterative_merges = iterative_merge(
                        graph, store, scorer, checker, config, metrics
                    )
                logger.info("iterative merging merged %d nodes", iterative_merges)
                run_stats["iterative_merges"] = iterative_merges
                commit("merging")
            if config.use_refinement and "refine_merge" not in completed:
                with trace.span("refine"), timings.phase("refine_merge"):
                    refine("refine_merge")
                logger.info(
                    "refinement removed %d records, cut %d bridges",
                    refinement.records_removed,
                    refinement.bridges_cut,
                )
        scorer.publish_cache_metrics(metrics)
        checker.publish_metrics()
        if metrics is not None:
            metrics.inc("resolver.runs")
            metrics.inc("resolver.records", len(dataset))
            metrics.inc("resolver.candidate_pairs", len(pairs))
            metrics.inc("resolver.bootstrap_merges", bootstrap_merges)
            metrics.inc("resolver.iterative_merges", iterative_merges)
            metrics.inc("resolver.refined_records_removed", refinement.records_removed)
            metrics.inc("resolver.refined_bridges_cut", refinement.bridges_cut)
            metrics.set_gauge("resolver.n_atomic", graph.n_atomic)
            metrics.set_gauge("resolver.n_relational", graph.n_relational)
        return LinkageResult(
            dataset=dataset,
            entities=store,
            graph=graph,
            timings=timings,
            bootstrap_merges=bootstrap_merges,
            iterative_merges=iterative_merges,
            refinement=refinement,
            metrics=metrics,
            trace=trace if trace.enabled else None,
        )
