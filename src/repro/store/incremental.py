"""Incremental ingest: fold a delta batch into an existing snapshot.

Vital-records collections grow: a new tranche of certificates arrives
and the pedigree index must absorb it without paying a full re-resolve
of everything seen so far.  :class:`IncrementalResolver` does this
against a base snapshot:

1. **Block** the combined dataset (base + delta) with the configured
   blocking stack.  Blocking is cheap relative to resolution and must
   see the union — a new death certificate can only link to an old birth
   record if both are blocked together.
2. **Compute the dirty closure.**  A union-find connects (a) the two
   endpoints of every candidate pair, (b) all pairs sharing a
   certificate-pair group key (the dependency graph gates merges on
   group evidence, so group mates must be re-resolved together), and
   (c) the members of every base cluster.  Components containing at
   least one delta record are *dirty*; everything else is untouched by
   the new evidence.
3. **Replay clean clusters.**  A fresh entity store over the combined
   dataset is seeded by replaying the stored merge links of every clean
   base cluster — identical state to the base resolution, at the cost of
   a few set unions.
4. **Re-resolve dirty pairs only.**  The resolver runs with the
   candidate pairs restricted to dirty components and the seeded store;
   scoring context (the name-frequency index) is built over the full
   combined dataset, exactly as a full re-resolve would.
5. **Emit a child snapshot** whose manifest ``parent`` points at the
   base, chaining snapshots into a lineage (``repro snapshot log``).

Correctness rests on component locality: pair scoring and constraint
checking only consult state of the entities at a pair's two endpoints,
and merges only ever happen along candidate pairs — so records outside
the dirty closure can neither influence nor be influenced by the
re-resolution.  Refinement re-examines replayed clusters too, but it is
idempotent at its own fixpoint, which the base clusters are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SnapsConfig
from repro.core.entities import EntityStore
from repro.core.resolver import LinkageResult, SnapsResolver
from repro.data.records import Dataset, concat_datasets
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.store.manifest import Manifest, SnapshotError
from repro.store.snapshot import SnapshotStore

__all__ = ["IncrementalResolver", "IngestResult"]

logger = get_logger("store.incremental")


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            parent = self.find(parent)
            self._parent[x] = parent
        return parent

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


@dataclass
class IngestResult:
    """Outcome of one incremental ingest."""

    manifest: Manifest
    linkage: LinkageResult
    stats: dict = field(default_factory=dict)


class IncrementalResolver:
    """Ingests delta batches of certificates against a snapshot store."""

    def __init__(
        self,
        store: SnapshotStore,
        config: SnapsConfig | None = None,
        similarity_threshold: float | None = None,
    ) -> None:
        """``config``/``similarity_threshold`` default to the values the
        base snapshot's manifest records, keeping an ingest chain
        self-consistent unless deliberately overridden."""
        self.store = store
        self._config = config
        self._similarity_threshold = similarity_threshold

    def ingest(
        self,
        delta: Dataset,
        parent: str | None = None,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
        shards: int | None = None,
        supervise=None,
    ) -> IngestResult:
        """Fold ``delta`` into the snapshot ``parent`` (default HEAD);
        returns the new child snapshot's manifest and linkage result.

        ``workers`` selects the blocking-filter pool for the re-resolve
        step (0 = serial, N >= 1 = chunked, ``None`` = auto by dataset
        size); the output is byte-identical either way.  ``supervise`` carries
        worker-supervision knobs (deadlines/retries/quarantine) into
        those pools.

        When the parent snapshot carries a shard sidecar, the dirty
        closure is mapped onto the parent's partition: shards untouched
        by the delta are never re-resolved (their clusters are replayed
        verbatim), and ``stats`` reports ``shards_total`` /
        ``shards_reresolved``.  The child snapshot gets a fresh sidecar
        partitioned over the combined dataset, with ``shards``
        overriding the inherited shard count.  ``shards`` on a parent
        without a sidecar starts a sharded lineage.
        """
        # Lazy: repro.shard pulls in the store layer and vice versa.
        from repro.parallel import ParallelConfig
        from repro.shard.partition import build_shard_plan
        from repro.store.shards import (
            has_shard_sidecar,
            load_shard_plan,
            write_shard_sidecar,
        )

        parallel = ParallelConfig(workers=workers, supervise=supervise)
        trace = trace if trace is not None else Trace.disabled()
        with trace.span("ingest"):
            with trace.span("load_base"):
                base = self.store.load(
                    parent, artifacts=("dataset", "clusters"), trace=trace
                )
            if base.dataset is None:  # pragma: no cover - load() guarantees it
                raise SnapshotError("base snapshot has no dataset payload")
            config = (
                self._config
                if self._config is not None
                else base.manifest.snaps_config()
            )
            threshold = (
                self._similarity_threshold
                if self._similarity_threshold is not None
                else base.manifest.similarity_threshold
            )
            resolver = SnapsResolver(config)
            base_dir = self.store.path_of(base.manifest.snapshot_id)
            parent_plan = (
                load_shard_plan(base_dir) if has_shard_sidecar(base_dir) else None
            )
            combined = concat_datasets(base.dataset, delta)
            delta_ids = set(delta.records)
            with trace.span("blocking"):
                pairs = resolver.block(
                    combined, metrics=metrics, parallel=parallel, trace=trace
                )
            with trace.span("dirty_closure"):
                dirty_pairs, dirty_records, seeded, replayed = self._partition(
                    combined, pairs, base.clusters, delta_ids
                )
            logger.info(
                "ingest %s: %d delta records dirty %d/%d records, "
                "%d/%d pairs, replayed %d clean clusters",
                delta.name,
                len(delta_ids),
                len(dirty_records),
                len(combined),
                len(dirty_pairs),
                len(pairs),
                replayed,
            )
            dirty_shards: set[int] = set()
            if parent_plan is not None:
                dirty_shards = {
                    parent_plan.shard_of[rid]
                    for rid in dirty_records
                    if rid in parent_plan.shard_of
                }
                logger.info(
                    "ingest %s: dirty closure touches %d/%d parent shards",
                    delta.name,
                    len(dirty_shards),
                    parent_plan.n_shards,
                )
            trace.annotate(
                delta_records=len(delta_ids),
                dirty_records=len(dirty_records),
                dirty_pairs=len(dirty_pairs),
                replayed_clusters=replayed,
            )
            with trace.span("resolve"):
                linkage = resolver.resolve(
                    combined,
                    trace=trace,
                    metrics=metrics,
                    pairs=dirty_pairs,
                    store=seeded,
                    parallel=parallel,
                )
            n_child_shards = (
                shards
                if shards is not None
                else (parent_plan.n_shards if parent_plan is not None else None)
            )
            sidecar_writer = None
            if n_child_shards is not None:
                # The child partitions the *combined* dataset afresh: the
                # delta's pairs may have fused parent components, and the
                # sidecar must describe the snapshot it sits next to.
                child_plan = build_shard_plan(combined, pairs, n_child_shards)
                sidecar_writer = lambda directory: write_shard_sidecar(  # noqa: E731
                    directory, child_plan, linkage.entities
                )
            with trace.span("save"):
                manifest = self.store.save(
                    linkage,
                    similarity_threshold=threshold,
                    parent=base.manifest.snapshot_id,
                    config=config,
                    trace=trace,
                    metrics=metrics,
                    sidecar_writer=sidecar_writer,
                )
        stats = {
            "delta_records": len(delta_ids),
            "combined_records": len(combined),
            "dirty_records": len(dirty_records),
            "candidate_pairs": len(pairs),
            "dirty_pairs": len(dirty_pairs),
            "replayed_clusters": replayed,
        }
        if parent_plan is not None:
            stats["shards_total"] = parent_plan.n_shards
            stats["shards_reresolved"] = len(dirty_shards)
        if metrics is not None:
            metrics.inc("store.ingests")
            metrics.inc("store.ingest.delta_records", len(delta_ids))
            metrics.inc("store.ingest.dirty_pairs", len(dirty_pairs))
            metrics.inc("store.ingest.skipped_pairs", len(pairs) - len(dirty_pairs))
            metrics.set_gauge(
                "store.ingest.dirty_fraction",
                len(dirty_records) / max(1, len(combined)),
            )
            if parent_plan is not None:
                metrics.inc("store.ingest.shards_reresolved", len(dirty_shards))
                metrics.inc(
                    "store.ingest.shards_skipped",
                    parent_plan.n_shards - len(dirty_shards),
                )
        return IngestResult(manifest=manifest, linkage=linkage, stats=stats)

    # ------------------------------------------------------------------

    def _partition(
        self,
        combined: Dataset,
        pairs: list,
        base_clusters: list[dict],
        delta_ids: set[int],
    ) -> tuple[list, set[int], EntityStore, int]:
        """Split work into dirty pairs to re-resolve and clean clusters to
        replay; returns ``(dirty_pairs, dirty_records, seeded_store,
        n_replayed)``."""
        uf = _UnionFind()
        group_anchor: dict[tuple[int, int], int] = {}
        for pair in pairs:
            uf.union(pair.rid_a, pair.rid_b)
            record_a = combined.record(pair.rid_a)
            record_b = combined.record(pair.rid_b)
            group = (
                min(record_a.cert_id, record_b.cert_id),
                max(record_a.cert_id, record_b.cert_id),
            )
            anchor = group_anchor.setdefault(group, pair.rid_a)
            uf.union(anchor, pair.rid_a)
        for cluster in base_clusters:
            records = cluster["records"]
            for rid in records[1:]:
                uf.union(records[0], rid)
        dirty_roots = {uf.find(rid) for rid in delta_ids}
        dirty_records = {
            rid for rid in combined.records if uf.find(rid) in dirty_roots
        }
        dirty_pairs = [
            pair for pair in pairs if uf.find(pair.rid_a) in dirty_roots
        ]
        seeded = EntityStore(combined)
        replayed = 0
        for cluster in base_clusters:
            if uf.find(cluster["records"][0]) in dirty_roots:
                continue
            for rid_a, rid_b in cluster["links"]:
                seeded.merge(rid_a, rid_b)
            replayed += 1
        return dirty_pairs, dirty_records, seeded, replayed
