"""Incremental ingest: fold a delta batch into an existing snapshot.

Vital-records collections grow: a new tranche of certificates arrives
and the pedigree index must absorb it.  :class:`IncrementalResolver`
does this against a base snapshot:

1. **Load** the base snapshot's dataset.
2. **Concatenate** it with the delta (record and certificate ids must
   not collide).
3. **Resolve** the combined dataset with the snapshot's configuration,
   exactly as a fresh ``repro resolve`` would.
4. **Commit** a child snapshot whose manifest ``parent`` points at the
   base, chaining snapshots into a lineage (``repro snapshot log``).

Every record and every candidate pair is re-resolved.  Names block
across the whole population and relationships chain certificates
together, so the records a delta can reach are in practice nearly all
of them (the largest candidate-pair closure component holds 99% of the
records on every dataset the benchmarks generate); a full re-resolve
costs the same and makes the child byte-identical to resolving base +
delta from scratch and saving it with the same parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SnapsConfig
from repro.core.resolver import LinkageResult, SnapsResolver
from repro.data.records import Dataset, concat_datasets
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.store.manifest import Manifest, SnapshotError
from repro.store.snapshot import SnapshotStore

__all__ = ["IncrementalResolver", "IngestResult"]

logger = get_logger("store.incremental")


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
        supervise=None,
    ) -> IngestResult:
        """Fold ``delta`` into the snapshot ``parent`` (default HEAD);
        returns the new child snapshot's manifest and linkage result.

        ``workers`` selects the blocking-filter pool for the resolve
        step (0 = serial, N >= 1 = chunked, ``None`` = auto by dataset
        size); the output is byte-identical either way.  ``supervise``
        carries worker-supervision knobs (deadlines/retries/quarantine)
        into those pools.
        """
        from repro.parallel import ParallelConfig

        parallel = ParallelConfig(workers=workers, supervise=supervise)
        trace = trace if trace is not None else Trace.disabled()
        with trace.span("ingest"):
            with trace.span("load_base"):
                base = self.store.load(parent, artifacts=("dataset",), trace=trace)
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
            combined = concat_datasets(base.dataset, delta)
            with trace.span("blocking"):
                pairs = resolver.block(
                    combined, metrics=metrics, parallel=parallel, trace=trace
                )
            logger.info(
                "ingest %s: %d delta records, re-resolving %d pairs over "
                "%d records",
                delta.name,
                len(delta),
                len(pairs),
                len(combined),
            )
            linkage = resolver.resolve(
                combined,
                trace=trace,
                metrics=metrics,
                pairs=pairs,
                parallel=parallel,
            )
            manifest = self.store.save(
                linkage,
                similarity_threshold=threshold,
                parent=base.manifest.snapshot_id,
                config=config,
                trace=trace,
                metrics=metrics,
            )
        # Every record and pair is re-resolved; the dirty_* keys say so
        # for readers that compare them with the combined totals.
        stats = {
            "delta_records": len(delta),
            "combined_records": len(combined),
            "dirty_records": len(combined),
            "candidate_pairs": len(pairs),
            "dirty_pairs": len(pairs),
        }
        if metrics is not None:
            metrics.inc("store.ingests")
            metrics.inc("store.ingest.delta_records", len(delta))
            metrics.inc("store.ingest.dirty_pairs", len(pairs))
            metrics.set_gauge("store.ingest.dirty_fraction", 1.0)
        return IngestResult(manifest=manifest, linkage=linkage, stats=stats)
