"""Per-shard worker: resolve one shard's records in an isolated process.

Unlike :mod:`repro.parallel.worker` — whose processes share one dataset
payload and filter chunks of the shared raw block pairs — a shard worker
receives *only its shard's slice*: the shard's records (plus the
passenger records needed to close their certificates), the shard's
candidate pairs, the resolver configuration, and the **global**
name-frequency counts (Eq. 2 scores against full-population
frequencies, never shard-local ones).  It runs the complete serial
resolution pipeline over that slice and ships home the resulting
clusters, the atomic-node key set (for exact |N_A| accounting), and
telemetry.

Every task carries the parent's config fingerprint, verified against
the config the task itself shipped — a worker must fail loudly rather
than resolve under a configuration drifted from the orchestrator's.
"""

from __future__ import annotations

import time

from repro.blocking.candidates import CandidatePair
from repro.core.resolver import SnapsResolver
from repro.core.scoring import NameFrequencyIndex
from repro.data.records import Dataset
from repro.faults import fire
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import context_span
from repro.store.manifest import config_fingerprint, config_from_dict

__all__ = ["make_shard_task", "resolve_shard_task"]


def make_shard_task(
    shard: int,
    dataset: Dataset,
    record_ids: set[int],
    pairs: list,
    config_blob: dict,
    fingerprint: str,
    frequencies: dict,
) -> dict:
    """Build one shard task from the global dataset.

    The shard dataset is the owned records plus the *passengers*: every
    member record of a certificate an owned record sits on (``Dataset``
    validation requires certificate closure).  Passengers have no pairs
    in this shard — their own pairs live with their home component — so
    they stay singletons and never influence the shard's clusters.
    Records and certificates keep the global dataset's iteration order,
    making shard group order a restriction of the serial group order.
    """
    cert_ids = {dataset.records[rid].cert_id for rid in record_ids}
    include = set(record_ids)
    for cert_id in cert_ids:
        include.update(dataset.certificates[cert_id].member_record_ids())
    records = [record for record in dataset if record.record_id in include]
    certificates = [
        cert for cert in dataset.certificates.values() if cert.cert_id in cert_ids
    ]
    return {
        "shard": shard,
        "name": f"{dataset.name}@shard{shard}",
        "records": records,
        "certificates": certificates,
        "owned": len(record_ids),
        "pairs": [(pair.rid_a, pair.rid_b) for pair in pairs],
        "config": config_blob,
        "fingerprint": fingerprint,
        "frequencies": frequencies,
    }


def resolve_shard_task(task: dict) -> dict:
    """Resolve one shard task; returns clusters + accounting + telemetry."""
    start = time.perf_counter()
    fire("shard.resolve.worker")
    config = config_from_dict(task["config"])
    actual = config_fingerprint(config)
    if actual != task["fingerprint"]:
        raise RuntimeError(
            f"shard {task['shard']}: config fingerprint {actual!r} does not "
            f"match task fingerprint {task['fingerprint']!r}"
        )
    dataset = Dataset(task["name"], task["records"], task["certificates"])
    pairs = [CandidatePair(a, b) for a, b in task["pairs"]]
    frequency_index = NameFrequencyIndex.from_counts(task["frequencies"])
    metrics = MetricsRegistry() if task.get("collect") else None
    result = SnapsResolver(config).resolve(
        dataset,
        pairs=pairs,
        metrics=metrics,
        frequency_index=frequency_index,
    )
    clusters = [
        {
            "records": sorted(entity.record_ids),
            "links": sorted(list(link) for link in entity.links),
        }
        for entity in sorted(
            result.entities.entities(min_size=2),
            key=lambda entity: min(entity.record_ids),
        )
    ]
    elapsed = time.perf_counter() - start
    out = {
        "shard": task["shard"],
        "clusters": clusters,
        "atomic_keys": sorted(result.graph._atomic_registry),
        "bootstrap_merges": result.bootstrap_merges,
        "iterative_merges": result.iterative_merges,
        "refinement": {
            "records_removed": result.refinement.records_removed,
            "bridges_cut": result.refinement.bridges_cut,
            "clusters_examined": result.refinement.clusters_examined,
        },
        "stats": {
            "records": task["owned"],
            "passengers": len(dataset) - task["owned"],
            "pairs": len(pairs),
            "clusters": len(clusters),
        },
        "elapsed": elapsed,
    }
    ctx = task.get("ctx")
    if ctx is not None:
        span = context_span(
            ctx,
            f"shard.resolve.s{task['shard']}",
            shard=task["shard"],
            records=len(dataset),
            pairs=len(pairs),
        )
        span.elapsed = elapsed
        out["span"] = span.as_dict()
    if metrics is not None:
        out["wmetrics"] = metrics
    return out
