"""Parallel, vectorised blocking for offline resolution.

Two accelerations, used by the resolver's blocking phase when a
:class:`ParallelConfig` asks for workers:

1. **Vectorised MinHash** — all blocking signatures in one numpy pass
   (:meth:`repro.blocking.minhash.MinHasher.signature_matrix`), rows
   bit-identical to the scalar path;
2. **Chunked pair filtering** — raw block pairs filtered in
   deterministic chunks through :class:`repro.supervise.TaskRunner`
   (in-process or across a supervised fork pool), merged in canonical
   order.

``G_D`` generation is not part of this package: it is always one
inline array pass (:func:`repro.core.dependency_graph.build_graph_and_seeds`),
whatever the worker count.  The substrate's contract is byte-identity:
for any worker count the resolver's entity clusters, pedigree graph,
and checkpoint states equal the serial run's exactly.
"""

from repro.parallel.config import ParallelConfig, available_cpus
from repro.parallel.precompute import (
    build_payload,
    make_tasks,
    parallel_candidate_pairs,
)

__all__ = [
    "ParallelConfig",
    "available_cpus",
    "build_payload",
    "make_tasks",
    "parallel_candidate_pairs",
]
