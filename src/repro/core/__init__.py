"""The paper's primary contribution: unsupervised graph-based ER.

Pipeline (paper Section 4):

1. blocking + filtering → candidate record pairs (``repro.blocking``);
2. dependency-graph generation — relational nodes (record pairs) with
   atomic nodes (QID value pairs) and relationship edges;
3. bootstrapping — merge highly-similar groups (``t_b = 0.95``);
4. iterative merging — priority-queue processing of node groups applying
   PROP-A (global QID-value propagation), PROP-C (constraint
   propagation), AMB (disambiguation similarity), and REL (adaptive
   group-structure leverage);
5. REF — dynamic cluster refinement via graph measures (bridges/density)
   after bootstrap and after merging.

Each technique can be disabled individually through
:class:`~repro.core.config.SnapsConfig` for the Table 3 ablation.
"""

from repro.core.config import SnapsConfig
from repro.core.entities import Entity, EntityStore
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import (
    AtomicNode,
    DependencyGraph,
    build_dependency_graph,
)
from repro.core.scoring import PairScorer, NameFrequencyIndex
from repro.core.refinement import refine_clusters
from repro.core.bootstrap import bootstrap_merge
from repro.core.merging import iterative_merge
from repro.core.resolver import LinkageResult, SnapsResolver

__all__ = [
    "SnapsConfig",
    "Entity",
    "EntityStore",
    "ConstraintChecker",
    "AtomicNode",
    "DependencyGraph",
    "build_dependency_graph",
    "PairScorer",
    "NameFrequencyIndex",
    "refine_clusters",
    "bootstrap_merge",
    "iterative_merge",
    "LinkageResult",
    "SnapsResolver",
]
