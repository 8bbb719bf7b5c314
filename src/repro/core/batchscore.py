"""Vectorised Equation (1) scoring, bit-identical to the scalar scorer.

:func:`batch_atomic_similarity` evaluates
``PairScorer._atomic_similarity_uncached`` for every node of a freshly
built dependency graph at once.  Byte-identity with the scalar path is
not approximate — it holds because every floating-point operation is
mirrored exactly:

* the scalar code accumulates category sums with the builtin ``sum()``
  over attributes in schema order; here each category's attribute
  columns go through :func:`~repro.utils.sums.builtin_sum` in the same
  order, so they follow its left-to-right (before Python 3.12) or
  compensated (from 3.12) arithmetic (absent attributes add ``+0.0``,
  which is exact for the non-negative terms involved);
* divisions and multiplications are elementwise IEEE-754 double ops —
  the same operations the scalar expressions perform, in the same
  association order;
* temporal-decay factors (``0.5 ** (gap / half_life)``) are computed by
  the *Python* ``**`` operator per distinct gap, never by ``np.power``
  (whose libm may differ by 1 ulp), and broadcast by lookup.

A property test asserts exact equality against the scalar scorer.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import AttributeCategory, Schema
from repro.utils.sums import builtin_sum

__all__ = ["batch_atomic_similarity"]

# Per-attribute node state codes used by the graph build.
STATE_ABSENT = 0  # attribute missing on at least one record: excluded
STATE_MATCHED = 1  # atomic node admitted: (similarity, weight 1.0)
STATE_PRESENT = 2  # both present, below t_a: (0.0, decaying weight)


def batch_atomic_similarity(
    schema: Schema,
    half_life: float | None,
    gaps: np.ndarray,
    sims: list[np.ndarray],
    states: list[np.ndarray],
) -> np.ndarray:
    """Equation (1) for ``n`` nodes at once.

    ``sims[j][i]`` / ``states[j][i]`` describe attribute ``j`` (index
    into ``schema.names()``) of node ``i``; ``gaps[i]`` is the node's
    event-year gap (only consulted when ``half_life`` is set).
    """
    n = len(gaps)
    if half_life is None:
        decay = None
    else:
        # Python pow per *distinct* gap keeps bit-parity with the scalar
        # path and costs next to nothing (gaps are small integers).
        distinct, inverse = np.unique(gaps, return_inverse=True)
        decay = np.array(
            [0.5 ** (gap / half_life) for gap in distinct.tolist()],
            dtype=np.float64,
        )[inverse.reshape(-1)]
    index_of = {name: j for j, name in enumerate(schema.names())}
    weighted_sum = np.zeros(n, dtype=np.float64)
    weight_total = np.zeros(n, dtype=np.float64)
    for category in AttributeCategory:
        names = schema.names_in(category)
        if not names:
            continue
        weights: list[np.ndarray] = []
        terms: list[np.ndarray] = []
        count = np.zeros(n, dtype=np.float64)
        for name in names:
            j = index_of[name]
            state = np.asarray(states[j], dtype=np.int8)
            sim = np.asarray(sims[j], dtype=np.float64)
            matched = state == STATE_MATCHED
            present = state == STATE_PRESENT
            if category is AttributeCategory.EXTRA and decay is not None:
                present_weight = decay
            else:
                present_weight = 1.0
            weight = np.where(
                matched, 1.0, np.where(present, present_weight, 0.0)
            )
            weights.append(weight)
            terms.append(np.where(matched, sim, 0.0) * weight)
            count = count + (state != STATE_ABSENT)
        den = builtin_sum(weights)
        num = builtin_sum(terms)
        active = den > 0.0
        category_sim = np.zeros(n, dtype=np.float64)
        np.divide(num, den, out=category_sim, where=active)
        ratio = np.zeros(n, dtype=np.float64)
        np.divide(den, count, out=ratio, where=active)
        category_weight = schema.weight(category) * ratio
        weighted_sum = weighted_sum + np.where(
            active, category_weight * category_sim, 0.0
        )
        weight_total = weight_total + np.where(active, category_weight, 0.0)
    out = np.zeros(n, dtype=np.float64)
    np.divide(weighted_sum, weight_total, out=out, where=weight_total != 0.0)
    return out
