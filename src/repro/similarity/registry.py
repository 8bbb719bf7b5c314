"""Per-attribute comparator registry.

Maps QID attribute names to the comparison function appropriate for their
content, following the paper's choices: Jaro-Winkler for names, Jaccard for
other textual strings, max-absolute-difference for years.  The resolver,
all four baselines, and the query engine share one registry so that every
system compares values identically (only the *decision model* differs,
which is what the evaluation isolates).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.similarity.jaccard import token_jaccard
from repro.similarity.jaro import (
    code_matrix,
    jaro_winkler_pairs,
    jaro_winkler_similarity,
)
from repro.similarity.numeric import max_abs_diff_similarity

__all__ = [
    "ComparatorRegistry",
    "default_registry",
    "jaro_winkler_similarity_pairs",
    "name_similarity",
    "name_similarity_pairs",
    "registry_for_config",
]

Comparator = Callable[[str, str], float]
# The array form of a comparator: (values, x, y) -> the comparator of
# values[x[k]] and values[y[k]] for every k, as a float64 array.
BatchComparator = Callable[[list[str], np.ndarray, np.ndarray], np.ndarray]


def name_similarity(a: str, b: str) -> float:
    """Variant-aware personal-name similarity.

    Jaro-Winkler on the raw strings, boosted by Jaro-Winkler on the
    standardised forms (documented variants map to one canonical name —
    "effie" and "euphemia" are the same person-name in Scottish
    registers).  The canonical comparison is discounted by 5% so exact
    raw agreement always scores strictly highest.
    """
    from repro.data.normalize import canonical_name_phrase

    raw = jaro_winkler_similarity(a, b)
    if raw == 1.0:
        return raw
    canonical = jaro_winkler_similarity(
        canonical_name_phrase(a), canonical_name_phrase(b)
    )
    return max(raw, 0.95 * canonical)


def jaro_winkler_similarity_pairs(
    values: list[str], x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """:func:`jaro_winkler_similarity` of ``values[x[k]]`` and
    ``values[y[k]]`` for every ``k``, bit for bit."""
    codes, lengths = code_matrix(values)
    return jaro_winkler_pairs(codes[x], lengths[x], codes[y], lengths[y])


def name_similarity_pairs(
    values: list[str], x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """:func:`name_similarity` of ``values[x[k]]`` and ``values[y[k]]``
    for every ``k``, bit for bit.

    Raw Jaro-Winkler for every pair; canonical-form Jaro-Winkler only for
    the pairs whose raw score is not 1.0, each value canonicalised once.
    """
    from repro.data.normalize import canonical_name_phrase

    similarity = jaro_winkler_similarity_pairs(values, x, y)
    rest = np.flatnonzero(similarity != 1.0)
    if len(rest):
        canonical = [canonical_name_phrase(value) for value in values]
        boosted = 0.95 * jaro_winkler_similarity_pairs(canonical, x[rest], y[rest])
        similarity[rest] = np.maximum(similarity[rest], boosted)
    return similarity


# Comparators with an array form, which build-time callers use to score
# many value pairs at once.
_BATCH_FORMS: dict[Comparator, BatchComparator] = {
    jaro_winkler_similarity: jaro_winkler_similarity_pairs,
    name_similarity: name_similarity_pairs,
}


class ComparatorRegistry:
    """Dispatch table from attribute name to a [0, 1] comparator.

    Unregistered attributes fall back to ``default``, which keeps the
    registry usable on datasets with extra columns.
    """

    def __init__(self, default: Comparator = jaro_winkler_similarity) -> None:
        self._comparators: dict[str, Comparator] = {}
        self._default = default

    def register(self, attribute: str, comparator: Comparator) -> None:
        """Set the comparator used for ``attribute``."""
        self._comparators[attribute] = comparator

    def comparator(self, attribute: str) -> Comparator:
        """Return the comparator for ``attribute`` (or the default)."""
        return self._comparators.get(attribute, self._default)

    def batch_comparator(self, attribute: str) -> BatchComparator | None:
        """The array form of ``attribute``'s comparator, or ``None`` when
        it has none.

        The form scores the values themselves: unlike :meth:`compare` it
        gives an empty string no special treatment.
        """
        return _BATCH_FORMS.get(self.comparator(attribute))

    def compare(self, attribute: str, a: str | None, b: str | None) -> float | None:
        """Compare two values of ``attribute``.

        Returns ``None`` when either value is missing — missing values
        carry no evidence in either direction (paper Section 2), so they
        are excluded from similarity averages rather than scored as 0.
        """
        if a is None or b is None or a == "" or b == "":
            return None
        return self.comparator(attribute)(a, b)


def _year_comparator(max_diff: float = 3.0) -> Comparator:
    def compare(a: str, b: str) -> float:
        try:
            return max_abs_diff_similarity(float(a), float(b), max_diff=max_diff)
        except (TypeError, ValueError):
            return 0.0

    return compare


def _exact_comparator(a: str, b: str) -> float:
    return 1.0 if a == b else 0.0


def default_registry() -> ComparatorRegistry:
    """Registry matching the paper's per-attribute comparator choices."""
    registry = ComparatorRegistry()
    registry.register("first_name", name_similarity)
    registry.register("surname", name_similarity)
    registry.register("maiden_surname", name_similarity)
    registry.register("spouse_first_name", name_similarity)
    registry.register("gender", _exact_comparator)
    registry.register("address", token_jaccard)
    registry.register("parish", jaro_winkler_similarity)
    registry.register("occupation", token_jaccard)
    registry.register("birth_year", _year_comparator(max_diff=3.0))
    registry.register("event_year", _year_comparator(max_diff=3.0))
    return registry


def registry_for_config(config) -> ComparatorRegistry:
    """The registry a :class:`SnapsConfig`-like object implies.

    The default registry, with the geocode-aware address comparator
    swapped in when ``config.use_geocoded_addresses`` is set.  The
    resolver builds its default registry through this helper.
    """
    registry = default_registry()
    if getattr(config, "use_geocoded_addresses", False):
        from repro.geocode import geo_address_comparator

        registry.register("address", geo_address_comparator())
    return registry
