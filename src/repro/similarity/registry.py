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

from repro.similarity.jaccard import token_jaccard
from repro.similarity.jaro import jaro_winkler_similarity
from repro.similarity.numeric import max_abs_diff_similarity

__all__ = [
    "ComparatorRegistry",
    "default_registry",
    "name_similarity",
    "registry_for_config",
]

Comparator = Callable[[str, str], float]


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
    resolver builds its default registry through this helper, and shard
    workers rebuild theirs from the shipped config the same way
    (comparator closures are not picklable, hence reconstruction rather
    than shipping).
    """
    registry = default_registry()
    if getattr(config, "use_geocoded_addresses", False):
        from repro.geocode import geo_address_comparator

        registry.register("address", geo_address_comparator())
    return registry
