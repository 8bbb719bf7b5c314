"""Jaro and Jaro-Winkler string similarity.

Jaro-Winkler is the paper's comparator of choice for personal names
(Section 4.1 and Section 6): it rewards agreement in the first few
characters, which matches how name variants arise ("cathrine"/"catherine").
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "code_matrix",
    "jaro_similarity",
    "jaro_winkler_many",
    "jaro_winkler_pairs",
    "jaro_winkler_similarity",
]

# Winkler's prefix scale, the default of jaro_winkler_similarity.
_PREFIX_WEIGHT = 0.1


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity in [0, 1].

    Counts characters that match within a sliding window of half the longer
    string, and penalises transposed matches.

    >>> round(jaro_similarity("martha", "marhta"), 4)
    0.9444
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    if window < 0:
        window = 0
    a_flags = [False] * len_a
    b_flags = [False] * len_b
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(i + window + 1, len_b)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if a_flags[i]:
            while not b_flags[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_a
        + matches / len_b
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity in [0, 1].

    Boosts the Jaro score by up to four characters of common prefix:
    ``jw = jaro + prefix_len * prefix_weight * (1 - jaro)``.

    ``prefix_weight`` must be at most 0.25 so the result stays <= 1.

    >>> jaro_winkler_similarity("smith", "smith")
    1.0
    >>> jaro_winkler_similarity("abc", "xyz")
    0.0
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(a, b)
    if jaro == 0.0 or jaro == 1.0:
        return jaro
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def code_matrix(values) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, lengths)`` of a list or unicode array of strings: one row
    of zero-padded ``uint32`` code points per string, and each string's
    length — the layout the Jaro-Winkler kernels score.

    A fixed-width unicode array is already that matrix, so for one (a
    similarity index's value universe) the codes are a view, not a copy.
    Such an array cannot hold trailing NULs; the lengths of a list are
    its strings' own, NULs included.
    """
    strings = np.ascontiguousarray(values, dtype="U")
    if strings.size == 0:
        return np.zeros((0, 1), dtype=np.uint32), np.zeros(0, dtype=np.int64)
    codes = strings.view(np.uint32).reshape(len(strings), -1)
    if isinstance(values, np.ndarray):
        lengths = np.char.str_len(strings).astype(np.int64)
    else:
        lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    return codes, lengths


def jaro_winkler_many(
    value: str, codes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Jaro-Winkler similarity of ``value`` against every row of a
    :func:`code_matrix`, as a float64 array: :func:`jaro_winkler_pairs`
    with ``value`` broadcast to every row.

    >>> codes, lengths = code_matrix(["marhta", "martha", "xyz"])
    >>> jaro_winkler_many("martha", codes, lengths).round(4).tolist()
    [0.9611, 1.0, 0.0]
    """
    n = len(lengths)
    a = np.fromiter(map(ord, value), dtype=codes.dtype, count=len(value))
    return _jaro_winkler_rows(
        np.broadcast_to(a, (n, len(a))), np.full(n, len(a)), codes, lengths
    )


# Rows per kernel call in jaro_winkler_pairs: each call loops over its
# longest left string and works on (rows x widest right string) arrays.
_CHUNK_ROWS = 2048


def jaro_winkler_pairs(
    codes_a: np.ndarray,
    lengths_a: np.ndarray,
    codes_b: np.ndarray,
    lengths_b: np.ndarray,
) -> np.ndarray:
    """Jaro-Winkler similarity of row ``k`` of one :func:`code_matrix`
    against row ``k`` of another, for every ``k``, as a float64 array.

    Bit-identical to :func:`jaro_winkler_similarity` per row.  Rows are
    bucketed by length, so each chunk is trimmed to its own widest
    strings.

    >>> a = code_matrix(["martha", "dixon", ""])
    >>> b = code_matrix(["marhta", "dicksonx", ""])
    >>> jaro_winkler_pairs(*a, *b).round(4).tolist()
    [0.9611, 0.8133, 1.0]
    """
    n = len(lengths_a)
    out = np.empty(n, dtype=np.float64)
    order = np.lexsort((lengths_b, lengths_a))
    for start in range(0, n, _CHUNK_ROWS):
        rows = order[start : start + _CHUNK_ROWS]
        len_a, len_b = lengths_a[rows], lengths_b[rows]
        out[rows] = _jaro_winkler_rows(
            codes_a[rows, : max(int(len_a.max()), 1)],
            len_a,
            codes_b[rows, : max(int(len_b.max()), 1)],
            len_b,
        )
    return out


def _jaro_winkler_rows(
    a: np.ndarray, len_a: np.ndarray, b: np.ndarray, len_b: np.ndarray
) -> np.ndarray:
    """The kernel: Jaro-Winkler of row ``k`` of ``a`` against row ``k``
    of ``b``.

    The greedy left-to-right matching of :func:`jaro_similarity` runs
    once per column of ``a`` across all rows at once, and the final
    arithmetic keeps the scalar operation order.  Padding never matches:
    ``b``'s is outside every row's free positions, and a row of ``a`` takes
    no part past its own length.
    """
    n, width = b.shape
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)[:, None]
    positions = np.arange(width)
    valid = positions < len_b[:, None]
    rows = np.arange(n)
    a_flags = np.zeros(a.shape, dtype=bool)
    b_free = valid.copy()
    shortest = int(len_a.min()) if n else 0
    for i in range(a.shape[1]):
        # First free b position equal to a[i] within its window, per row.
        found = (b == a[:, i, None]) & (np.abs(positions - i) <= window) & b_free
        if i >= shortest:
            found &= (i < len_a)[:, None]
        j = found.argmax(axis=1)
        hit = found[rows, j]
        b_free[rows, j] ^= hit
        a_flags[:, i] = hit
    # Matched characters of a and of b, each in string order, flattened
    # row-major: both have `matches` entries per row, so they pair up.
    match_rows, match_cols = np.nonzero(a_flags)
    mismatch_rows = match_rows[a[match_rows, match_cols] != b[valid & ~b_free]]
    m = np.bincount(match_rows, minlength=n).astype(np.float64)
    transpositions = np.bincount(mismatch_rows, minlength=n) // 2
    # The scalar arithmetic in its order.  A row without matches scores
    # (0 + 0 + 0) / 3 = 0 and, its first characters differing, gets no
    # prefix boost; an identical row scores 3 / 3 = 1 and keeps it.
    jaro = (
        m / np.maximum(len_a, 1)
        + m / np.maximum(len_b, 1)
        + (m - transpositions) / np.maximum(m, 1)
    ) / 3.0
    k = min(4, a.shape[1], width)
    common = (b[:, :k] == a[:, :k]) & (
        np.arange(k) < np.minimum(len_a, len_b)[:, None]
    )
    prefix = np.logical_and.accumulate(common, axis=1).sum(axis=1)
    similarity = jaro + prefix * _PREFIX_WEIGHT * (1.0 - jaro)
    # Two empty strings are equal, so they score 1.
    similarity[(len_a == 0) & (len_b == 0)] = 1.0
    return similarity
