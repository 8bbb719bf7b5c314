"""Element-wise builtin ``sum()`` of float columns.

Array code that must equal a scalar reference bit for bit cannot add
columns with ``+`` alone: the builtin ``sum()`` of floats is a plain
left-to-right sum up to Python 3.11 and compensated (Neumaier) from 3.12
on.  :func:`builtin_sum` follows whichever this interpreter does.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["builtin_sum"]

# Builtin sum() of floats is compensated (Neumaier) from Python 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def builtin_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Per position, the float builtin ``sum()`` of ``terms`` in order
    returns on this Python.

    Rows with fewer terms may be padded with ``0.0``: for non-negative
    terms adding zero changes neither the running sum nor its
    compensation.
    """
    total = terms[0]  # sum() starts at int 0, and 0 + x is exactly x
    if not _COMPENSATED_SUM:
        for term in terms[1:]:
            total = total + term
        return total
    compensation = np.zeros_like(total)
    for term in terms[1:]:
        running = total + term
        compensation += np.where(
            np.abs(total) >= np.abs(term),
            (total - running) + term,
            (term - running) + total,
        )
        total = running
    # CPython adds a non-zero, finite compensation only: that keeps the
    # sign of a -0.0 sum and an overflowed sum from turning into NaN.
    return np.where(
        (compensation != 0.0) & np.isfinite(compensation),
        total + compensation,
        total,
    )
