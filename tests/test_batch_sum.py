"""Builtin ``sum()`` in array code, on either side of Python 3.12.

Up to Python 3.11 the builtin ``sum()`` of floats adds left to right;
from 3.12 it is compensated (Neumaier).  ``repro.utils.sums.builtin_sum``
follows the running interpreter, and the batch Equation (1) scorer adds
its category columns through it, so its scores equal the scalar scorer's
``sum()``-based ones on both.  The 3.12 branch is checked here against a
transcription of CPython 3.12's float loop, switched on by hand, so that
it is exercised on an older interpreter too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchscore import (
    STATE_ABSENT,
    STATE_MATCHED,
    STATE_PRESENT,
    batch_atomic_similarity,
)
from repro.data.schema import AttributeCategory, AttributeSpec, Schema
from repro.utils import sums as sums_module
from repro.utils.sums import builtin_sum


def cpython312_sum(terms: list[float]) -> float:
    """``sum(terms)`` of floats as CPython 3.12's ``builtin_sum_impl``
    computes it: the int start 0 plus the first term, then Neumaier
    compensation, added at the end only when non-zero and finite."""
    f_result, c = 0 + terms[0], 0.0
    for x in terms[1:]:
        t = f_result + x
        if abs(f_result) >= abs(x):
            c += (f_result - t) + x
        else:
            c += (x - t) + f_result
        f_result = t
    if c and math.isfinite(c):
        f_result += c
    return f_result


def naive_sum(terms: list[float]) -> float:
    """``sum(terms)`` of floats up to Python 3.11."""
    total = 0
    for term in terms:
        total = total + term
    return total


@pytest.fixture(params=[naive_sum, cpython312_sum], ids=["naive", "compensated"])
def python_sum(request, monkeypatch):
    """One of the two builtin ``sum()`` behaviours, with ``builtin_sum``
    switched to follow it."""
    monkeypatch.setattr(
        sums_module, "_COMPENSATED_SUM", request.param is cpython312_sum
    )
    return request.param


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@given(rows=st.lists(st.lists(_UNIT, min_size=5, max_size=5), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_builtin_sum_matches_both_loops(rows):
    columns = [np.array(column) for column in zip(*rows)]
    for compensated, reference in ((False, naive_sum), (True, cpython312_sum)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sums_module, "_COMPENSATED_SUM", compensated)
            got = builtin_sum(columns)
        assert got.tolist() == [reference(row) for row in rows]


def test_builtin_sum_follows_the_running_python():
    rows = [[0.3, 0.3, 0.1, 0.2], [0.1, 0.2, 0.3, 0.0]]
    columns = [np.array(column) for column in zip(*rows)]
    assert builtin_sum(columns).tolist() == [sum(row) for row in rows]


def test_transcription_differs_from_the_naive_loop():
    terms = [0.3, 0.3, 0.1, 0.2]
    assert naive_sum(terms) == 0.8999999999999999
    assert cpython312_sum(terms) == 0.9


# Four Core attributes, so one category sums four terms.
CORE4 = Schema(
    attributes=(
        AttributeSpec("first_name", AttributeCategory.MUST),
        AttributeSpec("c1", AttributeCategory.CORE),
        AttributeSpec("c2", AttributeCategory.CORE),
        AttributeSpec("c3", AttributeCategory.CORE),
        AttributeSpec("c4", AttributeCategory.CORE),
        AttributeSpec("e1", AttributeCategory.EXTRA),
        AttributeSpec("e2", AttributeCategory.EXTRA),
        AttributeSpec("e3", AttributeCategory.EXTRA),
    )
)


def scalar_eq1(schema, half_life, gap, sims, states, python_sum) -> float:
    """``PairScorer._atomic_similarity_uncached`` for one node, with the
    builtin ``sum()`` replaced by ``python_sum``."""
    decay = 1.0 if half_life is None else 0.5 ** (gap / half_life)
    index_of = {name: j for j, name in enumerate(schema.names())}
    weighted_sum = weight_total = 0.0
    for category in AttributeCategory:
        scored = []
        for name in schema.names_in(category):
            j = index_of[name]
            if states[j] == STATE_MATCHED:
                scored.append((sims[j], 1.0))
            elif states[j] == STATE_PRESENT:
                weight = decay if category is AttributeCategory.EXTRA else 1.0
                scored.append((0.0, weight))
        if not scored:
            continue
        denominator = python_sum([weight for _, weight in scored])
        if denominator <= 0.0:
            continue
        category_sim = python_sum([sim * weight for sim, weight in scored]) / denominator
        weight = schema.weight(category) * (denominator / len(scored))
        weighted_sum += weight * category_sim
        weight_total += weight
    if weight_total == 0.0:
        return 0.0
    return weighted_sum / weight_total


_STATE = st.sampled_from([STATE_ABSENT, STATE_MATCHED, STATE_PRESENT])
_NODE = st.tuples(
    st.lists(_UNIT, min_size=8, max_size=8),
    st.lists(_STATE, min_size=8, max_size=8),
    st.integers(0, 60),
)


def _batch(nodes, half_life):
    sims = [np.array([node[0][j] for node in nodes]) for j in range(8)]
    states = [np.array([node[1][j] for node in nodes], dtype=np.int8) for j in range(8)]
    gaps = np.array([node[2] for node in nodes], dtype=np.int64)
    return batch_atomic_similarity(CORE4, half_life, gaps, sims, states)


@given(
    nodes=st.lists(_NODE, min_size=1, max_size=10),
    half_life=st.sampled_from([None, 7.0, 25.0]),
)
@settings(max_examples=150, deadline=None)
def test_batch_eq1_matches_scalar_under_either_sum(nodes, half_life):
    for compensated, python_sum in ((False, naive_sum), (True, cpython312_sum)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sums_module, "_COMPENSATED_SUM", compensated)
            got = _batch(nodes, half_life).tolist()
        assert got == [
            scalar_eq1(CORE4, half_life, gap, sims, states, python_sum)
            for sims, states, gap in nodes
        ]


def test_batch_eq1_where_the_two_sums_differ(python_sum):
    """Four matched Core similarities whose naive and compensated sums
    round apart move the node's s_a."""
    matched = [STATE_MATCHED] * 5 + [STATE_ABSENT] * 3
    node = ([1.0, 0.1, 0.2, 0.9, 0.85, 0.0, 0.0, 0.0], matched, 0)
    got = _batch([node], None).tolist()
    assert got == [scalar_eq1(CORE4, None, 0, node[0], node[1], python_sum)]
    other = naive_sum if python_sum is cpython312_sum else cpython312_sum
    assert got != [scalar_eq1(CORE4, None, 0, node[0], node[1], other)]
