"""The vectorized Jaro-Winkler kernel against the scalar reference.

``jaro_winkler_many`` scores one string against a code-point matrix of
candidates, and ``jaro_winkler_pairs`` row k of one matrix against row k
of another; both must give every row exactly (bit for bit) the float
``jaro_winkler_similarity`` gives, and the batch name comparator the
float ``name_similarity`` gives.  The similarity-aware index is built
with the kernel, so its arrays must also equal a build with the scalar
function.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SnapsConfig, SnapsResolver
from repro.core import dependency_graph
from repro.core.dependency_graph import build_graph_and_seeds
from repro.faults import InjectedFault, fire, injected
from repro.index.arrays import offsets, str_array
from repro.index.simindex import SimilarityAwareIndex
from repro.similarity.jaro import (
    code_matrix,
    jaro_winkler_many,
    jaro_winkler_pairs,
    jaro_winkler_similarity,
)
from repro.similarity.qgram import bigrams
from repro.similarity.registry import (
    ComparatorRegistry,
    default_registry,
    jaro_winkler_similarity_pairs,
    name_similarity,
    name_similarity_pairs,
)

# NUL is the padding of fixed-width unicode arrays, so it never occurs in
# an indexed value.
_SMALL = st.text(alphabet="abc", max_size=30)       # many transpositions
_WIDE = st.text(alphabet="aeinrs'éøßжλ中", max_size=30)  # non-ASCII
_ANY = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=30,
)
strings = st.one_of(_SMALL, _WIDE, _ANY, st.sampled_from(["", "a", "é"]))


def _assert_bit_identical(value: str, candidates: list[str]) -> None:
    codes, lengths = code_matrix(candidates)
    got = jaro_winkler_many(value, codes, lengths)
    expected = [jaro_winkler_similarity(value, c) for c in candidates]
    assert got.dtype == np.float64
    assert got.tolist() == expected
    assert got.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()


class TestKernelMatchesScalar:
    @given(value=strings, candidates=st.lists(strings, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, value, candidates):
        _assert_bit_identical(value, candidates)

    @given(value=_SMALL, candidates=st.lists(_SMALL, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_repeated_letters(self, value, candidates):
        _assert_bit_identical(value, candidates)

    def test_edge_cases(self):
        _assert_bit_identical("", ["", "a", "ab"])
        _assert_bit_identical("a", ["", "a", "b", "aa", "ba"])
        _assert_bit_identical("martha", ["marhta", "martha", "xyz", ""])
        _assert_bit_identical("x" * 30, ["x" * 30, "x" * 29, "y" + "x" * 29])
        _assert_bit_identical("abcabcabc", ["cbacbacba", "bcabcabca", "aaabbbccc"])
        _assert_bit_identical("søren", ["soren", "sören", "søren"])
        # A NUL in the query value must not match a candidate's padding.
        _assert_bit_identical("a\x00b", ["ab", "a", "abc", ""])

    def test_value_longer_than_every_candidate(self):
        _assert_bit_identical("abcdefgh", ["ab", "ba", "h"])

    def test_empty_candidate_list(self):
        codes, lengths = code_matrix([])
        assert jaro_winkler_many("anna", codes, lengths).shape == (0,)
        assert jaro_winkler_many("", codes, lengths).shape == (0,)

    def test_code_matrix_of_array_is_a_view(self):
        values = str_array(["anna", "bob", ""])
        codes, lengths = code_matrix(values)
        assert np.shares_memory(codes, values)
        assert lengths.tolist() == [4, 3, 0]


def _scalar_build(values: list[str], threshold: float) -> dict[str, np.ndarray]:
    """The similarity-aware index arrays, built one scalar comparison at a
    time over bigram-sharing candidates."""
    universe = sorted(set(v.lower() for v in values))
    by_gram: dict[str, list[str]] = {}
    for value in universe:
        for gram in bigrams(value):
            by_gram.setdefault(gram, []).append(value)
    rows = []
    for value in universe:
        candidates = set()
        for gram in bigrams(value):
            candidates.update(by_gram.get(gram, ()))
        scored = [
            (c, jaro_winkler_similarity(value, c)) for c in candidates
        ]
        scored = [(c, s) for c, s in scored if s >= threshold]
        if all(c != value for c, _ in scored):
            scored.append((value, 1.0))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        rows.append(scored)
    keys = str_array(universe)
    return {
        "values": keys,
        "nb_keys": keys,
        "nb_offsets": offsets(len(row) for row in rows),
        "nb_targets": str_array([t for row in rows for t, _ in row]),
        "nb_sims": np.asarray([s for row in rows for _, s in row], dtype=np.float64),
    }


class TestIndexMatchesScalarBuild:
    @given(
        values=st.lists(st.one_of(_SMALL, _WIDE, st.just("")), max_size=25),
        threshold=st.sampled_from([0.3, 0.5, 0.8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_arrays_equal_scalar_oracle(self, values, threshold):
        got = SimilarityAwareIndex(values, threshold=threshold).arrays()
        expected = _scalar_build(values, threshold)
        assert got.keys() == expected.keys()
        for name, array in expected.items():
            assert got[name].dtype == array.dtype, name
            assert got[name].shape == array.shape, name
            assert got[name].tobytes() == array.tobytes(), name

    @given(
        values=st.lists(_SMALL, min_size=1, max_size=25),
        probe=_SMALL,
    )
    @settings(max_examples=80, deadline=None)
    def test_unseen_value_matches_scalar(self, values, probe):
        index = SimilarityAwareIndex(values, threshold=0.5)
        universe = sorted(set(values))
        if probe in universe:
            return
        expected = sorted(
            (
                (c, jaro_winkler_similarity(probe, c))
                for c in universe
                if bigrams(c) & bigrams(probe)
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        expected = [(c, s) for c, s in expected if s >= 0.5]
        assert index.matches(probe) == expected
        assert index.matches(probe) == expected  # cached answer


# ----------------------------------------------------------------------
# The pairwise kernel and the batch name comparator
# ----------------------------------------------------------------------

# Pairwise rows come from plain lists, whose lengths count NULs, so NUL is
# allowed here; so are non-BMP characters (one code point each).
_PAIR_ANY = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
_NAMES = st.sampled_from(
    ["effie", "euphemia", "effy", "mary", "marion", "maggie", "margaret",
     "jean", "jane", "ann", "anne", "jessie", "janet", "", "a"]
)
pair_strings = st.one_of(
    _SMALL, _WIDE, _PAIR_ANY, _NAMES,
    st.sampled_from(["\x00", "a\x00", "\x00a", "𝔄𝔅", "😀x", "x" * 40]),
)


def _assert_pairs_identical(left: list[str], right: list[str]) -> None:
    got = jaro_winkler_pairs(*code_matrix(left), *code_matrix(right))
    expected = np.asarray(
        [jaro_winkler_similarity(a, b) for a, b in zip(left, right)],
        dtype=np.float64,
    )
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


class TestPairsKernelMatchesScalar:
    @given(rows=st.lists(st.tuples(pair_strings, pair_strings), max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, rows):
        _assert_pairs_identical([a for a, _ in rows], [b for _, b in rows])

    @given(rows=st.lists(pair_strings, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_equal_strings_score_one(self, rows):
        _assert_pairs_identical(rows, rows)
        assert jaro_winkler_pairs(*code_matrix(rows), *code_matrix(rows)).tolist() == [
            1.0
        ] * len(rows)

    def test_edge_cases(self):
        _assert_pairs_identical(
            ["", "", "a", "a\x00", "\x00", "a\x00b", "😀", "martha", "x" * 40],
            ["", "a", "", "a", "\x00\x00", "ab", "😀😀", "marhta", "x" * 39 + "y"],
        )

    def test_chunks_of_mixed_widths(self):
        """More rows than one kernel chunk, of widely mixed lengths."""
        rng = np.random.default_rng(7)
        alphabet = list("abcdeé😀\x00")

        def word():
            return "".join(rng.choice(alphabet, size=rng.integers(0, 30)))

        left = [word() for _ in range(5000)]
        right = [word() if k % 3 else left[k] for k in range(5000)]
        _assert_pairs_identical(left, right)

    def test_broadcast_wrapper_is_the_same_kernel(self):
        candidates = ["marhta", "martha", "", "m\x00", "😀"]
        codes, lengths = code_matrix(candidates)
        for value in ["martha", "", "m", "😀"]:
            assert jaro_winkler_many(value, codes, lengths).tolist() == [
                jaro_winkler_similarity(value, c) for c in candidates
            ]


class TestBatchNameSimilarity:
    @given(
        values=st.lists(pair_strings, min_size=1, max_size=10),
        picks=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, values, picks):
        x = np.array([a % len(values) for a, _ in picks], dtype=np.int64)
        y = np.array([b % len(values) for _, b in picks], dtype=np.int64)
        for batch, scalar in (
            (name_similarity_pairs, name_similarity),
            (jaro_winkler_similarity_pairs, jaro_winkler_similarity),
        ):
            got = batch(values, x, y)
            expected = np.asarray(
                [scalar(values[a], values[b]) for a, b in zip(x.tolist(), y.tolist())],
                dtype=np.float64,
            )
            assert got.tobytes() == expected.tobytes()

    def test_canonical_boost(self):
        values = ["effie", "euphemia", "mary"]
        x, y = np.array([0, 1, 0, 2]), np.array([1, 0, 0, 0])
        got = name_similarity_pairs(values, x, y).tolist()
        assert got == [
            name_similarity("effie", "euphemia"),
            name_similarity("euphemia", "effie"),
            1.0,
            name_similarity("mary", "effie"),
        ]
        # The boost applies: the canonical forms agree, the raw ones do not.
        assert got[0] == 0.95 > jaro_winkler_similarity("effie", "euphemia")


class TestCompareFaultSite:
    """The graph build fires ``similarity.compare`` once per distinct
    value pair, just before that pair is scored one at a time: with the
    batch comparators the fires come first, in the same order, so an
    ``after``/``times`` window covers the same pairs as the scalar loop."""

    class _LoggingRegistry(ComparatorRegistry):
        """The default comparators, logging each attribute the build
        scores and each pair it compares one at a time; ``scalar`` hides
        the batch forms, as the build was before it had them."""

        def __init__(self, log: list, scalar: bool) -> None:
            super().__init__()
            self._comparators = dict(default_registry()._comparators)
            self.log, self.scalar = log, scalar

        def batch_comparator(self, attribute):
            self.log.append(("attribute", attribute))
            return None if self.scalar else super().batch_comparator(attribute)

        def compare(self, attribute, a, b):
            self.log.append(("compare", attribute, a, b))
            return super().compare(attribute, a, b)

    def _build(self, dataset, pairs, monkeypatch, scalar, spec=None):
        log: list = []

        def logged_fire(site):
            log.append(("fire",))
            fire(site)

        monkeypatch.setattr(dependency_graph, "fire", logged_fire)
        registry = self._LoggingRegistry(log, scalar)
        if spec is None:
            graph, seeds = build_graph_and_seeds(dataset, pairs, SnapsConfig(), registry)
            return log, seeds
        with injected(spec, sleep=lambda _: log.append(("sleep",))):
            try:
                build_graph_and_seeds(dataset, pairs, SnapsConfig(), registry)
            except InjectedFault:
                log.append(("raised",))
        return log, None

    @staticmethod
    def _faulted(log: list) -> list[tuple[str, int]]:
        """(attribute, ordinal of the fire within it) of every fire that
        slept or raised."""
        hits, attribute, ordinal = [], None, -1
        for previous, entry in zip([None] + log, log):
            if entry[0] == "attribute":
                attribute, ordinal = entry[1], -1
            elif entry[0] == "fire":
                ordinal += 1
            elif entry[0] in ("sleep", "raised"):
                assert previous == ("fire",)
                hits.append((attribute, ordinal))
        return hits

    def test_same_pairs_as_the_scalar_loop(self, tiny_dataset, monkeypatch):
        pairs = SnapsResolver(SnapsConfig()).block(tiny_dataset)
        scalar_log, scalar_seeds = self._build(tiny_dataset, pairs, monkeypatch, True)
        batch_log, batch_seeds = self._build(tiny_dataset, pairs, monkeypatch, False)
        assert batch_seeds.sim_table == scalar_seeds.sim_table
        # The scalar loop's pair behind each fire, per attribute.
        compared: dict[str, list] = {}
        for entry in scalar_log:
            if entry[0] == "compare":
                compared.setdefault(entry[1], []).append(entry[2:])
        fires = [e for e in batch_log if e[0] != "compare"]
        assert fires == [e for e in scalar_log if e[0] != "compare"]
        names = compared["first_name"]
        offset = len(names) + len(compared["surname"])
        for spec in (
            "similarity.compare:latency:after=3:times=4",
            f"similarity.compare:latency:after={len(names) - 2}:times=5",
            f"similarity.compare:error:after={offset - 1}:times=2",
        ):
            faulted = []
            for scalar in (True, False):
                log, _ = self._build(tiny_dataset, pairs, monkeypatch, scalar, spec)
                faulted.append(
                    [(a, compared[a][k]) for a, k in self._faulted(log)]
                )
            assert faulted[0] == faulted[1]
            assert faulted[0]
