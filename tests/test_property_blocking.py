"""Hypothesis property tests for blocking components."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.base import BLOCK_SIZE_BUCKETS, block_key_pairs, block_pair_array
from repro.blocking.lsh import LshBlocker
from repro.blocking.minhash import MinHasher
from repro.data.records import Record
from repro.data.roles import Role
from repro.obs.metrics import MetricsRegistry

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)


def _record(rid, first, surname):
    return Record(rid, rid, Role.BM,
                  {"first_name": first, "surname": surname,
                   "event_year": "1880"}, rid)


class TestLshProperties:
    @given(
        jaccards=st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=10
        )
    )
    def test_s_curve_monotone(self, jaccards):
        blocker = LshBlocker()
        ordered = sorted(jaccards)
        probabilities = [
            blocker.estimated_pair_probability(j) for j in ordered
        ]
        assert probabilities == sorted(probabilities)
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    @given(first=words, surname=words)
    @settings(max_examples=40)
    def test_identical_records_always_co_blocked(self, first, surname):
        blocker = LshBlocker()
        a = _record(1, first, surname)
        b = _record(2, first, surname)
        assert set(blocker.block_keys(a)) == set(blocker.block_keys(b))

    @given(first=words, surname=words)
    @settings(max_examples=40)
    def test_key_count_equals_bands(self, first, surname):
        blocker = LshBlocker(n_bands=8, rows_per_band=4)
        keys = blocker.block_keys(_record(1, first, surname))
        assert len(keys) == 8

    @given(first=words, surname=words)
    @settings(max_examples=30)
    def test_keys_deterministic_across_instances(self, first, surname):
        a = LshBlocker(seed=5).block_keys(_record(1, first, surname))
        b = LshBlocker(seed=5).block_keys(_record(2, first, surname))
        assert a == b


class TestMinHashProperties:
    @given(value=words)
    @settings(max_examples=40)
    def test_signature_stable(self, value):
        hasher = MinHasher(n_hashes=16, seed=9)
        assert hasher.signature(value) == hasher.signature(value)

    @given(a=words, b=words)
    @settings(max_examples=40)
    def test_estimate_symmetric_and_bounded(self, a, b):
        hasher = MinHasher(n_hashes=32, seed=9)
        sig_a, sig_b = hasher.signature(a), hasher.signature(b)
        estimate = hasher.estimate_jaccard(sig_a, sig_b)
        assert estimate == hasher.estimate_jaccard(sig_b, sig_a)
        assert 0.0 <= estimate <= 1.0


def oracle_block_key_pairs(records, blocker, metrics=None):
    """Raw block pairs as a set-dedup generator: each block's sorted
    members' i<j pairs, blocks in first-key order, first occurrence kept."""
    blocks = {}
    for record in records:
        for key in blocker.block_keys(record):
            blocks.setdefault(key, []).append(record.record_id)
    if metrics is not None:
        metrics.inc("blocking.blocks", len(blocks))
        histogram = metrics.histogram("blocking.block_size", BLOCK_SIZE_BUCKETS)
        for members in blocks.values():
            histogram.observe(len(members))
    seen = set()
    for members in blocks.values():
        members.sort()
        for i, rid_a in enumerate(members):
            for rid_b in members[i + 1 :]:
                pair = (rid_a, rid_b)
                if pair not in seen:
                    seen.add(pair)
                    yield pair
    if metrics is not None:
        metrics.inc("blocking.raw_pairs", len(seen))


class _KeyBlocker:
    """Hands each record the keys drawn for it (duplicates and none
    included)."""

    def __init__(self, keys: dict[int, list[str]]) -> None:
        self.keys = keys

    def block_keys(self, record):
        return self.keys[record.record_id]


@st.composite
def keyed_records(draw):
    """Records with sparse, shuffled ids, each emitting 0-4 keys from a
    small pool, so blocks overlap, repeat keys and include singletons."""
    rids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**12),
            unique=True,
            max_size=30,
        )
    )
    rids = draw(st.permutations(rids))
    pool = draw(st.sampled_from(["ab", "abc", "abcdef", "abcdefghij"]))
    keys = {
        rid: draw(st.lists(st.sampled_from(pool), max_size=4)) for rid in rids
    }
    return [_record(rid, "x", "y") for rid in rids], _KeyBlocker(keys)


class TestBlockPairArray:
    @given(inputs=keyed_records())
    @settings(max_examples=300, deadline=None)
    def test_matches_set_dedup_oracle(self, inputs):
        records, blocker = inputs
        want_metrics, got_metrics = MetricsRegistry(), MetricsRegistry()
        want = list(oracle_block_key_pairs(records, blocker, want_metrics))
        got = block_pair_array(records, blocker, got_metrics)
        assert got.dtype.kind == "i" and got.shape == (len(want), 2)
        assert list(map(tuple, got.tolist())) == want
        assert list(block_key_pairs(records, blocker)) == want
        for name in ("blocking.blocks", "blocking.raw_pairs"):
            assert got_metrics.counter_value(name) == want_metrics.counter_value(name)
        assert (
            got_metrics.as_dict()["histograms"]["blocking.block_size"]
            == want_metrics.as_dict()["histograms"]["blocking.block_size"]
        )

    def test_same_key_twice_pairs_a_record_with_itself(self):
        records = [_record(7, "x", "y"), _record(3, "x", "y")]
        blocker = _KeyBlocker({7: ["k", "k"], 3: ["k"]})
        assert list(block_key_pairs(records, blocker)) == [(3, 7), (7, 7)]

    def test_no_blocks(self):
        assert block_pair_array([], _KeyBlocker({})).shape == (0, 2)
