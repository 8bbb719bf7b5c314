"""Parallel resolution parity: every worker count is byte-identical to serial.

The parallel substrate (``repro.parallel``) promises that worker count is
an execution detail with no influence on output.  These tests pin that
promise at every layer: vectorised MinHash rows vs scalar signatures,
the array graph build vs a scalar per-pair oracle, entity clusters at the
API level, pedigree bytes at the CLI level, and checkpoint resume across
worker counts.
"""

from __future__ import annotations

import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.lsh import LshBlocker
from repro.blocking.minhash import _MAX_HASH, MinHasher
from repro.cli import main
from repro.blocking.candidates import CandidatePair
from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import (
    AtomicNode,
    build_dependency_graph,
    build_graph_and_seeds,
)
from repro.core.resolver import SnapsResolver
from repro.core.scoring import NameFrequencyIndex, PairScorer
from repro.data.loader import save_dataset_csv
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role
from repro.data.synthetic import make_tiny_dataset
from repro.faults import InjectedFault, injected
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelConfig
from repro.similarity.registry import default_registry

np = pytest.importorskip("numpy")

# Unicode-heavy strategy: historical name data carries accents, ligatures
# and the occasional surrogate-free oddity; the vectorised path must agree
# on all of them, including strings too short to produce a single q-gram.
texts = st.text(min_size=0, max_size=24)
short_texts = st.text(
    alphabet=string.ascii_lowercase + "áéîøü 'æ-", min_size=0, max_size=3
)


def clusters_of(result):
    """Canonical cluster representation for equality checks."""
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


# ----------------------------------------------------------------------
# Vectorised MinHash == scalar MinHash
# ----------------------------------------------------------------------


class TestSignatureMatrixParity:
    @given(values=st.lists(texts, min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_matrix_rows_equal_scalar_signatures(self, values):
        hasher = MinHasher(n_hashes=32, seed=7)
        matrix = hasher.signature_matrix(values)
        assert matrix.shape == (len(values), 32)
        for value, row in zip(values, matrix.tolist()):
            assert tuple(row) == hasher.signature(value)

    @given(values=st.lists(short_texts, min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_gramless_strings_agree_with_scalar(self, values):
        """Empty / sub-q-gram strings hit the sentinel path on both sides."""
        hasher = MinHasher(n_hashes=16, q=2, seed=3)
        matrix = hasher.signature_matrix(values)
        for value, row in zip(values, matrix.tolist()):
            assert tuple(row) == hasher.signature(value)

    def test_matrix_matches_across_instances(self):
        values = ["john smith", "jon smith", "euphemia macdonald", ""]
        a = MinHasher(n_hashes=64, seed=42).signature_matrix(values)
        b = MinHasher(n_hashes=64, seed=42).signature_matrix(values)
        assert (a == b).all()


class TestEmptySignatureSentinel:
    """Regression: the empty-signature sentinel must never co-block with
    a real name.  The sentinel rows are all ``_MAX_HASH + 1`` — strictly
    above any attainable hash — so no LSH band of a real signature can
    equal the corresponding sentinel band."""

    def test_empty_signature_is_cached_sentinel(self):
        hasher = MinHasher(n_hashes=16, q=2, seed=1)
        empty = hasher.signature("")
        assert empty is hasher.signature("")  # one shared sentinel object
        assert all(v > _MAX_HASH for v in empty)
        # Real signatures (qgrams pads, so even 1-char strings gram) stay
        # within the attainable hash range — strictly below the sentinel.
        assert all(v <= _MAX_HASH for v in hasher.signature("x"))

    @given(first=st.text(string.ascii_lowercase, min_size=2, max_size=12))
    @settings(max_examples=40)
    def test_sentinel_never_shares_a_band_with_real_names(self, first):
        blocker = LshBlocker(n_bands=8, rows_per_band=4, seed=9)
        real = blocker.block_keys(
            Record(1, 1, Role.BM, {"first_name": first, "surname": first,
                                   "event_year": "1880"}, 1)
        )
        hasher = blocker._hasher
        sentinel = hasher.signature("")
        r = blocker.rows_per_band
        sentinel_keys = [
            f"{band}:{hash(sentinel[band * r:(band + 1) * r]) & 0xFFFFFFFF:x}"
            for band in range(blocker.n_bands)
        ]
        assert not set(real) & set(sentinel_keys)

    def test_matrix_sentinel_rows_match_scalar_sentinel(self):
        hasher = MinHasher(n_hashes=16, q=2, seed=5)
        matrix = hasher.signature_matrix(["", "a", "real name"])
        assert tuple(matrix[0].tolist()) == hasher.signature("")
        assert tuple(matrix[1].tolist()) == hasher.signature("a")
        assert tuple(matrix[2].tolist()) == hasher.signature("real name")


# ----------------------------------------------------------------------
# The array graph build == a scalar per-pair oracle
# ----------------------------------------------------------------------


def oracle_edges(dataset, group_key, present):
    """Relationship edges of one certificate-pair group, read pair by
    pair from the two certificates' relationships (Figure 3)."""
    cert_a = dataset.certificates[group_key[0]]
    cert_b = dataset.certificates[group_key[1]]
    edges = []
    for ra, rel_a, rb in cert_a.relationships():
        for rc, rel_b, rd in cert_b.relationships():
            if rel_a != rel_b:
                continue
            key_left, key_right = tuple(sorted((ra, rc))), tuple(sorted((rb, rd)))
            if key_left in present and key_right in present:
                edges.append((key_left, rel_a, key_right))
            if rel_a == "Sof":
                key_left, key_right = tuple(sorted((ra, rd))), tuple(sorted((rb, rc)))
                if key_left in present and key_right in present:
                    edges.append((key_left, "Sof", key_right))
    return edges


def oracle_graph(dataset, pairs, config, registry):
    """G_D built one pair at a time in plain Python containers: the
    reference the array build must reproduce, with its per-value-pair
    comparator cache.  Returns each node's record pair and atomic nodes
    (in node order), the groups' node ids by certificate pair (in first
    appearance order), each group's edges, the comparator cache and the
    registered atomic keys."""
    keys, atoms = [], []
    groups: dict[tuple[int, int], list[int]] = {}
    sim_cache: dict[tuple[str, str, str], float] = {}
    registered = set()
    for k, pair in enumerate(pairs):
        a, b = dataset.record(pair.rid_a), dataset.record(pair.rid_b)
        groups.setdefault(tuple(sorted((a.cert_id, b.cert_id))), []).append(k)
        atomic = {}
        for attribute in config.schema.names():
            value_a, value_b = a.get(attribute), b.get(attribute)
            if value_a is None or value_b is None:
                continue
            lo, hi = sorted((value_a, value_b))
            similarity = sim_cache.get((attribute, lo, hi))
            if similarity is None:
                similarity = registry.compare(attribute, value_a, value_b) or 0.0
                sim_cache[(attribute, lo, hi)] = similarity
            if similarity >= config.atomic_threshold:
                atomic[attribute] = AtomicNode(attribute, value_a, value_b, similarity)
                registered.add((attribute, lo, hi))
        keys.append(pair.key())
        atoms.append(atomic)
    edges = {
        key: oracle_edges(dataset, key, {keys[k] for k in members})
        for key, members in groups.items()
    }
    return keys, atoms, groups, edges, sim_cache, registered


def dated(record) -> bool:
    try:
        record.birth_range()
    except ValueError:
        return False
    return True


def ordered_similarity(a: str, b: str) -> float:
    """Deliberately order-sensitive: admitted one way round only."""
    return 0.95 if a <= b else 0.85


CERT_ROLES = {
    CertificateType.BIRTH: [Role.BB, Role.BM, Role.BF],
    CertificateType.MARRIAGE: [Role.MB, Role.MG],
    CertificateType.DEATH: [Role.DD, Role.DM, Role.DF, Role.DS],
}
# None drops the attribute; "" is a blank CSV cell.  Both are missing.
FIRST_NAMES = ["mary", "marie", "ann", "anna", "effie", "euphemia", "", None]
SURNAMES = ["ross", "rose", "macrae", "mcrae", "", None]
PARISHES = ["uig", "uig ", "kilmore", None]
YEARS = ["1870", "1871", "1899", "", None]
AGES = [None, None, "30", "x"]


@st.composite
def graph_inputs(draw):
    records, certificates = [], []
    rids = iter(draw(st.permutations(range(1, 30))))
    for cert_id in draw(st.permutations(range(10, 10 + draw(st.integers(2, 5))))):
        cert_type = draw(st.sampled_from(sorted(CERT_ROLES, key=str)))
        roles = draw(
            st.lists(st.sampled_from(CERT_ROLES[cert_type]), min_size=1, unique=True)
        )
        year = draw(st.sampled_from(YEARS))
        members = {}
        for role in roles:
            values = {
                "first_name": draw(st.sampled_from(FIRST_NAMES)),
                "surname": draw(st.sampled_from(SURNAMES)),
                "parish": draw(st.sampled_from(PARISHES)),
                "occupation": draw(st.sampled_from(["crofter", "", None])),
                "event_year": year,
                "age": draw(st.sampled_from(AGES)),
            }
            rid = next(rids)
            attributes = {k: v for k, v in values.items() if v is not None}
            records.append(Record(rid, cert_id, role, attributes, rid))
            members[role] = rid
        certificates.append(Certificate(cert_id, cert_type, 1870, "uig", members))
    dataset = Dataset("oracle", records, certificates)
    ids = sorted(dataset.records)
    candidates = [(a, b) for a in ids for b in ids if a < b]
    # Hand-built lists: any order, same-certificate pairs and repeats.
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=40))
    return dataset, [CandidatePair(a, b) for a, b in chosen]


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_dataset(seed=3)


class TestGraphBuildOracle:
    @given(
        inputs=graph_inputs(),
        custom=st.booleans(),
        half_life=st.sampled_from([None, 5.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_build_matches_scalar_oracle(self, inputs, custom, half_life):
        dataset, pairs = inputs
        config = SnapsConfig(temporal_decay_half_life=half_life)
        registry = default_registry()
        if custom:
            registry.register("first_name", ordered_similarity)
        frequencies = NameFrequencyIndex(dataset)
        keys, atoms, groups, edges, sim_cache, registered = oracle_graph(
            dataset, pairs, config, registry
        )
        graph, seeds = build_graph_and_seeds(
            dataset, pairs, config, registry, frequencies
        )

        assert graph.keys() == keys
        assert [tuple(key) for key in graph.group_keys.tolist()] == list(groups)
        for g, (key, members) in enumerate(groups.items()):
            assert graph.group_members(g).tolist() == members
            assert graph.group_edges(g) == edges[key]
        for k, atomic in enumerate(atoms):
            # Orientation included: AtomicNode equality compares values.
            assert list(graph.atomic(k).items()) == list(atomic.items())
        assert graph.n_atomic == len(registered)
        assert graph._atomic_registry == registered

        assert seeds.sim_table == sim_cache
        scorer = PairScorer(dataset, config, registry, frequencies)
        checker = ConstraintChecker(config.temporal_slack_years)
        s_a, s_d, verdict = [], [], []
        for k, (rid_a, rid_b) in enumerate(keys):
            a, b = dataset.record(rid_a), dataset.record(rid_b)
            both_dated = dated(a) and dated(b)
            s_a.append(
                scorer._atomic_similarity_uncached(graph, k)
                if half_life is None or both_dated
                else math.nan
            )
            s_d.append(scorer._disambiguation_similarity_uncached(graph, k))
            if both_dated:
                verdict.append(0 if checker.records_compatible(a, b) else 1)
            else:
                verdict.append(-1)
        # Bit for bit, an unseeded s_a's NaN included.
        assert seeds.s_a.tobytes() == np.array(s_a, dtype=np.float64).tobytes()
        assert seeds.s_d.tobytes() == np.array(s_d, dtype=np.float64).tobytes()
        assert seeds.verdict.dtype == np.int8
        assert seeds.verdict.tolist() == verdict


class TestBatchScoreParity:
    """The chunked blocking filter feeds the array build the same graph and
    seeds as the serial filter does, on a generated dataset."""

    def test_seeded_scores_equal_uncached_scorer(self, tiny):
        config = SnapsConfig()
        resolver = SnapsResolver(config)
        serial_pairs = resolver.block(tiny, parallel=ParallelConfig(workers=0))
        pairs = resolver.block(tiny, parallel=ParallelConfig(workers=1))
        assert np.array_equal(pairs.array, serial_pairs.array)
        serial_graph = build_dependency_graph(
            tiny, serial_pairs, config, resolver.registry
        )
        parallel_graph, seeds = build_graph_and_seeds(
            tiny, pairs, config, resolver.registry
        )
        assert parallel_graph.keys() == serial_graph.keys()
        assert len(seeds.s_a)  # the build actually produced scores
        scorer = PairScorer(
            tiny, config, resolver.registry, NameFrequencyIndex(tiny)
        )
        for k in range(serial_graph.n_relational):
            assert seeds.s_a[k] == scorer._atomic_similarity_uncached(serial_graph, k)
            assert seeds.s_d[k] == scorer._disambiguation_similarity_uncached(
                serial_graph, k
            )

    def test_parallel_graph_structure_matches_serial(self, tiny):
        config = SnapsConfig()
        resolver = SnapsResolver(config)
        serial = build_dependency_graph(
            tiny,
            resolver.block(tiny, parallel=ParallelConfig(workers=0)),
            config,
            resolver.registry,
        )
        parallel = build_dependency_graph(
            tiny,
            resolver.block(tiny, parallel=ParallelConfig(workers=1)),
            config,
            resolver.registry,
        )
        assert parallel.keys() == serial.keys()  # node order
        assert parallel.n_atomic == serial.n_atomic
        assert np.array_equal(parallel.group_keys, serial.group_keys)
        assert np.array_equal(parallel.group_offsets, serial.group_offsets)
        assert np.array_equal(parallel.group_nodes, serial.group_nodes)
        for k in range(serial.n_relational):
            assert parallel.atomic(k) == serial.atomic(k)


# ----------------------------------------------------------------------
# API-level cluster parity (including a genuine process pool)
# ----------------------------------------------------------------------


class TestResolveParity:
    @pytest.fixture(scope="class")
    def serial(self, tiny):
        return SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=0)
        )

    def test_in_process_parallel_matches_serial(self, tiny, serial):
        result = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=1)
        )
        assert clusters_of(result) == clusters_of(serial)

    def test_real_pool_matches_serial(self, tiny, serial):
        # oversubscribe forces an actual ProcessPoolExecutor even on a
        # single-core machine, exercising fork payload shipping + IPC.
        result = SnapsResolver(SnapsConfig()).resolve(
            tiny, parallel=ParallelConfig(workers=2, oversubscribe=True)
        )
        assert clusters_of(result) == clusters_of(serial)

    def test_output_metrics_match_serial(self, tiny):
        def run(workers):
            metrics = MetricsRegistry()
            SnapsResolver(SnapsConfig()).resolve(
                tiny, metrics=metrics, parallel=ParallelConfig(workers=workers)
            )
            counters = metrics.as_dict()["counters"]
            return {
                name: count
                for name, count in counters.items()
                if name.startswith(("blocking.", "constraints.", "merge.",
                                    "bootstrap.", "resolver."))
            }

        assert run(1) == run(0)

    def test_parallel_run_reports_cache_metrics(self, tiny):
        metrics = MetricsRegistry()
        SnapsResolver(SnapsConfig()).resolve(
            tiny, metrics=metrics, parallel=ParallelConfig(workers=1)
        )
        snapshot = metrics.as_dict()
        assert snapshot["gauges"]["parallel.workers"] == 1
        assert snapshot["counters"]["parallel.chunks"] >= 1
        assert "scoring.sim_cache.hits" in snapshot["counters"]
        assert "scoring.node_cache.hits" in snapshot["counters"]
        assert "scoring.propagate_memo.hits" in snapshot["counters"]
        assert snapshot["gauges"]["scoring.sim_cache.size"] > 0


# ----------------------------------------------------------------------
# CLI end-to-end byte identity + checkpoint compatibility
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel-data")
    stem = root / "tiny"
    save_dataset_csv(make_tiny_dataset(seed=3), stem)
    return stem


@pytest.fixture(scope="module")
def serial_graph_bytes(stem, tmp_path_factory):
    out = tmp_path_factory.mktemp("parallel-serial") / "graph.json"
    assert main([
        "resolve", "--data", str(stem), "--workers", "0", "--out", str(out)
    ]) == 0
    return out.read_bytes()


class TestCliParity:
    # The tiny dataset sits below ParallelConfig.min_records, so auto mode
    # would stay serial — every case passes --workers explicitly.
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_byte_identical_to_serial(
        self, workers, stem, serial_graph_bytes, tmp_path
    ):
        out = tmp_path / "graph.json"
        assert main([
            "resolve", "--data", str(stem),
            "--workers", str(workers), "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_graph_bytes

    @pytest.mark.parametrize("resume_workers", ["0", "1"])
    def test_checkpoint_crosses_worker_counts(
        self, resume_workers, stem, serial_graph_bytes, tmp_path
    ):
        """Crash under --workers 4, resume under another count: identical."""
        ckdir, out = tmp_path / "ck", tmp_path / "graph.json"
        with injected("checkpoint.saved.bootstrap:error:times=1"):
            with pytest.raises(InjectedFault):
                main([
                    "resolve", "--data", str(stem), "--workers", "4",
                    "--checkpoint", str(ckdir), "--out", str(out),
                ])
        assert not out.exists()
        assert main([
            "resolve", "--resume", str(ckdir),
            "--workers", resume_workers, "--out", str(out),
        ]) == 0
        assert out.read_bytes() == serial_graph_bytes
