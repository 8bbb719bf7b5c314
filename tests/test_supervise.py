"""Supervised worker execution: crash/hang recovery, quarantine, ENOSPC.

The executor contract under test: a worker crash or hang at ANY task,
with ANY pool width, yields output byte-identical to the serial path,
within a bounded number of pool restarts; a task that keeps failing is
quarantined with an actionable JSONL artifact instead of looping; and
resource exhaustion (ENOSPC) during a snapshot commit fails atomically
with a remediation hint and no partial snapshot directory.
"""

from __future__ import annotations

import errno
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main
from repro.core import SnapsConfig, SnapsResolver
from repro.core.checkpoint import GracefulExit, ResolveCheckpointer
from repro.data.loader import save_dataset_csv
from repro.data.synthetic import make_tiny_dataset
from repro.faults import (
    RESOURCE,
    TRANSIENT,
    ResourceFault,
    check_free_space,
    classify,
    injected,
    is_exhaustion,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelConfig
from repro.supervise import (
    SupervisedExecutor,
    SuperviseConfig,
    TaskQuarantinedError,
)

N_TOY_TASKS = 5


def square(task):
    return {"chunk": task["chunk"], "value": task["x"] * task["x"]}


def _factory(workers):
    def make():
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork")
        )

    return make


@pytest.fixture
def toy_tasks():
    return [{"chunk": i, "x": i} for i in range(N_TOY_TASKS)]


@pytest.fixture
def toy_expected():
    return [{"chunk": i, "value": i * i} for i in range(N_TOY_TASKS)]


def _run_toy(tasks, config, workers=2, metrics=None):
    with SupervisedExecutor(
        _factory(workers), config, metrics=metrics, label="toy"
    ) as executor:
        return executor.map(square, tasks, "toy")


# ----------------------------------------------------------------------
# Executor unit behaviour
# ----------------------------------------------------------------------


class TestSupervisedExecutor:
    def test_plain_map_in_submission_order(self, toy_tasks, toy_expected):
        metrics = MetricsRegistry()
        out = _run_toy(toy_tasks, SuperviseConfig(), metrics=metrics)
        assert out == toy_expected
        assert metrics.counter_value("supervise.tasks") == N_TOY_TASKS
        assert metrics.counter_value("supervise.restarts") == 0

    def test_empty_map(self):
        assert _run_toy([], SuperviseConfig()) == []

    def test_transient_error_retries_in_live_pool(
        self, toy_tasks, toy_expected
    ):
        metrics = MetricsRegistry()
        with injected("supervise.task.toy.t3.a0:error"):
            out = _run_toy(toy_tasks, SuperviseConfig(), metrics=metrics)
        assert out == toy_expected
        # An in-worker exception must NOT cost a pool rebuild.
        assert metrics.counter_value("supervise.restarts") == 0
        assert metrics.counter_value("supervise.retries") == 1

    def test_permanent_error_quarantines_immediately(self, toy_tasks, tmp_path):
        config = SuperviseConfig(
            max_task_retries=3, quarantine_dir=str(tmp_path)
        )
        with injected("supervise.task.toy.t2.a*:error:category=permanent"):
            with pytest.raises(TaskQuarantinedError) as excinfo:
                _run_toy(toy_tasks, config)
        # Permanent failures skip the retry budget: one attempt, done.
        assert excinfo.value.attempts == 1
        assert "task 2" in str(excinfo.value)

    def test_poison_task_artifact_contents(self, toy_tasks, tmp_path):
        metrics = MetricsRegistry()
        config = SuperviseConfig(
            max_task_retries=1, quarantine_dir=str(tmp_path)
        )
        # One worker: tasks run strictly in order, so the crash can only
        # ever implicate t1 (with 2+ workers a concurrently-running
        # neighbour is conservatively co-charged, which is by design).
        with injected("supervise.task.toy.t1.a*:worker_crash:times=none"):
            with pytest.raises(TaskQuarantinedError) as excinfo:
                _run_toy(toy_tasks, config, workers=1, metrics=metrics)
        error = excinfo.value
        assert error.attempts == config.attempt_budget == 2
        assert metrics.counter_value("supervise.quarantined_tasks") == 1
        records = [
            json.loads(line)
            for line in (tmp_path / "tasks.jsonl").read_text().splitlines()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["label"] == "toy"
        assert record["task"] == "task 1"
        assert record["index"] == 1
        assert record["attempts"] == 2
        assert len(record["errors"]) == 2
        assert record["inputs_sha256"]
        # The abort error tells the operator where the evidence lives.
        assert str(tmp_path / "tasks.jsonl") in str(error)
        assert "--task-retries" in str(error)

    def test_restart_preserves_completed_results(self, toy_tasks, toy_expected):
        """Two sequential crashes: completed work is never re-run."""
        metrics = MetricsRegistry()
        spec = (
            "supervise.task.toy.t0.a0:worker_crash;"
            "supervise.task.toy.t4.a0:worker_crash"
        )
        with injected(spec):
            out = _run_toy(toy_tasks, SuperviseConfig(), metrics=metrics)
        assert out == toy_expected
        assert 1 <= metrics.counter_value("supervise.restarts") <= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuperviseConfig(max_task_retries=-1)

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("SNAPS_TASK_TIMEOUT", "3.5")
        monkeypatch.setenv("SNAPS_TASK_RETRIES", "7")
        monkeypatch.setenv("SNAPS_QUARANTINE_DIR", "/tmp/qd")
        config = SuperviseConfig.from_env()
        assert config.task_timeout_s == 3.5
        assert config.max_task_retries == 7
        assert config.attempt_budget == 8
        assert config.quarantine_dir == "/tmp/qd"


# ----------------------------------------------------------------------
# Chaos sweep: kill/hang at every task index, workers in {2, 4}
# ----------------------------------------------------------------------


class TestChaosSweep:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("index", range(N_TOY_TASKS))
    def test_crash_at_every_index(
        self, index, workers, toy_tasks, toy_expected
    ):
        metrics = MetricsRegistry()
        with injected(f"supervise.task.toy.t{index}.a0:worker_crash"):
            out = _run_toy(
                toy_tasks, SuperviseConfig(), workers=workers, metrics=metrics
            )
        assert out == toy_expected
        restarts = metrics.counter_value("supervise.restarts")
        assert 1 <= restarts <= SuperviseConfig().attempt_budget

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("index", range(N_TOY_TASKS))
    def test_hang_at_every_index(
        self, index, workers, toy_tasks, toy_expected
    ):
        metrics = MetricsRegistry()
        config = SuperviseConfig(task_timeout_s=0.5)
        with injected(f"supervise.task.toy.t{index}.a0:hang:latency_s=30"):
            started = time.monotonic()
            out = _run_toy(toy_tasks, config, workers=workers, metrics=metrics)
            elapsed = time.monotonic() - started
        assert out == toy_expected
        assert metrics.counter_value("supervise.hung_tasks") >= 1
        assert metrics.counter_value("supervise.restarts") >= 1
        # The deadline, not the 30s oversleep, bounds the wall clock.
        assert elapsed < 15


# ----------------------------------------------------------------------
# Resolution paths: crash anywhere, output byte-identical to serial
# ----------------------------------------------------------------------


def clusters_of(result):
    """Canonical cluster representation for equality checks."""
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


@pytest.fixture(scope="module")
def chaos_dataset():
    return make_tiny_dataset(seed=3)


@pytest.fixture(scope="module")
def serial_clusters(chaos_dataset):
    result = SnapsResolver(SnapsConfig()).resolve(
        chaos_dataset, parallel=ParallelConfig(workers=0)
    )
    return clusters_of(result)


class TestResolutionCrashParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_chunk_crash_at_every_chunk(
        self, workers, chaos_dataset, serial_clusters
    ):
        parallel = ParallelConfig(workers=workers, oversubscribe=True)
        clean = MetricsRegistry()
        SnapsResolver(SnapsConfig()).resolve(
            chaos_dataset, metrics=clean, parallel=parallel
        )
        n_chunks = clean.counter_value("parallel.chunks")
        assert n_chunks > workers  # several chunks per pool generation
        for chunk in range(n_chunks):
            metrics = MetricsRegistry()
            with injected(f"supervise.task.filter.t{chunk}.a0:worker_crash"):
                result = SnapsResolver(SnapsConfig()).resolve(
                    chaos_dataset, metrics=metrics, parallel=parallel
                )
            assert clusters_of(result) == serial_clusters
            restarts = metrics.counter_value("supervise.restarts")
            assert 1 <= restarts <= SuperviseConfig().attempt_budget

    def test_chunk_crash_parity(self, chaos_dataset, serial_clusters):
        metrics = MetricsRegistry()
        with injected("supervise.task.filter.t0.a0:worker_crash"):
            result = SnapsResolver(SnapsConfig()).resolve(
                chaos_dataset,
                metrics=metrics,
                parallel=ParallelConfig(workers=2, oversubscribe=True),
            )
        assert clusters_of(result) == serial_clusters
        assert metrics.counter_value("supervise.restarts") == 1

    def test_chunk_error_in_process_is_retried(
        self, chaos_dataset, serial_clusters
    ):
        # One worker runs the chunks in-process, through the same
        # supervised attempt loop as a pool: the transient error is
        # charged, retried under .a1, and the output matches serial.
        metrics = MetricsRegistry()
        with injected("supervise.task.filter.t0.a0:error"):
            result = SnapsResolver(SnapsConfig()).resolve(
                chaos_dataset,
                metrics=metrics,
                parallel=ParallelConfig(workers=1),
            )
        assert clusters_of(result) == serial_clusters
        assert metrics.counter_value("supervise.retries") == 1
        assert metrics.counter_value("supervise.restarts") == 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_quarantine_independent_of_cpu_count(
        self, cpus, chaos_dataset, tmp_path, monkeypatch
    ):
        # One CPU runs the filter chunks in-process, two run them in a
        # real pool; a fault that outlives the retry budget must end the
        # same way on both.
        import repro.supervise.runner as runner

        monkeypatch.setattr(runner, "available_cpus", lambda: cpus)
        supervise = SuperviseConfig(
            max_task_retries=1, quarantine_dir=str(tmp_path)
        )
        with injected("supervise.task.filter.t1.a*:error:times=none"):
            with pytest.raises(TaskQuarantinedError) as excinfo:
                SnapsResolver(SnapsConfig()).resolve(
                    chaos_dataset,
                    parallel=ParallelConfig(workers=2, supervise=supervise),
                )
        error = excinfo.value
        assert (error.label, error.task_name, error.attempts) == (
            "filter", "chunk 1", 2
        )
        assert (tmp_path / "tasks.jsonl").exists()

    def test_chunk_hang_parity(self, chaos_dataset, serial_clusters):
        metrics = MetricsRegistry()
        supervise = SuperviseConfig(task_timeout_s=0.5)
        with injected("supervise.task.filter.t0.a0:hang:latency_s=30"):
            result = SnapsResolver(SnapsConfig()).resolve(
                chaos_dataset,
                metrics=metrics,
                parallel=ParallelConfig(
                    workers=2, oversubscribe=True, supervise=supervise
                ),
            )
        assert clusters_of(result) == serial_clusters
        assert metrics.counter_value("supervise.hung_tasks") >= 1

    def test_chunk_poison_names_the_chunk(self, chaos_dataset, tmp_path):
        # A permanent in-worker failure charges exactly the raising
        # chunk (a crash would co-charge concurrently-running ones).
        supervise = SuperviseConfig(
            max_task_retries=0, quarantine_dir=str(tmp_path)
        )
        with injected("supervise.task.filter.t1.a*:error:category=permanent"):
            with pytest.raises(TaskQuarantinedError) as excinfo:
                SnapsResolver(SnapsConfig()).resolve(
                    chaos_dataset,
                    parallel=ParallelConfig(
                        workers=2, oversubscribe=True, supervise=supervise
                    ),
                )
        assert "chunk 1" in str(excinfo.value)
        assert excinfo.value.attempts == 1
        assert (tmp_path / "tasks.jsonl").exists()


# ----------------------------------------------------------------------
# Fault taxonomy + resource exhaustion
# ----------------------------------------------------------------------


class TestResourceTaxonomy:
    def test_pool_death_is_transient(self):
        assert classify(BrokenProcessPool("pool died")) == TRANSIENT
        assert classify(EOFError()) == TRANSIENT

    def test_exhaustion_errnos_are_resource(self):
        assert classify(OSError(errno.ENOSPC, "disk full")) == RESOURCE
        assert classify(OSError(errno.EMFILE, "fd limit")) == RESOURCE
        assert is_exhaustion(OSError(errno.ENOSPC, "disk full"))

    def test_plain_oserror_stays_transient(self):
        assert classify(OSError("disk momentarily gone")) == TRANSIENT
        assert not is_exhaustion(OSError("disk momentarily gone"))

    def test_check_free_space_passes_with_headroom(self, tmp_path):
        check_free_space(tmp_path, 1, "test target")

    def test_check_free_space_raises_actionably(self, tmp_path):
        with pytest.raises(ResourceFault) as excinfo:
            check_free_space(tmp_path, 1 << 60, "test target")
        message = str(excinfo.value)
        assert "test target" in message
        assert "free disk space" in message


class TestSnapshotEnospc:
    @pytest.mark.parametrize("site", ["store.save.payloads", "store.save.commit"])
    def test_enospc_mid_commit_leaves_no_partial_snapshot(
        self, site, chaos_dataset, tmp_path
    ):
        from repro.store import SnapshotStore

        result = SnapsResolver(SnapsConfig()).resolve(chaos_dataset)
        store = SnapshotStore(tmp_path / "store")
        with injected(f"{site}:enospc"):
            with pytest.raises(ResourceFault) as excinfo:
                store.save(result)
        message = str(excinfo.value)
        assert "free disk space" in message
        assert "no partial snapshot" in message
        snapshots = tmp_path / "store" / "snapshots"
        assert not snapshots.exists() or not any(snapshots.iterdir())
        # A retry on a healthy disk succeeds and verifies clean.
        manifest = store.save(result)
        assert store.verify(manifest.snapshot_id) == []


# ----------------------------------------------------------------------
# Graceful stop: SIGTERM/SIGINT on a checkpointed resolve
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    root = tmp_path_factory.mktemp("supervise-data")
    stem = root / "tiny"
    save_dataset_csv(make_tiny_dataset(seed=3), stem)
    return stem


@pytest.fixture(scope="module")
def clean_graph(stem, tmp_path_factory):
    out = tmp_path_factory.mktemp("supervise-clean") / "graph.json"
    assert main(["resolve", "--data", str(stem), "--out", str(out)]) == 0
    return out.read_bytes()


class TestGracefulStop:
    def test_request_stop_raises_only_at_commit(self, chaos_dataset, tmp_path):
        checkpoint = ResolveCheckpointer.begin(
            tmp_path / "ck", chaos_dataset, SnapsConfig()
        )
        checkpoint.check_stop("blocking")  # no request yet: no-op
        checkpoint.request_stop(signal.SIGTERM)
        assert checkpoint.stop_requested
        with pytest.raises(GracefulExit) as excinfo:
            checkpoint.check_stop("blocking")
        assert excinfo.value.signum == signal.SIGTERM
        assert excinfo.value.phase == "blocking"

    def test_stop_requested_resolve_commits_first_phase(
        self, chaos_dataset, tmp_path
    ):
        checkpoint = ResolveCheckpointer.begin(
            tmp_path / "ck", chaos_dataset, SnapsConfig()
        )
        checkpoint.request_stop(signal.SIGINT)
        with pytest.raises(GracefulExit) as excinfo:
            SnapsResolver(SnapsConfig()).resolve(
                chaos_dataset, checkpoint=checkpoint
            )
        # The stop landed AFTER a phase committed durably.
        phase = excinfo.value.phase
        resumed, _dataset, _config = ResolveCheckpointer.resume(tmp_path / "ck")
        assert phase in resumed.completed_prefix()

    def test_sigterm_mid_run_resumes_byte_identical(
        self, stem, clean_graph, tmp_path
    ):
        """Kill a checkpointed resolve CLI with SIGTERM; it must exit 143
        having committed the in-flight phase, and --resume must finish
        byte-identical to an uninterrupted run."""
        ckdir = tmp_path / "ck"
        out = tmp_path / "graph.json"
        env = dict(
            os.environ,
            PYTHONPATH="src",
            # Stretch the first commit so the signal reliably lands
            # while a phase is in flight.
            SNAPS_FAULTS="checkpoint.saved.blocking:latency:latency_s=5",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "resolve",
                "--data", str(stem),
                "--checkpoint", str(ckdir),
                "--out", str(out),
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Wait for the checkpoint directory to exist (the run is live),
        # then signal while the blocking phase is still committing.
        deadline = time.monotonic() + 30
        while not ckdir.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ckdir.exists(), "resolve never started its checkpoint"
        time.sleep(0.5)
        process.send_signal(signal.SIGTERM)
        _stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 128 + signal.SIGTERM, stderr
        assert "committing" in stderr
        assert "--resume" in stderr
        assert not out.exists()
        # The interrupted run left a committed prefix, not a torn state.
        resumed, _dataset, _config = ResolveCheckpointer.resume(ckdir)
        assert resumed.completed_prefix()
        assert main(["resolve", "--resume", str(ckdir), "--out", str(out)]) == 0
        assert out.read_bytes() == clean_graph


# ----------------------------------------------------------------------
# CLI plumbing for the supervision flags
# ----------------------------------------------------------------------


class TestCliSupervision:
    def test_crash_injection_via_cli_is_byte_identical(
        self, stem, clean_graph, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SNAPS_OVERSUBSCRIBE", "1")
        out = tmp_path / "graph.json"
        with injected("supervise.task.filter.t0.a0:worker_crash"):
            code = main([
                "resolve", "--data", str(stem), "--out", str(out),
                "--workers", "2",
            ])
        assert code == 0
        assert out.read_bytes() == clean_graph

    def test_quarantine_flags_reach_the_executor(
        self, stem, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SNAPS_OVERSUBSCRIBE", "1")
        qdir = tmp_path / "quarantine"
        with injected("supervise.task.filter.t0.a*:error:times=none"):
            code = main([
                "resolve", "--data", str(stem),
                "--out", str(tmp_path / "graph.json"),
                "--workers", "2",
                "--task-retries", "0",
                "--quarantine-dir", str(qdir),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert (qdir / "tasks.jsonl").exists()

    def test_enospc_snapshot_exits_actionably(
        self, stem, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        with injected("store.save.payloads:enospc"):
            code = main([
                "resolve", "--data", str(stem),
                "--snapshot-out", str(store_dir),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "resource error" in captured.err
        assert "free disk space" in captured.err
        snapshots = store_dir / "snapshots"
        assert not snapshots.exists() or not any(snapshots.iterdir())
