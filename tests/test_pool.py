"""The fork pool: worker counts, job order, errors, BLAS pinning, and equality with the serial path.

The equality checks run each computation twice, with the CPU count the
pool sees set to 1 (in-process) and to 2 (two forked workers), and compare
the outputs byte for byte. They pin this process to one BLAS thread first,
as OPENBLAS_NUM_THREADS=1 would, because the workers always run one: at
N = 207 a few scores differ in the last bit between one and two threads.
"""

import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest

from synth import county_graph, resting_traces
from tgsim import _pool, cli, model, training
from tgsim.anomaly import score_stream
from tgsim.data import TemporalGraphSignal, node_bounds, write_canonical
from tgsim.errors import ConfigError, TrainingError
from tgsim.model import CELL_KINDS, Checkpoint, ModelConfig, ModelParams
from tgsim.noise import LabeledBucket, NoiseSpec, bucketize, inject_noise
from tgsim.training import TrainConfig, cross_validate, evaluate, train

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or _pool._openblas() is None,
    reason="the pool needs fork and a loaded OpenBLAS with a thread setter",
)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def two_cpus(monkeypatch):
    set_cpus(monkeypatch, 2)


@pytest.fixture
def one_blas_thread():
    """This process at one BLAS thread for the test, as OPENBLAS_NUM_THREADS=1 gives."""
    blas = _pool._openblas()
    before = blas.get()
    blas.set(1)
    yield
    blas.set(before)


def both_paths(monkeypatch, run):
    """run() with the pool seeing one CPU, then two."""
    outputs = []
    for count in (1, 2):
        with monkeypatch.context() as patched:
            set_cpus(patched, count)
            outputs.append(run())
    return outputs


def corpus(n, snapshots, seed=3):
    rng = np.random.default_rng(seed)
    return TemporalGraphSignal(
        name=f"synthetic{n}", num_nodes=n, edges=county_graph(n, n + n // 2, rng), weights=None,
        features=resting_traces(n, snapshots, rng, 0.2, 0.01, 3),
    )


def labeled_corpus(n, snapshots):
    signal = corpus(n, snapshots)
    return inject_noise(bucketize(signal, 10), node_bounds(signal), NoiseSpec(0.5, 11))


def square(x):
    return x * x


def job_counts(monkeypatch):
    """The number of jobs in each run_jobs call from here on."""
    counts = []
    run_jobs = _pool.run_jobs

    def counted(jobs):
        jobs = list(jobs)
        counts.append(len(jobs))
        return run_jobs(jobs)

    monkeypatch.setattr(_pool, "run_jobs", counted)
    return counts


class TestRunJobs:
    def test_results_come_back_in_job_order(self, two_cpus):
        jobs = [lambda i=i: (square(i), os.getpid()) for i in range(5)]
        results = _pool.run_jobs(jobs)
        assert [r[0] for r in results] == [0, 1, 4, 9, 16]
        pids = {r[1] for r in results}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_three_jobs_run_at_once_in_three_workers(self, two_cpus):
        # each job waits for the other two: with fewer workers than jobs the
        # barrier would break at its timeout instead
        barrier = multiprocessing.get_context("fork").Barrier(3)

        def job():
            barrier.wait(timeout=30)
            return os.getpid()

        pids = _pool.run_jobs([job] * 3)
        assert len(set(pids)) == 3 and os.getpid() not in pids

    @pytest.mark.parametrize("jobs, workers", [(4, 4), (5, 2)])
    def test_one_worker_per_job_up_to_twice_the_cpus(self, two_cpus, jobs, workers):
        pids = _pool.run_jobs([os.getpid] * jobs)
        assert len(set(pids)) == workers and os.getpid() not in pids

    def test_no_call_starts_more_than_twice_the_cpus_workers(self, two_cpus):
        for jobs in range(1, 10):
            assert len(set(_pool.run_jobs([os.getpid] * jobs))) <= 4

    def test_one_cpu_runs_in_process(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        assert _pool.workers() == 1
        assert _pool.run_jobs([os.getpid, os.getpid]) == [os.getpid()] * 2
        assert _pool.run_jobs([os.getpid] * 3) == [os.getpid()] * 3

    def test_a_single_job_runs_in_process(self, two_cpus):
        assert _pool.run_jobs([os.getpid]) == [os.getpid()]

    def test_closures_reach_workers_without_pickling(self, two_cpus):
        lock = threading.Lock()  # cannot be pickled, and need not be
        with pytest.raises(TypeError):
            pickle.dumps(lock)
        assert _pool.run_jobs([lambda: lock.locked(), lambda: 7]) == [False, 7]

    def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(self, two_cpus):
        get = _pool._openblas().get
        before = get()
        assert _pool.run_jobs([get, get]) == [1, 1]
        assert get() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_a_worker_starts_no_blas_thread(self, two_cpus):
        # a product far above OpenBLAS's threading threshold: a worker whose
        # pin restarted the thread pool would hold its helpers beside it
        def threads_after_a_product():
            a = np.ones((512, 512))
            a @ a
            return len(os.listdir("/proc/self/task")), _pool._openblas().get()

        assert _pool.run_jobs([threads_after_a_product] * 2) == [(1, 1)] * 2

    def test_without_the_count_workers_pin_with_the_setter(self, monkeypatch, two_cpus):
        blas = _pool._openblas()
        monkeypatch.setattr(_pool, "_openblas", lambda: blas._replace(cpu_number=None))
        before = blas.get()
        assert _pool.run_jobs([blas.get, blas.get]) == [1, 1]
        assert blas.get() == before

    def test_nested_call_runs_serially(self, two_cpus):
        def job():
            return _pool.workers(), _pool.run_jobs([os.getpid] * 3), os.getpid()

        for count, inner, pid in _pool.run_jobs([job, job]):
            assert count == 1
            assert inner == [pid] * 3 and pid != os.getpid()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_job_is_raised_with_its_type_and_message(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)

        def fail(exc):
            raise exc

        jobs = [lambda: 0, lambda: fail(TrainingError("fold 1 diverged")),
                lambda: 2, lambda: fail(ConfigError("fold 3 is misconfigured"))]
        with pytest.raises(TrainingError, match=r"^fold 1 diverged$"):
            _pool.run_jobs(jobs)

    def test_a_failure_does_not_wait_for_later_jobs(self, two_cpus):
        def fail():
            raise TrainingError("fold 0 diverged")

        began = time.perf_counter()
        with pytest.raises(TrainingError, match="fold 0"):
            _pool.run_jobs([fail, lambda: time.sleep(60)])
        assert time.perf_counter() - began < 30

    def test_an_exception_that_cannot_be_pickled_keeps_its_name_and_message(self, two_cpus):
        class LocalError(Exception):
            pass

        def fail():
            raise LocalError("only here")

        with pytest.raises(RuntimeError, match=r"^LocalError: only here$"):
            _pool.run_jobs([lambda: 0, fail])

    def test_a_dead_worker_raises_instead_of_hanging(self, two_cpus):
        with pytest.raises(ChildProcessError, match="exited"):
            _pool.run_jobs([lambda: 0, lambda: os._exit(7)])

    def test_two_threads_can_run_jobs_at_once(self, two_cpus):
        results = [None, None]

        def run(t):
            results[t] = _pool.run_jobs([lambda i=i: 10 * t + i for i in range(3)])

        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == [[0, 1, 2], [10, 11, 12]]


def cv_bytes(labeled, kind):
    config = TrainConfig(epochs=1, bucket_length=10, folds=3, seed=4)
    report, checkpoints = cross_validate(labeled, config, ModelConfig(kind, input_channels=1))
    return pickle.dumps(report), [t.value.tobytes() for c in checkpoints
                                  for t in c.params.tensors()]


@pytest.mark.usefixtures("one_blas_thread")
class TestSerialEquality:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    @pytest.mark.parametrize("n, snapshots", [(20, 33), (207, 24)])
    def test_cross_validate(self, monkeypatch, kind, n, snapshots):
        labeled = labeled_corpus(n, snapshots)
        serial, pooled = both_paths(monkeypatch, lambda: cv_bytes(labeled, kind))
        assert serial == pooled

    @pytest.mark.parametrize("kind", CELL_KINDS)
    @pytest.mark.parametrize("n, snapshots", [(20, 62), (207, 40)])
    def test_score_stream(self, monkeypatch, kind, n, snapshots):
        monkeypatch.setattr(model, "_POOL_FLOOR", 0)
        signal = corpus(n, snapshots)
        config = ModelConfig(kind, input_channels=1)
        checkpoint = Checkpoint(ModelParams.initialize(config, 5), node_bounds(signal))
        counts = job_counts(monkeypatch)
        serial, pooled = both_paths(
            monkeypatch, lambda: np.array(score_stream(signal, checkpoint)).tobytes())
        assert counts == [1, 2]
        assert serial == pooled

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_train(self, monkeypatch, kind):
        monkeypatch.setattr(training, "_BATCH_POOL_FLOOR", 0)
        labeled = labeled_corpus(207, 20)
        assert len(labeled) == 11  # a batch of 8 one-window chunks, then one of 3
        config = TrainConfig(epochs=2, bucket_length=10, seed=4)

        def run():
            checkpoint, history = train(labeled, config, ModelConfig(kind, input_channels=1))
            return checkpoint.params.values.tobytes(), history

        counts = job_counts(monkeypatch)
        serial, pooled = both_paths(monkeypatch, run)
        assert counts == [8, 3] * 4
        assert serial == pooled

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_evaluate(self, monkeypatch, kind):
        labeled = labeled_corpus(207, 110)
        shuffled = [labeled[i] for i in np.random.default_rng(6).permutation(len(labeled))]
        assert len(shuffled) * 207 >= model._POOL_FLOOR
        config = ModelConfig(kind, input_channels=1)
        checkpoint = Checkpoint(ModelParams.initialize(config, 5),
                                node_bounds(labeled[0].bucket.signal))
        counts = job_counts(monkeypatch)
        serial, pooled = both_paths(monkeypatch,
                                    lambda: pickle.dumps(evaluate(checkpoint, shuffled)))
        assert counts == [1, 2]
        assert serial == pooled

    def test_short_stream_stays_in_process(self, monkeypatch, two_cpus):
        signal = corpus(20, 120)  # 111 windows, the size of the acceptance streams
        config = ModelConfig("a3tgcn", input_channels=1)
        checkpoint = Checkpoint(ModelParams.initialize(config, 5), node_bounds(signal))
        counts = job_counts(monkeypatch)
        assert len(score_stream(signal, checkpoint)) == 111
        assert counts == [1]


class TestTrainBatches:
    """Which batches train() hands to the pool: those of at least _BATCH_POOL_FLOOR windows x nodes."""

    @pytest.mark.parametrize("n", [20, 207])
    def test_batches_below_the_floor_stay_in_process(self, monkeypatch, two_cpus, n):
        labeled = labeled_corpus(n, 20)
        assert training.BATCH_SIZE * n < training._BATCH_POOL_FLOOR
        counts = job_counts(monkeypatch)
        train(labeled, TrainConfig(epochs=1, bucket_length=10), ModelConfig("a3tgcn", 1))
        assert counts == []

    def test_a_full_batch_is_pooled_and_the_last_partial_batch_is_not(self, monkeypatch,
                                                                      two_cpus):
        labeled = labeled_corpus(678, 20)
        assert 3 * 678 < training._BATCH_POOL_FLOOR <= training.BATCH_SIZE * 678
        counts = job_counts(monkeypatch)
        train(labeled, TrainConfig(epochs=1, bucket_length=10), ModelConfig("a3tgcn", 1))
        assert counts == [8]  # the batch of 8 in one-window chunks; the batch of 3 in-process

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_non_finite_loss_in_a_worker_names_its_bucket(self, monkeypatch):
        monkeypatch.setattr(training, "_BATCH_POOL_FLOOR", 0)
        labeled = labeled_corpus(207, 20)
        config = TrainConfig(epochs=1, bucket_length=10, seed=2, redraw_probability=0.5)
        order = np.random.default_rng([config.seed, 1, 0]).permutation(len(labeled))
        assert order[5] != 5
        bad = labeled[order[5]]
        poisoned = [LabeledBucket(b.bucket, np.full(b.candidate.shape, np.inf), b.perturbed)
                    if b is bad else b for b in labeled]
        # the epoch's redraw hands train the poisoned set; forked workers inherit the patch
        monkeypatch.setattr(training, "inject_noise", lambda *args: poisoned)

        def run():
            with pytest.raises(TrainingError) as caught:
                train(labeled, config, ModelConfig("tgcn", 1))
            return str(caught.value)

        counts = job_counts(monkeypatch)
        serial, pooled = both_paths(monkeypatch, run)
        assert counts == [8, 8]
        assert serial == pooled
        assert f"epoch 0, bucket {order[5]} (window start {bad.bucket.start})" in pooled


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool_cli")
    dataset = root / "synthetic.json"
    write_canonical(corpus(12, 40), dataset)
    assert cli.main(["prepare", "--dataset", str(dataset), "-L", "4", "--seed", "3",
                     "--out-dir", str(root / "prep")]) == 0
    return dataset, root / "prep" / "buckets.json"


TRAIN_FLAGS = ["--cell", "a3tgcn", "--embed-dim", "6", "--attention-dim", "4",
               "-L", "4", "--epochs", "2", "--folds", "3", "--seed", "1"]


def pipeline(dataset, buckets, root, extra):
    assert cli.main(["train", "--dataset", str(dataset), "--buckets", str(buckets),
                     *TRAIN_FLAGS, *extra, "--out-dir", str(root / "train")]) == 0
    assert cli.main(["eval", "--run-dir", str(root / "train")]) == 0
    assert cli.main(["detect", "--dataset", str(dataset), "--checkpoint",
                     str(root / "train" / "checkpoint_fold_1.json"), "-L", "4",
                     "--mode", "zscore", "--out-dir", str(root / "detect")]) == 0
    # the run configs name this run's own directory; everything else must match
    return {str(p.relative_to(root)): p.read_text(encoding="utf-8").replace(str(root), "ROOT")
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.usefixtures("one_blas_thread")
class TestCli:
    @pytest.mark.parametrize("extra", [[], ["--redraw-noise"]])
    def test_train_eval_detect_outputs_are_byte_identical(self, monkeypatch, tmp_path,
                                                          cli_inputs, extra, capsys):
        monkeypatch.setattr(model, "_POOL_FLOOR", 0)
        dataset, buckets = cli_inputs
        roots = iter([tmp_path / "serial", tmp_path / "pooled"])
        serial, pooled = both_paths(monkeypatch, lambda: pipeline(dataset, buckets, next(roots),
                                                                 extra))
        assert len(serial) == 11  # train: 3 checkpoints, losses, run config; eval 3; detect 3
        assert serial == pooled
        assert capsys.readouterr().err == ""

    def test_eval_scores_each_fold_in_a_worker(self, monkeypatch, tmp_path, cli_inputs):
        dataset, buckets = cli_inputs
        train_dir = tmp_path / "train"
        assert cli.main(["train", "--dataset", str(dataset), "--buckets", str(buckets),
                         *TRAIN_FLAGS, "--out-dir", str(train_dir)]) == 0
        # workers keep no memory of the parent's: each call leaves its pid in a file
        pid_log = tmp_path / "pids"
        evaluate = cli.evaluate

        def logged(*args):
            with open(pid_log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", logged)
        roots = iter([tmp_path / "serial", tmp_path / "pooled"])

        def run():
            out_dir = next(roots)
            assert cli.main(["eval", "--run-dir", str(train_dir), "--out-dir", str(out_dir)]) == 0
            pids = pid_log.read_text(encoding="utf-8").split()
            pid_log.unlink()
            return (out_dir / "metrics.json").read_bytes(), pids

        (serial, serial_pids), (pooled, pooled_pids) = both_paths(monkeypatch, run)
        assert serial == pooled
        assert serial_pids == [str(os.getpid())] * 3
        assert len(set(pooled_pids)) == 3 and str(os.getpid()) not in pooled_pids

    def test_training_error_in_a_worker_exits_three_with_the_same_line(
            self, monkeypatch, tmp_path, cli_inputs, capsys):
        dataset, buckets = cli_inputs
        roots = iter([tmp_path / "serial", tmp_path / "pooled"])

        def diverge():
            code = cli.main(["train", "--dataset", str(dataset), "--buckets", str(buckets),
                             *TRAIN_FLAGS, "--learning-rate", "1e300",
                             "--out-dir", str(next(roots))])
            return code, capsys.readouterr().err

        serial, pooled = both_paths(monkeypatch, diverge)
        assert serial == pooled
        code, err = pooled
        assert code == 3
        assert err.count("\n") == 1 and '"error": "TrainingError"' in err
