"""Forked workers: worker-count resolution, share order, error and
process hygiene, worker groups held for a training run, and results that
do not depend on the worker count."""

import ctypes
import os
import resource
import time
from pathlib import Path

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import model, parallel, strategies
from uaperceiver.cli import main
from uaperceiver.errors import ConfigError, NumericError, WorkerError
from uaperceiver.parallel import Workers, _openblas_threads, parallel_map, worker_count
from uaperceiver.rng import derive_seed

from test_harness import tiny_run_config, without_wall_clock, write_tiny_config

CORES = len(os.sched_getaffinity(0))


def use_workers(monkeypatch, n):
    """Make ``parallel_map`` use ``n`` processes (capped at the items)."""
    monkeypatch.setattr(parallel, "worker_count", lambda items: max(1, min(n, items)))


def assert_reaped(pid):
    """``pid`` no longer exists: it exited and was waited for."""
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def flat_pids(shares):
    return {pid for share in shares for _, pid in share}


def assert_no_child_left():
    """This process has no child at all, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---- worker count ----------------------------------------------------


@pytest.mark.parametrize("cores,items,expected", [
    (2, 0, 1), (2, -3, 1), (2, 1, 1), (2, 2, 2), (2, 9, 2), (8, 3, 3), (1, 5, 1),
])
def test_worker_count_is_the_usable_cores_capped_at_the_items(
        monkeypatch, cores, items, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert worker_count(items) == expected


def test_worker_count_is_one_where_usable_cores_are_unknown(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(4) == 1


# ---- parallel_map ----------------------------------------------------


def test_parallel_map_keeps_share_order_and_stays_within_the_cap():
    shares = parallel_map(lambda share: [(x * x, os.getpid()) for x in share], range(7))
    assert len(shares) == min(CORES, 7)
    assert [v for share in shares for v, _ in share] == [x * x for x in range(7)]
    pids = flat_pids(shares)
    assert len(pids) == len(shares)
    for pid in pids - {os.getpid()}:
        assert_reaped(pid)


def test_parallel_map_runs_in_process_where_the_platform_cannot_fork(monkeypatch):
    use_workers(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    shares = parallel_map(lambda share: [(x, os.getpid()) for x in share], range(4))
    assert len(shares) == 1 and flat_pids(shares) == {os.getpid()}


def test_worker_exception_is_raised_with_its_class_and_message(monkeypatch):
    use_workers(monkeypatch, 2)
    pids = []

    def fail_in_worker(share):
        if 1 in share:
            raise NumericError(f"member 1 diverged in {os.getpid()}")
        pids.append(os.getpid())
        return list(share)

    with pytest.raises(NumericError, match="member 1 diverged in") as info:
        parallel_map(fail_in_worker, range(2))
    worker = int(str(info.value).rsplit(" ", 1)[1])
    assert pids == [os.getpid()] and worker != os.getpid()
    assert_reaped(worker)


def test_worker_dying_without_a_result_is_a_worker_error(monkeypatch):
    use_workers(monkeypatch, 2)

    def die_in_worker(share):
        if 1 in share:
            os._exit(1)
        return list(share)

    with pytest.raises(WorkerError, match="exited without a result"):
        parallel_map(die_in_worker, range(2))


def test_workers_run_one_blas_thread_and_the_count_is_restored(monkeypatch):
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    use_workers(monkeypatch, 2)
    get_threads = blas[0]
    before = get_threads()
    assert parallel_map(lambda share: get_threads(), range(2)) == [1, 1]
    assert get_threads() == before


def test_groups_do_not_nest(monkeypatch):
    use_workers(monkeypatch, 2)
    outer = parallel_map(
        lambda share: (os.getpid(), parallel_map(lambda s: os.getpid(), range(2))),
        range(2))
    assert outer[0][0] == os.getpid() and outer[1][0] != os.getpid()
    # each process's inner call ran in that process alone
    assert [inner for _, inner in outer] == [[pid] for pid, _ in outer]
    assert_no_child_left()
    # the outer group has ended, so the next call forks again
    assert len(set(parallel_map(lambda s: os.getpid(), range(2)))) == 2


# ---- a group held over many calls ---------------------------------------


def test_a_group_forks_once_and_serves_every_call(monkeypatch):
    use_workers(monkeypatch, 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with Workers(lambda args, share: [(args * x, os.getpid()) for x in share], 5) as w:
        calls = [w.map(k, range(5)) for k in (1, 10, 100)]
    assert forks == [1]
    for k, shares in zip((1, 10, 100), calls):
        assert [v for share in shares for v, _ in share] == [k * x for x in range(5)]
    assert len({pid for shares in calls for pid in flat_pids(shares)}) == 2
    assert_no_child_left()


def test_children_exit_by_themselves_after_the_last_call(monkeypatch):
    use_workers(monkeypatch, 2)
    with Workers(lambda args, share: list(share), 2) as w:
        assert w.map(None, range(2), last=True) == [[0], [1]]
        [(pid, _, _)] = w._children
        stat = Path(f"/proc/{pid}/stat")
        deadline = time.monotonic() + 10
        # a zombie ("Z") has exited and waits to be reaped
        while stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
            assert time.monotonic() < deadline
            time.sleep(0.01)
    assert_no_child_left()


def test_a_group_runs_in_process_with_one_worker(monkeypatch):
    use_workers(monkeypatch, 1)
    with Workers(lambda args, share: (args, list(share), os.getpid()), 4) as w:
        assert w.map("a", range(4)) == [("a", [0, 1, 2, 3], os.getpid())]


def test_training_chunks_stop_page_faulting():
    """Inside a group, freed graph memory stays in the heap: a second
    default-model chunk reuses the first one's pages."""
    if not hasattr(ctypes.pythonapi, "mallopt"):
        pytest.skip("libc has no mallopt")
    config = ua.PerceiverConfig()
    params = model.init_params(config, 0)
    data = ua.synth_dataset(0, 8)
    faults = []
    with Workers(None, 1):
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            strategies.chunk_gradients(config, params, data.images, data.labels, range(1))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] < 256, faults


def test_training_forks_once_per_run(tmp_path, monkeypatch):
    use_workers(monkeypatch, 2)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    config = tiny_run_config(tmp_path, strategy="snapshot", batch_size=16)
    strategies.snapshot_train(config.model_config(), 0,
                              ua.synth_dataset(0, 24, resolution=4, channels=1),
                              config.schedule(), config.train_settings())
    assert forks == [1] and config.train_steps > 1
    assert_no_child_left()


# ---- results do not depend on the worker count -------------------------


@pytest.mark.parametrize("strategy,extra", [
    ("deep", {"ensemble_size": 3}),
    ("snapshot", {}),
    ("mc", {}),
    # batches of more than one chunk; a short last batch is one graph
    ("snapshot", {"batch_size": 32, "synth_train": 40}),
    ("swa", {"batch_size": 16}),
    ("mc", {"mc_delta": 0.2, "batch_size": 16}),
    ("deep", {"ensemble_size": 2, "batch_size": 16}),
])
def test_run_directory_and_report_identical_at_one_and_two_workers(
        tmp_path, monkeypatch, strategy, extra):
    # one relative out_dir, so the config echo in every file is the same
    monkeypatch.chdir(tmp_path)
    reports, trees = [], []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        ua.run_train(tiny_run_config("run", strategy=strategy, **extra))
        reports.append(without_wall_clock(ua.run_evaluate("run")))
        run = Path("run").rename(f"w{workers}")
        trees.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
    assert trees[0] == trees[1]
    assert reports[0] == reports[1]


def test_run_train_and_evaluate_where_usable_cores_are_unknown(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trees = []
    for name in ("default", "unknown"):
        if name == "unknown":
            monkeypatch.delattr(os, "sched_getaffinity")
        ua.run_train(tiny_run_config("run", strategy="deep", ensemble_size=2))
        assert ua.run_evaluate("run").accuracy >= 0.0
        run = Path("run").rename(name)
        trees.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
    assert trees[0] == trees[1]


def test_sweep_reports_identical_at_one_and_two_workers(tmp_path, monkeypatch):
    series = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        config = tiny_run_config(tmp_path / "sweep", train_steps=2)
        reports = ua.sweep_ensemble(config, max_size=3)
        series.append([without_wall_clock(r) for r in reports])
    assert series[0] == series[1]


def test_score_counts_of_a_two_worker_evaluation_equal_sequential(tmp_path, monkeypatch):
    predictor = ua.run_train(tiny_run_config(tmp_path, strategy="mc")).predictor
    images = ua.synth_dataset(3, 10, resolution=4, num_classes=3, channels=1).images
    counts, rows = [], []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        before = (model.score_counter.cross, model.score_counter.latent)
        rows.append(predictor.probabilities(images))
        counts.append((model.score_counter.cross - before[0],
                       model.score_counter.latent - before[1]))
    assert counts[0] == counts[1] and counts[0][0] > 0
    np.testing.assert_array_equal(rows[0], rows[1])


# ---- the CLI -----------------------------------------------------------


def fail_in_child_chunks(monkeypatch, failure):
    """Make the second batch a training worker computes call ``failure``."""
    parent = os.getpid()
    chunk_gradients = strategies.chunk_gradients
    seen = []

    def failing(*args):
        if os.getpid() != parent:
            seen.append(1)
            if len(seen) == 2:
                failure()
        return chunk_gradients(*args)

    monkeypatch.setattr(strategies, "chunk_gradients", failing)


def test_cli_error_in_a_training_chunk_exits_2_with_one_line(
        tmp_path, capsys, monkeypatch):
    use_workers(monkeypatch, 2)

    def diverge():
        raise NumericError("chunk diverged")

    fail_in_child_chunks(monkeypatch, diverge)
    cfg = write_tiny_config(tmp_path, strategy="snapshot", batch_size=16)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "numeric error: chunk diverged\n"
    assert not (out / "predictor.json").exists()
    assert_no_child_left()


def test_training_worker_dying_mid_run_is_a_worker_error(tmp_path, monkeypatch):
    use_workers(monkeypatch, 2)
    fail_in_child_chunks(monkeypatch, lambda: os._exit(1))
    with pytest.raises(WorkerError, match="exited without a result"):
        ua.run_train(tiny_run_config(tmp_path, strategy="snapshot", batch_size=16))
    assert_no_child_left()



def test_cli_error_inside_a_worker_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    use_workers(monkeypatch, 2)
    train_member = strategies.train_member
    pid_file = tmp_path / "worker.pid"

    def failing(config, dataset, schedule, member_seed, settings):
        if member_seed == derive_seed(0, 1):
            pid_file.write_text(str(os.getpid()))
            raise ConfigError("member 1 cannot train")
        return train_member(config, dataset, schedule, member_seed, settings)

    monkeypatch.setattr(strategies, "train_member", failing)
    cfg = write_tiny_config(tmp_path, strategy="deep")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: member 1 cannot train\n"
    worker = int(pid_file.read_text())
    assert worker != os.getpid()
    assert_reaped(worker)
    assert not (out / "predictor.json").exists()
