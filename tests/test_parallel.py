"""Forked workers: worker-count resolution, share order, error and
process hygiene, workers forked once per process and reused by every
later call, and results that do not depend on the worker count."""

import ctypes
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import model, parallel, strategies
from uaperceiver.cli import main
from uaperceiver.errors import ConfigError, NumericError, WorkerError
from uaperceiver.parallel import _openblas_threads, parallel_map, worker_count
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


def count_forks(monkeypatch) -> list:
    """A list that gains one entry per ``os.fork`` call."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def worker_pids() -> list[int]:
    return [pid for pid, _, _ in parallel._workers]


def has_exited(pid) -> bool:
    """``pid`` is gone or a zombie: it has exited, reaped or not."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_until_exited(pid):
    deadline = time.monotonic() + 10
    while not has_exited(pid):
        assert time.monotonic() < deadline, f"process {pid} still runs"
        time.sleep(0.01)


# ---- work functions: module-level, so a worker receives them by name ----


def squares_and_pids(share):
    return [(x * x, os.getpid()) for x in share]


def scaled_and_pids(k, share):
    return [(k * x, os.getpid()) for x in share]


def arg_share_and_pid(arg, share):
    return (arg, list(share), os.getpid())


def pid_of(share):
    return os.getpid()


# the processes that ran fail_on_item_1 without failing
PASSED_PIDS = []


def fail_on_item_1(share):
    if 1 in share:
        raise NumericError(f"member 1 diverged in {os.getpid()}")
    PASSED_PIDS.append(os.getpid())
    return list(share)


def die_on_item_1(share):
    if 1 in share:
        os._exit(1)
    return list(share)


def blas_threads(share):
    return _openblas_threads()[0]()


def pid_and_inner_pids(share):
    return (os.getpid(), parallel_map(pid_of, (), range(2)))


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
    shares = parallel_map(squares_and_pids, (), range(7))
    assert len(shares) == min(CORES, 7)
    assert [v for share in shares for v, _ in share] == [x * x for x in range(7)]
    pids = flat_pids(shares)
    assert len(pids) == len(shares)
    assert pids - {os.getpid()} == set(worker_pids())
    parallel.close_workers()
    for pid in pids - {os.getpid()}:
        assert_reaped(pid)


def test_parallel_map_runs_in_process_where_the_platform_cannot_fork(monkeypatch):
    use_workers(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    shares = parallel_map(squares_and_pids, (), range(4))
    assert len(shares) == 1 and flat_pids(shares) == {os.getpid()}


def test_worker_exception_is_raised_with_its_class_and_message(monkeypatch):
    use_workers(monkeypatch, 2)
    PASSED_PIDS.clear()
    with pytest.raises(NumericError, match="member 1 diverged in") as info:
        parallel_map(fail_on_item_1, (), range(2))
    worker = int(str(info.value).rsplit(" ", 1)[1])
    # the parent ran its own share, and only that, while the worker failed
    assert PASSED_PIDS == [os.getpid()] and worker != os.getpid()
    # an error in a call kills and reaps every worker
    assert_reaped(worker)
    assert worker_pids() == []


def test_worker_dying_without_a_result_is_a_worker_error(monkeypatch):
    use_workers(monkeypatch, 2)
    assert parallel_map(die_on_item_1, (), range(1)) == [[0]]
    with pytest.raises(WorkerError, match="exited without a result"):
        parallel_map(die_on_item_1, (), range(2))
    assert_no_child_left()
    # the next call forks a fresh worker
    assert parallel_map(die_on_item_1, (), [0, 2]) == [[0], [2]]


def test_workers_run_one_blas_thread_and_the_count_is_restored(monkeypatch):
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    use_workers(monkeypatch, 2)
    get_threads = blas[0]
    before = get_threads()
    assert parallel_map(blas_threads, (), range(2)) == [1, 1]
    assert get_threads() == before


def test_the_blas_thread_count_is_restored_after_a_worker_raises(monkeypatch):
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    use_workers(monkeypatch, 2)
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(2)  # a count a worker call would change
    try:
        expected = get_threads()
        with pytest.raises(NumericError, match="member 1 diverged"):
            parallel_map(fail_on_item_1, (), range(2))
        assert get_threads() == expected
    finally:
        set_threads(before)


def test_groups_do_not_nest(monkeypatch):
    use_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    outer = parallel_map(pid_and_inner_pids, (), range(2))
    assert outer[0][0] == os.getpid() and outer[1][0] != os.getpid()
    # each process's inner call ran in that process alone
    assert [inner for _, inner in outer] == [[pid] for pid, _ in outer]
    assert forks == [1] and worker_pids() == [outer[1][0]]
    # the outer call has ended, so the next call runs on the same worker
    assert parallel_map(pid_of, (), range(2)) == [pid for pid, _ in outer]


# ---- workers forked once per process ---------------------------------------


def test_the_first_call_forks_once_and_its_workers_serve_every_call(monkeypatch):
    use_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    calls = [parallel_map(scaled_and_pids, (k,), range(5)) for k in (1, 10, 100)]
    assert forks == [1]
    for k, shares in zip((1, 10, 100), calls):
        assert [v for share in shares for v, _ in share] == [k * x for x in range(5)]
    assert len({pid for shares in calls for pid in flat_pids(shares)}) == 2


def test_later_groups_runs_and_sweeps_fork_nothing(tmp_path, monkeypatch):
    use_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    first = parallel_map(pid_of, (), range(2))
    assert forks == [1]
    assert parallel_map(pid_of, (), range(2)) == first
    for run in ("a", "b"):
        ua.run_train(tiny_run_config(tmp_path / run, strategy="snapshot", batch_size=16))
    ua.sweep_ensemble(tiny_run_config(tmp_path / "sweep", train_steps=2), max_size=2)
    assert forks == [1] and worker_pids() == first[1:]


def test_a_worker_killed_between_groups_is_replaced(monkeypatch):
    use_workers(monkeypatch, 2)
    [_, killed] = parallel_map(pid_of, (), range(2))
    os.kill(killed, signal.SIGKILL)
    wait_until_exited(killed)
    [parent, replacement] = parallel_map(pid_of, (), range(2))
    assert parent == os.getpid() and replacement not in (parent, killed)
    assert_reaped(killed)
    assert worker_pids() == [replacement]


def test_a_worker_exits_at_end_of_input(monkeypatch):
    use_workers(monkeypatch, 2)
    [_, worker] = parallel_map(pid_of, (), range(2))
    # close this process's ends of the worker's pipes, without reaping it
    parallel._forget_all()
    wait_until_exited(worker)
    os.waitpid(worker, 0)


WORKER_SCRIPT = """
import os, signal, sys, time
sys.path.insert(0, sys.argv[1])
from uaperceiver import parallel
parallel.worker_count = lambda items: max(1, min(2, items))
def pid_of(share):
    return os.getpid()
def die_while_the_worker_sleeps(share):
    if 0 in share:  # the parent's share
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)
print(parallel.parallel_map(pid_of, (), range(2))[1], flush=True)
if sys.argv[2] == "killed":
    parallel.parallel_map(die_while_the_worker_sleeps, (), range(2))
"""


@pytest.mark.parametrize("end", ["exits", "killed"])
def test_workers_end_with_their_interpreter(end):
    if _openblas_threads() is None:
        pytest.skip("no OpenBLAS loaded, so calls run in-process")
    if end == "killed" and sys.platform != "linux":
        pytest.skip("workers die with their parent on Linux only")
    src = Path(ua.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", WORKER_SCRIPT, str(src), end],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == (0 if end == "exits" else -signal.SIGKILL), done.stderr
    worker = int(done.stdout)
    if end == "exits":
        # reaped by the interpreter's exit hook before it ended
        assert_reaped(worker)
    else:
        # killed by the kernel once its parent died, in the middle of a
        # 60 s share: a worker that only noticed its closed pipes would
        # still be asleep
        wait_until_exited(worker)


def test_a_request_a_worker_cannot_unpickle_raises_the_real_error(monkeypatch):
    use_workers(monkeypatch, 2)
    [_, worker] = parallel_map(pid_of, (), range(2))

    def late(share):
        return list(share)

    # a module-level function the worker's copy of this module lacks
    late.__qualname__ = "late"
    monkeypatch.setattr(sys.modules[__name__], "late", late, raising=False)
    with pytest.raises(AttributeError, match="late"):
        parallel_map(late, (), range(2))
    assert_reaped(worker)
    assert worker_pids() == []
    assert parallel_map(late, (), range(2)) == [[0], [1]]


def test_a_process_forked_by_other_means_leaves_the_workers_alone(monkeypatch):
    use_workers(monkeypatch, 2)
    [_, worker] = parallel_map(pid_of, (), range(2))
    child = os.fork()
    if child == 0:
        try:
            inherited = worker_pids()
            own = parallel_map(pid_of, (), range(2))[1]
            parallel.close_workers()
            os._exit(0 if inherited == [] and own != worker else 1)
        finally:
            os._exit(2)
    assert os.waitpid(child, 0)[1] == 0
    assert parallel_map(pid_of, (), range(2))[1] == worker


def test_a_call_runs_in_process_with_one_worker(monkeypatch):
    use_workers(monkeypatch, 1)
    assert parallel_map(arg_share_and_pid, ("a",), range(4)) == [
        ("a", [0, 1, 2, 3], os.getpid())]


def test_a_one_item_call_never_reaches_a_worker(monkeypatch):
    use_workers(monkeypatch, 2)
    [_, worker] = parallel_map(pid_of, (), range(2))

    def no_workers(count):
        raise AssertionError("a one-item call made workers ready")

    monkeypatch.setattr(parallel, "_ready_workers", no_workers)
    assert parallel_map(pid_of, (), range(1)) == [os.getpid()]
    assert worker_pids() == [worker]


def test_training_chunks_stop_page_faulting():
    """Freed graph memory stays in the heap, by the allocator policy set
    at import: a second default-model chunk reuses the first one's pages."""
    if not hasattr(ctypes.pythonapi, "mallopt"):
        pytest.skip("libc has no mallopt")
    config = ua.PerceiverConfig()
    params = model.init_params(config, 0)
    data = ua.synth_dataset(0, 8)
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        strategies.chunk_gradients(config, params, data.images, data.labels, range(1))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] < 256, faults


BARE_MC_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import uaperceiver as ua
config = ua.PerceiverConfig(latent_count=8, latent_dim=32, byte_dim=32, num_bands=4,
                            depth_repeats=1, tower_layers=1, heads=2)
params = ua.init_params(config, 0).detached()
images = np.random.default_rng(0).random((11, 16, 16, 3))
ua.mc_predict(config, params, images[0], 0.1, 30, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed, image in enumerate(images[1:]):
    ua.mc_predict(config, params, image, 0.1, 30, seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def test_a_bare_engine_call_stops_page_faulting():
    """Importing the package sets the allocator policy, so a fresh process
    that never calls ``parallel_map`` reuses freed pages too: criterion-7
    MC images after the first take almost no minor faults (over 1,000
    each without the policy)."""
    if not hasattr(ctypes.pythonapi, "mallopt"):
        pytest.skip("libc has no mallopt")
    src = Path(ua.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", BARE_MC_SCRIPT, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 10, done.stdout


def test_training_forks_once_per_run(tmp_path, monkeypatch):
    use_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    config = tiny_run_config(tmp_path, strategy="snapshot", batch_size=16)
    strategies.snapshot_train(config.model_config(), 0,
                              ua.synth_dataset(0, 24, resolution=4, channels=1),
                              config.schedule(), config.train_settings())
    assert forks == [1] and config.train_steps > 1


def test_a_second_training_run_takes_almost_no_page_faults(tmp_path, monkeypatch):
    """After the first call, the parent writes only to pages it already
    owns: no fork write-protects its heap again."""
    if not hasattr(ctypes.pythonapi, "mallopt"):
        pytest.skip("libc has no mallopt")
    use_workers(monkeypatch, 2)
    faults = []
    for run in ("a", "b"):
        config = ua.RunConfig(strategy="snapshot", batch_size=16, train_steps=2,
                              snapshot_cycles=1, synth_train=32, synth_test=8,
                              out_dir=str(tmp_path / run))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ua.run_train(config)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[1] < 1000, faults


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


# set by fail_in_child_chunks; a worker counts its calls in its own copy
CHUNK_FAILURE = {}


def failing_chunk_gradients(*args):
    """``chunk_gradients``; a worker's second call first runs the failure."""
    if os.getpid() != CHUNK_FAILURE["parent"]:
        CHUNK_FAILURE["seen"] += 1
        if CHUNK_FAILURE["seen"] == 2:
            CHUNK_FAILURE["failure"]()
    return CHUNK_FAILURE["chunk_gradients"](*args)


def fail_in_child_chunks(monkeypatch, failure):
    """Make the second batch a training worker computes call ``failure``."""
    for key, value in (("parent", os.getpid()), ("failure", failure),
                       ("chunk_gradients", strategies.chunk_gradients), ("seen", 0)):
        monkeypatch.setitem(CHUNK_FAILURE, key, value)
    monkeypatch.setattr(strategies, "chunk_gradients", failing_chunk_gradients)


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
