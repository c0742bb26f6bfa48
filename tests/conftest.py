"""Shared fixtures and oracles for the test suite."""

import os
import tracemalloc

import numpy as np
import pytest

import uaperceiver as ua
from uaperceiver import parallel


@pytest.fixture(autouse=True)
def no_process_left():
    """Close this process's workers after each test, as its exit does, so
    the next test forks its own: a monkeypatch made in a test reaches the
    workers it forks. A child process left behind fails the test, and so
    does a worker-call flag left set, which would make every later
    ``parallel_map`` run in-process, tracemalloc left tracing, which
    would slow every later test, and numpy's floating-point error
    handling left changed, which would hide or raise later tests'
    overflows."""
    tracing = tracemalloc.is_tracing()
    errors = np.geterr()
    yield
    parallel.close_workers()
    if parallel._in_group.get():
        pytest.fail("the test left parallel._in_group set")
    if np.geterr() != errors:
        left = np.seterr(**errors)
        pytest.fail(f"the test left numpy's error handling at {left}")
    if tracemalloc.is_tracing() and not tracing:
        tracemalloc.stop()
        pytest.fail("the test left tracemalloc tracing")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


@pytest.fixture
def tiny_config():
    """Smallest config that still exercises heads, sharing, and both
    attention kinds."""
    return ua.PerceiverConfig(
        height=4, width=4, channels=1, num_classes=3,
        latent_count=4, latent_dim=8, byte_dim=8, num_bands=2,
        depth_repeats=2, tower_layers=1, heads=2,
    )


@pytest.fixture
def tiny_dataset():
    return ua.synth_dataset(7, 24, resolution=4, num_classes=3, channels=1)


def global_fd_gradcheck(build_loss, leaves, h=1e-5):
    """Normwise relative error between reverse-mode gradients and
    central finite differences, over all leaves jointly."""
    grads = build_loss().backward()
    analytic, numeric = [], []
    for leaf in leaves:
        analytic.append(grads[leaf].ravel().copy())
        fd = np.zeros(leaf.data.size)
        flat = leaf.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss().data)
            flat[i] = orig - h
            down = float(build_loss().data)
            flat[i] = orig
            fd[i] = (up - down) / (2 * h)
        numeric.append(fd)
    a = np.concatenate(analytic)
    f = np.concatenate(numeric)
    return np.linalg.norm(a - f) / max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` ran, above what was allocated
    before, as tracemalloc counts them (numpy reports its array data)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
