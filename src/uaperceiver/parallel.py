"""Independent work on every usable core.

``parallel_map`` forks worker processes for the duration of one call:
the items split into one contiguous share per process, the parent runs
the first share itself and each child one further share, and the
results come back in share order. Forking, not spawning, lets a child
start from the parent's loaded modules, model and dataset without
pickling them; only results travel back. The package starts no threads
of its own; OpenBLAS stops its thread pool before a fork and starts it
again on its next call.

The worker count is not an option: it is every core this process may
run on (``os.sched_getaffinity``; ``taskset`` lowers it), capped at the
number of items. Results do not depend on it: every item runs the same
code on the same inputs, in-process or in a child. While children run,
every process uses one BLAS thread, since two processes at two BLAS
threads each on two cores run slower than one process alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import warnings
from pathlib import Path

from .errors import WorkerError
from .model import score_counter


def worker_count(items: int) -> int:
    """Processes to run ``items`` items on: the usable cores (1 where the
    platform cannot tell), capped at ``items``; at least 1."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, items))


def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS library loaded
    into this process, or None when there is none."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        # plain OpenBLAS, then the symbol-prefixed build numpy wheels ship
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _run_child(fn, share, fd: int) -> None:
    """Worker body: send (result, score deltas) or the exception raised,
    then exit without running any of the parent's clean-up. A child that
    cannot send its reply exits without one."""
    try:
        before = (score_counter.cross, score_counter.latent)
        try:
            reply = ("ok", fn(share), score_counter.cross - before[0],
                     score_counter.latent - before[1])
            data = pickle.dumps(reply)
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            data = pickle.dumps(("error", exc))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _receive(pipe, pid: int):
    """The result a child sent, its score deltas added to this process's
    counter; the child's exception is raised here."""
    data = pipe.read()
    try:
        reply = pickle.loads(data)
    except Exception:  # noqa: BLE001 - torn or empty reply
        raise WorkerError(f"worker process {pid} exited without a result") from None
    if reply[0] == "error":
        raise reply[1]
    _, result, cross, latent = reply
    score_counter.cross += cross
    score_counter.latent += latent
    return result


def parallel_map(fn, items) -> list:
    """``[fn(share) for share in shares]``: the sequence ``items`` (a
    list or a range) sliced into ``worker_count(len(items))`` contiguous
    shares, one per process.

    The parent runs the first share; each forked child runs one more and
    sends its result back through a pipe. An exception raised by ``fn``
    in a child is raised again here, with its class and message. Every
    child has exited when this returns or raises. Runs in-process (one
    share) when one worker remains, the platform cannot fork or the BLAS
    thread count cannot be pinned."""
    workers = worker_count(len(items))
    blas = _openblas_threads() if workers > 1 and hasattr(os, "fork") else None
    if blas is None:
        return [fn(items)]
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    children: list[tuple[int, object]] = []
    finished = False
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns on fork while OpenBLAS threads exist
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, share, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [fn(shares[0])]
        for pid, pipe in children:
            results.append(_receive(pipe, pid))
        finished = True
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if not finished:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        set_threads(saved)
