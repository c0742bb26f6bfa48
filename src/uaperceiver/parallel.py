"""Independent work on every usable core.

``parallel_map`` splits its items into one contiguous share per process;
the parent runs the first share itself and each worker one further
share, and the results come back in share order. Worker processes are
forked once per process: the first call that needs more than one
process forks them, and every later call reuses them. So after the
first call no training step, evaluation, set-up or sweep pays for a
fork, nor for the copy-on-write faults on every heap page written after
one. A worker exists before the call it serves, so it inherits none of
the call's state: each call sends a module-level function (pickled by
reference, as its import path), its arguments and the shares, and only
each result travels back. A share is a slice of the items, so data
passed as items, not as an argument, reaches each worker as its own
slice only. The package starts no threads of its own; OpenBLAS stops
its thread pool before a fork and starts it again on its next call.

Between calls an idle worker waits for its next request and keeps its
heap, up to the 64 MiB trim threshold below. Workers end with their
interpreter: an ``atexit`` hook closes their request pipes and reaps
them (``close_workers``), and a worker exits at end of input. On Linux
the kernel also kills a worker whose parent dies (``PR_SET_PDEATHSIG``;
strictly, when the thread that forked it exits). A process forked by
other means forgets the workers it inherited: it neither uses nor reaps
them. An error in a call that has workers kills and reaps every worker,
and the next call forks fresh ones; it also replaces a worker that died
between calls. Measured in ``BENCH_20.json`` (README, Workers): a
snapshot-wide set-up went from 15.7k minor faults in the parent and
14.1k in its worker to 4-6 in each, and from 0.222 to 0.164 s.

The worker count is not an option: it is every core this process may
run on (``os.sched_getaffinity``; ``taskset`` lowers it), capped at the
number of items. Results do not depend on it: every item runs the same
code on the same inputs, in-process or in a worker. While a call has
workers, every process uses one BLAS thread, since two processes at two
BLAS threads each on two cores run slower than one process alone.
Calls do not nest: one made inside a worker, or in the parent while its
own call has workers, runs in-process, so no more processes run than
there are cores.

Importing the package sets glibc's allocator policy (README, Workers):
freed heap memory up to 64 MiB stays in the process, so every engine
caller, in a worker or not, reuses its pages instead of faulting them in
again, and workers inherit the policy at their fork. The price is a side
effect of the import on the host process: glibc's thresholds are set
for all of it and cannot be read back or restored, since glibc has no
getter. The policy changes no arithmetic.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import ctypes
import functools
import os
import pickle
import signal
import sys
import warnings
from pathlib import Path

from .errors import WorkerError
from .model import score_counter

# True in a worker process, and in the parent while its call has workers
_in_group = contextvars.ContextVar("uaperceiver_in_group", default=False)

# This process's workers, as (pid, request pipe, reply pipe), oldest first
_workers: list[tuple[int, object, object]] = []


def worker_count(items: int) -> int:
    """Processes to run ``items`` items on: the usable cores (1 where the
    platform cannot tell), capped at ``items``; at least 1."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, items))


def _keep_freed_memory() -> None:
    """Set the allocator policy above, where libc has it."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)  # libc's, on POSIX
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB freed


_keep_freed_memory()  # once, when the package is imported


@functools.cache
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


def _die_with(parent: int) -> None:
    """Have the kernel kill this worker when ``parent`` dies (Linux); exit
    now if it already has."""
    prctl = getattr(ctypes.pythonapi, "prctl", None) if sys.platform == "linux" else None
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(0)


def _answer(fn, args, share) -> bytes:
    """The pickled reply to one request: ("ok", result, score deltas), or
    ("error", the exception raised)."""
    before = (score_counter.cross, score_counter.latent)
    try:
        return pickle.dumps(("ok", fn(*args, share), score_counter.cross - before[0],
                             score_counter.latent - before[1]), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        return pickle.dumps(("error", exc))


def _serve(parent: int, requests, replies) -> None:
    """Worker body: answer each (fn, args, share) received until end of
    input, after which the worker exits without running any of the
    parent's clean-up. A request it cannot unpickle (say, a function the
    parent's module gained after the fork) is answered with the
    exception, and the worker exits, since the rest of that request is
    unread. A worker that cannot send its reply exits without one."""
    _in_group.set(True)
    _die_with(parent)
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            break
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            replies.write(pickle.dumps(("error", exc)))
            replies.flush()
            break
        replies.write(_answer(*request))
        replies.flush()
        del request  # an idle worker holds no call's arguments


def _fork_worker() -> None:
    """Fork one more worker and add it to ``_workers``. SIGINT (a
    terminal's Ctrl-C, the parent's to handle) stays blocked across the
    fork until the worker ignores it and the parent has the worker in
    ``_workers``, where an interrupted call kills and reaps it."""
    parent = os.getpid()
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork while OpenBLAS threads exist
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(request_w)
                os.close(reply_r)
                _serve(parent, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        _workers.append((pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb")))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _forget(worker) -> None:
    """Close this process's ends of ``worker``'s pipes and drop it from
    ``_workers``; a worker whose request pipe closes exits."""
    _workers.remove(worker)
    _, requests, replies = worker
    with contextlib.suppress(OSError):  # a dead worker's unflushed request
        requests.close()
    replies.close()


def _has_exited(pid: int) -> bool:
    """Whether worker ``pid`` has exited; reaps it if so."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:  # already reaped
        return True


def _ready_workers(count: int) -> list:
    """The first ``count`` workers, once any that died are replaced."""
    for worker in list(_workers):
        if _has_exited(worker[0]):
            _forget(worker)
    while len(_workers) < count:
        _fork_worker()
    return _workers[:count]


def _forget_all() -> None:
    """Forget every worker; in a child forked by any means, the parent's
    workers are not its own to use or reap."""
    for worker in list(_workers):
        _forget(worker)


def close_workers() -> None:
    """End this process's workers: close their request pipes, so each
    exits at end of input, and reap them. Runs at interpreter exit; the
    next call forks fresh workers."""
    pids = [pid for pid, _, _ in _workers]
    _forget_all()
    for pid in pids:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _kill_workers() -> None:
    """Kill and reap every worker, whatever it is doing."""
    for pid, _, _ in _workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    close_workers()


atexit.register(close_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_all)


def _receive(pid: int, replies):
    """The result a worker sent, its score deltas added to this process's
    counter; the worker's exception is raised here."""
    try:
        reply = pickle.load(replies)
    except Exception:  # noqa: BLE001 - end of input or a torn reply
        raise WorkerError(f"worker process {pid} exited without a result") from None
    if reply[0] == "error":
        raise reply[1]
    _, result, cross, latent = reply
    score_counter.cross += cross
    score_counter.latent += latent
    return result


def parallel_map(fn, args, items) -> list:
    """``[fn(*args, share) for share in shares]``: ``fn`` a module-level
    function, ``args`` a tuple, and ``items`` (any sequence that slices,
    such as a list or a range) sliced into ``worker_count(len(items))``
    contiguous shares, one per process.

    The parent runs the first share. One fewer of this process's workers
    are made ready, forking only those that do not exist yet; ``fn``,
    ``args`` and one more share are pickled to each, and it sends its
    result back. An exception raised by ``fn`` in a worker is raised
    again here, with its class and message; a worker that dies is a
    ``WorkerError``. An error in a call with workers kills and reaps
    every worker. Runs in-process when one process suffices, the
    platform cannot fork, the BLAS thread count cannot be pinned, or
    this process is a worker or inside a call that has workers."""
    processes = 1 if _in_group.get() else worker_count(len(items))
    blas = _openblas_threads() if processes > 1 and hasattr(os, "fork") else None
    if blas is None:
        return [fn(*args, items[:])]
    get_threads, set_threads = blas
    saved_threads = get_threads()
    set_threads(1)  # before any fork, so every worker runs one thread
    token = _in_group.set(True)
    try:
        children = _ready_workers(processes - 1)
        bounds = [len(items) * k // processes for k in range(processes + 1)]
        shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
        for (pid, requests, _), share in zip(children, shares[1:]):
            try:
                pickle.dump((fn, args, share), requests, pickle.HIGHEST_PROTOCOL)
                requests.flush()
            except OSError:
                raise WorkerError(f"worker process {pid} is gone") from None
        results = [fn(*args, shares[0])]
        for pid, _, replies in children:
            results.append(_receive(pid, replies))
        return results
    except BaseException:
        _kill_workers()  # a worker's reply may be unread
        raise
    finally:
        _in_group.reset(token)
        set_threads(saved_threads)
