"""Independent work on every usable core.

``Workers`` is a scoped group of forked worker processes: entering it
forks one child per extra core, each ``map`` splits its items into one
contiguous share per process, the parent runs the first share itself
and each child one further share, and the results come back in share
order. Forking, not spawning, lets a child start from the parent's
loaded modules, model and dataset without pickling them; only each
call's arguments travel to a child and only its result travels back.
A training run opens one group and maps every batch through it, so it
pays for one fork, not one per step. ``parallel_map`` is a group of one
call. The package starts no threads of its own; OpenBLAS stops its
thread pool before a fork and starts it again on its next call.

The worker count is not an option: it is every core this process may
run on (``os.sched_getaffinity``; ``taskset`` lowers it), capped at the
number of items. Results do not depend on it: every item runs the same
code on the same inputs, in-process or in a child. While children run,
every process uses one BLAS thread, since two processes at two BLAS
threads each on two cores run slower than one process alone. Groups do
not nest: one opened inside a worker, or in the parent while its own
group has children, runs in-process, so no more processes run than
there are cores.

Entering a group, in-process or not, first sets glibc's allocator policy
(README, Workers): freed heap memory up to 64 MiB stays in the process.
It changes no arithmetic and cannot be undone (glibc has no getter).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import pickle
import signal
import warnings
from pathlib import Path

from .errors import WorkerError
from .model import score_counter

# True in a worker process, and in the parent while its group has children
_in_group = contextvars.ContextVar("uaperceiver_in_group", default=False)


def worker_count(items: int) -> int:
    """Processes to run ``items`` items on: the usable cores (1 where the
    platform cannot tell), capped at ``items``; at least 1."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, items))


@functools.cache
def _keep_freed_memory() -> None:
    """Set the allocator policy above, once per process, where libc has it."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)  # libc's, on POSIX
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB freed


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


def _serve(fn, requests, replies) -> None:
    """Worker body: for each (args, share) received, send back
    (result, score deltas) or the exception raised; exit at end of input
    without running any of the parent's clean-up. A child that cannot
    send its reply exits without one."""
    _in_group.set(True)
    try:
        while True:
            try:
                args, share = pickle.load(requests)
            except EOFError:
                break
            before = (score_counter.cross, score_counter.latent)
            try:
                reply = ("ok", fn(args, share), score_counter.cross - before[0],
                         score_counter.latent - before[1])
                data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                data = pickle.dumps(("error", exc))
            replies.write(data)
            replies.flush()
    finally:
        os._exit(0)


class Workers:
    """``with Workers(fn, n_items) as w: w.map(args, items)``.

    Entering forks ``worker_count(n_items) - 1`` children. ``map`` returns
    ``[fn(args, share) for share in shares]``: ``items`` (a list or a
    range) sliced into one contiguous share per process. The parent runs
    the first share; ``args`` is pickled to each child, which runs one
    more share and sends its result back. An exception raised by ``fn``
    in a child is raised again here, with its class and message; a child
    that dies is a ``WorkerError``. On exit, or on an error in ``map``,
    every child is killed and reaped. Runs in-process when one worker
    remains, the platform cannot fork, the BLAS thread count cannot be
    pinned, or another group is active in this process."""

    def __init__(self, fn, n_items: int):
        self.fn = fn
        self.n_items = n_items
        self._children: list[tuple[int, object, object]] = []
        self._blas = None
        self._saved_threads = None
        self._token = None

    def __enter__(self) -> "Workers":
        _keep_freed_memory()
        workers = 1 if _in_group.get() else worker_count(self.n_items)
        if workers > 1 and hasattr(os, "fork"):
            self._blas = _openblas_threads()
        if self._blas is None:
            return self
        get_threads, set_threads = self._blas
        self._saved_threads = get_threads()
        set_threads(1)
        try:
            for _ in range(workers - 1):
                self._fork()
        except BaseException:
            self._close()
            raise
        self._token = _in_group.set(True)
        return self

    def _fork(self) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
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
            os.close(request_w)
            os.close(reply_r)
            _serve(self.fn, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
        os.close(request_r)
        os.close(reply_w)
        self._children.append((pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb")))

    def map(self, args, items, last: bool = False) -> list:
        """``last``: the group's final call; each child exits once it has
        replied, so its exit overlaps the parent's share."""
        processes = len(self._children) + 1
        bounds = [len(items) * k // processes for k in range(processes + 1)]
        shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
        try:
            for (pid, requests, _), share in zip(self._children, shares[1:]):
                try:
                    pickle.dump((args, share), requests, pickle.HIGHEST_PROTOCOL)
                    requests.flush()
                    if last:
                        requests.close()
                except OSError:
                    raise WorkerError(f"worker process {pid} is gone") from None
            results = [self.fn(args, shares[0])]
            for pid, _, replies in self._children:
                results.append(self._receive(pid, replies))
            return results
        except BaseException:
            self._close()
            raise

    @staticmethod
    def _receive(pid: int, replies):
        """The result a child sent, its score deltas added to this
        process's counter; the child's exception is raised here."""
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

    def _close(self) -> None:
        """Kill and reap every child and restore the BLAS thread count;
        later calls run in-process."""
        if self._token is not None:
            _in_group.reset(self._token)
            self._token = None
        for pid, requests, replies in self._children:
            with contextlib.suppress(OSError):
                requests.close()
            replies.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._children = []
        if self._blas is not None:
            self._blas[1](self._saved_threads)
            self._blas = None

    def __exit__(self, *exc) -> None:
        self._close()


def parallel_map(fn, items) -> list:
    """``[fn(share) for share in shares]``: the sequence ``items`` (a
    list or a range) sliced into ``worker_count(len(items))`` contiguous
    shares, one per process, by a ``Workers`` group of one call."""
    with Workers(lambda _, share: fn(share), len(items)) as workers:
        return workers.map(None, items, last=True)
