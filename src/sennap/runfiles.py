"""Run files, worker processes and helper threads: how the package reads, writes and fans out.

An unreadable or undecodable file, or one that cannot be written, is one
package error naming it.  Every file is written beside its target and
renamed into place, so a reader, or a command killed or failing part-way,
sees the previous file or the new one whole.  `map_in_workers` writes
nothing: what a task returns is its caller's to keep.  `map_in_threads`
runs tasks on the calling thread and the process's one pool of helper
threads, with the process's OpenBLAS held at one thread.  This module
imports no other part of the package except `errors`.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import multiprocessing
import os
import pickle
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .errors import ConfigError, SennapError, TrainingError


def read_bytes(path: str | Path, error: type[SennapError] = ConfigError) -> bytes:
    """A file's bytes; an unreadable file is an `error` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 text file; an unreadable or undecodable file is a `ConfigError` naming it."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None


def write_atomic(path: str | Path, data: bytes | str):
    """Write a temporary file beside `path`, then rename it over `path`; text is UTF-8.

    Missing directories above `path` are made.  A path that cannot be
    written is a `ConfigError` naming it, and leaves no temporary file.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


def key_values(entries: dict[str, object]) -> str:
    """One `key=value` line per entry, in insertion order; values are kept verbatim."""
    return "".join(f"{key}={value}\n" for key, value in entries.items())


def parse_key_values(text: str) -> dict[str, str]:
    """Inverse of `key_values`; blank lines and lines starting with '#' are skipped."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def write_manifest(path: str | Path, entries: dict[str, object]):
    """UTF-8 key=value audit file (one entry per line, insertion order)."""
    write_atomic(path, key_values(entries))


def read_manifest(path: str | Path) -> dict[str, str]:
    """Read a `write_manifest` file; an unreadable file is a `ConfigError` naming it."""
    return parse_key_values(read_text(path))


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread_env():
    """Processes started inside see one BLAS thread; the environment is restored after.

    A spawned child loads BLAS when it imports numpy, before it runs any task.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


@functools.lru_cache(maxsize=1)
def _load_job(path: Path):
    return pickle.loads(path.read_bytes())  # once per worker


def _run_task(task: Callable, path: Path, item):
    return task(_load_job(path), item)


def _result(future):
    try:
        return future.result()
    except BrokenProcessPool as exc:
        raise TrainingError(f"a worker process ended unexpectedly: {exc}") from exc


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_in_workers(job, task: Callable, items: Sequence) -> Iterator:
    """Yield `task(job, item)` per item, in order, from spawned worker processes.

    One worker per available CPU, at most one per item, each with one BLAS
    thread; `task` is a module-level function.  Each worker reads `job` from a
    file: one that died before reading a large start-up argument would block
    the parent writing it.  A result is released here as it is yielded, so a
    caller that drops each one holds only the results not yet taken.  A dead
    worker is a `TrainingError`.  The pool shuts down when the generator
    ends, raises or is closed.  Workers import the caller's main module,
    which needs the `if __name__ == "__main__":` guard.
    """
    with tempfile.TemporaryDirectory(prefix="sennap-pool-") as scratch:
        path = Path(scratch) / "job.pickle"
        write_atomic(path, pickle.dumps(job))
        pool = ProcessPoolExecutor(
            min(_cpus(), len(items)), mp_context=multiprocessing.get_context("spawn")
        )
        try:
            # the pool starts its workers as tasks arrive
            with _one_blas_thread_env():
                futures = collections.deque(
                    pool.submit(_run_task, task, path, item) for item in items
                )
            while futures:
                # neither the deque nor this frame keeps the future or its result
                yield _result(futures.popleft())
        finally:
            pool.shutdown(cancel_futures=True)


class _PhdrInfo(ctypes.Structure):
    """The two leading fields of `struct dl_phdr_info` (<link.h>), all that is read."""

    _fields_ = [("dlpi_addr", ctypes.c_size_t), ("dlpi_name", ctypes.c_char_p)]


def _loaded_libraries() -> list[str]:
    """Paths of the shared libraries loaded in this process; empty without `dl_iterate_phdr`."""
    paths: list[str] = []

    def visit(info, size, data):
        if info.contents.dlpi_name:
            paths.append(os.fsdecode(info.contents.dlpi_name))
        return 0

    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no process-wide symbol table on this platform
        return paths
    if not hasattr(libc, "dl_iterate_phdr"):
        return paths
    callback = ctypes.CFUNCTYPE(
        ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_char_p
    )(visit)
    libc.dl_iterate_phdr.argtypes = [type(callback), ctypes.c_char_p]
    libc.dl_iterate_phdr.restype = ctypes.c_int
    libc.dl_iterate_phdr(callback, None)
    return paths


@functools.lru_cache(maxsize=1)
def _openblas():
    """(get, set, threads) for the OpenBLAS numpy loaded, or None.

    `get` and `set` are its thread-count functions, and `threads` is the
    count it had when first found here, before any pin.  They are found as
    threadpoolctl finds them: among the libraries loaded in this process, one
    with "openblas" in its file name that exports `openblas_set_num_threads`
    or scipy-openblas's `scipy_openblas_set_num_threads64_`.  A library in a
    directory of numpy's own, such as a wheel's `numpy.libs`, comes first.
    """
    import numpy  # noqa: F401  (loads its BLAS, if nothing has yet)

    paths = [
        os.path.normpath(p) for p in _loaded_libraries()
        if "openblas" in os.path.basename(p).lower()
    ]
    paths.sort(key=lambda p: not os.path.basename(os.path.dirname(p)).startswith("numpy"))
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_"), ("scipy_", "")):
            get = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put, get()
    return None


def thread_workers() -> int:
    """W, the threads `map_in_threads` runs on: the caller plus one helper per other CPU.

    Capped by the thread count OpenBLAS started with, so a process given
    `OPENBLAS_NUM_THREADS=1`, such as a `map_in_workers` worker, has W = 1.
    1 when no OpenBLAS is found, because without the pin two threads would
    share BLAS's own threads and run slower than one.
    """
    blas = _openblas()
    return min(_cpus(), blas[2]) if blas is not None else 1


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def one_blas_thread():
    """The process's OpenBLAS runs one thread inside; the count is restored on the last exit.

    Reference-counted, so nested and concurrent holders share one pin.  The
    count is process-wide: any thread's BLAS call, an in-process `fit` too,
    sees one thread while some holder is inside.  Without OpenBLAS it does
    nothing.
    """
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put, _ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_idle = 0  # helpers running no map's task


def _take_helpers(wanted: int) -> int:
    """Reserve up to `wanted` idle helpers, starting the pool of W - 1 on first use."""
    global _pool, _idle
    with _pool_lock:
        if _pool is None:
            _idle = thread_workers() - 1
            _pool = ThreadPoolExecutor(_idle, thread_name_prefix="sennap-helper")
        taken = min(wanted, _idle)
        _idle -= taken
        return taken


def _give_back_helper():
    global _idle
    with _pool_lock:
        _idle += 1


class _Claims:
    """Hands out item indices in order until the items run out, `stop` says so, or `close`."""

    def __init__(self, n: int, stop: Callable[[], bool] | None):
        self.lock = threading.Lock()
        self.next, self.end, self.stop = 0, n, stop

    def take(self) -> int | None:
        with self.lock:
            if self.next < self.end and not (self.stop is not None and self.stop()):
                self.next += 1
                return self.next - 1
            self.end = self.next
            return None

    def close(self):
        with self.lock:
            self.end = self.next


def map_in_threads(
    fn: Callable,
    items: Sequence,
    *,
    limit: int | None = None,
    stop: Callable[[], bool] | None = None,
) -> list:
    """`[fn(item) for item in items]`, in order, on the caller and the idle helper threads.

    At most `limit` items (W by default) are in flight at once, on the caller
    and up to `limit` - 1 helpers that no other map is using; with none idle,
    as when every helper runs an item of an enclosing map, the caller runs
    every item.  So a helper task never queues behind another map's task, and
    a task may itself call `map_in_threads` without deadlock.  Items start in
    order, and `stop`, when given, is asked before each one starts; once it
    says True no further item starts, and the results of the items that did
    start, a prefix of `items`, are returned.  When this returns or raises,
    no helper is still running an item.  While helpers run, the process's
    OpenBLAS runs one thread (`one_blas_thread`).  A failed item stops the
    start of further items, and the first failure in item order is raised
    once the started items are done.
    """
    width = min(thread_workers(), len(items), limit or len(items))
    claims = _Claims(len(items), stop)
    out, failed = [None] * len(items), {}

    def drain():
        while (i := claims.take()) is not None:
            try:
                out[i] = fn(items[i])
            except BaseException as exc:  # re-raised by the caller below
                failed[i] = exc
                claims.close()

    def help_out():
        try:
            drain()
        finally:
            _give_back_helper()

    helpers = _take_helpers(width - 1) if width > 1 else 0
    if helpers == 0:
        drain()
    else:
        with one_blas_thread():
            futures = [_pool.submit(help_out) for _ in range(helpers)]
            try:
                drain()
            finally:
                for future in futures:
                    future.result()
    if failed:
        raise failed[min(failed)]
    return out[: claims.next]
