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
import shutil
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


_POOL_PREFIX = "sennap-pool-"


def _runs(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the process exists
    except ProcessLookupError:
        return False
    except OSError:  # it exists, but belongs to another user
        pass
    return True


def _remove_stale_job_directories():
    """Remove `sennap-pool-<pid>-*` directories whose process no longer runs.

    A caller killed by SIGKILL leaves its job directory, a copy of the job,
    in the temporary directory.  A name without a pid, a live pid's
    directory and one that cannot be removed are left as they are.  Only on
    POSIX, where signal 0 asks after a process without touching it.
    """
    if os.name != "posix":
        return
    for path in Path(tempfile.gettempdir()).glob(_POOL_PREFIX + "*"):
        pid, dash, _ = path.name[len(_POOL_PREFIX):].partition("-")
        if dash and pid.isdigit() and not _runs(int(pid)) and path.is_dir():
            shutil.rmtree(path, ignore_errors=True)


def map_in_workers(job, task: Callable, items: Sequence) -> Iterator:
    """Yield `task(job, item)` per item, in order, from spawned worker processes.

    One worker per available CPU, at most one per item, each with one BLAS
    thread; `task` is a module-level function.  Each worker reads `job` from a
    file: one that died before reading a large start-up argument would block
    the parent writing it.  A result is released here as it is yielded, so a
    caller that drops each one holds only the results not yet taken.  A dead
    worker is a `TrainingError`.  The pool shuts down when the generator
    ends, raises or is closed.  The job's directory is named after this
    process, and the directories that processes no longer running left
    behind are removed first.  Workers import the caller's main module,
    which needs the `if __name__ == "__main__":` guard.  No items start no
    pool and write no job.
    """
    if len(items) == 0:
        return
    _remove_stale_job_directories()
    with tempfile.TemporaryDirectory(prefix=f"{_POOL_PREFIX}{os.getpid()}-") as scratch:
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


@functools.lru_cache(maxsize=1)
def _openblas():
    """(get, set, threads) for the OpenBLAS numpy calls, or None.

    `get` and `set` are its thread-count functions, and `threads` is the
    count it had when first found here, before any pin.  They are looked up
    on numpy's own `_multiarray_umath` module, and `dlsym` on that handle
    searches the module and the libraries it links, so the OpenBLAS found is
    the one numpy calls: `openblas_set_num_threads`, or scipy-openblas's
    `scipy_openblas_set_num_threads64_`.  None for a numpy on another BLAS,
    or where the module cannot be opened this way.
    """
    try:
        from numpy._core import _multiarray_umath as core  # numpy 2
    except ImportError:
        from numpy.core import _multiarray_umath as core  # numpy 1.x
    try:
        library = ctypes.CDLL(core.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
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

    Yields whether it holds the pin.  Reference-counted, so nested and
    concurrent holders share one pin.  The count is process-wide: any
    thread's BLAS call, an in-process `fit` too, sees one thread while some
    holder is inside.  Without OpenBLAS it does nothing and yields False.
    It does not stop OpenBLAS's own worker, which busy-waits for a
    while after a multi-threaded call, so threads started right after one
    share a CPU with it: on 2 CPUs, chunk-parallel `infer` of 4,905 rows took
    212 ms against 219 ms serial right after a 2-thread matmul loop, and
    173 ms against 244 ms after a 0.3 s pause (README, helper threads).
    """
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put, _ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield True
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
