"""Run files and worker processes: the one way the package reads, writes and fans out.

An unreadable or undecodable file, or one that cannot be written, is one
package error naming it.  Every file is written beside its target and
renamed into place, so a reader, or a command killed or failing part-way,
sees the previous file or the new one whole.  `map_in_workers` writes
nothing: what a task returns is its caller's to keep.  This module imports
no other part of the package except `errors`.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
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
def _one_blas_thread():
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


def map_in_workers(job, task: Callable, items: Sequence) -> Iterator:
    """Yield `task(job, item)` per item, in order, from spawned worker processes.

    One worker per available CPU, at most one per item, each with one BLAS
    thread; `task` is a module-level function.  Each worker reads `job` from a
    file: one that died before reading a large start-up argument would block
    the parent writing it.  A dead worker is a `TrainingError`.  The pool
    shuts down when the generator ends, raises or is closed.  Workers import
    the caller's main module, which needs the `if __name__ == "__main__":` guard.
    """
    with tempfile.TemporaryDirectory(prefix="sennap-pool-") as scratch:
        path = Path(scratch) / "job.pickle"
        write_atomic(path, pickle.dumps(job))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ProcessPoolExecutor(
            min(cpus or 1, len(items)), mp_context=multiprocessing.get_context("spawn")
        )
        try:
            # the pool starts its workers as tasks arrive
            with _one_blas_thread():
                futures = [pool.submit(_run_task, task, path, item) for item in items]
            for future in futures:
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    raise TrainingError(f"a worker process ended unexpectedly: {exc}") from exc
                yield result
        finally:
            pool.shutdown(cancel_futures=True)
