"""Post-hoc rounds on the caller and the helper threads, with OpenBLAS pinned to one thread."""

from __future__ import annotations

import collections
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sennap import runfiles
from sennap.model import INFER_CHUNK, make_predictor
from sennap.posthoc import AnchorConfig, greedy_anchor_search, kept_counts
from sennap.selfexplain import SAMPLE_UNIFORM, FeatureSampler

needs_openblas = pytest.mark.skipif(runfiles._openblas() is None, reason="no OpenBLAS found")


def _uniform_sampler(n):
    return FeatureSampler(
        kinds=np.full(n, SAMPLE_UNIFORM, dtype=np.int8),
        lo=np.zeros(n, dtype=np.float32),
        hi=np.ones(n, dtype=np.float32),
    )


class Spy:
    """A predictor that records its calls and how many calls and rows were in flight at once."""

    def __init__(self, inner, sleep_s=0.0):
        self.inner, self.sleep_s = inner, sleep_s
        self.lock = threading.Lock()
        self.calls, self.rows, self.peak_calls, self.peak_rows = [], 0, 0, 0
        self.running = 0

    def __call__(self, flat):
        started = time.perf_counter()
        with self.lock:
            self.running += 1
            self.rows += len(flat)
            self.peak_calls = max(self.peak_calls, self.running)
            self.peak_rows = max(self.peak_rows, self.rows)
        try:
            if self.sleep_s:
                time.sleep(self.sleep_s)
            return self.inner(flat)
        finally:
            with self.lock:
                self.running -= 1
                self.rows -= len(flat)
                self.calls.append((started, time.perf_counter(), len(flat)))


def _threshold_model(X):
    X = np.atleast_2d(X)
    return (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)


def test_search_records_do_not_depend_on_workers(toy_data, baseline_ckpt, workers):
    spec, train, _, test_eval = toy_data
    sampler = FeatureSampler.fit(spec, train.x)
    config = AnchorConfig(precision_threshold=0.9, n_samples=60, timeout_s=300.0, seed=4)
    results = {}
    for w in (1, 2):
        workers(w)
        predict = make_predictor(baseline_ckpt.params)
        results[w] = [
            greedy_anchor_search(predict, test_eval.x[i].reshape(-1), config, sampler,
                                 np.random.default_rng(40 + i))
            for i in range(4)
        ]
    assert max(r.rounds for r in results[1]) >= 2
    for serial, threaded in zip(results[1], results[2]):
        serial.wall_time_s = threaded.wall_time_s = 0.0
        assert serial == threaded


@pytest.mark.parametrize("w", [1, 2])
def test_timeout_starts_no_group_after_the_deadline(workers, w):
    workers(w)
    n = 8
    spy = Spy(_threshold_model, sleep_s=0.05)
    timeout = 0.3
    S = 40 * (INFER_CHUNK // (w * n))  # 40 groups per round, 2 s or more
    config = AnchorConfig(precision_threshold=1.0, n_samples=S, timeout_s=timeout, seed=1)
    x = np.full(n, 0.9, dtype=np.float32)
    result = greedy_anchor_search(spy, x, config, _uniform_sampler(n))
    returned = time.perf_counter()
    assert result.status == "timeout" and result.rounds == 1
    first_start = spy.calls[0][0]  # the target row's call, made after the search's clock started
    # the deadline is checked before a group starts: allow the check-to-call gap only
    assert max(start for start, _, _ in spy.calls) <= first_start + timeout + 0.1
    assert result.samples_used == sum(rows for _, _, rows in spy.calls[1:])
    assert max(end for _, end, _ in spy.calls) <= returned
    assert spy.running == 0


@pytest.mark.parametrize("n", [8, 1500], ids=["groups_of_many_draws", "one_draw_per_group"])
@pytest.mark.parametrize("w", [2, 3])
def test_calls_and_rows_in_flight_are_bounded(workers, w, n):
    workers(w)
    spy = Spy(_threshold_model, sleep_s=0.02)
    x = np.full(n, 0.9, dtype=np.float32)
    base = _uniform_sampler(n).draw(np.random.default_rng(3), 12 * max(1, INFER_CHUNK // (w * n)))
    kept, rows = kept_counts(spy, x, base, 1, np.arange(n))
    assert kept is not None and rows == len(base) * n
    assert 2 <= spy.peak_calls <= w
    assert spy.peak_rows <= max(INFER_CHUNK, w * n)


@pytest.mark.parametrize("limit", [1, 2])
def test_limit_caps_the_items_in_flight(workers, limit):
    workers(3)
    spy = Spy(lambda item: int(item[0]), sleep_s=0.02)
    items = [np.full(1, i) for i in range(12)]
    assert runfiles.map_in_threads(spy, items, limit=limit) == list(range(12))
    assert spy.peak_calls == limit


class TestPin:
    @needs_openblas
    def test_count_reads_one_inside_and_is_restored_once(self, monkeypatch):
        get, put, threads = runfiles._openblas()
        original = get()
        sets = []

        def spy_put(count):
            sets.append(count)
            put(count)

        monkeypatch.setattr(runfiles, "_openblas", lambda: (get, spy_put, threads))
        with runfiles.one_blas_thread():
            assert get() == 1
            with runfiles.one_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == original and sets == [1, original]

        sets.clear()
        inside = threading.Barrier(4, timeout=30)
        seen = []

        def hold():
            with runfiles.one_blas_thread():
                inside.wait()  # all four hold the pin at once
                seen.append(get())
                inside.wait()

        threads = [threading.Thread(target=hold) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1, 1, 1, 1]
        assert get() == original and sets == [1, original]

    @needs_openblas
    def test_workers_are_capped_by_the_blas_threads_at_start(self, monkeypatch):
        monkeypatch.setattr(runfiles, "_cpus", lambda: 4)
        get, put, threads = runfiles._openblas()
        # read when OpenBLAS was found, so a search's own pin does not shrink W
        with runfiles.one_blas_thread():
            assert runfiles.thread_workers() == min(4, threads)
        for started_with, w in ((1, 1), (3, 3), (8, 4)):
            monkeypatch.setattr(runfiles, "_openblas", lambda: (get, put, started_with))
            assert runfiles.thread_workers() == w

    def test_no_openblas_means_one_worker_and_no_pin(self, monkeypatch):
        real = runfiles._openblas()
        monkeypatch.setattr(runfiles, "_openblas", lambda: None)
        assert runfiles.thread_workers() == 1
        before = real[0]() if real else None
        with runfiles.one_blas_thread():
            if real:
                assert real[0]() == before
        caller = threading.get_ident()
        ran_on = runfiles.map_in_threads(lambda item: threading.get_ident(), range(6), limit=4)
        assert ran_on == [caller] * 6


def test_stress_every_item_runs_once_and_the_pin_unwinds(workers):
    """More threads than cores and a short switch interval, so a lost update would show."""
    workers(4)
    ran = []
    blas = runfiles._openblas()
    before = blas[0]() if blas else None

    def task(item):
        with runfiles.one_blas_thread():  # nested inside the map's own pin
            ran.append(item)
            return 2 * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.perf_counter() + 2.0
        while time.perf_counter() < deadline:
            ran.clear()
            assert runfiles.map_in_threads(task, range(500)) == [2 * i for i in range(500)]
            assert sorted(ran) == list(range(500))
            if blas:
                assert blas[0]() == before
    finally:
        sys.setswitchinterval(interval)


def test_rounds_inside_instances_free_their_draws(workers):
    """A round run while every helper is busy with instances leaves nothing behind in the pool."""
    workers(2)
    n = 8
    x = np.full(n, 0.9, dtype=np.float32)
    sampler = _uniform_sampler(n)
    alive = []

    def instance(i):
        rng = np.random.default_rng(i)
        for _ in range(10):
            base = sampler.draw(rng, 3 * INFER_CHUNK // (2 * n))  # three groups
            kept, _ = kept_counts(_threshold_model, x, base, 1, np.arange(n))
            assert kept is not None
            freed = weakref.ref(base)
            del base
            alive.append(freed() is not None)
        return i

    assert runfiles.map_in_threads(instance, range(4), limit=2) == list(range(4))
    assert len(alive) == 40 and not any(alive)
    assert runfiles._idle == 1


_NESTED = """
import json, sys, time
import numpy as np
from sennap import runfiles
from sennap.model import INFER_CHUNK
from sennap.posthoc import AnchorConfig, greedy_anchor_search
from sennap.selfexplain import SAMPLE_UNIFORM, FeatureSampler

runfiles.thread_workers = lambda: 2  # the caller and one helper, whatever the CPU count
n = 6
sampler = FeatureSampler(np.full(n, SAMPLE_UNIFORM, dtype=np.int8),
                         np.zeros(n, dtype=np.float32), np.ones(n, dtype=np.float32))
config = AnchorConfig(precision_threshold=1.0, n_samples=3 * INFER_CHUNK // (2 * n),
                      timeout_s=60.0, seed=2)

def predict(X):
    time.sleep(0.005)
    return (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)

def solve(i):
    x = np.full(n, 0.9, dtype=np.float32)
    return greedy_anchor_search(predict, x, config, sampler, np.random.default_rng(i))

results = runfiles.map_in_threads(solve, range(4), limit=2)
print(json.dumps([[r.status, list(r.indices), r.rounds] for r in results]))
"""


def test_nested_maps_finish_on_one_helper():
    """Instances on the caller and the one helper, each running rounds that use the pool too.

    It runs in its own process, so a deadlock fails the test at the timeout
    instead of hanging the run on threads that can never be joined.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(runfiles.__file__).resolve().parents[1])}
    try:
        done = subprocess.run([sys.executable, "-c", _NESTED], env=env, capture_output=True,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("nested maps deadlocked")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [["found", [0, 1], 2]] * 4


def test_first_failure_in_item_order_is_raised(workers):
    workers(2)
    done = []

    def task(item):
        time.sleep(0.01)
        if item in (3, 5):
            raise ValueError(item)
        done.append(item)
        return item

    with pytest.raises(ValueError, match="3"):
        runfiles.map_in_threads(task, range(20))
    assert set(range(3)) <= set(done) and max(done) < 8


class _ItemFailed(Exception):
    pass


@contextlib.contextmanager
def _fresh_pool(w: int):
    """The `workers` fixture for one example: W = `w`, with its W - 1 helpers started and idle."""
    saved = runfiles.thread_workers, runfiles._pool, runfiles._idle
    runfiles.thread_workers = lambda: w
    runfiles._pool, runfiles._idle = None, 0
    if w > 1:  # at W = 1 no map starts the pool
        runfiles._take_helpers(0)
    try:
        yield
    finally:
        if runfiles._pool is not None:
            runfiles._pool.shutdown(wait=True)
        runfiles.thread_workers, runfiles._pool, runfiles._idle = saved


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 12),
    w=st.integers(1, 3),
    limit=st.sampled_from([None, 1, 2, 3]),
    stop_after=st.one_of(st.none(), st.integers(0, 12)),
    data=st.data(),
)
def test_map_in_threads_starts_a_prefix_once_and_frees_its_helpers(n, w, limit, stop_after, data):
    failing = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()), "failing")
    nested = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()), "nested")
    lock = threading.Lock()
    runs = collections.Counter()
    allowed = 0

    def stop():  # asked under the map's lock, once before each start
        nonlocal allowed
        if allowed == stop_after:
            return True
        allowed += 1
        return False

    def fn(i):
        with lock:
            runs[i] += 1
        time.sleep(0.001 * (i % 3))
        if i in nested:
            inner = runfiles.map_in_threads(lambda j: i + j, range(3), limit=limit)
            assert inner == [i, i + 1, i + 2]
        if i in failing:
            raise _ItemFailed(i)
        return 2 * i

    with _fresh_pool(w):
        starts = n if stop_after is None else min(n, stop_after)
        first_failure = min((i for i in failing if i < starts), default=None)
        try:
            out = runfiles.map_in_threads(fn, range(n), limit=limit,
                                          stop=None if stop_after is None else stop)
        except _ItemFailed as exc:
            assert exc.args == (first_failure,)
            assert set(range(first_failure + 1)) <= set(runs) <= set(range(starts))
            if min(w, limit or w) == 1:  # one item at a time: none starts after a failure
                assert set(runs) == set(range(first_failure + 1))
        else:
            assert first_failure is None
            assert out == [2 * i for i in range(starts)]
            assert set(runs) == set(range(starts))
        assert all(count == 1 for count in runs.values())
        assert runfiles._idle == w - 1
