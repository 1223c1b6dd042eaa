"""Tape-free inference on a reused workspace: same bits, bounded memory, one per thread.

`oracles.lstm_prefix_forward_allocating` and `oracles.infer_allocating` are
the kernel and pass that allocate every buffer per call and keep the (N, H)
cell state; the package's must give their bits on every layer and head.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sennap import model
from sennap.model import INFER_CHUNK, infer, infer_weights, init_model, make_predictor, prefix_tree
from sennap.neural import LSTMWorkspace, batch_norm_infer, lstm_prefix_forward
from sennap.posthoc import extension_counts
from sennap.selfexplain import SAMPLE_ACTIVITY, SAMPLE_INDEX, SAMPLE_UNIFORM, FeatureSampler

from oracles import infer_allocating, lstm_prefix_forward_allocating

# the benchmark's shape: 14 activities, k = 15, 285 features per instance
VOCAB, K = 14, 15
WIDTH = VOCAB + 5
N_FEATURES = K * WIDTH
H = model.HIDDEN_SIZE


def _spread_model(dtype, seed=11):
    """A self-explaining model whose logits spread over several classes."""
    params = init_model(VOCAB, K, selfexplain=True, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for _, p in params.named_parameters():
        p.value = p.value + rng.normal(0, 0.5, p.value.shape).astype(dtype)
    for name, buf in params.named_buffers():
        if name.endswith("running_var"):
            buf[...] = rng.uniform(0.2, 0.5, buf.shape)
        else:
            buf[...] = rng.normal(0, 0.2, buf.shape)
    return params


def _sampler():
    kinds = np.tile(
        np.array([SAMPLE_ACTIVITY] * VOCAB + [SAMPLE_INDEX] + [SAMPLE_UNIFORM] * 4, np.int8), K
    )
    hi = np.ones(N_FEATURES, np.float32)
    hi[VOCAB::WIDTH] = K
    return FeatureSampler(kinds=kinds, lo=np.zeros(N_FEATURES, np.float32), hi=hi)


def _instance(rng, length):
    """One left-padded encoded prefix of `length` events, flat."""
    x = np.zeros((K, WIDTH), np.float32)
    for t in range(K - length, K):
        x[t, rng.integers(VOCAB)] = 1.0
        x[t, VOCAB] = t + 1
        x[t, VOCAB + 1 :] = rng.random(4)
    return x.reshape(-1)


def _posthoc_rows(seed, calls=((N_FEATURES, None),)):
    """The rows of post-hoc `predict` calls, laid out by `extension_counts`.

    Each call is (free feature count, draws); draws default to what fills one
    INFER_CHUNK, as `greedy_anchor_search` sends them.
    """
    rng = np.random.default_rng(seed)
    sampler = _sampler()
    x_flat = _instance(rng, 9)
    rows = []

    def record(flat):
        rows.append(np.array(flat))
        return np.zeros(len(flat), np.int64)

    for n_free, draws in calls:
        free = np.sort(rng.choice(N_FEATURES, n_free, replace=False))
        subset = np.ones(N_FEATURES, bool)
        subset[free] = False
        g = draws or INFER_CHUNK // n_free
        base = np.where(subset, x_flat, sampler.draw(rng, g))
        extension_counts(record, x_flat, base, free, 0)
    return np.concatenate(rows).reshape(-1, K, WIDTH)


def _padded_rows(seed, n_rows):
    """Left-padded rows built from a few sources, so many share a prefix."""
    rng = np.random.default_rng(seed)
    sources = [_instance(rng, int(rng.integers(1, K + 1))).reshape(K, WIDTH) for _ in range(4)]
    rows = []
    for _ in range(n_rows):
        row = sources[rng.integers(len(sources))].copy()
        kind = rng.integers(3)
        if kind == 1:
            t = int(rng.integers(K))
            row[t + 1 :] = _instance(rng, K).reshape(K, WIDTH)[t + 1 :]
        elif kind == 2:
            pad = int(rng.integers(1, K))
            row = np.concatenate([np.zeros((pad, WIDTH), row.dtype), row[: K - pad]])
        rows.append(row)
    return np.stack(rows)


CASES = {
    # two calls: every feature free, then a free count that does not divide
    # INFER_CHUNK, with draws enough to cross into a second chunk
    "posthoc": lambda: _posthoc_rows(1, ((N_FEATURES, None), (97, 25))),
    "padded": lambda: _padded_rows(2, INFER_CHUNK + 88),
    "single": lambda: _padded_rows(3, 1),
    "empty": lambda: np.zeros((0, K, WIDTH), np.float32),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestSameBitsAsAllocatingKernel:
    def test_every_layer(self, case, dtype):
        params = _spread_model(dtype)
        x = CASES[case]().astype(dtype)
        weights = infer_weights(params, dtype, time=True)
        workspace = LSTMWorkspace()  # one for every layer and chunk, as in `infer`
        for start in range(0, max(len(x), 1), INFER_CHUNK):
            tree = prefix_tree(x[start : start + INFER_CHUNK])

            def both(inputs, name):
                args = (inputs, tree.offsets, tree.parents, weights[name])
                want = lstm_prefix_forward_allocating(*args)
                got = lstm_prefix_forward(*args, workspace=workspace)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                return want

            h2 = both(both(tree.inputs, "shared1"), "shared2")
            both(batch_norm_infer(h2, params.act_bn_in), "act_lstm")
            both(batch_norm_infer(h2, params.time_bn_in), "time_lstm")

    def test_heads(self, case, dtype):
        params = _spread_model(dtype)
        x = CASES[case]().astype(dtype)
        for kwargs in ({"time": True}, {"nap_only": True}, {}):
            want, got = infer_allocating(params, x, **kwargs), infer(params, x, **kwargs)
            for field in ("logits", "scores", "time"):
                a, b = getattr(want, field), getattr(got, field)
                assert (a is None) == (b is None), (kwargs, field)
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape, (kwargs, field)
                    assert a.tobytes() == b.tobytes(), (kwargs, field)


def test_threads_sharing_one_predictor_get_the_serial_bits(monkeypatch):
    """More threads than cores call one `make_predictor` closure at once, on different inputs."""
    params = _spread_model(np.float32)
    grids = [
        _posthoc_rows(4), _padded_rows(5, 700), _posthoc_rows(8, ((97, 25),)), _padded_rows(9, 3)
    ]
    serial = [infer_allocating(params, x, nap_only=True).logits for x in grids]
    assert len(set(np.argmax(serial[0], axis=1))) > 1  # the classes are not constant
    owner: dict[int, int] = {}
    seen: dict[int, list[np.ndarray]] = {i: [] for i in range(len(grids))}
    real_infer = model.infer

    def recording_infer(*args, **kwargs):
        out = real_infer(*args, **kwargs)
        seen[owner[threading.get_ident()]].append(out.logits)
        return out

    monkeypatch.setattr(model, "infer", recording_infer)
    predict = make_predictor(params)
    start = threading.Barrier(len(grids))
    classes: dict[int, list[np.ndarray]] = {i: [] for i in range(len(grids))}

    def run(i):
        owner[threading.get_ident()] = i
        start.wait()
        for _ in range(5):
            classes[i].append(predict(grids[i].reshape(len(grids[i]), -1)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grids))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, want in enumerate(serial):
        assert len(seen[i]) == len(classes[i]) == 5
        assert all(got.tobytes() == want.tobytes() for got in seen[i]), i
        assert all(np.array_equal(c, np.argmax(want, axis=1)) for c in classes[i]), i


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_chunk_holds_two_layer_outputs_and_step_sized_scratch():
    """Peak of one `nap_only` chunk of post-hoc rows, in units of one (N, H) layer output.

    Two layer outputs are held at a time; the scratch is sized by the widest
    step (here about 1/8 of N).  The allocating pass, with its (N, H) cell
    state and the shared stack's output kept through the act LSTM, is over 6.
    """
    params = _spread_model(np.float32)
    x = _posthoc_rows(6, ((N_FEATURES, INFER_CHUNK // N_FEATURES + 1),))[:INFER_CHUNK]
    assert len(x) == INFER_CHUNK
    unit = len(prefix_tree(x).inputs) * H * x.itemsize
    weights = infer_weights(params, np.float32)
    ours = _peak(lambda: infer(params, x, nap_only=True, weights=weights)) / unit
    theirs = _peak(lambda: infer_allocating(params, x, nap_only=True, weights=weights)) / unit
    assert ours < 5.0 < theirs, (ours, theirs)


def test_second_predict_call_of_one_shape_allocates_no_scratch(monkeypatch):
    allocations = []
    real = LSTMWorkspace._allocate

    def counting(rows, cols, dtype):
        allocations.append((rows, cols))
        return real(rows, cols, dtype)

    monkeypatch.setattr(LSTMWorkspace, "_allocate", staticmethod(counting))
    predict = make_predictor(_spread_model(np.float32))
    flat = _posthoc_rows(7).reshape(-1, N_FEATURES)
    first = predict(flat)
    assert allocations
    del allocations[:]
    np.testing.assert_array_equal(predict(flat), first)
    assert allocations == []
