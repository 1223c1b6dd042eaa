"""Training loops, determinism, checkpoint container, and the grid search."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sennap
from sennap import model
from sennap.encoding import Dataset, EncodingSpec
from sennap.errors import CheckpointError, ConfigError, TrainingError
from sennap.evaluation import accuracy
from sennap.model import INFER_CHUNK, forward_graph
from sennap.neural import backward, masked_blend, reshape
from sennap.selfexplain import FeatureSampler, senn_losses
from sennap.training import (
    CHECKPOINT_MAGIC,
    TrainConfig,
    _batch_losses,
    _evaluate_loss,
    fit,
    grid_plan,
    grid_search,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    write_manifest,
)


def _subset(data: Dataset, n: int) -> Dataset:
    return Dataset(
        x=data.x[:n],
        y_activity=data.y_activity[:n],
        y_time=data.y_time[:n],
        ids=data.ids[:n],
        prefix_lengths=data.prefix_lengths[:n],
    )


@pytest.fixture(scope="module")
def tiny_sets(toy_data):
    spec, train, val, _ = toy_data
    return spec, _subset(train, 48), _subset(val, 16)


class TestFit:
    def test_training_ce_decreases_on_toy_set(self, toy_data):
        spec, train, val, _ = toy_data
        config = TrainConfig(
            mode="baseline", learning_rate=0.002, batch_size=64,
            max_epochs=12, patience=50, seed=1,
        )
        # the training rows as the validation set: a dropout-free pass over them
        rows = _subset(train, 20)
        ckpt = fit(rows, rows, spec, config)
        ce = [h.val["ce"] for h in ckpt.history[:11]]
        nonincreasing = sum(ce[i + 1] <= ce[i] + 1e-9 for i in range(10))
        assert nonincreasing >= 8

    def test_lambda_xi_zero_matches_baseline_trajectory(self, tiny_sets):
        spec, train, val = tiny_sets
        base_cfg = TrainConfig(mode="baseline", max_epochs=6, patience=10, seed=5)
        senn_cfg = replace(base_cfg, mode="selfexplain", lam=0.0, xi=0.0)
        base = fit(train, val, spec, base_cfg)
        senn = fit(train, val, spec, senn_cfg)
        assert accuracy(base.params, val) == accuracy(senn.params, val)
        senn_params = dict(senn.params.named_parameters())
        for name, p in base.params.named_parameters():
            np.testing.assert_array_equal(p.value, senn_params[name].value)

    def test_same_seed_byte_identical_checkpoints(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        config = TrainConfig(
            mode="selfexplain", xi=1e-5, max_epochs=4, patience=10, seed=9
        )
        paths = []
        for name in ("a.ckpt", "b.ckpt"):
            ckpt = fit(train, val, spec, config)
            path = tmp_path / name
            save_checkpoint(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_best_checkpoint_dominates_every_epoch(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="baseline", max_epochs=8, patience=10, seed=2)
        ckpt = fit(train, val, spec, config)
        recorded = [h.val["total"] for h in ckpt.history]
        assert ckpt.best_val_loss <= min(recorded)
        assert ckpt.history[ckpt.best_epoch].val["total"] == ckpt.best_val_loss

    def test_non_finite_loss_aborts_with_diagnostics(self, tiny_sets):
        spec, train, val = tiny_sets
        broken = Dataset(
            x=train.x,
            y_activity=train.y_activity,
            y_time=np.full_like(train.y_time, np.inf),
            ids=train.ids,
            prefix_lengths=train.prefix_lengths,
        )
        config = TrainConfig(mode="baseline", max_epochs=2, seed=3)
        with pytest.raises(TrainingError, match="epoch 0"):
            fit(broken, val, spec, config)

    def test_no_finite_validation_loss_raises(self, tiny_sets):
        spec, train, val = tiny_sets
        x = val.x.copy()
        x[0, 0, 0] = np.nan
        broken = replace(val, x=x)
        config = TrainConfig(mode="baseline", max_epochs=2, seed=3)
        with pytest.raises(TrainingError, match="finite validation loss"):
            fit(train, broken, spec, config)

    def test_empty_sets_rejected(self, tiny_sets):
        spec, train, val = tiny_sets
        empty = _subset(train, 0)
        with pytest.raises(TrainingError, match="nonempty"):
            fit(empty, val, spec, TrainConfig())

    def test_validation_size_leaves_training_unchanged(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="selfexplain", xi=1e-5, max_epochs=2, patience=10, seed=3)
        full = fit(train, val, spec, config)
        half = fit(train, _subset(val, len(val) // 2), spec, config)
        assert full.history[1].train == half.history[1].train

    def test_validation_loss_repeatable(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="selfexplain", xi=1e-5, max_epochs=1, seed=3)
        params = fit(train, val, spec, config).params
        sampler = FeatureSampler.fit(spec, train.x)
        first = _evaluate_loss(params, val, config, sampler)
        assert _evaluate_loss(params, val, config, sampler) == first

    def test_early_stopping_respects_patience(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="baseline", max_epochs=40, patience=2, seed=4)
        ckpt = fit(train, val, spec, config)
        assert len(ckpt.history) <= ckpt.best_epoch + 1 + config.patience + 1


def _tape_validation_loss(params, dataset, config, sampler):
    """`_evaluate_loss` through the tape, for a set of one batch: the oracle.

    `forward_graph(train=False)`, then for the faithfulness term
    `masked_blend` on the same re-seeded noise and a second `forward_graph`,
    and `senn_losses` over both.
    """
    assert len(dataset) <= 1024  # `_evaluate_loss`'s batch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(3,)))
    x = dataset.x
    B = x.shape[0]
    lam = config.lam if config.mode == "selfexplain" else 0.0
    first = forward_graph(params, x, train=False)
    masked = predicted = None
    if lam > 0.0:
        noise = sampler.draw(rng, B)
        forced = np.broadcast_to(sampler.forced_mask, (B, sampler.n_features))
        z, _ = masked_blend(first.exp_scores, x.reshape(B, -1), noise, forced, config.tau)
        masked = forward_graph(params, reshape(z, x.shape), train=False, nap_only=True).nap_logits
        predicted = np.argmax(first.nap_logits.value, axis=1)
    return senn_losses(first, masked, predicted, dataset.y_activity, dataset.y_time, lam, config.xi)[1]


def _rows(data: Dataset, n: int) -> Dataset:
    """The first `n` rows of `data` repeated end to end."""
    idx = np.arange(n) % len(data)
    return Dataset(
        x=data.x[idx],
        y_activity=data.y_activity[idx],
        y_time=data.y_time[idx],
        ids=tuple(data.ids[i] for i in idx),
        prefix_lengths=tuple(data.prefix_lengths[i] for i in idx),
    )


class TestValidationLoss:
    """`_evaluate_loss` runs on the tape-free `infer`; the tape is its oracle."""

    @pytest.mark.parametrize("mode", ["baseline", "selfexplain"])
    def test_matches_tape_oracle(self, toy_data, baseline_ckpt, senn_ckpt, mode):
        spec, train, _, _ = toy_data
        ckpt = baseline_ckpt if mode == "baseline" else senn_ckpt
        rows = _rows(train, 600)
        assert INFER_CHUNK < len(rows)
        sampler = FeatureSampler.fit(spec, train.x)
        got = _evaluate_loss(ckpt.params, rows, ckpt.config, sampler)
        want = _tape_validation_loss(ckpt.params, rows, ckpt.config, sampler)
        assert set(got) == set(want)
        if mode == "selfexplain":
            assert want["faith"] > 0.0 and want["card"] > 0.0
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-6), key

    def test_takes_no_tape(self, tiny_sets, monkeypatch):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="selfexplain", xi=1e-5, max_epochs=1, seed=3)
        params = fit(train, val, spec, config).params
        sampler = FeatureSampler.fit(spec, train.x)

        def taped(*args):
            raise AssertionError("the tape's LSTM ran")

        monkeypatch.setattr(model, "lstm_layer", taped)
        with pytest.raises(AssertionError, match="tape"):
            forward_graph(params, val.x, train=False)
        losses = _evaluate_loss(params, val, config, sampler)
        assert np.isfinite(losses["total"])

    def test_memory_below_a_training_step(self, toy_data, senn_ckpt):
        spec, train, _, _ = toy_data
        params = senn_ckpt.params.copy()
        config = senn_ckpt.config
        sampler = FeatureSampler.fit(spec, train.x)
        rng = np.random.default_rng(0)

        tracemalloc.start()
        try:
            total, _ = _batch_losses(
                params, train.x[:64], train.y_activity[:64], train.y_time[:64],
                config, sampler, rng,
            )
            backward(total)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del total
        rows = _subset(train, 256)
        tracemalloc.start()
        try:
            _evaluate_loss(params, rows, config, sampler)
            validation_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validation_peak < step_peak


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(Exception):
            TrainConfig(mode="magic")
        with pytest.raises(Exception):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(Exception):
            TrainConfig(tau=1.5)
        with pytest.raises(Exception):
            TrainConfig(xi=-1e-6)
        with pytest.raises(ConfigError, match="selfexplain"):
            TrainConfig(mode="baseline", xi=1e-9)
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "xi", "lam", "tau"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(mode="selfexplain", **{field: value})

    def test_metadata_round_trip(self):
        config = TrainConfig(mode="selfexplain", learning_rate=1e-4, xi=1e-9, seed=42)
        assert TrainConfig.from_metadata(config.to_metadata()) == config


class TestCheckpointIO:
    def test_round_trip_bit_identical(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        config = TrainConfig(mode="selfexplain", xi=1e-6, max_epochs=3, seed=11)
        ckpt = fit(train, val, spec, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == ckpt.spec
        assert loaded.config == ckpt.config
        assert loaded.best_epoch == ckpt.best_epoch
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert len(loaded.history) == len(ckpt.history)
        orig = dict(ckpt.params.named_parameters())
        for name, p in loaded.params.named_parameters():
            np.testing.assert_array_equal(p.value, orig[name].value)
        orig_buf = dict(ckpt.params.named_buffers())
        for name, buf in loaded.params.named_buffers():
            np.testing.assert_array_equal(buf, orig_buf[name])

    def test_resaved_checkpoint_is_byte_identical(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(max_epochs=2, seed=12))
        first = tmp_path / "first.ckpt"
        second = tmp_path / "second.ckpt"
        save_checkpoint(ckpt, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(max_epochs=1, seed=13))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[len(CHECKPOINT_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(max_epochs=1, seed=14))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_non_finite_normalizer_in_metadata_rejected(self, senn_blob, tmp_path):
        _, blob = senn_blob
        start = len(CHECKPOINT_MAGIC) + 12
        (meta_len,) = struct.unpack_from("<Q", blob, start - 8)
        lines = blob[start : start + meta_len].decode("utf-8").splitlines()
        meta = "".join(
            ("mean_since_first=nan" if line.startswith("mean_since_first=") else line) + "\n"
            for line in lines
        ).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            blob[: start - 8] + struct.pack("<Q", len(meta)) + meta + blob[start + meta_len :]
        )
        with pytest.raises(CheckpointError, match="normalizer means"):
            load_checkpoint(path)


    @staticmethod
    def _sections(blob: bytes) -> dict[str, tuple[tuple[int, ...], int, int]]:
        """Walk the container: name -> (shape, header offset, payload offset), in file order."""
        (meta_len,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC) + 4)
        offset = len(CHECKPOINT_MAGIC) + 12 + meta_len
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        out = {}
        for _ in range(count):
            start = offset
            (name_len,) = struct.unpack_from("<H", blob, offset)
            name = blob[offset + 2 : offset + 2 + name_len].decode("utf-8")
            offset += 2 + name_len
            rank = blob[offset]
            shape = struct.unpack_from(f"<{rank}I", blob, offset + 1)
            offset += 1 + 4 * rank
            out[name] = (shape, start, offset)
            offset += 4 * int(np.prod(shape))
        return out

    def test_lstm_weights_stored_per_gate(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(max_epochs=1, seed=15))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        sections = self._sections(bytes(blob))
        names = list(sections)
        gates = "fico"

        def read(name):
            shape, _, at = sections[name]
            return np.frombuffer(blob, "<f4", int(np.prod(shape)), at).reshape(shape)

        for layer in ("shared1", "shared2", "act_lstm", "time_lstm"):
            expected = [f"{layer}.W_{g}" for g in gates] + [f"{layer}.b_{g}" for g in gates]
            start = names.index(expected[0])
            assert names[start : start + 8] == expected
            lstm = getattr(ckpt.params, layer)
            H = lstm.W.value.shape[1] // 4
            for n, g in enumerate(gates):
                cols = slice(n * H, (n + 1) * H)
                np.testing.assert_array_equal(read(f"{layer}.W_{g}"), lstm.W.value[:, cols].T)
                np.testing.assert_array_equal(read(f"{layer}.b_{g}"), lstm.b.value[cols])

        shape, _, at = sections["shared1.W_i"]
        known = np.arange(np.prod(shape), dtype="<f4").reshape(shape) / 1000
        blob[at : at + known.nbytes] = known.tobytes()
        path.write_bytes(bytes(blob))
        W = load_checkpoint(path).params.shared1.W.value
        H = shape[0]
        np.testing.assert_array_equal(W[:, H : 2 * H].T, known)
        np.testing.assert_array_equal(W[:, :H], ckpt.params.shared1.W.value[:, :H])
        np.testing.assert_array_equal(W[:, 2 * H :], ckpt.params.shared1.W.value[:, 2 * H :])

    def test_corrupt_header_ends_in_checkpoint_error(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(max_epochs=1, seed=16))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        first = list(self._sections(blob).values())[:3]
        # the fixed header (magic, version, metadata length), the section count
        # and the first three section headers
        header = list(range(len(CHECKPOINT_MAGIC) + 12))
        header += range(first[0][1] - 4, first[0][1])
        for _, start, payload in first:
            header += range(start, payload)
        variants = []
        for at in header:
            variants.append(blob[:at])
            for mask in (0x01, 0x80, 0xFF):
                variants.append(blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :])
        for variant in variants:
            path.write_bytes(variant)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass

    @pytest.fixture(scope="class")
    def senn_blob(self, tiny_sets, tmp_path_factory):
        spec, train, val = tiny_sets
        ckpt = fit(train, val, spec, TrainConfig(mode="selfexplain", max_epochs=1, seed=17))
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(ckpt, path)
        return path, path.read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cut_or_flipped_checkpoint_loads_or_raises(self, senn_blob, data):
        path, blob = senn_blob
        sections = list(self._sections(blob).values())
        starts = [start for _, start, _ in sections] + [len(blob)]
        regions = {  # the metadata range ends with the section count
            "metadata": [(len(CHECKPOINT_MAGIC) + 12, starts[0])],
            "section header": [(start, payload) for _, start, payload in sections],
            "payload": [(payload, end) for (_, _, payload), end in zip(sections, starts[1:])],
        }
        kind = data.draw(st.sampled_from(["cut", *regions]))
        if kind == "cut":
            variant = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            lo, hi = data.draw(st.sampled_from(regions[kind]))
            at = data.draw(st.integers(lo, hi - 1))
            flipped = blob[at] ^ data.draw(st.integers(1, 255))
            variant = blob[:at] + bytes([flipped]) + blob[at + 1 :]
        path.write_bytes(variant)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


class TestGridSearch:
    def test_plan_cardinalities(self):
        assert len(grid_plan("full")) == 30
        assert len(grid_plan("small")) == 10
        xis = {xi for _, xi in grid_plan("small")}
        assert xis == {1e-9, 1e-10}

    def test_single_cell_grid_selects_that_cell(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(max_epochs=2, patience=5, seed=21)
        result, best = grid_search(
            train, val, spec, config,
            grid=((0.002,), (1e-6,)),
            selection_limit=4, n_samples=10,
        )
        assert len(result.cells) == 1
        assert result.selected is result.cells[0]
        assert best.config.learning_rate == 0.002
        assert best.config.xi == 1e-6

    def test_reproducible_under_fixed_seed(self, tiny_sets):
        spec, train, val = tiny_sets
        config = TrainConfig(max_epochs=2, patience=5, seed=22)

        def run():
            return grid_search(
                train, val, spec, config,
                grid=((0.002, 0.01), (1e-9,)),
                selection_limit=4, n_samples=10,
            )

        first, _ = run()
        second, _ = run()
        assert first.cells == second.cells
        assert first.selected == second.selected

    def test_cell_without_finite_validation_loss_recorded_as_failed(self, tiny_sets):
        # one Adam step at lr 1e30 overflows the weights; with a single epoch
        # the training loss stays finite and only the validation loss is NaN
        spec, train, val = tiny_sets
        config = TrainConfig(max_epochs=1, batch_size=64, seed=21)
        with np.errstate(over="ignore", invalid="ignore"):
            result, best = grid_search(
                train, val, spec, config,
                grid=((0.002, 1e30), (1e-9,)),
                selection_limit=4, n_samples=10,
            )
        ok, failed = result.cells
        assert ok.status == "ok"
        assert failed.status == "failed"
        assert "finite validation loss" in failed.error
        assert result.selected is ok
        assert best.config.learning_rate == 0.002

    def test_empty_selection_set_rejected_before_training(self, tiny_sets):
        spec, train, val = tiny_sets
        with pytest.raises(ConfigError, match="selection"):
            grid_search(
                train, val, spec, TrainConfig(max_epochs=1, seed=21),
                grid=((0.002,), (1e-6,)), selection_set=_subset(val, 0),
            )

    def test_store_directory_created_and_selected_cell_stored(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        store = tmp_path / "not" / "there"
        result, best = grid_search(
            train, val, spec, TrainConfig(max_epochs=1, seed=21),
            grid=((0.002, 0.01), (1e-6,)), selection_limit=4, n_samples=10,
            checkpoint_dir=store,
        )
        files = sorted(store.iterdir())
        assert [f.suffix for f in files] == [".ckpt", ".ckpt"]
        save_checkpoint(best, tmp_path / "selected.ckpt")
        assert (tmp_path / "selected.ckpt").read_bytes() in {f.read_bytes() for f in files}
        assert result.selected.learning_rate == best.config.learning_rate

    def test_no_child_process_or_environment_change_is_left(self, tiny_sets, tmp_path):
        spec, train, val = tiny_sets
        config = TrainConfig(max_epochs=1, batch_size=64, seed=21)
        environ = dict(os.environ)
        # one cell fails and the search returns, then every cell fails and it raises
        result, _ = grid_search(
            train, val, spec, config, grid=((0.002, 1e30), (1e-9,)),
            selection_limit=4, n_samples=10, checkpoint_dir=tmp_path,
        )
        assert [c.status for c in result.cells] == ["ok", "failed"]
        assert multiprocessing.active_children() == []
        with pytest.raises(TrainingError, match="every grid cell failed"):
            grid_search(
                train, val, spec, config, grid=((1e30,), (1e-9,)),
                selection_limit=4, n_samples=10, checkpoint_dir=tmp_path,
            )
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ
        # failed cells are not stored
        assert len(list(tmp_path.glob("*.ckpt"))) == 1

    def test_small_grid_after_full_grid_trains_no_cell(self, toy_data, tmp_path):
        spec, train, val, _ = toy_data
        train, val = _subset(train, 10), _subset(val, 4)
        config = TrainConfig(max_epochs=1, patience=1, seed=6)

        def small(store):
            lines = []
            result, best = grid_search(
                train, val, spec, config, grid="small", selection_limit=2, n_samples=4,
                checkpoint_dir=store, log=lines.append,
            )
            return result, best, lines

        store = tmp_path / "cells"
        grid_search(train, val, spec, config, grid="full", selection_limit=2, n_samples=4,
                    checkpoint_dir=store)
        assert len(list(store.glob("*.ckpt"))) == 30
        result, best, lines = small(store)
        assert len(lines) == 10 and all(line.endswith(" (stored)") for line in lines)

        fresh_result, fresh_best, fresh_lines = small(tmp_path / "fresh")
        assert not any(line.endswith(" (stored)") for line in fresh_lines)
        assert result.cells == fresh_result.cells
        assert result.selected == fresh_result.selected
        fresh = {f.name: f.read_bytes() for f in (tmp_path / "fresh").glob("*.ckpt")}
        assert {name: (store / name).read_bytes() for name in fresh} == fresh

        # a truncated cell is trained again and replaced by the same bytes
        damaged = store / sorted(fresh)[3]
        damaged.write_bytes(fresh[damaged.name][:1000])
        again, _, lines = small(store)
        assert sum(not line.endswith(" (stored)") for line in lines) == 1
        assert again.cells == fresh_result.cells
        assert damaged.read_bytes() == fresh[damaged.name]
        assert not list(store.glob(".*.tmp"))

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_records_and_cells_do_not_depend_on_the_cpu_count(self, tmp_path):
        # each run pins its own process before numpy loads, so its BLAS and its
        # pool both see one or two CPUs.  The data has the Helpdesk log's shape
        # (14 activities, k = 15): on it, fits that use the process's own BLAS
        # threads give different checkpoint bytes under one and two CPUs
        data = tmp_path / "data.pickle"
        data.write_bytes(pickle.dumps(_helpdesk_shaped(120, 16)))
        cpus = sorted(os.sched_getaffinity(0))[:2]
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1])}
        runs = []
        for pinned in (cpus[:1], cpus):
            store = tmp_path / f"cells{len(pinned)}"
            done = subprocess.run(
                [sys.executable, "-c", _PINNED_GRID, repr(pinned), str(data), str(store)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert done.returncode == 0, done.stderr
            runs.append((
                done.stdout,
                {f.name: f.read_bytes() for f in store.glob("*.ckpt")},
            ))
        assert json.loads(runs[0][0])["cpus"] == 1
        assert json.loads(runs[1][0])["cpus"] == 2
        assert json.loads(runs[0][0])["cells"] == json.loads(runs[1][0])["cells"]
        assert len(runs[0][1]) == 2 and runs[0][1] == runs[1][1]

    def test_worker_dying_at_start_ends_in_an_error(self, tmp_path):
        # a main module without the __main__ guard runs again in each spawned
        # worker, whose own grid search then stops it while it starts; the
        # data is larger than a pipe's buffer
        data = tmp_path / "data.pickle"
        data.write_bytes(pickle.dumps(_helpdesk_shaped(120, 16)))
        script = tmp_path / "unguarded.py"
        script.write_text(_UNGUARDED_GRID.format(data=str(data)), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(sennap.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True,
            timeout=300, cwd=tmp_path,
        )
        assert done.returncode != 0
        assert "grid worker process ended unexpectedly" in done.stderr

    def test_selection_prefers_accuracy_then_faithfulness_then_size(self):
        from sennap.training import GridCell

        cells = [
            GridCell(1e-2, 1e-5, "ok", val_accuracy=0.7, val_faithfulness=0.5, mean_size=9),
            GridCell(1e-3, 1e-6, "ok", val_accuracy=0.8, val_faithfulness=0.2, mean_size=9),
            GridCell(1e-4, 1e-7, "ok", val_accuracy=0.8, val_faithfulness=0.4, mean_size=9),
            GridCell(1e-5, 1e-8, "ok", val_accuracy=0.8, val_faithfulness=0.4, mean_size=5),
        ]
        ordered = sorted(
            enumerate(cells),
            key=lambda item: (
                -item[1].val_accuracy,
                -item[1].val_faithfulness,
                item[1].mean_size,
            ),
        )
        assert ordered[0][0] == 3


def _helpdesk_shaped(n_train: int, n_val: int):
    """(spec, train, validation) of random rows with the Helpdesk log's shape."""
    spec = EncodingSpec(tuple(f"a{i}" for i in range(14)), 15, 1.0, 1.0)
    rng = np.random.default_rng(0)

    def rows(n):
        return Dataset(
            rng.random((n, spec.k, spec.width), dtype=np.float32),
            rng.integers(0, spec.vocab_size + 1, n), rng.random(n, dtype=np.float32),
            [f"i{i}" for i in range(n)], [spec.k] * n,
        )

    return spec, rows(n_train), rows(n_val)


_PINNED_GRID = """
import json, os, pickle, sys
os.sched_setaffinity(0, eval(sys.argv[1]))
from sennap.training import TrainConfig, grid_search
spec, train, val = pickle.loads(open(sys.argv[2], "rb").read())
result, _ = grid_search(
    train, val, spec, TrainConfig(max_epochs=1, seed=23),
    grid=((0.002, 0.01), (1e-9,)), selection_limit=4, n_samples=10,
    checkpoint_dir=sys.argv[3],
)
print(json.dumps({"cpus": len(os.sched_getaffinity(0)),
                  "cells": [c.to_record() for c in result.cells]}))
"""

_UNGUARDED_GRID = """
import pickle
from sennap.training import TrainConfig, grid_search
spec, train, val = pickle.loads(open({data!r}, "rb").read())
grid_search(train, val, spec, TrainConfig(max_epochs=1, seed=23),
            grid=((0.002,), (1e-9,)), selection_limit=4, n_samples=10)
"""


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"seed": 7, "mean": repr(1.25), "name": "toy"})
        loaded = read_manifest(path)
        assert loaded == {"seed": "7", "mean": "1.25", "name": "toy"}
