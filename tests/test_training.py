import json
import os

import numpy as np
import pytest

from segstack import tenio, tensor, training
from segstack.datapipe import synth_dataset
from segstack.errors import (CheckpointError, ConfigError, DivergenceError,
                             FormatError, TrainingError)
from segstack.fusion import make_corrector, init_corrector
from segstack.multikernel import branch_outputs, multikernel_loss
from segstack.nnops import cross_entropy_loss
from segstack.segnet import (ParamGroup, build_segnet, forward_parts,
                             init_he, load_checkpoint, named_parameters,
                             param_groups, save_checkpoint, state_entries)
from segstack.tensor import (Tensor, backward, hold_step, leaf_grads_to,
                             no_grad, pending_steps, value)
from segstack.training import (SGD, TrainConfig, _LastGoodGuard,
                               corrector_entries, fusion_pixel_accuracy,
                               load_corrector, load_fusion_run, load_run,
                               measure_fusion_stats, pixel_accuracy,
                               train_fusion, train_segnet)


def small_dataset(seed=1, n=6, size=32):
    tiles = synth_dataset(seed=seed, n_tiles=n, size=size)
    return [(irrg.data, labels) for irrg, _, labels in tiles]


def triple_dataset(seed=1, n=6, size=32):
    tiles = synth_dataset(seed=seed, n_tiles=n, size=size)
    return [(irrg.data, comp.data, labels) for irrg, comp, labels in tiles]


def small_net(seed=7, in_channels=3, scales=(3,)):
    spec = build_segnet(k=5, scale="mini", in_channels=in_channels,
                        head_scales=scales)
    init_he(spec, seed=seed)
    return spec


def snapshot(spec):
    return {name: t.data.copy() for name, t, _ in named_parameters(spec)}


class TestSGD:
    def test_single_step_no_momentum(self):
        spec = small_net()
        before = snapshot(spec)
        grads = {}
        rng = np.random.default_rng(3)
        for name, t, _ in named_parameters(spec):
            g = rng.standard_normal(t.shape).astype(t.dtype)
            t.grad = g
            grads[name] = g
        SGD(param_groups(spec), base_lr=0.1, momentum=0.0).step()
        for name, t, _ in named_parameters(spec):
            expected = before[name] - np.float32(0.1) * grads[name]
            np.testing.assert_array_equal(t.data, expected)

    def test_two_steps_match_momentum_recurrence(self):
        spec = small_net()
        opt = SGD(param_groups(spec), base_lr=0.05, momentum=0.9)
        rng = np.random.default_rng(4)
        params = named_parameters(spec)
        g1 = {n: rng.standard_normal(t.shape).astype(t.dtype)
              for n, t, _ in params}
        g2 = {n: rng.standard_normal(t.shape).astype(t.dtype)
              for n, t, _ in params}
        expect = {}
        for name, t, _ in params:
            p = t.data.copy()
            v = np.zeros_like(p)
            for g in (g1[name], g2[name]):
                v = 0.9 * v
                v = v + g
                p = p - 0.05 * v
            expect[name] = p
        for name, t, _ in params:
            t.grad = g1[name]
        opt.step()
        for name, t, _ in params:
            t.grad = g2[name]
        opt.step()
        for name, t, _ in params:
            np.testing.assert_array_equal(t.data, expect[name], err_msg=name)

    def test_missing_grad_raises(self):
        spec = small_net()
        for name, t, _ in named_parameters(spec):
            t.grad = np.zeros(t.shape, t.dtype)
        named_parameters(spec)[3][1].grad = None
        with pytest.raises(TrainingError, match="missing gradient"):
            SGD(param_groups(spec), 0.01, 0.9).step()

    def test_frozen_group_is_skipped(self):
        spec = small_net()
        before = snapshot(spec)
        groups = param_groups(spec, ratio=0.0)
        opt = SGD(groups, 0.5, 0.9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            for name, t, _ in named_parameters(spec):
                t.grad = rng.standard_normal(t.shape).astype(t.dtype)
            opt.step()
        for name, t, grp in named_parameters(spec):
            if grp == "encoder":
                np.testing.assert_array_equal(t.data, before[name])
            else:
                assert not np.array_equal(t.data, before[name])

    def test_frozen_params_get_no_velocity(self):
        spec = small_net()
        opt = SGD(param_groups(spec, ratio=0.0), 0.1, 0.9)
        frozen = {id(t) for n, t, g in named_parameters(spec)
                  if g == "encoder"}
        assert frozen.isdisjoint(opt._vel.keys())

    def test_multiplier_half_scales_update_exactly(self):
        specs = []
        for ratio in (1.0, 0.5):
            spec = small_net()
            for _, t, _ in named_parameters(spec):
                t.data[...] = 0
            rng = np.random.default_rng(6)
            for _, t, _ in named_parameters(spec):
                t.grad = rng.standard_normal(t.shape).astype(t.dtype)
            SGD(param_groups(spec, ratio), 0.01, 0.9).step()
            specs.append(spec)
        full, half = specs
        for (n, tf, g), (_, th, _) in zip(named_parameters(full),
                                          named_parameters(half)):
            if g == "encoder":
                np.testing.assert_array_equal(th.data,
                                              tf.data * np.float32(0.5))
            else:
                np.testing.assert_array_equal(th.data, tf.data)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert training.MOMENTUM == 0.9 and cfg.base_lr == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"base_lr": 0.0},
        {"base_lr": -0.1},
        {"lr_ratio": -0.5},
        {"base_lr": float("-inf")},
        {"lr_ratio": float("-inf")},
        {"epochs": 0},
        {"batch_size": 0},
        {"patch": 0},
        {"epochs": -3},
        {"batch_size": -1},
        {"plateau_patience": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"seed": -1}, "seed"),
        ({"base_lr": float("nan")}, "base_lr"),
        ({"base_lr": float("inf")}, "base_lr"),
        ({"lr_ratio": float("nan")}, "lr_ratio"),
        ({"lr_ratio": float("inf")}, "lr_ratio"),
    ])
    def test_rejects_negative_seed_and_non_finite_rates(self, kwargs, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            TrainConfig(**kwargs)


class TestTrainSegnet:
    def test_manifest_and_checkpoint_layout(self, tmp_path):
        spec = small_net()
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1, patch=32)
        manifest = train_segnet(spec, small_dataset(), cfg, tmp_path)
        assert manifest["status"] == "complete"
        assert len(manifest["epochs"]) == 2
        for entry in manifest["epochs"]:
            assert set(entry) == {"epoch", "loss", "accuracy", "lr"}
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["config"]["base_lr"] == 0.01
        assert (tmp_path / "checkpoint" / "index.txt").exists()
        # no timestamps and no absolute paths anywhere in the manifest
        text = (tmp_path / "manifest.json").read_text()
        assert "time" not in text and str(tmp_path) not in text

    def test_loss_decreases_on_tiny_problem(self, tmp_path):
        spec = small_net()
        cfg = TrainConfig(epochs=6, batch_size=3, seed=2, patch=32)
        manifest = train_segnet(spec, small_dataset(), cfg, tmp_path)
        losses = [e["loss"] for e in manifest["epochs"]]
        assert losses[-1] < losses[0]

    def test_identical_runs_are_bit_identical(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            spec = small_net(seed=9)
            cfg = TrainConfig(epochs=2, batch_size=2, seed=5, patch=32)
            d = tmp_path / run
            train_segnet(spec, small_dataset(seed=2, n=4), cfg, d)
            outs.append(d)
        a, b = outs
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()
        files_a = sorted(os.listdir(a / "checkpoint"))
        assert files_a == sorted(os.listdir(b / "checkpoint"))
        for fname in files_a:
            assert (a / "checkpoint" / fname).read_bytes() == \
                (b / "checkpoint" / fname).read_bytes(), fname

    def test_seed_changes_trajectory(self, tmp_path):
        losses = []
        for seed in (1, 2):
            spec = small_net(seed=9)
            cfg = TrainConfig(epochs=2, batch_size=2, seed=seed, patch=32)
            m = train_segnet(spec, small_dataset(seed=2, n=4), cfg,
                             tmp_path / str(seed))
            losses.append([e["loss"] for e in m["epochs"]])
        assert losses[0] != losses[1]

    def test_folded_head_step_matches_branch_reference(self):
        """The folded head in forward_parts and the per-branch reference
        (branch_outputs + multikernel_loss) are one function up to float
        rounding: one SGD step gives the same loss and the same update."""
        data = small_dataset(seed=3, n=4)
        x = Tensor(np.stack([d[0] for d in data]))
        labels = np.stack([d[1] for d in data])
        losses, params = [], []
        for folded in (True, False):
            spec = small_net(seed=3, scales=(3, 5, 7))
            logits, feats = forward_parts(spec, x, mode="train")
            loss = (cross_entropy_loss(logits, labels) if folded else
                    multikernel_loss(branch_outputs(spec.head, feats), labels))
            losses.append(float(loss.item()))
            backward(loss)
            SGD(param_groups(spec), base_lr=0.01, momentum=0.9).step()
            params.append(snapshot(spec))
        assert abs(losses[0] - losses[1]) < 1e-6
        for name, folded in params[0].items():
            np.testing.assert_allclose(folded, params[1][name], rtol=0,
                                       atol=1e-6, err_msg=name)

    def test_ratio_zero_keeps_encoder_fixed_through_run(self, tmp_path):
        spec = small_net(seed=5)
        before = snapshot(spec)
        cfg = TrainConfig(epochs=3, batch_size=3, seed=6, patch=32,
                          lr_ratio=0.0)
        train_segnet(spec, small_dataset(), cfg, tmp_path)
        for name, t, grp in named_parameters(spec):
            if grp == "encoder":
                np.testing.assert_array_equal(t.data, before[name])
        changed = [n for n, t, g in named_parameters(spec)
                   if g != "encoder" and not np.array_equal(t.data,
                                                            before[n])]
        assert changed

    def test_lr_ratio_sweep_produces_manifests(self, tmp_path):
        data = small_dataset(seed=4, n=4)
        manifests = {}
        frozen_encoder = {}
        for ratio in (1.0, 0.5, 0.1, 0.0):
            spec = small_net(seed=13)
            before = snapshot(spec)
            cfg = TrainConfig(epochs=1, batch_size=2, seed=9, patch=32,
                              lr_ratio=ratio)
            m = train_segnet(spec, data, cfg, tmp_path / str(ratio))
            manifests[ratio] = m
            if ratio == 0.0:
                frozen_encoder = {
                    n: np.array_equal(t.data, before[n])
                    for n, t, g in named_parameters(spec) if g == "encoder"}
        assert all(m["status"] == "complete" for m in manifests.values())
        assert frozen_encoder and all(frozen_encoder.values())
        losses = {r: m["epochs"][0]["loss"] for r, m in manifests.items()}
        assert len(set(losses.values())) > 1  # ratios actually differ

    def test_divergence_keeps_last_good_checkpoint(self, tmp_path):
        """The saved state must be one that demonstrably produced a finite
        loss, not merely the last epoch boundary (an epoch can end with
        finite losses after a step that already broke the parameters)."""
        spec = small_net(seed=8)
        dataset = small_dataset()
        cfg = TrainConfig(base_lr=1e8, epochs=5, batch_size=3, seed=1,
                          patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="non-finite loss"):
            train_segnet(spec, dataset, cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "diverged"
        restored = build_segnet(k=5, scale="mini", in_channels=3)
        load_checkpoint(restored, tmp_path / "checkpoint")
        for name, t, _ in named_parameters(restored):
            assert np.isfinite(t.data).all(), name
        from segstack.nnops import cross_entropy_loss
        from segstack.segnet import forward_parts
        x = Tensor(np.stack([dataset[0][0], dataset[1][0]]))
        labels = np.stack([dataset[0][1], dataset[1][1]])
        logits, _ = forward_parts(restored, x, mode="train")
        assert np.isfinite(float(cross_entropy_loss(logits, labels).item()))

    def test_first_step_divergence_keeps_initial_checkpoint(self, tmp_path):
        """A non-finite first loss leaves no snapshot to restore; the
        checkpoint must stay the initial state, not take the train-mode
        batch-norm statistics of the failed step."""
        spec = small_net(seed=8)
        initial = [arr.copy() for _, arr, _ in state_entries(spec)]
        dataset = small_dataset()
        for x, _ in dataset:
            x[0, 5, 5] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1, patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="epoch 0"):
            train_segnet(spec, dataset, cfg, tmp_path)
        restored = build_segnet(k=5, scale="mini", in_channels=3)
        load_checkpoint(restored, tmp_path / "checkpoint")
        for (name, arr, _), want in zip(state_entries(restored), initial):
            assert np.isfinite(arr).all(), name
            np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_first_step_divergence_restores_live_state(self, tmp_path):
        """The network object itself goes back to the initial state: the
        failed train-mode forward must not leave NaN batch-norm
        statistics in it."""
        spec = small_net(seed=8)
        initial = [arr.copy() for _, arr, _ in state_entries(spec)]
        dataset = small_dataset()
        for x, _ in dataset:
            x[0, 5, 5] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1, patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="epoch 0"):
            train_segnet(spec, dataset, cfg, tmp_path)
        for (name, arr, _), want in zip(state_entries(spec), initial):
            assert np.isfinite(arr).all(), name
            np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_divergence_at_an_epoch_start_keeps_last_good_state(
            self, tmp_path, monkeypatch):
        """One step per epoch, so the step that diverges is the first of
        its epoch and follows an epoch-end save. The checkpoint and the
        live state must both be the state the last backward started from,
        not the state that epoch-end save wrote."""
        spec = small_net(seed=8)
        dataset = small_dataset()
        last_good = []
        real_backward = training.backward

        def spy(loss):
            last_good[:] = [arr.copy() for _, arr, _ in state_entries(spec)]
            real_backward(loss)

        monkeypatch.setattr(training, "backward", spy)
        cfg = TrainConfig(base_lr=1e8, epochs=5, batch_size=len(dataset),
                          seed=1, patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError,
                              match="non-finite loss at epoch [1-9]"):
            train_segnet(spec, dataset, cfg, tmp_path)
        assert last_good
        restored = build_segnet(k=5, scale="mini", in_channels=3)
        load_checkpoint(restored, tmp_path / "checkpoint")
        for rows in (state_entries(restored), state_entries(spec)):
            for (name, arr, _), want in zip(rows, last_good):
                np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_patch_sampling_crops_larger_tiles(self, tmp_path):
        spec = small_net()
        cfg = TrainConfig(epochs=1, batch_size=2, seed=3, patch=32)
        manifest = train_segnet(spec, small_dataset(size=48, n=4), cfg,
                                tmp_path)
        assert manifest["status"] == "complete"

    def test_tile_smaller_than_patch_rejected(self, tmp_path):
        spec = small_net()
        cfg = TrainConfig(epochs=1, batch_size=2, seed=3, patch=64)
        with pytest.raises(ConfigError, match="smaller than patch"):
            train_segnet(spec, small_dataset(size=32), cfg, tmp_path)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            train_segnet(small_net(), [], TrainConfig(), tmp_path)

    def test_plateau_decays_lr(self, tmp_path):
        # one tile and a vanishing lr: every epoch sees the same batch and
        # produces the same loss, so the plateau rule fires each epoch
        spec = small_net()
        cfg = TrainConfig(base_lr=1e-30, epochs=4, batch_size=1, seed=1,
                          patch=32, plateau_patience=1)
        manifest = train_segnet(spec, small_dataset(n=1), cfg, tmp_path)
        lrs = [e["lr"] for e in manifest["epochs"]]
        assert lrs[0] == lrs[1] == 1e-30
        assert lrs[2] == pytest.approx(1e-31)
        assert lrs[3] == pytest.approx(1e-32)

    def test_plateau_disabled_by_default(self, tmp_path):
        spec = small_net()
        cfg = TrainConfig(base_lr=1e-30, epochs=3, batch_size=1, seed=1,
                          patch=32)
        manifest = train_segnet(spec, small_dataset(n=1), cfg, tmp_path)
        assert len({e["lr"] for e in manifest["epochs"]}) == 1


def conv_weights(spec):
    return [t for _, t, _ in named_parameters(spec) if t.ndim == 4]


class TestLastGoodGuard:
    @staticmethod
    def mutate(spec, rows):
        """What a training step does to the state: a pending SGD step on
        every conv weight, in-place writes to every other row."""
        for t in conv_weights(spec):
            assert hold_step(t.data, 1.0, np.ones_like(t.data))
        for _, arr, _ in rows:
            if arr.ndim != 4:
                arr += 1

    @staticmethod
    def state(rows):
        """Every row as the network reads it: conv weights with their
        pending steps."""
        return {name: value(arr).copy() for name, arr, _ in rows}

    def test_restore_writes_last_snapshot_into_live_arrays(self):
        """``update`` commits the pending steps and snapshots the other
        rows; ``restore`` drops the steps taken since and copies the
        snapshot back, as often as it is called."""
        spec = small_net()
        rows = state_entries(spec)
        before = self.state(rows)
        guard = _LastGoodGuard(rows)
        with pending_steps(guard.steps):
            guard.update()
            self.mutate(spec, rows)
            guard.update()
            assert not guard.steps
            want = self.state(rows)
            for name in want:  # the committed steps moved every row
                assert not np.array_equal(want[name], before[name]), name
            for _ in range(2):  # the guard's buffers must not become live
                self.mutate(spec, rows)
                assert guard.steps
                guard.restore()
                assert not guard.steps
                got = self.state(rows)
                for name, arr in want.items():
                    np.testing.assert_array_equal(got[name], arr,
                                                  err_msg=name)
        for (name, live, _), (_, now, _) in zip(rows, state_entries(spec)):
            assert now is live, name

    def test_restore_before_update_changes_nothing(self):
        """Restoring right after construction gives back the state at
        construction."""
        spec = small_net()
        rows = state_entries(spec)
        before = self.state(rows)
        guard = _LastGoodGuard(rows)
        with pending_steps(guard.steps):
            self.mutate(spec, rows)
            guard.restore()
            got = self.state(rows)
        for name, want in before.items():
            np.testing.assert_array_equal(got[name], want, err_msg=name)

    def test_copies_no_conv_weight(self):
        """On the full net the guard's buffers (biases, gamma, beta and
        batch-norm buffers) hold under 1% of the conv weights' bytes."""
        spec = build_segnet(k=5, scale="full", in_channels=3)
        guard = _LastGoodGuard(state_entries(spec))
        weight_bytes = sum(t.data.nbytes for t in conv_weights(spec))
        assert sum(buf.nbytes for buf in guard._saved) < 0.01 * weight_bytes


@pytest.fixture
def guards(monkeypatch):
    """The last-good guards that ``_train`` builds while the test runs."""
    made = []

    class Recording(_LastGoodGuard):
        def __init__(self, rows):
            super().__init__(rows)
            made.append(self)

    monkeypatch.setattr(training, "_LastGoodGuard", Recording)
    return made


class TestPendingSteps:
    """Inside ``_train`` a conv weight's SGD step stays pending until the
    next loss is finite; none may remain once ``_train`` has returned or
    raised."""

    def assert_none_pending(self, guards):
        assert len(guards) == 1
        assert not guards[0].steps
        assert tensor._modes.pending is None

    def test_guard_copies_only_rows_sgd_writes_in_place(self, tmp_path,
                                                        guards):
        spec = small_net(scales=(3, 5, 7))
        cfg = TrainConfig(epochs=1, batch_size=3, seed=1, patch=32)
        train_segnet(spec, small_dataset(), cfg, tmp_path)
        rows = state_entries(spec)
        small = sum(arr.nbytes for _, arr, _ in rows if arr.ndim != 4)
        weight_bytes = sum(t.data.nbytes for t in conv_weights(spec))
        held = sum(buf.nbytes for buf in guards[0]._saved)
        assert held == small
        assert held < 0.05 * weight_bytes  # 2.9% here, 0.19% on the full net

    def test_complete_run_commits_every_step(self, tmp_path, guards):
        """The checkpoint holds each weight's value; after the run the
        live data must equal it."""
        spec = small_net(scales=(3, 5, 7))
        cfg = TrainConfig(epochs=2, batch_size=3, seed=1, patch=32)
        train_segnet(spec, small_dataset(), cfg, tmp_path)
        self.assert_none_pending(guards)
        saved = build_segnet(k=5, scale="mini", in_channels=3,
                             head_scales=(3, 5, 7))
        load_checkpoint(saved, tmp_path / "checkpoint")
        for (name, arr, _), (_, want, _) in zip(state_entries(spec),
                                                state_entries(saved)):
            np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_divergence_drops_pending_steps(self, tmp_path, guards):
        spec = small_net(seed=8)
        cfg = TrainConfig(base_lr=1e8, epochs=5, batch_size=3, seed=1,
                          patch=32)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train_segnet(spec, small_dataset(), cfg, tmp_path)
        self.assert_none_pending(guards)

    def test_missing_gradient_applies_streamed_steps(self, tmp_path,
                                                     guards):
        """``opt.step`` raises after backward streamed every network
        gradient into SGD: the live state must be that of a plain SGD
        that applied those updates at once."""
        def stray_groups(spec):
            stray = Tensor(np.zeros(3, np.float32), requires_grad=True)
            return param_groups(spec) + [
                ParamGroup("stray", 1.0, [("stray.weight", stray)])]

        data = small_dataset(n=2)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=1, patch=32)
        spec = small_net()
        with pytest.raises(TrainingError,
                           match="missing gradient on stray.weight"):
            train_segnet(spec, data, cfg, tmp_path, groups=stray_groups(spec))
        self.assert_none_pending(guards)

        ref = small_net()
        rng = np.random.default_rng(cfg.seed)
        xs, labels = training._batch(
            [data[j] for j in rng.permutation(len(data))])
        loss = cross_entropy_loss(forward_parts(ref, xs[0], mode="train")[0],
                                  labels)
        opt = SGD(stray_groups(ref), cfg.base_lr, training.MOMENTUM)
        with leaf_grads_to(opt.update):
            backward(loss)
        for (name, got, _), (_, want, _) in zip(state_entries(spec),
                                                state_entries(ref)):
            assert got.tobytes() == want.tobytes(), name


class TestTrainFusion:
    def make_streams(self):
        # frozen streams run in eval mode, so their batchnorm statistics
        # must exist; one train-mode pass initializes them
        from segstack.segnet import forward_parts
        from segstack.tensor import no_grad
        a = small_net(seed=11, in_channels=3)
        b = small_net(seed=12, in_channels=3)
        data = triple_dataset(n=2)
        with no_grad():
            forward_parts(a, Tensor(np.stack([d[0] for d in data])),
                          mode="train")
            forward_parts(b, Tensor(np.stack([d[1] for d in data])),
                          mode="train")
        corr = make_corrector(in_channels=32, k=5)
        init_corrector(corr, seed=13)
        return a, b, corr

    def test_untrained_streams_are_rejected(self, tmp_path):
        a = small_net(seed=11)
        b = small_net(seed=12)
        corr = make_corrector(in_channels=32, k=5)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=32)
        with pytest.raises(TrainingError, match="uninitialized running"):
            train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path)

    def test_tile_smaller_than_patch_rejected(self, tmp_path):
        a, b, corr = self.make_streams()
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=64)
        with pytest.raises(ConfigError, match="smaller than patch"):
            train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path)

    def test_frozen_streams_stay_fixed(self, tmp_path):
        a, b, corr = self.make_streams()
        before_a, before_b = snapshot(a), snapshot(b)
        cfg = TrainConfig(epochs=2, batch_size=2, seed=2, patch=32)
        manifest = train_fusion(a, b, corr, triple_dataset(n=4), cfg,
                                tmp_path)
        assert manifest["status"] == "complete"
        for spec, before in ((a, before_a), (b, before_b)):
            for name, t, _ in named_parameters(spec):
                np.testing.assert_array_equal(t.data, before[name])
        # the zero-initialized final layer moved off the identity
        final = dict(corr.tensors())["corr.c2.weight"]
        assert np.abs(final.data).max() > 0

    def test_corrector_checkpoint_round_trip(self, tmp_path):
        a, b, corr = self.make_streams()
        rng = np.random.default_rng(0)
        for name, t in corr.tensors():
            t.data[...] = rng.standard_normal(t.shape).astype(t.dtype)
        save_checkpoint(tmp_path / "corr", corrector_entries(corr))
        other = make_corrector(in_channels=32, k=5)
        load_corrector(other, tmp_path / "corr")
        for (n, t), (_, u) in zip(corr.tensors(), other.tensors()):
            np.testing.assert_array_equal(t.data, u.data, err_msg=n)

    def test_corrector_load_missing_entry(self, tmp_path):
        a, b, corr = self.make_streams()
        save_checkpoint(tmp_path / "corr", corrector_entries(corr))
        os.remove(tmp_path / "corr" / "corr.c1.bias.ten")
        index = (tmp_path / "corr" / "index.txt").read_text().splitlines()
        kept = [l for l in index if "corr.c1.bias" not in l]
        (tmp_path / "corr" / "index.txt").write_text("\n".join(kept) + "\n")
        with pytest.raises(CheckpointError, match="corr.c1.bias"):
            load_corrector(make_corrector(32, 5), tmp_path / "corr")

    def test_corrector_load_unknown_entry(self, tmp_path):
        a, b, corr = self.make_streams()
        rows = training.corrector_entries(corr)
        rows.append(("enc.b1.c0.weight", np.zeros(2, np.float32), "x"))
        tenio.save_bundle(tmp_path / "corr", rows)
        fresh = make_corrector(32, 5)
        with pytest.raises(CheckpointError, match="unknown.*enc.b1.c0.weight"):
            load_corrector(fresh, tmp_path / "corr")
        for name, t in fresh.tensors():
            assert not t.data.any(), name

    def test_fusion_accuracy_and_stats_run(self, tmp_path):
        a, b, corr = self.make_streams()
        data = triple_dataset(n=4)
        acc = fusion_pixel_accuracy(a, b, corr, data)
        assert 0.0 <= acc <= 1.0
        stats, corr_mag, avg_mag = measure_fusion_stats(a, b, corr, data)
        # untrained corrector has a zero final layer: no correction at all
        assert corr_mag == 0.0
        assert stats.m_corr == 0.0 and stats.s_corr == 0.0
        assert avg_mag > 0

    def test_divergence_keeps_last_good_checkpoints(self, tmp_path,
                                                    monkeypatch):
        """checkpoint/, stream_a/ and stream_b/ must hold the state that
        produced the last finite loss: the state its backward started
        from."""
        a, b, corr = self.make_streams()
        rows = {"checkpoint": corrector_entries(corr),
                "stream_a": state_entries(a), "stream_b": state_entries(b)}
        last_good = {}
        real_backward = training.backward

        def spy(loss):
            for sub, sub_rows in rows.items():
                last_good[sub] = [arr.copy() for _, arr, _ in sub_rows]
            real_backward(loss)

        monkeypatch.setattr(training, "backward", spy)
        cfg = TrainConfig(base_lr=1e8, epochs=5, batch_size=2, seed=2,
                          patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="non-finite loss"):
            train_fusion(a, b, corr, triple_dataset(n=4), cfg, tmp_path,
                         unfreeze_streams=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "diverged"
        assert last_good
        fresh_corr = make_corrector(in_channels=32, k=5)
        load_corrector(fresh_corr, tmp_path / "checkpoint")
        loaded = {"checkpoint": corrector_entries(fresh_corr)}
        for sub in ("stream_a", "stream_b"):
            net = build_segnet(k=5, scale="mini", in_channels=3)
            load_checkpoint(net, tmp_path / sub)
            loaded[sub] = state_entries(net)
        for sub, sub_rows in loaded.items():
            for (name, arr, _), want in zip(sub_rows, last_good[sub]):
                assert np.isfinite(arr).all(), f"{sub}: {name}"
                np.testing.assert_array_equal(arr, want,
                                              err_msg=f"{sub}: {name}")

    def test_first_step_divergence_restores_live_streams(self, tmp_path):
        a, b, corr = self.make_streams()
        rows = corrector_entries(corr) + state_entries(a) + state_entries(b)
        initial = [arr.copy() for _, arr, _ in rows]
        data = triple_dataset(n=4)
        for xa, _, _ in data:
            xa[0, 5, 5] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=2, seed=2, patch=32)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="epoch 0"):
            train_fusion(a, b, corr, data, cfg, tmp_path,
                         unfreeze_streams=True)
        for (name, arr, _), want in zip(rows, initial):
            assert np.isfinite(arr).all(), name
            np.testing.assert_array_equal(arr, want, err_msg=name)

    def test_unfrozen_streams_move(self, tmp_path):
        a, b, corr = self.make_streams()
        before = snapshot(a)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=32)
        train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path,
                     unfreeze_streams=True)
        changed = [n for n, t, _ in named_parameters(a)
                   if not np.array_equal(t.data, before[n])]
        assert changed
        assert (tmp_path / "stream_a" / "index.txt").exists()


class TestRunLoaders:
    """A run written by the trainers alone, with no manifest_extra,
    reloads from its directory."""

    def test_load_run_rebuilds_the_trained_network(self, tmp_path):
        spec = small_net(seed=5, in_channels=4, scales=(3, 5))
        data = [(np.concatenate([x, x[:1]]), y) for x, y in small_dataset()]
        cfg = TrainConfig(epochs=1, batch_size=3, seed=1, patch=32)
        train_segnet(spec, data, cfg, tmp_path)
        loaded, manifest = load_run(tmp_path)
        assert manifest["status"] == "complete"
        assert manifest["in_channels"] == loaded.in_channels == 4
        assert loaded.head.scales == (3, 5)
        for (name, want, _), (_, got, _) in zip(state_entries(spec),
                                                state_entries(loaded)):
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_load_fusion_run_rebuilds_the_corrector(self, tmp_path):
        a, b, _ = TestTrainFusion().make_streams()
        corr = make_corrector(in_channels=32, k=5, hidden=8)
        init_corrector(corr, seed=13)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=32)
        train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path)
        fresh_a, fresh_b, _ = TestTrainFusion().make_streams()
        loaded = load_fusion_run(tmp_path, fresh_a, fresh_b)
        assert (loaded.in_channels, loaded.convs[0].out_channels,
                loaded.out_channels) == (32, 8, 5)
        for (name, want), (_, got) in zip(corr.tensors(), loaded.tensors()):
            np.testing.assert_array_equal(got.data, want.data, err_msg=name)
        # frozen streams: the networks passed in are left as they were
        for spec, trained in ((fresh_a, a), (fresh_b, b)):
            for (name, want, _), (_, got, _) in zip(state_entries(trained),
                                                    state_entries(spec)):
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_load_fusion_run_loads_fine_tuned_streams(self, tmp_path):
        a, b, corr = TestTrainFusion().make_streams()
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=32)
        train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path,
                     unfreeze_streams=True)
        fresh_a, fresh_b, _ = TestTrainFusion().make_streams()
        moved = [n for n, t, _ in named_parameters(fresh_a)
                 if not np.array_equal(t.data, snapshot(a)[n])]
        assert moved  # the fresh stream is not already the trained one
        load_fusion_run(tmp_path, fresh_a, fresh_b)
        for spec, trained in ((fresh_a, a), (fresh_b, b)):
            for (name, want, _), (_, got, _) in zip(state_entries(trained),
                                                    state_entries(spec)):
                np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("value", [1, "true", None])
    def test_mistyped_unfreeze_streams_is_format_error(self, tmp_path,
                                                       value):
        a, b, corr = TestTrainFusion().make_streams()
        cfg = TrainConfig(epochs=1, batch_size=2, seed=2, patch=32)
        train_fusion(a, b, corr, triple_dataset(n=2), cfg, tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "unfreeze_streams": value}))
        with pytest.raises(FormatError, match="unfreeze_streams must be"):
            load_fusion_run(tmp_path, a, b)

    def test_manifest_not_an_object_is_format_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[]")
        with pytest.raises(FormatError, match="manifest is not a JSON object"):
            load_run(tmp_path)


class TestAccuracyHelpers:
    def test_pixel_accuracy_counts_eval_argmax(self):
        spec = small_net()
        data = small_dataset(n=10)  # more than one evaluation batch
        x = Tensor(np.stack([d[0] for d in data]))
        labels = np.stack([d[1] for d in data])
        with no_grad():
            forward_parts(spec, x, mode="train")  # running statistics
            logits, _ = forward_parts(spec, x, mode="eval")
        valid = labels != 255
        want = (logits.data.argmax(axis=1) == labels)[valid].mean()
        assert pixel_accuracy(spec, data) == want

    def test_perfect_logits_give_unit_accuracy(self):
        # bypass the net: accuracy helper is exercised through a trained
        # run elsewhere; here check the pure counting on a solved problem
        from segstack.training import _batch_accuracy
        labels = np.array([[[0, 1], [2, 255]]], dtype=np.uint8)
        logits = np.zeros((1, 3, 2, 2), np.float32)
        logits[0, 0, 0, 0] = 5
        logits[0, 1, 0, 1] = 5
        logits[0, 2, 1, 0] = 5
        c, p = _batch_accuracy(logits, labels)
        assert (c, p) == (3, 3)
