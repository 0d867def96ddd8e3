"""Streamed SGD: ``_train`` hands each weight gradient to ``SGD.update``
as soon as backward finishes it (``leaf_grads_to``), instead of storing
every gradient and stepping afterwards. The result must be the same bits,
the same missing-gradient error, and a backward that updates each layer
before it runs the earlier layer's backward and frees activations on
the way."""

import weakref

import numpy as np
import pytest

from segstack import convkernels, training
from segstack.datapipe import synth_dataset
from segstack.errors import TrainingError
from segstack.nnops import cross_entropy_loss
from segstack.segnet import (ParamGroup, build_segnet, forward_parts, init_he,
                             param_groups, state_entries)
from segstack.tensor import Tensor, backward, leaf_grads_to
from segstack.training import SGD, TrainConfig, train_segnet


def mk_net(seed=4, scales=(3, 5, 7)):
    spec = build_segnet(k=5, scale="mini", in_channels=3, head_scales=scales)
    init_he(spec, seed=seed)
    return spec


def dataset(n=6, size=40):
    tiles = synth_dataset(seed=2, n_tiles=n, size=size)
    return [(irrg.data, labels) for irrg, _, labels in tiles]


def reference_train(spec, data, cfg):
    """``_train``'s batches and lr, stepped the unstreamed way: a plain
    ``backward(loss)`` that stores every gradient, then ``SGD.step``."""
    opt = SGD(param_groups(spec, cfg.lr_ratio), cfg.base_lr,
              training.MOMENTUM)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for i in range(0, len(order), cfg.batch_size):
            batch = [data[j] for j in order[i:i + cfg.batch_size]]
            xs, labels = training._batch(
                [training._crop(rng, cfg.patch, s) for s in batch])
            logits = forward_parts(spec, xs[0], mode="train")[0]
            backward(cross_entropy_loss(logits, labels))
            opt.step()


def test_streamed_run_matches_stored_gradient_loop(tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2, seed=3, patch=32, lr_ratio=0.5)
    data = dataset()
    streamed, reference = mk_net(), mk_net()
    train_segnet(streamed, data, cfg, tmp_path)
    reference_train(reference, data, cfg)
    rows = state_entries(streamed)
    assert any(name.endswith("running_mean") for name, _, _ in rows)
    for (name, got, _), (_, want, _) in zip(rows, state_entries(reference)):
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_streamed_run_still_reports_missing_gradient(tmp_path):
    spec = mk_net()
    stray = Tensor(np.zeros(3, np.float32), requires_grad=True)
    groups = param_groups(spec) + [ParamGroup("stray", 1.0,
                                              [("stray.weight", stray)])]
    cfg = TrainConfig(epochs=1, batch_size=2, seed=1, patch=32)
    with pytest.raises(TrainingError, match="missing gradient on stray.weight"):
        train_segnet(spec, dataset(n=2, size=32), cfg, tmp_path,
                     groups=groups)


def test_train_updates_every_parameter_inside_backward(tmp_path,
                                                       monkeypatch):
    spec = mk_net()
    trainable = {id(t) for g in param_groups(spec) for _, t in g.params}
    in_backward, updates = [False], []
    real_backward, real_update = training.backward, SGD.update

    def spy_backward(loss):
        in_backward[0] = True
        real_backward(loss)
        in_backward[0] = False

    def spy_update(self, t, grad):
        updates.append((id(t), in_backward[0]))
        real_update(self, t, grad)

    monkeypatch.setattr(training, "backward", spy_backward)
    monkeypatch.setattr(SGD, "update", spy_update)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=1, patch=32)
    train_segnet(spec, dataset(n=4, size=32), cfg, tmp_path)
    assert len(updates) == 2 * len(trainable)  # two steps
    assert {i for i, _ in updates} == trainable
    assert all(inside for _, inside in updates)


def test_each_layer_updates_before_earlier_backward(monkeypatch):
    spec = mk_net(scales=(3,))
    units = [u for block in spec.enc_blocks + spec.dec_blocks for u in block]
    assert len(units) >= 2
    unit_of = {id(u.params.weight.data): u.name for u in units}
    events, activations, dead_at_first_unit = [], [], []
    real_forward = convkernels.conv_forward
    real_backward = convkernels.conv_backward
    real_update = SGD.update

    def spy_forward(x, *args, **kwargs):
        activations.append(weakref.ref(x))  # a conv input: an activation
        return real_forward(x, *args, **kwargs)

    def spy_backward(x, w, *args, **kwargs):
        if id(w) in unit_of:
            events.append(("backward", unit_of[id(w)]))
        return real_backward(x, w, *args, **kwargs)

    def spy_update(self, t, grad):
        if id(t.data) in unit_of:
            events.append(("update", unit_of[id(t.data)]))
            if unit_of[id(t.data)] == units[0].name:
                dead_at_first_unit.append([r() is None for r in activations])
        real_update(self, t, grad)

    monkeypatch.setattr(convkernels, "conv_forward", spy_forward)
    monkeypatch.setattr(convkernels, "conv_backward", spy_backward)
    monkeypatch.setattr(SGD, "update", spy_update)
    tiles = dataset(n=2, size=32)
    x = Tensor(np.stack([t[0] for t in tiles]))
    labels = np.stack([t[1] for t in tiles])
    loss = cross_entropy_loss(forward_parts(spec, x, mode="train")[0],
                              labels)
    opt = SGD(param_groups(spec), base_lr=0.01, momentum=0.9)
    with leaf_grads_to(opt.update):
        backward(loss)
    opt.step()

    for earlier, later in zip(units, units[1:]):
        assert (events.index(("update", later.name))
                < events.index(("backward", earlier.name))), later.name
    # by the time the first layer's weight is stepped, every activation a
    # conv read (the network input's channels-last copy included) is freed
    assert len(activations) >= len(units)
    assert dead_at_first_unit == [[True] * len(activations)]
