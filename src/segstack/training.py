"""SGD training with per-group learning rates, run manifests, and the
desk-scale trainers for the plain, multi-kernel, branch-extension and
dual-stream fusion variants.

Every trainer runs the one loop ``_train`` over (*inputs, labels)
samples. A trainer supplies its parameter groups, its (name, array,
group) state rows, a ``forward(inputs) -> logits`` and a save function
that writes those rows to the run directory; cropping, batching, the
loss, SGD, the last-good guard, divergence handling and the manifest are
the loop's. In it SGD holds each conv weight's step pending
(``tensor.pending_steps``) until the next loss is finite; forwards and
saves read the weight as stepped (``tensor.value``).

A run directory is this module's format: the trainers write every
manifest key that ``load_run`` and ``load_fusion_run`` read back.

Determinism contract: with a fixed config (including seed) and dataset,
single-threaded runs write bit-identical manifests and checkpoints. To
keep that true the manifest holds no timestamps and only paths relative
to the run directory, and every random draw comes from one generator
seeded by the config.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import tenio
from .errors import ConfigError, DivergenceError, FormatError, TrainingError
from .fusion import (CorrectorSpec, StreamOutput, correction, fuse_average,
                     fuse_residual, fusion_stats, make_corrector)
from .inference import stream_outputs, window_map
from .nnops import IGNORE_LABEL, cross_entropy_loss, softmax_channels
from .segnet import (NetworkSpec, ParamGroup, build_segnet, forward,
                     forward_parts, load_checkpoint, param_groups,
                     restore_bundle, save_checkpoint, state_entries)
from .tensor import (Tensor, apply_steps, backward, hold_step, leaf_grads_to,
                     no_grad, pending_steps, value)

MANIFEST_NAME = "manifest.json"
CHECKPOINT_DIR = "checkpoint"
# where a fusion run that fine-tunes its streams saves them
STREAM_DIRS = ("stream_a", "stream_b")
EVAL_BATCH = 8  # samples per forward in the whole-dataset measurements


@dataclass
class TrainConfig:
    base_lr: float = 0.01
    lr_ratio: float = 1.0
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 4
    seed: int = 0
    patch: int = 64
    decay_factor: float = 0.1
    plateau_patience: int = 0  # 0 disables the plateau decay

    def __post_init__(self):
        for name, ok, bounds in (
                ("base_lr", 0 < self.base_lr < np.inf, "finite and > 0"),
                ("lr_ratio", 0 <= self.lr_ratio < np.inf, "finite and >= 0"),
                ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                ("epochs", self.epochs >= 1, "positive"),
                ("batch_size", self.batch_size >= 1, "positive"),
                ("seed", self.seed >= 0, ">= 0"),
                ("patch", self.patch >= 1, "positive"),
                ("decay_factor", 0 < self.decay_factor <= 1, "in (0, 1]"),
                ("plateau_patience", self.plateau_patience >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {bounds}, got "
                                  f"{getattr(self, name)}")


class SGD:
    """v <- momentum*v + grad; p <- p - lr_group*v, lr_group = base_lr *
    group multiplier. Groups with multiplier 0 are skipped outright, so
    frozen parameters stay bit-identical and carry no velocity.

    ``update`` applies one parameter's step (or holds a conv weight's, in
    ``tensor.pending_steps``) and is the sink ``_train`` streams gradients
    into during backward (``leaf_grads_to``). ``step`` ends the step: it
    applies the stored ``grad`` of every trainable parameter ``update``
    has not seen since the last ``step``, and clears frozen gradients."""

    def __init__(self, groups, base_lr: float, momentum: float):
        self.groups = groups
        self.base_lr = float(base_lr)
        self.momentum = float(momentum)
        self._vel = {}  # id -> (velocity, group multiplier)
        self._updated = set()
        for g in groups:
            if g.lr_multiplier == 0:
                continue
            for name, t in g.params:
                self._vel[id(t)] = (np.zeros_like(t.data), g.lr_multiplier)

    def update(self, t, grad) -> None:
        """Step trainable parameter ``t`` by ``grad``; any other tensor
        keeps ``grad`` on ``t.grad``, as a plain ``backward`` leaves it."""
        if id(t) not in self._vel:
            t.grad = grad
            return
        v, multiplier = self._vel[id(t)]
        v *= self.momentum
        v += grad
        s = self.base_lr * multiplier
        # conv weights, the only 4-D parameters, are read through value()
        if t.ndim != 4 or not hold_step(t.data, s, v):
            t.data -= s * v
        self._updated.add(id(t))

    def step(self) -> None:
        for g in self.groups:
            for name, t in g.params:
                if g.lr_multiplier != 0 and id(t) not in self._updated:
                    if t.grad is None:
                        raise TrainingError(f"missing gradient on {name}; was "
                                            "backward() run for this step?")
                    self.update(t, t.grad)
                t.grad = None
        self._updated.clear()


class _LastGoodGuard:
    """Keeps the state that produced the most recent finite loss. Epoch
    checkpoints alone are not enough: an epoch can end with finite losses
    while its final step already pushed the parameters somewhere that
    only the next forward reveals as broken.

    ``rows`` are (name, array, group) state rows whose arrays are the live
    state. Conv weights (4-D) change only by the SGD steps held in
    ``steps``; the guard copies the other rows. ``update`` commits the
    steps and copies the rows; ``restore`` drops the steps and copies the
    rows back, so the guard's buffers never become live state."""

    def __init__(self, rows):
        self.steps = {}
        self._arrays = [arr for _, arr, _ in rows if arr.ndim != 4]
        self._saved = [arr.copy() for arr in self._arrays]

    def update(self) -> None:
        apply_steps(self.steps)
        for buf, arr in zip(self._saved, self._arrays):
            np.copyto(buf, arr)

    def restore(self) -> None:
        self.steps.clear()
        for buf, arr in zip(self._saved, self._arrays):
            arr[...] = buf


def _crop(rng, patch, sample):
    """One random patch window of a (*inputs, labels) sample, shared by
    its co-registered band arrays and labels; returned in the same order."""
    h, w = sample[-1].shape
    if (h, w) == (patch, patch):
        return sample
    if h < patch or w < patch:
        raise ConfigError(f"tile {h}x{w} smaller than patch {patch}")
    top = int(rng.integers(0, h - patch + 1))
    left = int(rng.integers(0, w - patch + 1))
    return tuple(a[..., top:top + patch, left:left + patch] for a in sample)


def _batch(samples):
    """Column-stack (*inputs, labels) samples into (input tensors, labels)."""
    *xs, labels = (np.stack(col) for col in zip(*samples))
    return [Tensor(x) for x in xs], labels


def _batch_accuracy(logit_data, labels):
    pred = logit_data.argmax(axis=1)
    valid = labels != IGNORE_LABEL
    return int((pred == labels)[valid].sum()), int(valid.sum())


def _finish(out_dir, manifest, log, status) -> dict:
    """Record the epoch log and the run's status, and write the manifest."""
    manifest.update(epochs=log, status=status)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def _train(config: TrainConfig, dataset, out_dir, manifest, groups, rows,
           forward, save) -> dict:
    """The one epoch and step loop: shuffling, patch sampling, SGD on
    ``groups``, plateau decay, the last-good guard over the state
    ``rows``, divergence handling, checkpointing through ``save`` and
    the manifest write. ``forward(input tensors)`` returns the logits the
    loss scores."""
    if not dataset:
        raise ConfigError("dataset is empty")
    manifest = {"config": asdict(config), "checkpoint": CHECKPOINT_DIR,
                **manifest}
    os.makedirs(out_dir, exist_ok=True)
    opt = SGD(groups, config.base_lr, config.momentum)
    rng = np.random.default_rng(config.seed)
    save()  # params at init are the first "last good" state
    guard = _LastGoodGuard(rows)
    with pending_steps(guard.steps):
        lr = config.base_lr
        best = np.inf
        stall = 0
        log = []
        for epoch in range(config.epochs):
            order = rng.permutation(len(dataset))
            loss_sum, n_batches, correct, pixels = 0.0, 0, 0, 0
            for i in range(0, len(order), config.batch_size):
                batch = [dataset[j] for j in order[i:i + config.batch_size]]
                xs, labels = _batch([_crop(rng, config.patch, s)
                                     for s in batch])
                # overflow shows up as a non-finite loss, handled below
                with np.errstate(all="ignore"):
                    logits = forward(xs)
                    loss = cross_entropy_loss(logits, labels)
                val = float(loss.item())
                if not np.isfinite(val):
                    # the failed forward may have written train-mode batch-norm
                    # statistics into the live arrays
                    guard.restore()
                    save()
                    _finish(out_dir, manifest, log, "diverged")
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}; last good "
                        "checkpoint kept at "
                        f"{os.path.join(out_dir, CHECKPOINT_DIR)}")
                guard.update()
                opt.base_lr = lr
                with np.errstate(all="ignore"), leaf_grads_to(opt.update):
                    backward(loss)
                opt.step()
                c, p = _batch_accuracy(logits.data, labels)
                loss_sum += val
                n_batches += 1
                correct += c
                pixels += p
            mean_loss = loss_sum / n_batches
            log.append({"epoch": epoch, "loss": mean_loss,
                        "accuracy": correct / max(pixels, 1), "lr": lr})
            if config.plateau_patience:
                if mean_loss < best - 1e-9:
                    best, stall = mean_loss, 0
                else:
                    stall += 1
                    if stall >= config.plateau_patience:
                        lr *= config.decay_factor
                        stall = 0
            save()
        return _finish(out_dir, manifest, log, "complete")


def train_segnet(spec: NetworkSpec, dataset, config: TrainConfig, out_dir,
                 groups=None, manifest_extra=None) -> dict:
    """Train one network on (input, labels) pairs and write
    out_dir/checkpoint plus out_dir/manifest.json.

    ``groups`` overrides the Table-1-style encoder/decoder split (used by
    the branch-extension protocol to freeze everything but new params).
    """
    if groups is None:
        groups = param_groups(spec, config.lr_ratio)
    ckpt_dir = os.path.join(out_dir, CHECKPOINT_DIR)
    manifest = {
        "k": spec.k,
        "scale": spec.scale_name,
        "in_channels": spec.in_channels,
        "head_scales": list(spec.head.scales),
        "group_multipliers": {g.role: g.lr_multiplier for g in groups},
        **(manifest_extra or {}),
    }
    return _train(config, dataset, out_dir, manifest, groups,
                  state_entries(spec),
                  lambda xs: forward(spec, xs[0], mode="train"),
                  lambda: save_checkpoint(spec, ckpt_dir))


def corrector_entries(corr: CorrectorSpec) -> "list[tuple]":
    """(name, array, group) rows of the corrector's parameters."""
    return [(name, t.data, "corrector") for name, t in corr.tensors()]


def save_corrector(corr: CorrectorSpec, dirpath) -> None:
    tenio.save_bundle(dirpath, ((name, value(arr), group) for name, arr, group
                                in corrector_entries(corr)))


def load_corrector(corr: CorrectorSpec, dirpath) -> None:
    restore_bundle(dirpath, corrector_entries(corr), "corrector checkpoint")


def train_fusion(spec_a: NetworkSpec, spec_b: NetworkSpec,
                 corr: CorrectorSpec, dataset, config: TrainConfig, out_dir,
                 unfreeze_streams: bool = False, manifest_extra=None) -> dict:
    """Residual-correction training on (input_a, input_b, labels) triples;
    both inputs of a sample share one crop window.

    Streams run frozen in eval mode by default; the corrector is the only
    trainable part, so it starts at the averaging baseline (zero final
    layer) and learns corrections on top of it. Frozen streams therefore
    need initialized batchnorm statistics, i.e. they should come from
    trained checkpoints.
    """
    specs = (spec_a, spec_b)
    ckpt_dir = os.path.join(out_dir, CHECKPOINT_DIR)
    stream_dirs = [os.path.join(out_dir, d) for d in STREAM_DIRS]
    groups = [ParamGroup("corrector", 1.0, list(corr.tensors()))]
    rows = corrector_entries(corr)
    if unfreeze_streams:
        for tag, spec in zip("ab", specs):
            for g in param_groups(spec, config.lr_ratio):
                g.role = f"stream_{tag}.{g.role}"
                groups.append(g)
            rows += state_entries(spec)

    def forward(xs):
        if unfreeze_streams:
            streams = []
            for spec, x in zip(specs, xs):
                logits, feats = forward_parts(spec, x, mode="train")
                streams.append(StreamOutput(softmax_channels(logits), feats))
        else:
            with no_grad():
                streams = stream_outputs(specs, xs)
        return fuse_residual(streams, corr)

    def save():
        save_corrector(corr, ckpt_dir)
        if unfreeze_streams:
            for spec, path in zip(specs, stream_dirs):
                save_checkpoint(spec, path)

    manifest = {
        "k": spec_a.k,
        "variant": "fusion",
        "corrector_in": corr.in_channels,
        "hidden": corr.convs[0].out_channels,
        "unfreeze_streams": unfreeze_streams,
        **(manifest_extra or {}),
    }
    return _train(config, dataset, out_dir, manifest, groups, rows,
                  forward, save)


# ---------------------------------------------------------------------------
# Reading run directories back


def _positive_int(value) -> bool:
    return type(value) is int and value > 0  # JSON true/false are bools


_INT = (_positive_int, "a positive integer")
_STR = (lambda v: isinstance(v, str), "a string")
# (check, description) of each manifest key the loaders read
_MANIFEST_TYPES = {
    "k": _INT, "in_channels": _INT, "corrector_in": _INT, "hidden": _INT,
    "scale": _STR, "checkpoint": _STR,
    "unfreeze_streams": (lambda v: type(v) is bool, "a boolean"),
    "head_scales": (lambda v: isinstance(v, list)
                    and all(map(_positive_int, v)),
                    "a list of positive integers"),
}


def _read_manifest(run_dir, keys) -> "tuple[dict, str]":
    """A run's manifest and its checkpoint path. A missing manifest is a
    ConfigError; bad JSON, a missing one of ``keys``, a mistyped key of
    ``_MANIFEST_TYPES`` or a checkpoint path outside the run directory is
    a FormatError."""
    path = os.path.join(run_dir, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read run manifest: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON, nesting
        raise FormatError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    missing = [k for k in keys if k not in manifest]
    if missing:
        raise FormatError(f"{path}: manifest is missing {missing}")
    for key in (k for k in _MANIFEST_TYPES if k in manifest):
        check, want = _MANIFEST_TYPES[key]
        if not check(manifest[key]):
            raise FormatError(f"{path}: {key} must be {want}, got "
                              f"{manifest[key]!r}")
    ckpt = os.path.normpath(manifest["checkpoint"])
    if os.path.isabs(ckpt) or ckpt.split(os.sep)[0] == os.pardir:
        raise FormatError(f"{path}: checkpoint {manifest['checkpoint']!r} "
                          "is outside the run directory")
    return manifest, os.path.join(run_dir, ckpt)


def load_run(run_dir) -> "tuple[NetworkSpec, dict]":
    """Rebuild a trained ``train_segnet`` network from its run directory;
    returns it with the run's manifest."""
    manifest, ckpt = _read_manifest(run_dir, ("k", "scale", "in_channels",
                                              "head_scales", "checkpoint"))
    spec = build_segnet(k=manifest["k"], scale=manifest["scale"],
                        in_channels=manifest["in_channels"],
                        head_scales=tuple(manifest["head_scales"]))
    load_checkpoint(spec, ckpt)
    return spec, manifest


def load_fusion_run(run_dir, spec_a: NetworkSpec,
                    spec_b: NetworkSpec) -> CorrectorSpec:
    """Rebuild the corrector a ``train_fusion`` run trained over the
    networks ``spec_a`` and ``spec_b``. If the run fine-tuned its streams
    (``unfreeze_streams``, false when absent), their trained states are
    loaded into ``spec_a`` and ``spec_b``."""
    manifest, ckpt = _read_manifest(run_dir, ("corrector_in", "k", "hidden",
                                              "checkpoint"))
    corr = make_corrector(in_channels=manifest["corrector_in"],
                          k=manifest["k"], hidden=manifest["hidden"])
    load_corrector(corr, ckpt)
    if manifest.get("unfreeze_streams", False):
        for spec, name in zip((spec_a, spec_b), STREAM_DIRS):
            load_checkpoint(spec, os.path.join(run_dir, name))
    return corr


# ---------------------------------------------------------------------------
# Whole-dataset measurements (used by acceptance checks and the CLI)


def _eval_batches(dataset):
    """(input tensors, labels) of consecutive EVAL_BATCH-sample slices of
    a dataset of (input_1, ..., input_S, labels) samples."""
    for i in range(0, len(dataset), EVAL_BATCH):
        yield _batch(dataset[i:i + EVAL_BATCH])


def _map_accuracy(specs, corr, dataset) -> float:
    correct = pixels = 0
    with no_grad():
        for xs, labels in _eval_batches(dataset):
            c, p = _batch_accuracy(window_map(specs, corr, xs), labels)
            correct += c
            pixels += p
    return correct / max(pixels, 1)


def pixel_accuracy(spec: NetworkSpec, dataset) -> float:
    """Eval-mode accuracy over (input, labels) pairs."""
    return _map_accuracy([spec], None, dataset)


def fusion_pixel_accuracy(spec_a, spec_b, corr, dataset) -> float:
    """Eval-mode accuracy of the fused map over (input_a, input_b,
    labels) triples; ``corr`` None scores the plain average."""
    return _map_accuracy([spec_a, spec_b], corr, dataset)


def measure_fusion_stats(spec_a, spec_b, corr, dataset):
    """FusionStats over a batch of triples, plus the mean magnitudes the
    small-correction check compares."""
    avg_parts, cor_parts = [], []
    with no_grad():
        for xs, _ in _eval_batches(dataset):
            streams = stream_outputs((spec_a, spec_b), xs)
            avg_parts.append(fuse_average(streams).data)
            cor_parts.append(correction(streams, corr).data)
    avg = np.concatenate(avg_parts)
    cor = np.concatenate(cor_parts)
    stats = fusion_stats(avg, cor)
    return stats, float(np.abs(cor).mean()), float(np.abs(avg).mean())
