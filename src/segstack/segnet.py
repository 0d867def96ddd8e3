"""Symmetric encoder-decoder network builder.

The encoder stacks conv+BN+ReLU units with a 2x2 max pool closing each
block; the decoder mirrors the blocks in reverse, opening each with an
unpool fed by the matching encoder pool mask (last mask out first). The
final decoder convolution is the prediction head, which emits k class
channels with no BN/ReLU; a plain network is simply a one-branch head.

"full" follows the VGG-16 convolutional plan, 13 encoder convolutions
and 13 decoder convolutions counting the head. "mini" is a two-block
reduction with identical wiring for desk-scale runs. Both come out of
the same builder loop.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tenio
from .errors import CheckpointError, ConfigError, ShapeError, SpecError
# branch_outputs and batchnorm are unused here; perfbench/tracing.py wraps
# them at these names
from .multikernel import (MultiKernelHead, branch_outputs, fold_head,  # noqa: F401
                          make_head)
from .nnops import (BNState, ConvParams, batchnorm,  # noqa: F401
                    conv_norm, he_fill, pool, seeded_rng, to_nchw, to_nhwc,
                    unpool)
from .tensor import Tensor, value

# per scale, the (width, conv count) of each encoder block
PLANS = {"full": ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)),
         "mini": ((16, 2), (32, 2))}


@dataclass
class ConvUnit:
    name: str
    params: ConvParams
    bn: BNState
    group: str


@dataclass
class NetworkSpec:
    in_channels: int
    k: int
    scale_name: str
    enc_blocks: "list[list[ConvUnit]]"
    dec_blocks: "list[list[ConvUnit]]"  # execution order: mirror of last block first
    head: MultiKernelHead

    @property
    def depth(self) -> int:
        return len(self.enc_blocks)


def build_segnet(k: int, scale: str, in_channels: int = 3,
                 head_scales=(3,), dtype=np.float32) -> NetworkSpec:
    """The caller picks ``scale``, "full" or "mini". Parameters start at
    zero; apply init_he (and optionally an encoder checkpoint) before use."""
    if k < 2:
        raise SpecError(f"need at least 2 classes, got {k}")
    if scale not in PLANS:
        raise SpecError(f"unknown scale {scale!r}, expected 'full' or 'mini'")
    widths, conv_counts = zip(*PLANS[scale])

    def unit(name, ic, oc, group):
        return ConvUnit(name, ConvParams.zeros(ic, oc, 3, dtype=dtype),
                        BNState.create(oc, dtype=dtype), group)

    enc_blocks = []
    prev = in_channels
    for bi, (w, cnt) in enumerate(zip(widths, conv_counts), start=1):
        enc_blocks.append([unit(f"enc.b{bi}.c{ci}", prev if ci == 0 else w, w,
                                "encoder") for ci in range(cnt)])
        prev = w

    dec_blocks = []
    for bi in range(len(widths), 0, -1):
        w, cnt = widths[bi - 1], conv_counts[bi - 1]
        # a block's last conv hands on the width of the block before it;
        # the first block's last conv is the head
        outs = [w] * (cnt - 1) + ([widths[bi - 2]] if bi >= 2 else [])
        dec_blocks.append([unit(f"dec.b{bi}.c{ci}", w, oc, "decoder")
                           for ci, oc in enumerate(outs)])

    head = make_head(widths[0], k, scales=head_scales, dtype=dtype)
    return NetworkSpec(in_channels, k, scale, enc_blocks, dec_blocks, head)


def _units(spec: NetworkSpec):
    for block in spec.enc_blocks:
        yield from block
    for block in spec.dec_blocks:
        yield from block


def init_he(spec: NetworkSpec, seed: int) -> None:
    """He-normal conv weights, zero biases, deterministic under seed."""
    rng = seeded_rng(seed)
    for u in _units(spec):
        he_fill(u.params, rng)
    for b in spec.head.branches:
        he_fill(b, rng)


def forward_parts(spec: NetworkSpec, x: Tensor, mode: str):
    """Returns (logits, trunk features), both (n,c,h,w) like ``x``. In
    between, activations are channels-last, and each unit hands its output
    on pending (``conv_norm``): the conv, pool or unpool that reads it
    applies the batch norm's affine and ReLU. The head runs folded into
    one conv; ``branch_outputs(spec.head, features)`` gives the
    per-branch logits it averages."""
    logits, h = _forward(spec, x, mode)
    return logits, to_nchw(h)


def forward(spec: NetworkSpec, x: Tensor, mode: str) -> Tensor:
    """The logits of ``forward_parts``, without building the features."""
    return _forward(spec, x, mode)[0]


def _forward(spec: NetworkSpec, x: Tensor, mode: str):
    h = to_nhwc(x)
    if h.shape[3] != spec.in_channels:
        raise ShapeError(f"input has {h.shape[3]} channels, network expects "
                         f"{spec.in_channels}")
    div = 2 ** spec.depth
    if h.shape[1] % div or h.shape[2] % div:
        raise ShapeError(f"spatial extents {h.shape[1:3]} must be divisible "
                         f"by {div} for {spec.depth} pooling levels")
    masks = []
    for block in spec.enc_blocks:
        for u in block:
            h = conv_norm(h, u.params, u.bn, mode)
        h, m = pool(h)
        masks.append(m)
    for block in spec.dec_blocks:
        h = unpool(h, masks.pop())
        for u in block:
            h = conv_norm(h, u.params, u.bn, mode)
    logits = conv_norm(h, fold_head(spec.head), None, mode)
    return to_nchw(logits), h


def check_patch(patch: int, *specs: NetworkSpec) -> None:
    """ConfigError unless every pooling level of ``specs`` halves ``patch``."""
    div = 2 ** max(spec.depth for spec in specs)
    if patch % div:
        raise ConfigError(f"patch {patch} must be divisible by {div} "
                          "(2 ** pooling levels)")


# ---------------------------------------------------------------------------
# Parameter access and checkpoints


def named_parameters(spec: NetworkSpec) -> "list[tuple[str, Tensor, str]]":
    out = []
    for u in _units(spec):
        for suffix, t in u.params.tensors() + u.bn.tensors():
            out.append((f"{u.name}.{suffix}", t, u.group))
    for bname, b in zip(spec.head.branch_names(), spec.head.branches):
        for suffix, t in b.tensors():
            out.append((f"head.{bname}.{suffix}", t, "head"))
    return out


@dataclass
class ParamGroup:
    role: str
    lr_multiplier: float
    params: "list[tuple[str, Tensor]]" = field(default_factory=list)


def param_groups(spec: NetworkSpec, ratio: float = 1.0) -> "list[ParamGroup]":
    """Encoder multiplier = ratio, decoder and head = 1. Ratio 0 freezes
    the encoder exactly: frozen parameters are skipped, not scaled."""
    if not 0 <= ratio < np.inf:
        raise ConfigError(f"lr ratio must be finite and >= 0, got {ratio}")
    groups = [ParamGroup("encoder", float(ratio)),
              ParamGroup("decoder", 1.0),
              ParamGroup("head", 1.0)]
    by_role = {g.role: g for g in groups}
    for name, t, role in named_parameters(spec):
        by_role[role].params.append((name, t))
    return groups


def state_entries(spec: NetworkSpec) -> "list[tuple[str, np.ndarray, str]]":
    """(name, array, group) of every parameter (its Tensor's ``data``) and
    batch-norm buffer (``running_mean``, ``running_var``, ``initialized``),
    in checkpoint order. The arrays are the live state: writing into them
    writes into the network. Inside training, from a backward to the next
    finite loss, a conv weight's array lags its value by the pending SGD
    step (``tensor.value``)."""
    out = [(name, t.data, group) for name, t, group in named_parameters(spec)]
    for u in _units(spec):
        for attr in ("running_mean", "running_var", "initialized"):
            out.append((f"{u.name}.bn.{attr}", getattr(u.bn, attr), u.group))
    return out


def save_checkpoint(dirpath, entries) -> None:
    """Bundle (name, array, group) rows, each array read through ``value``."""
    tenio.save_bundle(dirpath, ((name, value(arr), group)
                                for name, arr, group in entries))


def restore_entries(bundle, entries, missing_label: str) -> None:
    """Copy bundle arrays into the live arrays of (name, array, group)
    rows, all or nothing: every name and shape is validated before the
    first write."""
    staged, missing = [], []
    for name, cur, _ in entries:
        arr = bundle.get(name)
        if arr is None:
            missing.append(name)
        elif arr.shape != cur.shape:
            raise CheckpointError(f"{name}: checkpoint shape {arr.shape}, "
                                  f"expected {cur.shape}")
        else:
            staged.append((cur, arr))
    if missing:
        raise CheckpointError(
            f"{missing_label}: {missing[:5]}"
            + (f" and {len(missing) - 5} more" if len(missing) > 5 else ""))
    for cur, arr in staged:
        cur[...] = arr


def restore_bundle(dirpath, entries, label: str) -> None:
    """``restore_entries`` from a bundle that must hold exactly the rows
    ``entries`` names, no more and no fewer."""
    bundle = tenio.load_bundle(dirpath)
    known = {e[0] for e in entries}
    extra = [n for n in bundle if n not in known]
    if extra:
        raise CheckpointError(f"{label} has unknown entries: {extra[:5]}")
    restore_entries(bundle, entries, f"{label} is missing entries")


def load_checkpoint(spec: NetworkSpec, dirpath) -> None:
    """Full restore; a bad bundle leaves the network untouched."""
    restore_bundle(dirpath, state_entries(spec), "checkpoint")


def load_encoder_checkpoint(spec: NetworkSpec, dirpath) -> None:
    """Overwrite encoder parameters and statistics from a bundle (a full
    checkpoint works; its decoder entries are ignored). Decoder and head
    stay untouched. All-or-nothing: validation precedes any mutation."""
    restore_entries(tenio.load_bundle(dirpath),
                    [e for e in state_entries(spec) if e[2] == "encoder"],
                    "missing encoder parameters")
