"""Units hand their outputs on pending. A unit's output stays on the tape
as its normalised conv output x̂, and the conv, pool, unpool or head that
reads it applies the batch norm's affine and ReLU as it reads. The tape
then holds one buffer per unit output, where a unit that finishes its
own activation holds x̂, y and the ReLU mask. The network must still
compute the bits of a chain of such finished units."""

import numpy as np
import pytest

from oracles import sum_all
from segstack.multikernel import fold_head
from segstack.nnops import (conv_norm, cross_entropy_loss, pool, to_nchw,
                            to_nhwc, unpool)
from segstack.segnet import (build_segnet, forward_parts, init_he,
                             named_parameters, state_entries)
from segstack.tensor import Tensor, _post_order, add, backward, scale


def mk_net(seed=4):
    spec = build_segnet(k=5, scale="mini", in_channels=3,
                        head_scales=(3, 5, 7))
    init_he(spec, seed=seed)
    return spec


def finished(h):
    """A pending unit output as a channels-last tensor of its y."""
    return to_nhwc(to_nchw(h))


def chained(spec, x, mode):
    """``forward_parts``' wiring from the public ops, each unit's y
    built by ``to_nchw`` before anything reads it."""
    masks = []
    h = to_nhwc(x)
    for block in spec.enc_blocks:
        for u in block:
            h = finished(conv_norm(h, u.params, u.bn, mode))
        h, m = pool(h)
        masks.append(m)
    for block in spec.dec_blocks:
        h = unpool(h, masks.pop())
        for u in block:
            h = finished(conv_norm(h, u.params, u.bn, mode))
    logits = conv_norm(h, fold_head(spec.head), None, mode)
    return to_nchw(logits), to_nchw(h)


def run(forward, mode, with_features):
    """Logits, features, and every parameter gradient and state row of
    one step on a fresh net, as bytes."""
    spec = mk_net()
    if mode == "eval":
        rng = np.random.default_rng(8)
        for name, arr, _ in state_entries(spec):
            if name.endswith("running_mean"):
                arr[...] = rng.standard_normal(arr.shape)
            elif name.endswith("running_var"):
                arr[...] = rng.uniform(0.5, 2.0, arr.shape)
            elif name.endswith("initialized"):
                arr[...] = 1
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 5, (2, 32, 32))
    logits, feats = forward(spec, x, mode)
    loss = cross_entropy_loss(logits, labels)
    if with_features:
        # the last unit's output then has two readers, head and features
        loss = add(loss, sum_all(scale(feats, 1e-3)))
    backward(loss)
    out = [logits.data.tobytes(), feats.data.tobytes()]
    out += [t.grad.tobytes() for _, t, _ in named_parameters(spec)]
    return out + [arr.tobytes() for _, arr, _ in state_entries(spec)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("with_features", [False, True])
def test_forward_parts_bits_match_finished_units(mode, with_features):
    got = run(forward_parts, mode, with_features)
    want = run(chained, mode, with_features)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got == want


def held_buffers(loss, spec):
    """One array per distinct buffer that the tape under ``loss`` keeps
    alive in node data and closure cells, parameters and batch-norm
    statistics excluded."""
    persistent = {id(arr) for _, arr, _ in state_entries(spec)}
    held = {}

    def keep(value):
        if isinstance(value, Tensor):
            value = value.data
        if not isinstance(value, np.ndarray):
            return
        root = value
        while root.base is not None:
            root = root.base
        if id(root) not in persistent:
            held[id(root)] = value

    for node in _post_order(loss):
        if node._backward is None:
            continue
        keep(node.data)
        for cell in node._backward.__closure__ or ():
            try:
                keep(cell.cell_contents)
            except ValueError:  # a cell the closure's branch never set
                pass
    return list(held.values())


def map_sizes(spec, n, size):
    """Element counts of the unit outputs, and of the pooled and unpooled
    maps, of ``spec`` on n inputs of size x size."""
    units, maps = [], []
    for b, block in enumerate(spec.enc_blocks):
        s = size >> b
        units += [n * s * s * u.params.out_channels for u in block]
        c = block[-1].params.out_channels
        maps += [n * (s // 2) ** 2 * c, n * s * s * c]
    for b, block in enumerate(spec.dec_blocks):
        s = size >> (spec.depth - 1 - b)
        units += [n * s * s * u.params.out_channels for u in block]
    return units, maps


def test_tape_keeps_one_buffer_per_unit_output():
    spec = mk_net()
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 3, 64, 64)).astype(np.float32))
    labels = rng.integers(0, 5, (4, 64, 64))
    logits, _ = forward_parts(spec, x, "train")
    held = held_buffers(cross_entropy_loss(logits, labels), spec)

    # 14.7 MB when each unit kept x̂, y and the ReLU mask; 8.5 MB pending
    assert sum(a.nbytes for a in held) < 9.5e6
    units, maps = map_sizes(spec, 4, 64)
    for size in set(units):
        assert not [a for a in held if a.dtype == bool and a.size == size]
        floats = [a for a in held if a.dtype.kind == "f" and a.size == size]
        assert len(floats) <= units.count(size) + maps.count(size), size
