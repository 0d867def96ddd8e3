"""Acceptance gate: ten behavioral criteria, one printed line each.

Thresholds are pinned here rather than imported so a regression in the
library cannot silently relax the gate. The desk-scale learning fixture
trains real networks; the whole file is expected to finish in a few
minutes on one core.
"""

import json
import os
import time

import numpy as np
import pytest

from segstack.datapipe import TileGeometry, plan_tiles, stitch_average, \
    synth_dataset
from segstack.fusion import (StreamOutput, forward_corrector, fuse_average,
                             fuse_residual, init_corrector, make_corrector)
from segstack.metrics import ConfusionMatrix, erode_boundaries, f1_scores
from segstack.multikernel import (branch_outputs, forward_multikernel,
                                  make_head, multikernel_loss)
from segstack.nnops import (batchnorm, BNState, conv2d, ConvParams,
                            cross_entropy_loss, maxpool2, softmax_channels,
                            unpool2)
from segstack.segnet import (build_segnet, forward_parts, init_he,
                             named_parameters, param_groups)
from segstack.tensor import (Tensor, add, add_n, backward, concat_channels,
                             mean_n, relu, scale, _record)
from segstack.training import (SGD, TrainConfig, fusion_pixel_accuracy,
                               measure_fusion_stats, pixel_accuracy,
                               train_fusion, train_segnet)
from oracles import (check_gradients, erode_direct, f1_direct, naive_conv2d,
                     scan_maxpool2, scatter_unpool2, stitch_direct, sum_all)

GRAD_TOL = 1e-4
GRAD_COORDS = 100
GRAD_TIME_LIMIT = 120.0
CONV_CASES = 200
CONV_TOL = 1e-6
POOL_CASES = 100
ENSEMBLE_TOL = 1e-6
LOSS_IDENTITY_TOL = 1e-12
STITCH_TOL = 1e-6
F1_TOL = 1e-12
F1_CASES = 50
ERODE_CASES = 20
FREEZE_STEPS = 10
OVERFIT_ACC = 0.95
OVERFIT_EPOCH_CAP = 200
OVERFIT_TIME_LIMIT = 600.0
VARIANT_SLACK = 0.01


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: "
          f"{detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def t64(rng, *shape, req=True):
    return Tensor(rng.standard_normal(shape), requires_grad=req)


def _mul_const(t, w):
    out = Tensor(t.data * w, requires_grad=t.requires_grad)
    _record(out, (t,), lambda g: (g * w,), "mulc")
    return out


def fd_check(rng, build_out, tensors, n_coords=GRAD_COORDS):
    """FD-check through a fixed random projection of the op output; the
    projection is drawn once so every probe sees the same scalar loss."""
    w = rng.standard_normal(build_out().shape)
    return check_gradients(lambda: sum_all(_mul_const(build_out(), w)),
                           tensors, rng, n_coords=n_coords)


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_01_gradient_suite():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = {}

    x = t64(rng, 2, 3, 10, 10)
    w = t64(rng, 4, 3, 3, 3)
    b = t64(rng, 4)
    direct = ConvParams(w, b, (1, 1))
    worst["conv_direct"] = fd_check(rng, lambda: conv2d(x, direct),
                                    [x, w, b])
    w5 = t64(rng, 2, 3, 5, 5)
    wide = ConvParams(w5, None, (2, 2))
    # 2*10*10 output rows, not below 16*3: select_route picks direct
    worst["conv_direct_5x5"] = fd_check(rng, lambda: conv2d(x, wide),
                                        [x, w5])

    perm = rng.permutation(2 * 4 * 8 * 8).reshape(2, 4, 8, 8).astype(float)
    xp = Tensor(perm + rng.uniform(0, 0.25, perm.shape), requires_grad=True)
    worst["maxpool"] = fd_check(rng, lambda: maxpool2(xp)[0], [xp])
    worst["unpool"] = fd_check(rng, lambda: unpool2(*maxpool2(xp)), [xp])

    xb = t64(rng, 4, 3, 6, 6)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = t64(rng, 3)
    bn_train = BNState(gamma, beta, np.zeros(3), np.ones(3))
    worst["batchnorm_train"] = fd_check(
        rng, lambda: batchnorm(xb, bn_train, mode="train"),
        [xb, gamma, beta])
    bn_eval = BNState(gamma, beta, rng.standard_normal(3),
                      np.abs(rng.standard_normal(3)) + 0.5)
    bn_eval.initialized = True
    worst["batchnorm_eval"] = fd_check(
        rng, lambda: batchnorm(xb, bn_eval, mode="eval"),
        [xb, gamma, beta])

    xr = t64(rng, 3, 5, 8, 8)
    xr.data += np.sign(xr.data) * 0.3  # keep clear of the relu kink
    worst["relu"] = fd_check(rng, lambda: relu(xr), [xr])

    a1, a2, a3 = (t64(rng, 2, 3, 4, 4) for _ in range(3))
    worst["add"] = fd_check(rng, lambda: add(a1, a2), [a1, a2])
    worst["add_n"] = fd_check(rng, lambda: add_n([a1, a2, a3]),
                              [a1, a2, a3])
    worst["mean_n"] = fd_check(rng, lambda: mean_n([a1, a2, a3]),
                               [a1, a2, a3])
    worst["scale"] = fd_check(rng, lambda: scale(a1, -1.7), [a1])
    worst["concat"] = fd_check(rng, lambda: concat_channels([a1, a2]),
                               [a1, a2])

    zs = t64(rng, 2, 4, 5, 5)
    worst["softmax"] = fd_check(rng, lambda: softmax_channels(zs), [zs])
    labels = rng.integers(0, 4, (2, 5, 5)).astype(np.uint8)
    labels[0, 0, 0] = 255
    worst["cross_entropy"] = check_gradients(
        lambda: cross_entropy_loss(zs, labels), [zs], rng,
        n_coords=GRAD_COORDS)

    net = build_segnet(k=4, scale="mini", in_channels=3, dtype=np.float64)
    init_he(net, seed=77)
    xn = t64(rng, 2, 3, 16, 16)
    net_labels = rng.integers(0, 4, (2, 16, 16)).astype(np.uint8)
    params = [t for _, t, _ in named_parameters(net)]
    picks = [xn] + [params[i] for i in
                    rng.choice(len(params), size=5, replace=False)]

    def net_loss():
        logits, _ = forward_parts(net, xn, mode="train")
        return cross_entropy_loss(logits, net_labels)

    worst["composed_net"] = check_gradients(net_loss, picks, rng,
                                            n_coords=20)

    # drawn after every other case, so those see the same values
    from segstack import convkernels as ck
    xi = t64(rng, 1, 8, 4, 4)
    wi = t64(rng, 2, 8, 5, 5)
    bi = t64(rng, 2)
    assert ck.select_route(1 * 4 * 4, 8, 2) == "im2col"  # 16 rows < 16*8
    narrow = ConvParams(wi, bi, (2, 2))
    worst["conv_im2col"] = fd_check(rng, lambda: conv2d(xi, narrow),
                                    [xi, wi, bi])

    elapsed = time.monotonic() - started
    bad = {k: v for k, v in worst.items() if not v < GRAD_TOL}
    ok = not bad and elapsed < GRAD_TIME_LIMIT
    _report(1, "gradient suite", ok,
            f"max rel err {max(worst.values()):.2e} over {len(worst)} op "
            f"checks (tol {GRAD_TOL:.0e}), {elapsed:.1f}s "
            f"(limit {GRAD_TIME_LIMIT:.0f}s)"
            + (f"; failing: {sorted(bad)}" if bad else ""))


# ---------------------------------------------------------------------------
# 2. convolution oracle


def test_criterion_02_conv_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(CONV_CASES):
        n = int(rng.integers(1, 4))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        kh = int(rng.integers(1, 5))
        kw = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        ph = int(rng.integers(0, 3))
        pw = int(rng.integers(0, 3))
        h = int(rng.integers(max(1, kh - ph), 12)) + kh
        w_ = int(rng.integers(max(1, kw - pw), 12)) + kw
        x = rng.standard_normal((n, cin, h, w_))
        w = rng.standard_normal((cout, cin, kh, kw))
        b = rng.standard_normal(cout) if rng.random() < 0.5 else None
        params = ConvParams(Tensor(w), Tensor(b) if b is not None else None,
                            (ph, pw), stride)
        got = conv2d(Tensor(x), params).data
        want = naive_conv2d(x, w, b, pad=(ph, pw), stride=stride)
        denom = max(np.abs(want).max(), 1.0)
        worst = max(worst, np.abs(got - want).max() / denom)
    _report(2, "conv oracle equivalence", worst < CONV_TOL,
            f"{CONV_CASES} random cases, worst rel err {worst:.2e} "
            f"(tol {CONV_TOL:.0e})")


# ---------------------------------------------------------------------------
# 3. pool/unpool round trip


def test_criterion_03_pool_round_trip():
    rng = np.random.default_rng(1003)
    checked = 0
    for _ in range(POOL_CASES):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        h = 2 * int(rng.integers(1, 9))
        w = 2 * int(rng.integers(1, 9))
        vals = (rng.permutation(n * c * h * w) + 1.0).reshape(n, c, h, w)
        x = Tensor(vals)
        pooled, mask = maxpool2(x)
        restored = unpool2(pooled, mask).data
        svals, sidx = scan_maxpool2(vals)
        expected = scatter_unpool2(svals, sidx)
        np.testing.assert_array_equal(restored, expected)
        nonzero = restored != 0
        assert nonzero.sum() == pooled.data.size
        assert np.array_equal(np.sort(restored[nonzero]),
                              np.sort(pooled.data.reshape(-1)))
        checked += 1
    _report(3, "pool/unpool round trip", checked == POOL_CASES,
            f"{checked} random cases, maxima restored in place, zeros "
            "elsewhere")


# ---------------------------------------------------------------------------
# 4. multi-kernel ensemble equivalence


def test_criterion_04_head_ensemble_equivalence():
    rng = np.random.default_rng(1004)
    head = make_head(in_channels=6, k=4, scales=(3, 5, 7), dtype=np.float64)
    for br in head.branches:
        br.weight.data[...] = rng.standard_normal(br.weight.shape)
        br.bias.data[...] = rng.standard_normal(br.bias.shape)
    x = Tensor(rng.standard_normal((2, 6, 12, 12)))

    combined = forward_multikernel(head, x).data
    singles = [conv2d(x, br).data for br in head.branches]
    mean_of_singles = np.mean(singles, axis=0)
    denom = max(np.abs(mean_of_singles).max(), 1.0)
    head_err = np.abs(combined - mean_of_singles).max() / denom

    labels = rng.integers(0, 4, (2, 12, 12)).astype(np.uint8)
    branches = branch_outputs(head, x)
    per_branch_loss = float(multikernel_loss(branches, labels).item())
    averaged_loss = float(cross_entropy_loss(mean_n(branches), labels)
                          .item())
    loss_gap = abs(per_branch_loss - averaged_loss)

    ok = head_err < ENSEMBLE_TOL and loss_gap < LOSS_IDENTITY_TOL
    _report(4, "head ensemble equivalence", ok,
            f"mean-of-branches err {head_err:.2e} (tol {ENSEMBLE_TOL:.0e}), "
            f"loss identity gap {loss_gap:.2e} (tol {LOSS_IDENTITY_TOL:.0e})")


# ---------------------------------------------------------------------------
# desk-scale training fixture (criteria 5 and 9 share it)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    tiles = synth_dataset(seed=1, n_tiles=32, size=64)
    irrg = [(a.data, y) for a, b, y in tiles]
    comp = [(b.data, y) for a, b, y in tiles]
    dual = [(a.data, b.data, y) for a, b, y in tiles]
    cfg = TrainConfig(epochs=60, batch_size=4, seed=11, patch=64)

    plain = build_segnet(k=5, scale="mini", in_channels=3)
    init_he(plain, seed=101)
    t0 = time.monotonic()
    train_segnet(plain, irrg, cfg, root / "plain")
    plain_wall = time.monotonic() - t0
    plain_acc = pixel_accuracy(plain, irrg)

    mk = build_segnet(k=5, scale="mini", in_channels=3, head_scales=(3, 5, 7))
    init_he(mk, seed=102)
    train_segnet(mk, irrg, cfg, root / "mk")
    mk_acc = pixel_accuracy(mk, irrg)

    second = build_segnet(k=5, scale="mini", in_channels=3)
    init_he(second, seed=103)
    train_segnet(second, comp, cfg, root / "comp")

    corr = make_corrector(in_channels=32, k=5)
    init_corrector(corr, seed=104)
    # corrector LR three decades below the stream LR: the residual claim is a
    # fine-tuning statement, and CE on the unnormalized fused map has no
    # finite minimizer, so sustained full-rate training drifts the corrector
    # onto logit scale and out of the small-correction regime
    fusion_cfg = TrainConfig(base_lr=1e-5, epochs=12, batch_size=4, seed=12,
                             patch=64)
    train_fusion(plain, second, corr, dual, fusion_cfg, root / "fusion")
    fusion_acc = fusion_pixel_accuracy(plain, second, corr, dual)
    stats, corr_mag, avg_mag = measure_fusion_stats(plain, second, corr,
                                                    dual)

    return {"plain_acc": plain_acc, "mk_acc": mk_acc,
            "fusion_acc": fusion_acc, "plain_wall": plain_wall,
            "epochs": cfg.epochs, "corr_mag": corr_mag, "avg_mag": avg_mag,
            "stats": stats}


# ---------------------------------------------------------------------------
# 5. residual identity and small corrections


def test_criterion_05_residual_identity(desk):
    rng = np.random.default_rng(1005)
    streams = []
    for _ in range(2):
        logits = rng.standard_normal((2, 4, 8, 8))
        probs = softmax_channels(Tensor(logits))
        feats = Tensor(rng.standard_normal((2, 5, 8, 8)))
        streams.append(StreamOutput(probs, feats))
    zero_corr = make_corrector(in_channels=10, k=4)
    init_corrector(zero_corr, seed=3)
    identical = np.array_equal(fuse_residual(streams, zero_corr).data,
                               fuse_average(streams).data)

    small = desk["corr_mag"] < desk["avg_mag"]
    ok = identical and small
    _report(5, "residual identity and small corrections", ok,
            f"zero-corrector fusion bitwise equal: {identical}; trained "
            f"correction magnitude {desk['corr_mag']:.4f} < averaged "
            f"magnitude {desk['avg_mag']:.4f}: {small}")


# ---------------------------------------------------------------------------
# 6. stitching oracle


def test_criterion_06_stitch_oracle():
    rng = np.random.default_rng(1006)
    h = w = 256
    worst = 0.0
    for stride in (128, 64, 32):
        geom = TileGeometry(128, stride)
        windows = plan_tiles(h, w, geom)
        maps = [rng.standard_normal((3, win.height, win.width))
                for win in windows]
        got = stitch_average(windows, maps, h, w)
        want = stitch_direct(windows, maps, h, w)
        worst = max(worst, np.abs(got - want).max())

    # constant maps at production precision: float32 values accumulate
    # exactly in the float64 stitch, so the constant comes back bitwise
    const_windows = plan_tiles(h, w, TileGeometry(128, 32))
    c = np.float32(0.73)
    const_maps = [np.full((2, 128, 128), c, dtype=np.float32)
                  for _ in const_windows]
    const_exact = np.array_equal(
        stitch_average(const_windows, const_maps, h, w),
        np.full((2, h, w), np.float64(c)))

    ok = worst < STITCH_TOL and const_exact
    _report(6, "stitching oracle", ok,
            f"strides 128/64/32 worst abs err {worst:.2e} "
            f"(tol {STITCH_TOL:.0e}); constant map exact: {const_exact}")


# ---------------------------------------------------------------------------
# 7. metrics oracles


def test_criterion_07_metrics_oracles():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(F1_CASES):
        k = int(rng.integers(2, 7))
        counts = rng.integers(0, 40, (k, k)).astype(np.int64)
        if rng.random() < 0.3:
            wipe = rng.integers(0, k)
            counts[wipe, :] = 0
        cm = ConfusionMatrix(k, counts=counts)
        scores = f1_scores(cm)
        direct = {key: np.asarray(vals) for key, vals in
                  f1_direct(counts).items()}
        for mine, ref in ((scores.f1, direct["f1"]),
                          (scores.recall, direct["recall"])):
            both = np.isnan(mine) == np.isnan(ref)
            assert both.all()
            valid = ~np.isnan(mine)
            if valid.any():
                worst = max(worst, np.abs(mine[valid] - ref[valid]).max())
        predicted = cm.counts.sum(axis=0)
        has_pred = predicted > 0
        if has_pred.any():
            worst = max(worst, np.abs(scores.precision[has_pred] -
                                      direct["precision"][has_pred]).max())

    erode_exact = True
    for case in range(ERODE_CASES):
        h = int(rng.integers(8, 40))
        w = int(rng.integers(8, 40))
        gt = rng.integers(0, 4, (h, w)).astype(np.uint8)
        if rng.random() < 0.4:
            gt[rng.integers(0, h), rng.integers(0, w)] = 255
        radius = int(rng.integers(0, 4))
        if not np.array_equal(erode_boundaries(gt, radius=radius),
                              erode_direct(gt, radius)):
            erode_exact = False
            break

    ok = worst < F1_TOL and erode_exact
    _report(7, "metrics oracles", ok,
            f"{F1_CASES} confusion matrices worst err {worst:.2e} "
            f"(tol {F1_TOL:.0e}); {ERODE_CASES} erosion rasters exact: "
            f"{erode_exact}")


# ---------------------------------------------------------------------------
# 8. freeze contract


def test_criterion_08_freeze_contract():
    rng = np.random.default_rng(1008)
    tiles = synth_dataset(seed=8, n_tiles=4, size=32)
    batch_x = Tensor(np.stack([t[0].data for t in tiles]))
    batch_y = np.stack([t[2] for t in tiles])

    frozen_net = build_segnet(k=5, scale="mini", in_channels=3)
    init_he(frozen_net, seed=201)
    before = {n: t.data.copy() for n, t, g in named_parameters(frozen_net)
              if g == "encoder"}
    opt = SGD(param_groups(frozen_net, ratio=0.0), 0.05, 0.9)
    for _ in range(FREEZE_STEPS):
        logits, _ = forward_parts(frozen_net, batch_x, mode="train")
        backward(cross_entropy_loss(logits, batch_y))
        opt.step()
    frozen_ok = all(np.array_equal(t.data, before[n])
                    for n, t, g in named_parameters(frozen_net)
                    if g == "encoder")

    updates = {}
    for ratio in (1.0, 0.5):
        net = build_segnet(k=5, scale="mini", in_channels=3)
        for _, t, _ in named_parameters(net):
            t.data[...] = 0
        grng = np.random.default_rng(202)
        for _, t, _ in named_parameters(net):
            t.grad = grng.standard_normal(t.shape).astype(t.dtype)
        SGD(param_groups(net, ratio), 0.01, 0.9).step()
        updates[ratio] = {n: t.data.copy()
                          for n, t, _ in named_parameters(net)}
    half_exact = True
    for (n, _, g) in named_parameters(build_segnet(k=5, scale="mini",
                                                   in_channels=3)):
        full, half = updates[1.0][n], updates[0.5][n]
        want = full * np.float32(0.5) if g == "encoder" else full
        if not np.array_equal(half, want):
            half_exact = False
            break

    ok = frozen_ok and half_exact
    _report(8, "freeze contract", ok,
            f"encoder bit-identical across {FREEZE_STEPS} steps at ratio 0: "
            f"{frozen_ok}; ratio-0.5 update exactly half of ratio-1: "
            f"{half_exact}")


# ---------------------------------------------------------------------------
# 9. desk-scale learning


def test_criterion_09_desk_scale_learning(desk):
    floor = desk["plain_acc"] - VARIANT_SLACK
    learned = (desk["plain_acc"] > OVERFIT_ACC
               and desk["epochs"] <= OVERFIT_EPOCH_CAP
               and desk["plain_wall"] < OVERFIT_TIME_LIMIT)
    variants = desk["mk_acc"] >= floor and desk["fusion_acc"] >= floor
    ok = learned and variants
    _report(9, "desk-scale learning", ok,
            f"plain {desk['plain_acc']:.3f} (> {OVERFIT_ACC}) in "
            f"{desk['epochs']} epochs / {desk['plain_wall']:.0f}s; "
            f"multi-kernel {desk['mk_acc']:.3f} and fusion "
            f"{desk['fusion_acc']:.3f} vs floor {floor:.3f}")


# ---------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism(tmp_path):
    tiles = synth_dataset(seed=10, n_tiles=6, size=32)
    dataset = [(a.data, y) for a, _, y in tiles]
    outs = []
    for run in ("one", "two"):
        spec = build_segnet(k=5, scale="mini", in_channels=3)
        init_he(spec, seed=301)
        cfg = TrainConfig(epochs=3, batch_size=2, seed=77, patch=32)
        train_segnet(spec, dataset, cfg, tmp_path / run)
        outs.append(tmp_path / run)
    a, b = outs
    manifest_same = (a / "manifest.json").read_bytes() == \
        (b / "manifest.json").read_bytes()
    files = sorted(os.listdir(a / "checkpoint"))
    ckpt_same = files == sorted(os.listdir(b / "checkpoint")) and all(
        (a / "checkpoint" / f).read_bytes() ==
        (b / "checkpoint" / f).read_bytes() for f in files)
    ok = manifest_same and ckpt_same
    _report(10, "determinism", ok,
            f"manifests bit-identical: {manifest_same}; checkpoint files "
            f"bit-identical: {ckpt_same} ({len(files)} files)")
