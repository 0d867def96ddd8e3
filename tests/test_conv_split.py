"""The two-part split of large conv kernels (``convkernels``): the helper
thread and the caller alone write the same bits, a forked child runs
without its parent's helper, and forked prediction runs inline."""

import contextlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import segstack
from segstack import convkernels as ck
from segstack.datapipe import TileGeometry, synth_dataset
from segstack.fusion import init_corrector, make_corrector
from segstack.inference import predict_probs_fused
from segstack.segnet import (build_segnet, forward, forward_parts, init_he,
                             state_entries)
from segstack.tensor import Tensor, no_grad
from segstack.training import TrainConfig, train_segnet


@pytest.fixture
def helper(monkeypatch):
    """Kernels split as with BLAS pinned to one thread, and part 1 runs on
    the helper thread."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the helper thread runs only where two CPUs are free")
    monkeypatch.setattr(ck._split, "pinned", True)


def part_threads():
    """The thread each part of a two-part ``_run`` ran on."""
    ran = {}
    ck._run(lambda p: ran.__setitem__(p, threading.get_ident()), 2)
    return ran


@pytest.fixture(scope="module")
def full_net_convs():
    """(x shape, w shape, pad, stride) of every distinct conv in a forward
    of the full net on a batch of 4 at 64 px."""
    spec = build_segnet(k=5, scale="full", in_channels=3)
    init_he(spec, seed=0)
    seen, real = set(), ck.conv_forward

    def spy(x, w, pad, stride, route):
        seen.add((x.shape, w.shape, tuple(pad), stride))
        return real(x, w, pad, stride, route)

    ck.conv_forward = spy
    try:
        with no_grad():
            forward(spec, Tensor(np.zeros((4, 3, 64, 64), np.float32)))
    finally:
        ck.conv_forward = real
    return sorted(seen)


class TestPartition:
    def test_full_net_splits_all_but_its_first_conv_and_head(
            self, helper, full_net_convs, monkeypatch):
        split, real = set(), ck._run

        def spy(job, parts):
            if parts == 2:
                split.add(shape)
            return real(job, parts)

        monkeypatch.setattr(ck, "_run", spy)
        for xs, ws, pad, stride in full_net_convs:
            shape = (xs[3], ws[0])
            x, w = np.zeros(xs, np.float32), np.zeros(ws, np.float32)
            ck.conv_forward(x, w, pad, stride,
                            ck.select_route(np.prod(xs[:3]), xs[3]))
        every = {(xs[3], ws[0]) for xs, ws, _, _ in full_net_convs}
        assert every - split == {(3, 64), (64, 5)}

    def test_unpinned_blas_splits_nothing(self, monkeypatch):
        monkeypatch.setattr(ck._split, "pinned", False)
        assert ck._parts(10 ** 12, 10 ** 12) == 1

    @pytest.mark.parametrize("route", ["direct", "im2col"])
    def test_helper_and_inline_write_the_same_bits(self, helper,
                                                   full_net_convs, route):
        rng = np.random.default_rng(0)
        for xs, ws, pad, stride in full_net_convs:
            x = rng.standard_normal(xs).astype(np.float32)
            w = rng.standard_normal(ws).astype(np.float32)
            g = rng.standard_normal(xs[:3] + ws[:1]).astype(np.float32)
            got = [ck.conv_forward(x, w, pad, stride, route),
                   *ck.conv_backward(x, w, g, pad, stride, route)]
            with ck._inline_kernels():
                want = [ck.conv_forward(x, w, pad, stride, route),
                        *ck.conv_backward(x, w, g, pad, stride, route)]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, err_msg=f"{xs} {ws}")
        assert ck._split.pool is not None

    def test_full_net_training_writes_the_same_state(self, helper, tmp_path):
        data = [(t[0].data, t[2]) for t in synth_dataset(3, 8, 64)]
        config = TrainConfig(epochs=1, batch_size=4, seed=3, patch=32)
        runs = []
        for name, mode in (("helper", contextlib.nullcontext()),
                           ("inline", ck._inline_kernels())):
            spec = build_segnet(k=5, scale="full", in_channels=3)
            init_he(spec, seed=3)
            with mode:
                manifest = train_segnet(spec, data, config, tmp_path / name)
            runs.append((manifest["epochs"],
                         [(n, a.copy()) for n, a, _ in state_entries(spec)]))
            del spec
        (log_a, rows_a), (log_b, rows_b) = runs
        assert log_a == log_b
        for (name_a, a), (name_b, b) in zip(rows_a, rows_b):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b, err_msg=name_a)


class TestHelperThread:
    def test_part_one_runs_on_the_helper(self, helper):
        ran = part_threads()
        assert ran[0] == threading.get_ident() != ran[1]

    def test_inline_block_runs_both_parts_here_and_restores(self, helper):
        with pytest.raises(KeyError):
            with ck._inline_kernels():
                with ck._inline_kernels():
                    assert set(part_threads().values()) == {
                        threading.get_ident()}
                assert ck._split.inline
                raise KeyError("leaves the block")
        assert not ck._split.inline
        assert part_threads()[1] != threading.get_ident()

    def test_helper_error_reaches_the_caller(self, helper):
        def job(p):
            if p == 1:
                raise ZeroDivisionError("part 1")
        with pytest.raises(ZeroDivisionError, match="part 1"):
            ck._run(job, 2)
        assert part_threads()[1] != threading.get_ident()

    def test_callers_on_more_threads_than_cores_share_the_helper(
            self, helper):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 32, 32, 64)).astype(np.float32)
        w = rng.standard_normal((128, 64, 3, 3)).astype(np.float32)
        g = rng.standard_normal((4, 32, 32, 128)).astype(np.float32)
        with ck._inline_kernels():
            want = ck.conv_backward(x, w, g, (1, 1), 1, "direct")
        bad, switch = [], sys.getswitchinterval()

        def caller():
            for _ in range(3):
                got = ck.conv_backward(x, w, g, (1, 1), 1, "direct")
                bad.extend(not np.array_equal(a, b) for a, b in zip(got, want))

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(bad) == 4 * 3 * 3 and not any(bad)

    def test_switch_is_private(self):
        assert not [n for n in dir(segstack) if "inline" in n.lower()]
        assert not [n for n in vars(ck) if "inline" in n.lower()
                    and not n.startswith("_")]

    def test_forked_child_runs_a_split_conv(self, helper):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 64, 64, 64)).astype(np.float32)
        w = rng.standard_normal((64, 64, 3, 3)).astype(np.float32)
        want = ck.conv_forward(x, w, (1, 1), 1, "direct")
        assert ck._split.pool is not None
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = ck.conv_forward(x, w, (1, 1), 1, "direct")
                status = 0 if np.array_equal(got, want) else 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in a split conv")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


def test_forked_prediction_equals_one_worker(helper, monkeypatch):
    """With the helper running in this process, two forked tile workers
    map a fused scene with a split corrector as one worker does."""
    tiles = synth_dataset(seed=5, n_tiles=2, size=128)
    nets = []
    for seed in (22, 23):
        spec = build_segnet(k=5, scale="mini", in_channels=3)
        init_he(spec, seed=seed)
        with no_grad():
            forward_parts(spec, Tensor(np.stack([t[0].data for t in tiles])))
        nets.append(spec)
    corr = make_corrector(in_channels=32, k=5, hidden=64)
    init_corrector(corr, seed=4)
    w = corr.convs[2].weight.data
    w[...] = np.random.default_rng(4).normal(0, 0.1, w.shape)
    args = (*nets, corr, tiles[0][0].data, tiles[0][1].data,
            TileGeometry(64, 64))
    split, real = [], ck._run

    def spy(job, parts):
        split.append(parts == 2 and not ck._split.inline)
        return real(job, parts)

    monkeypatch.setattr(ck, "_run", spy)
    one = predict_probs_fused(*args, threads=1)
    assert any(split)  # the corrector's convs ran on the helper
    split.clear()
    two = predict_probs_fused(*args, threads=2)
    assert split and not any(split)  # the caller's share ran inline
    np.testing.assert_array_equal(one, two)
    with ck._inline_kernels():
        np.testing.assert_array_equal(one, predict_probs_fused(*args,
                                                               threads=1))
