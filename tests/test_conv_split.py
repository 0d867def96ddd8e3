"""The two-part split of large conv kernels (``convkernels``): the helper
thread and the caller alone write the same bits, a forked child runs on
a helper of its own, not its parent's, and forked prediction splits as
one worker does."""

import contextlib
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

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


@contextlib.contextmanager
def one_cpu():
    """The process may run on one CPU only, so the caller runs both parts
    of every kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


@contextlib.contextmanager
def deadline(seconds):
    """Raises TimeoutError here once the block has run ``seconds``: a
    forked worker that hangs fails the test instead of the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def spy(x, w, pad, stride):
        seen.add((x.shape, w.shape, tuple(pad), stride))
        return real(x, w, pad, stride)

    ck.conv_forward = spy
    try:
        with no_grad():
            forward(spec, Tensor(np.zeros((4, 3, 64, 64), np.float32)),
                    mode="train")
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
            ck.conv_forward(x, w, pad, stride)
        every = {(xs[3], ws[0]) for xs, ws, _, _ in full_net_convs}
        assert every - split == {(3, 64), (64, 5)}

    def test_unpinned_blas_splits_nothing(self, monkeypatch):
        monkeypatch.setattr(ck._split, "pinned", False)
        assert ck._parts(10 ** 12, 10 ** 12) == 1

    @pytest.mark.parametrize("route", ["direct", "im2col"])
    def test_helper_and_inline_write_the_same_bits(self, helper, monkeypatch,
                                                   full_net_convs, route):
        monkeypatch.setattr(ck, "select_route", lambda rows, c, oc: route)
        rng = np.random.default_rng(0)
        # the last case's im2col plans (forward, input and weight gradient)
        # have 9, 9 and 5 blocks, so its parts get unequal shares
        odd = ((4, 22, 22, 64), (64, 64, 3, 3), (1, 1), 1)
        for xs, ws, pad, stride in [*full_net_convs, odd]:
            x = rng.standard_normal(xs).astype(np.float32)
            w = rng.standard_normal(ws).astype(np.float32)
            g = rng.standard_normal(xs[:3] + ws[:1]).astype(np.float32)
            got = [ck.conv_forward(x, w, pad, stride),
                   *ck.conv_backward(x, w, g, pad, stride)]
            with one_cpu():
                want = [ck.conv_forward(x, w, pad, stride),
                        *ck.conv_backward(x, w, g, pad, stride)]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, err_msg=f"{xs} {ws}")
        assert ck._split.pool is not None

    def test_full_net_training_writes_the_same_state(self, helper, tmp_path):
        data = [(t[0].data, t[2]) for t in synth_dataset(3, 8, 64)]
        config = TrainConfig(epochs=1, batch_size=4, seed=3, patch=32)
        runs = []
        for name, mode in (("helper", contextlib.nullcontext()),
                           ("inline", one_cpu())):
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
        with one_cpu():
            assert set(part_threads().values()) == {threading.get_ident()}

    def test_helper_error_reaches_the_caller(self, helper):
        def job(p):
            if p == 1:
                raise ZeroDivisionError("part 1")
        with pytest.raises(ZeroDivisionError, match="part 1"):
            ck._run(job, 2)
        assert part_threads()[1] != threading.get_ident()

    def test_helper_keeps_the_callers_float_error_state(self, helper):
        seen = {}
        with np.errstate(all="ignore"):
            ck._run(lambda p: seen.__setitem__(p, np.geterr()), 2)
        assert seen[0] == seen[1] == {"divide": "ignore", "over": "ignore",
                                      "under": "ignore", "invalid": "ignore"}

    def test_callers_on_more_threads_than_cores_share_the_helper(
            self, helper):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 32, 32, 64)).astype(np.float32)
        w = rng.standard_normal((128, 64, 3, 3)).astype(np.float32)
        g = rng.standard_normal((4, 32, 32, 128)).astype(np.float32)
        with one_cpu():
            want = ck.conv_backward(x, w, g, (1, 1), 1)
        bad, switch = [], sys.getswitchinterval()

        def caller():
            for _ in range(3):
                got = ck.conv_backward(x, w, g, (1, 1), 1)
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

    def test_forked_child_runs_a_split_conv(self, helper):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 64, 64, 64)).astype(np.float32)
        w = rng.standard_normal((64, 64, 3, 3)).astype(np.float32)
        want = ck.conv_forward(x, w, (1, 1), 1)
        assert ck._split.pool is not None
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = ck.conv_forward(x, w, (1, 1), 1)
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
    """With the helper running in this process, forked tile workers split
    the corrector's convs on helpers of their own and map a fused scene
    as one worker does."""
    tiles = synth_dataset(seed=5, n_tiles=2, size=128)
    nets = []
    for seed in (22, 23):
        spec = build_segnet(k=5, scale="mini", in_channels=3)
        init_he(spec, seed=seed)
        with no_grad():
            forward_parts(spec, Tensor(np.stack([t[0].data for t in tiles])),
                          mode="train")
        nets.append(spec)
    corr = make_corrector(in_channels=32, k=5, hidden=64)
    init_corrector(corr, seed=4)
    w = corr.convs[2].weight.data
    w[...] = np.random.default_rng(4).normal(0, 0.1, w.shape)
    args = (*nets, corr, tiles[0][0].data, tiles[0][1].data,
            TileGeometry(64, 64))
    split, real = [], ck._run

    def spy(job, parts):
        split.append(parts == 2)
        return real(job, parts)

    monkeypatch.setattr(ck, "_run", spy)
    with deadline(120):
        one = predict_probs_fused(*args, threads=1)
        assert any(split) and ck._split.pool is not None
        for threads in (2, 3):
            split.clear()
            got = predict_probs_fused(*args, threads=threads)
            assert any(split)  # the caller's share split too
            np.testing.assert_array_equal(one, got, err_msg=f"{threads}")
    with one_cpu():
        np.testing.assert_array_equal(one, predict_probs_fused(*args,
                                                               threads=1))
