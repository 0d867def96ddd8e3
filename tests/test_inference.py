import importlib.util
import inspect
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import segstack
from segstack.cli import build_parser
from segstack.datapipe import (TileGeometry, plan_tiles, stitch_average,
                               synth_dataset)
from segstack.errors import ConfigError, DataError, ShapeError
from segstack.fusion import make_corrector, init_corrector
from segstack import inference
from segstack.inference import (labels_from_probs, predict_probs,
                                predict_probs_fused)
from segstack.segnet import build_segnet, forward_parts, init_he
from segstack.tensor import Tensor, no_grad
from segstack.training import TrainConfig, train_fusion, train_segnet
from test_tracing_hook import _load_tracing


def warmed_net(seed, in_channels=3):
    spec = build_segnet(k=5, scale="mini", in_channels=in_channels)
    init_he(spec, seed=seed)
    tiles = synth_dataset(seed=99, n_tiles=2, size=32)
    x = np.stack([t[0].data if in_channels == 3 else t[1].data
                  for t in tiles])
    with no_grad():
        forward_parts(spec, Tensor(x), mode="train")
    return spec


@pytest.fixture(scope="module")
def net():
    return warmed_net(seed=21)


@pytest.fixture(scope="module")
def scene():
    irrg, comp, labels = synth_dataset(seed=5, n_tiles=1, size=96)[0]
    return irrg.data, comp.data, labels


class TestPredictProbs:
    def test_shape_and_distribution(self, net, scene):
        probs = predict_probs(net, scene[0], TileGeometry(32, 32))
        assert probs.shape == (5, 96, 96)
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_overlapping_windows_still_sum_to_one(self, net, scene):
        probs = predict_probs(net, scene[0], TileGeometry(32, 16))
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_matches_manual_single_window(self, net):
        irrg, _, _ = synth_dataset(seed=6, n_tiles=1, size=32)[0]
        probs = predict_probs(net, irrg.data, TileGeometry(32, 32))
        from segstack.nnops import softmax_channels
        with no_grad():
            logits, _ = forward_parts(net, Tensor(irrg.data[None]),
                                         mode="eval")
        manual = softmax_channels(logits).data[0].astype(np.float64)
        np.testing.assert_array_equal(probs, manual)

    def test_thread_count_does_not_change_bits(self, net, scene):
        geom = TileGeometry(32, 16)
        one = predict_probs(net, scene[0], geom, threads=1)
        four = predict_probs(net, scene[0], geom, threads=4)
        np.testing.assert_array_equal(one, four)

    def test_rejects_bad_rank(self, net):
        with pytest.raises(ShapeError, match="bands, height, width"):
            predict_probs(net, np.zeros((3, 4)), TileGeometry(32, 32))

    def test_rejects_non_finite_pixels(self, net, scene):
        for value in (np.nan, np.inf):
            bands = scene[0].copy()
            bands[1, 40, 7] = value
            bands[2, 50, 3] = value
            with pytest.raises(DataError, match=r"stream 0 .*band 1, row "
                                                r"40, column 7"):
                predict_probs(net, bands, TileGeometry(32, 32))


@pytest.fixture(scope="module")
def nets():
    return warmed_net(seed=22), warmed_net(seed=23, in_channels=3)


class TestPredictFused:

    def test_no_corrector_equals_stream_average(self, nets, scene):
        a, b = nets
        geom = TileGeometry(32, 32)
        fused = predict_probs_fused(a, b, None, scene[0], scene[1], geom)
        pa = predict_probs(a, scene[0], geom)
        pb = predict_probs(b, scene[1], geom)
        np.testing.assert_allclose(fused, (pa + pb) / 2, atol=1e-7)

    def test_zero_corrector_matches_no_corrector_bitwise(self, nets, scene):
        a, b = nets
        geom = TileGeometry(32, 16)
        corr = make_corrector(in_channels=32, k=5)
        init_corrector(corr, seed=3)  # final layer stays zero
        plain = predict_probs_fused(a, b, None, scene[0], scene[1], geom)
        corrected = predict_probs_fused(a, b, corr, scene[0], scene[1], geom)
        np.testing.assert_array_equal(plain, corrected)

    def test_non_finite_pixel_names_its_stream(self, nets, scene):
        bands_b = scene[1].copy()
        bands_b[0, 95, 95] = -np.inf
        with pytest.raises(DataError, match="stream 1 .*-inf at band 0, "
                                            "row 95, column 95"):
            predict_probs_fused(*nets, None, scene[0], bands_b,
                                TileGeometry(32, 32))

    def test_misregistered_streams_rejected(self, nets):
        a, b = nets
        with pytest.raises(ShapeError, match="co-registered"):
            predict_probs_fused(a, b, None, np.zeros((3, 64, 64), np.float32),
                                np.zeros((3, 64, 32), np.float32),
                                TileGeometry(32, 32))


class TestLabels:
    def test_argmax(self):
        probs = np.zeros((3, 2, 2))
        probs[0, 0, 0] = 0.9
        probs[1, 0, 1] = 0.8
        probs[2, 1, 0] = 0.7
        probs[1, 1, 1] = 0.6
        labels = labels_from_probs(probs)
        assert labels.dtype == np.uint8
        np.testing.assert_array_equal(labels, [[0, 1], [2, 1]])

    def test_tie_breaks_to_lowest_index(self):
        probs = np.full((4, 1, 1), 0.25)
        assert labels_from_probs(probs)[0, 0] == 0
        probs = np.array([0.2, 0.4, 0.4])[:, None, None]
        assert labels_from_probs(probs)[0, 0] == 1

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            labels_from_probs(np.zeros((2, 3)))


class TestThreadBudget:
    def test_default_is_single(self):
        for fn in (predict_probs, predict_probs_fused):
            assert inspect.signature(fn).parameters["threads"].default == 1
        predict = build_parser()[1]["predict"]
        assert predict.get_default("threads") == 1

    def test_zero_rejected(self, nets, scene):
        with pytest.raises(ConfigError, match=">= 1"):
            predict_probs(nets[0], scene[0], TileGeometry(32, 32), threads=0)
        with pytest.raises(ConfigError, match=">= 1"):
            predict_probs_fused(*nets, None, scene[0], scene[1],
                                TileGeometry(32, 32), threads=0)


class WindowFailed(Exception):
    pass


class TestForkedWorkers:
    """threads=2 forks one child per call; the caller maps even windows,
    the child odd ones. On the 96x96 scene at patch and stride 32 the
    plan is 3x3, and window 1 (top 0, left 32) is the child's."""

    GEOM = TileGeometry(32, 32)

    @staticmethod
    def failing_on_window_1(scene, action):
        """``window_map`` that calls ``action()`` when given window 1."""
        crop = scene[0][:, :32, 32:64]
        real = inference.window_map

        def patched(specs, corr, xs):
            if np.array_equal(xs[0].data[0], crop):
                action()
            return real(specs, corr, xs)
        return patched

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fused_with_corrector_is_bitwise_one_worker(self, nets, scene):
        corr = make_corrector(in_channels=32, k=5, hidden=8)
        init_corrector(corr, seed=4)
        w = corr.convs[2].weight.data
        w[...] = np.random.default_rng(4).normal(0, 0.1, w.shape)
        args = scene[0], scene[1], self.GEOM
        one = predict_probs_fused(*nets, corr, *args, 1)
        two = predict_probs_fused(*nets, corr, *args, 2)
        np.testing.assert_array_equal(one, two)
        plain = predict_probs_fused(*nets, None, *args, 1)
        assert not np.array_equal(one, plain)

    def test_odd_window_count_is_bitwise_one_worker(self, net, scene):
        one = predict_probs(net, scene[0], self.GEOM, threads=1)
        two = predict_probs(net, scene[0], self.GEOM, threads=2)
        np.testing.assert_array_equal(one, two)

    def test_more_workers_than_windows_forks_nothing(self, net, scene,
                                                     monkeypatch):
        bands = scene[0][:, :32, :32]
        one = predict_probs(net, bands, self.GEOM, threads=1)

        def no_fork():
            raise AssertionError("forked for a single window")
        monkeypatch.setattr(os, "fork", no_fork)
        two = predict_probs(net, bands, self.GEOM, threads=2)
        np.testing.assert_array_equal(one, two)

    def test_child_error_reaches_caller(self, net, scene, monkeypatch):
        def fail():
            raise WindowFailed("window 1 failed")
        monkeypatch.setattr(inference, "window_map",
                            self.failing_on_window_1(scene, fail))
        with pytest.raises(WindowFailed, match="window 1 failed"):
            predict_probs(net, scene[0], self.GEOM, threads=2)
        self.assert_no_children()

    def test_child_warning_is_raised_once_by_caller(self, net, scene,
                                                    monkeypatch):
        expected = predict_probs(net, scene[0], self.GEOM, threads=1)
        monkeypatch.setattr(inference, "window_map", self.failing_on_window_1(
            scene, lambda: warnings.warn("window 1 is odd")))
        with pytest.warns(UserWarning, match="window 1 is odd") as seen:
            probs = predict_probs(net, scene[0], self.GEOM, threads=2)
        assert len(seen) == 1
        np.testing.assert_array_equal(probs, expected)
        self.assert_no_children()

    def test_killed_child_costs_time_not_result(self, net, scene,
                                                monkeypatch):
        expected = predict_probs(net, scene[0], self.GEOM, threads=1)
        caller = os.getpid()

        def kill_child():
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(inference, "window_map",
                            self.failing_on_window_1(scene, kill_child))
        probs = predict_probs(net, scene[0], self.GEOM, threads=2)
        np.testing.assert_array_equal(probs, expected)
        self.assert_no_children()

    def test_caller_error_kills_children(self, net, scene, monkeypatch):
        caller = os.getpid()
        real = inference.window_map

        def patched(specs, corr, xs):
            if os.getpid() == caller:
                raise WindowFailed("caller failed")
            time.sleep(60)
            return real(specs, corr, xs)
        monkeypatch.setattr(inference, "window_map", patched)
        t0 = time.perf_counter()
        with pytest.raises(WindowFailed, match="caller failed"):
            predict_probs(net, scene[0], self.GEOM, threads=2)
        assert time.perf_counter() - t0 < 30
        self.assert_no_children()

    def test_no_fork_is_config_error(self, net, scene, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ConfigError, match="os.fork"):
            predict_probs(net, scene[0], self.GEOM, threads=2)
        np.testing.assert_array_equal(
            predict_probs(net, scene[0], self.GEOM, threads=1),
            predict_probs(net, scene[0], self.GEOM))

    def test_buffered_stdout_is_written_once(self):
        """Children leave through os._exit, so the caller's unflushed
        stdout buffer is not flushed by them as well."""
        src = Path(segstack.__file__).resolve().parents[1]
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from segstack.datapipe import TileGeometry, synth_dataset
            from segstack.inference import predict_probs
            from segstack.segnet import build_segnet, forward_parts, init_he
            from segstack.tensor import Tensor, no_grad

            net = build_segnet(k=5, scale="mini")
            init_he(net, seed=1)
            irrg = synth_dataset(seed=2, n_tiles=1, size=64)[0][0].data
            with no_grad():
                forward_parts(net, Tensor(irrg[None]), mode="train")
            sys.stdout.write("before predict\\n")
            probs = predict_probs(net, irrg, TileGeometry(32, 32), threads=2)
            print("after predict", probs.shape)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ("before predict\n"
                               "after predict (5, 64, 64)\n")
        assert done.stderr == ""


class TestBenchmarkTracing:
    """perfbench/tracing.py wraps library functions by module attribute;
    a renamed or dropped binding fails its install with a KeyError."""

    def test_install_wraps_the_prediction_path(self, nets, scene):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        corr = make_corrector(in_channels=32, k=5)
        with tracing.install(tracer, segstack):
            predict_probs_fused(*nets, corr, scene[0][:, :32, :32],
                                scene[1][:, :32, :32], TileGeometry(32, 32))
        layers = {s[1] for s in tracer.spans}
        assert {"segnet.forward", "nnops.softmax", "fusion.fuse",
                "fusion.corrector", "datapipe.stitch"} <= layers
        assert segstack.inference.forward_parts is segstack.segnet.forward_parts

    CONFIG = TrainConfig(epochs=1, batch_size=2, patch=32)

    def test_install_wraps_the_training_path(self, tmp_path):
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        spec = build_segnet(k=5, scale="mini")
        init_he(spec, seed=3)
        data = [(irrg.data, labels) for irrg, _, labels
                in synth_dataset(seed=8, n_tiles=2, size=32)]
        with tracing.install(tracer, segstack):
            train_segnet(spec, data, self.CONFIG, tmp_path)
        layers = {s[1] for s in tracer.spans}
        assert {"training.save", "tenio.save", "tensor.backward",
                "nnops.cross_entropy"} <= layers

    def test_frozen_fusion_saves_through_training_save(self, nets, tmp_path):
        """The corrector's bundle is saved at init and after the epoch."""
        tracing = _load_tracing()
        tracer = tracing.Tracer()
        corr = make_corrector(in_channels=32, k=5)
        data = [(irrg.data, comp.data, labels) for irrg, comp, labels
                in synth_dataset(seed=8, n_tiles=2, size=32)]
        with tracing.install(tracer, segstack):
            train_fusion(*nets, corr, data, self.CONFIG, tmp_path)
        assert [s[1] for s in tracer.spans].count("training.save") == 2


class TestStreamedWorkers:
    """Children hand their maps over through rings of a few slots, so on
    a 96x96 scene at patch 32 and stride 16 (25 windows) every child's
    ring wraps. The CPU count is patched so that 3 workers really fork on
    a 2-CPU host."""

    GEOM = TileGeometry(32, 16)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)

    @staticmethod
    def stitched_list(specs, corr, bands, geom):
        """``stitch_average`` over the full list of window maps."""
        h, w = bands[0].shape[1:]
        windows = plan_tiles(h, w, geom)
        with no_grad():
            maps = [inference.window_map(
                specs, corr, [Tensor(b[None, :, win.top:win.top + win.height,
                                       win.left:win.left + win.width])
                              for b in bands])[0] for win in windows]
        return stitch_average(windows, maps, h, w)

    def test_bad_patch_refused_before_any_fork(self, net, scene,
                                               monkeypatch):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        self.cpus(monkeypatch, 2)
        with pytest.raises(ConfigError,
                           match="patch 30 must be divisible by 4"):
            predict_probs(net, scene[0], TileGeometry(30, 30), threads=2)
        assert forks == []

    def test_workers_capped_by_cpus(self, net, scene, monkeypatch):
        one = predict_probs(net, scene[0], TestForkedWorkers.GEOM, threads=1)
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()
        monkeypatch.setattr(os, "fork", counting_fork)
        self.cpus(monkeypatch, 2)
        many = predict_probs(net, scene[0], TestForkedWorkers.GEOM,
                             threads=50)
        assert len(forks) == 1
        np.testing.assert_array_equal(one, many)

    def test_three_workers_with_corrector_match_list_stitch(
            self, nets, scene, monkeypatch):
        corr = make_corrector(in_channels=32, k=5, hidden=8)
        init_corrector(corr, seed=5)
        w = corr.convs[2].weight.data
        w[...] = np.random.default_rng(5).normal(0, 0.1, w.shape)
        want = self.stitched_list(list(nets), corr, scene[:2], self.GEOM)
        self.cpus(monkeypatch, 3)
        for threads in (1, 2, 3):
            got = predict_probs_fused(*nets, corr, scene[0], scene[1],
                                      self.GEOM, threads)
            np.testing.assert_array_equal(got, want)
        TestForkedWorkers.assert_no_children()

    def test_child_killed_after_streaming(self, net, scene, monkeypatch):
        """The child maps windows 1, 3, ..., 23 and dies on its sixth, so
        the caller adds five of its maps and maps the other seven."""
        want = self.stitched_list([net], None, [scene[0]], self.GEOM)
        caller, calls = os.getpid(), []
        real = inference.window_map

        def patched(specs, corr, xs):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 6:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(specs, corr, xs)
        monkeypatch.setattr(inference, "window_map", patched)
        self.cpus(monkeypatch, 2)
        got = predict_probs(net, scene[0], self.GEOM, threads=2)
        np.testing.assert_array_equal(got, want)
        assert len(calls) == 13 + 7
        TestForkedWorkers.assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_does_not_grow_with_windows(self, threads):
        """A 256x256 scene at patch 32: stride 8 (841 windows) after
        stride 32 (49 windows) raises the peak RSS by under 4 MB. Keeping
        every map would take 17 MB."""
        src = Path(segstack.__file__).resolve().parents[1]
        script = textwrap.dedent(f"""
            import resource
            import numpy as np
            from segstack.datapipe import TileGeometry
            from segstack.inference import predict_probs
            from segstack.segnet import build_segnet, forward_parts, init_he
            from segstack.tensor import Tensor, no_grad

            net = build_segnet(k=5, scale="mini")
            init_he(net, seed=1)
            scene = np.random.default_rng(0).random((3, 256, 256),
                                                    dtype=np.float32)
            with no_grad():
                forward_parts(net, Tensor(scene[None, :, :32, :32]),
                              mode="train")
            peaks = []
            for stride in (32, 8):
                predict_probs(net, scene, TileGeometry(32, stride),
                              threads={threads})
                peaks.append(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024)
            print(peaks[1] - peaks[0])
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 4.0, f"peak grew {done.stdout} MB"
