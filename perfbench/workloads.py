"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next training call
or scene starts when the previous one returns. Inputs come from
``synth_dataset`` under the workload seed; the library is reached only
through its public API.

* ``train_mk``: ``train_segnet`` on the mini net with the (3,5,7) head.
* ``train_full``: ``train_segnet`` on the full 13-unit VGG net.
* ``predict_fused``: ``predict_probs_fused`` with two trained streams and
  a trained corrector, patch 64, stride 64, two tile threads.
"""

import json
import multiprocessing
import os
import time

import numpy as np

import segstack as ss

K = 5
PATCH = 64
BATCH = 4
# One train_segnet call is one epoch over the 32 tiles that `segstack synth`
# makes by default: 8 steps and 2 checkpoint saves (initial and end of
# epoch), 0.25 saves per step. The CLI's default run (10 epochs) makes 11
# saves in 80 steps, 0.14 per step; ten epochs per call would not fit a run
# on the full net.
TRAIN_TILES = 32
TRAIN_EPOCHS = 1
SCENE = 512
N_SCENES = 2          # scenes alternate, so every scene is predicted repeatedly
FIXTURE_TILES = 24
# At the default learning rate of 0.01 the streams still predict one class
# everywhere after a few epochs; at 0.05 they learn the minority classes in
# six, so the accuracy check below can tell a working map from a constant
# one.
FIXTURE_EPOCHS = 6
FIXTURE_LR = 0.05
CORRECTOR_EPOCHS = 1
# As in the repository's own fusion fixture: at the stream rate the corrector
# drifts onto logit scale and its map collapses to one class.
CORRECTOR_LR = 1e-5
CORRECTOR_HIDDEN = 64
ERODE_RADIUS = 3
# eroded_acc must reach this share of the fixture's final training accuracy,
# and beat the best constant map
ACC_FLOOR_SHARE = 0.8


def _weights(named):
    """(unit name, weight ndarray) for every conv weight in ``named``."""
    return [(name[:-len(".weight")], t.data) for name, t in named
            if name.endswith(".weight")]


class TimedDataset:
    """Training samples whose fetches mark step boundaries.

    ``train_segnet`` fetches each batch as ``batch_size`` consecutive
    ``__getitem__`` calls, so every ``batch_size``-th call starts a step.
    """

    def __init__(self, samples, batch_size, tracer=None):
        if len(samples) % batch_size:
            raise ValueError("sample count must be a multiple of the batch size")
        self.samples = samples
        self.batch_size = batch_size
        self.tracer = tracer
        self.step_starts = []
        self._fetches = 0

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        if self._fetches % self.batch_size == 0:
            self.step_starts.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.new_request()
        self._fetches += 1
        if self.tracer is None:
            return self.samples[i]
        with self.tracer.span("datapipe.data_wait"):
            return self.samples[i]


class TrainWorkload:
    kind = "train"
    threads = 1
    tile_px = PATCH * PATCH

    def __init__(self, seed, work, net, head_scales):
        self.seed = seed
        self.work = work
        self.net = net
        self.head_scales = head_scales
        self.config = ss.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=BATCH,
                                     seed=seed, patch=PATCH, lr_ratio=1.0)
        self.run_dir = os.path.join(work, "run")
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.reference = None   # epoch losses of the first timed call
        self.last_manifest = None
        self.spec = None

    def prepare(self):
        tiles = ss.synth_dataset(self.seed, TRAIN_TILES, PATCH, k=K)
        self.samples = [(irrg.data, labels) for irrg, _, labels in tiles]

    def setup(self):
        spec = ss.build_segnet(k=K, scale=self.net, in_channels=3,
                               head_scales=self.head_scales)
        ss.init_he(spec, seed=self.seed)
        self.spec = spec

    def unit_weights(self):
        return _weights((n, t) for n, t, _ in ss.named_parameters(self.spec))

    def _call(self, samples, tracer=None):
        """One train_segnet run on a freshly built and seeded net. Returns
        (per-step wall times, call wall time, manifest)."""
        self.setup()
        if tracer is not None:
            tracer.register_units(self.unit_weights())
            tracer.request = None  # the initial save precedes the first step
        data = TimedDataset(samples, BATCH, tracer)
        t0 = time.perf_counter()
        manifest = ss.train_segnet(self.spec, data, self.config, self.run_dir)
        t1 = time.perf_counter()
        bounds = data.step_starts + [t1]
        steps = [b - a for a, b in zip(bounds, bounds[1:])]
        return steps, t1 - t0, manifest

    def _check_call(self, steps, manifest):
        """Every call must complete with finite losses and reproduce the
        first timed call's loss trajectory (same seed, same data)."""
        losses = [e["loss"] for e in manifest["epochs"]]
        problems = []
        if manifest.get("status") != "complete":
            problems.append(f"manifest status {manifest.get('status')!r}")
        if not all(np.isfinite(losses)):
            problems.append(f"non-finite epoch loss in {losses}")
        if self.reference is None:
            self.reference = losses
        elif losses != self.reference:
            problems.append(f"loss trajectory {losses} differs from the "
                            f"first run's {self.reference}")
        self.attempted += len(steps)
        if problems:
            self.failed += len(steps)
            self.failures += problems

    def _warm_call(self):
        """An untimed call on a single batch; returns its epoch losses."""
        steps, _, manifest = self._call(self.samples[:BATCH])
        losses = [e["loss"] for e in manifest["epochs"]]
        self.attempted += len(steps)
        if manifest.get("status") != "complete" or not all(np.isfinite(losses)):
            self.failed += len(steps)
            self.failures.append(f"one-batch call: status "
                                 f"{manifest.get('status')!r}, losses {losses}")
        return losses

    def warmup(self):
        """One untimed step."""
        self.warm_losses = self._warm_call()

    def iterate(self, tracer=None):
        steps, wall, manifest = self._call(self.samples, tracer)
        self._check_call(steps, manifest)
        self.last_manifest = manifest
        self.last_steps = len(steps)
        return steps, wall, len(steps) * BATCH * self.tile_px

    def final_checks(self):
        """The last timed call's checkpoint, reloaded into a fresh net,
        must give bitwise-identical eval logits on one batch. Then the
        warm-up call is repeated and must give the same losses: the
        determinism check, also when the timed loop made only one call."""
        fresh = ss.build_segnet(k=K, scale=self.net, in_channels=3,
                                head_scales=self.head_scales)
        ss.load_checkpoint(fresh, os.path.join(self.run_dir,
                                               self.last_manifest["checkpoint"]))
        x = ss.Tensor(np.stack([s[0] for s in self.samples[:BATCH]]))
        with ss.no_grad():
            a = ss.forward(self.spec, x, mode="eval").data
            b = ss.forward(fresh, x, mode="eval").data
        if not np.array_equal(a, b):
            self.failed += self.last_steps
            self.failures.append("reloaded checkpoint gives different eval "
                                 "logits")
        losses = self._warm_call()
        if losses != self.warm_losses:
            self.failed += 1
            self.failures.append(f"repeated one-batch call gives losses "
                                 f"{losses}, first gave {self.warm_losses}")

    def quality(self):
        return {"train_loss_final": self.reference[-1]}


def _train_stream(seed, tiles, stream, out_dir):
    idx = 0 if stream == "irrg" else 1
    spec = ss.build_segnet(k=K, scale="mini", in_channels=3)
    ss.init_he(spec, seed=seed)
    config = ss.TrainConfig(epochs=FIXTURE_EPOCHS, batch_size=BATCH, seed=seed,
                            patch=PATCH, base_lr=FIXTURE_LR)
    manifest = ss.train_segnet(
        spec, [(t[idx].data, t[2]) for t in tiles], config, out_dir,
        manifest_extra={"variant": "plain", "stream": stream,
                        "in_channels": 3, "n_tiles": len(tiles),
                        "init_seed": seed})
    return spec, manifest


def _load_run(run_dir):
    """Rebuild a trained stream from its run directory as ``segstack
    predict`` does: manifest, then build_segnet, then load_checkpoint."""
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    spec = ss.build_segnet(k=manifest["k"], scale=manifest["scale"],
                           in_channels=manifest["in_channels"],
                           head_scales=tuple(manifest["head_scales"]))
    ss.load_checkpoint(spec, os.path.join(run_dir, manifest["checkpoint"]))
    return spec


def _load_corrector(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    corr = ss.make_corrector(in_channels=manifest["corrector_in"],
                             k=manifest["k"], hidden=manifest["hidden"])
    ss.load_corrector(corr, os.path.join(run_dir, manifest["checkpoint"]))
    return corr


class PredictWorkload:
    """Dual-stream residual-fused prediction of whole scenes."""
    kind = "predict"
    streams = ("irrg", "comp")

    def __init__(self, seed, work, stride, threads):
        self.seed = seed
        self.work = work
        self.geom = ss.TileGeometry(PATCH, stride)
        self.threads = threads
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.maps = {}       # scene index -> first map predicted for it
        self.accuracy = {}   # scene index -> eroded accuracy
        self.floors = {}     # scene index -> accuracy floor
        self.scene_no = 0

    def run_dir(self, stream):
        return os.path.join(self.work, "fixture", stream)

    def scene_path(self, i, stream):
        return os.path.join(self.work, "scenes", f"scene-{i:03d}.{stream}.ten")

    def prepare(self):
        """Train the fixture and write the scenes in a child process, so
        the fixture's training stays out of this process's peak RSS.
        Untimed, and outside set-up."""
        child = multiprocessing.get_context("fork").Process(
            target=self._write_fixture)
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"fixture process exited with {child.exitcode}")
        with open(os.path.join(self.work, "fixture.json")) as fh:
            self.train_acc = json.load(fh)["train_acc"]
        self.truth = [np.load(self.truth_path(i)) for i in range(N_SCENES)]

    def truth_path(self, i):
        return os.path.join(self.work, "scenes", f"truth-{i:03d}.npy")

    def _write_fixture(self):
        """Train the two streams and the corrector, write the scenes and
        the eroded ground truth, and record the lowest final training
        accuracy of the streams in fixture.json."""
        tiles = ss.synth_dataset(2 * self.seed, FIXTURE_TILES, PATCH, k=K)
        trained = {s: _train_stream(self.seed, tiles, s, self.run_dir(s))
                   for s in self.streams}
        (spec_a, _), (spec_b, _) = trained["irrg"], trained["comp"]
        corr_in = spec_a.head.in_channels + spec_b.head.in_channels
        corr = ss.make_corrector(in_channels=corr_in, k=K,
                                 hidden=CORRECTOR_HIDDEN)
        ss.init_corrector(corr, seed=self.seed)
        config = ss.TrainConfig(epochs=CORRECTOR_EPOCHS, batch_size=BATCH,
                                seed=self.seed, patch=PATCH,
                                base_lr=CORRECTOR_LR)
        ss.train_fusion(spec_a, spec_b, corr,
                        [(t[0].data, t[1].data, t[2]) for t in tiles],
                        config, self.run_dir("fusion"),
                        manifest_extra={"corrector_in": corr_in,
                                        "hidden": CORRECTOR_HIDDEN,
                                        "n_tiles": len(tiles),
                                        "init_seed": self.seed})
        scenes = ss.synth_dataset(2 * self.seed + 1, N_SCENES, SCENE, k=K)
        os.makedirs(os.path.join(self.work, "scenes"), exist_ok=True)
        for i, (irrg, comp, labels) in enumerate(scenes):
            ss.write_ten(self.scene_path(i, "irrg"), irrg.data)
            ss.write_ten(self.scene_path(i, "comp"), comp.data)
            np.save(self.truth_path(i),
                    ss.erode_boundaries(labels, radius=ERODE_RADIUS))
        train_acc = min(m["epochs"][-1]["accuracy"] for _, m in trained.values())
        with open(os.path.join(self.work, "fixture.json"), "w") as fh:
            json.dump({"train_acc": train_acc}, fh)

    def setup(self):
        self.specs = [_load_run(self.run_dir(s)) for s in self.streams]
        self.corr = _load_corrector(self.run_dir("fusion"))
        self.bands = [[ss.read_ten(self.scene_path(i, s)) for s in self.streams]
                      for i in range(N_SCENES)]

    def unit_weights(self):
        out = []
        for spec in self.specs:
            out += _weights((n, t) for n, t, _ in ss.named_parameters(spec))
        return out + _weights(self.corr.tensors())

    def _predict(self, i, threads):
        bands = self.bands[i]
        return ss.predict_probs_fused(self.specs[0], self.specs[1], self.corr,
                                      bands[0], bands[1], self.geom, threads)

    def _check_scene(self, i, probs):
        problems = []
        if not np.isfinite(probs).all():
            problems.append(f"scene {i}: non-finite values")
        if i in self.maps:
            if not np.array_equal(probs, self.maps[i]):
                problems.append(f"scene {i}: repeated prediction differs")
        else:
            self.maps[i] = probs
            truth = self.truth[i]
            valid = truth != ss.IGNORE_LABEL
            pred = ss.labels_from_probs(probs)
            acc = float((pred[valid] == truth[valid]).mean())
            self.accuracy[i] = acc
            constant = np.bincount(truth[valid]).max() / valid.sum()
            self.floors[i] = floor = max(ACC_FLOOR_SHARE * self.train_acc,
                                         float(constant))
            if acc <= floor:
                problems.append(f"scene {i}: eroded accuracy {acc:.4f} not "
                                f"above floor {floor:.4f}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += problems

    def warmup(self):
        self._check_scene(0, self._predict(0, self.threads))

    def iterate(self, tracer=None):
        i = self.scene_no % N_SCENES
        self.scene_no += 1
        if tracer is not None:
            tracer.new_request()
        t0 = time.perf_counter()
        probs = self._predict(i, self.threads)
        wall = time.perf_counter() - t0
        self._check_scene(i, probs)
        return [wall], wall, SCENE * SCENE

    def final_checks(self):
        """Fused prediction is bitwise independent of the thread count."""
        single = self._predict(0, 1)
        self.attempted += 1
        if not np.array_equal(single, self.maps[0]):
            self.failed += 1
            self.failures.append(f"threads=1 map differs from threads="
                                 f"{self.threads} map")

    def quality(self):
        return {"eroded_acc": float(np.mean(list(self.accuracy.values()))),
                "eroded_acc_floor": float(np.mean(list(self.floors.values())))}


def make(name, seed, work):
    if name == "train_mk":
        return TrainWorkload(seed, work, "mini", (3, 5, 7))
    if name == "train_full":
        return TrainWorkload(seed, work, "full", (3,))
    if name == "predict_fused":
        return PredictWorkload(seed, work, stride=64, threads=2)
    raise KeyError(name)


NAMES = ("train_mk", "train_full", "predict_fused")
