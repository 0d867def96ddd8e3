import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segstack
from segstack.cli import build_parser, main
from oracles import read_p6
from segstack.datapipe import TileGeometry, read_pgm, write_pgm
from segstack.fusion import init_corrector, make_corrector
from segstack.inference import predict_probs_fused
from segstack.segnet import build_segnet, init_he, load_checkpoint
from segstack.tenio import read_ten, write_ten
from segstack.training import (TrainConfig, load_corrector, load_run,
                               measure_fusion_stats, train_fusion,
                               train_segnet)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth dataset plus two tiny trained runs, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "3",
                 "--tiles", "6", "--size", "32"]) == 0
    common = ["--data", str(data), "--epochs", "2", "--batch-size", "3",
              "--patch", "32"]
    assert main(["train", "--out", str(root / "run-a"), "--seed", "1",
                 *common]) == 0
    assert main(["train", "--out", str(root / "run-b"), "--stream", "comp",
                 "--seed", "2", *common]) == 0
    return root


class TestSynth:
    def test_layout(self, workspace):
        data = workspace / "data"
        stems = (data / "dataset.txt").read_text().split()
        assert len(stems) == 6 and stems[0] == "tile-000"
        for ext in (".irrg.ten", ".comp.ten", ".labels.pgm", ".render.ppm"):
            assert (data / f"tile-000{ext}").exists()
        irrg = read_ten(data / "tile-000.irrg.ten")
        assert irrg.shape == (3, 32, 32) and irrg.dtype == np.float32
        labels = read_pgm(data / "tile-000.labels.pgm")
        assert labels.shape == (32, 32)
        render = read_p6(data / "tile-000.render.ppm")
        assert render.shape == (32, 32, 3)

    def test_deterministic(self, workspace, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "again"), "--seed",
                     "3", "--tiles", "1", "--size", "32"]) == 0
        fresh = (tmp_path / "again" / "tile-000.irrg.ten").read_bytes()
        original = (workspace / "data" / "tile-000.irrg.ten").read_bytes()
        assert fresh == original

    @pytest.mark.parametrize("size, code, message", [
        ("7", 1, "tile size must be >= 32, got 7"),
        ("100000000", 2, "Unable to allocate 8.88 PiB"),
    ], ids=["below_32", "out_of_memory"])
    def test_refused_size_is_one_error_line(self, tmp_path, capsys, size,
                                            code, message):
        """The 8.9 PiB request fails at once, before anything is held."""
        capsys.readouterr()
        assert main(["synth", "--out", str(tmp_path / "d"), "--tiles", "1",
                     "--size", size]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("segstack: error:"), err
        assert message in err[0]
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_run_layout(self, workspace):
        manifest = json.loads((workspace / "run-a" / "manifest.json")
                              .read_text())
        assert manifest["status"] == "complete"
        assert manifest["variant"] == "plain"
        assert manifest["stream"] == "irrg"
        assert len(manifest["epochs"]) == 2
        assert (workspace / "run-a" / "checkpoint" / "index.txt").exists()

    def test_config_file_supplies_values(self, workspace, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=1\nbatch-size=2\n# comment\n"
                       "patch=32\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data",
                     str(workspace / "data"), "--out", str(out),
                     "--seed", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config"]["batch_size"] == 2
        # the file may supply the required flags too
        out = tmp_path / "from-file"
        cfg.write_text(f"data={workspace / 'data'}\nout={out}\nepochs=1\n"
                       "batch-size=3\npatch=32\n")
        assert main(["train", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["batch_size"] == 3

    def test_flags_beat_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=5\npatch=32\nbatch-size=3\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data",
                     str(workspace / "data"), "--out", str(out),
                     "--seed", "7", "--epochs", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning-rate=0.1\n")
        assert main(["train", "--config", str(cfg), "--data",
                     str(workspace / "data"), "--out",
                     str(tmp_path / "x")]) == 1

    def test_malformed_config_line_is_usage_error(self, workspace, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs\n")
        assert main(["train", "--config", str(cfg), "--data",
                     str(workspace / "data"), "--out",
                     str(tmp_path / "x")]) == 1

    def test_missing_config_file_is_usage_error(self, workspace, tmp_path,
                                                capsys):
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--data", str(workspace / "data"), "--out",
                     str(tmp_path / "x")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_multikernel_records_scales(self, workspace, tmp_path):
        out = tmp_path / "mk"
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(out), "--epochs", "1", "--batch-size", "3",
                     "--patch", "32", "--scales", "3,5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["head_scales"] == [3, 5]
        assert manifest["variant"] == "multikernel"

    def test_bad_scales_is_usage_error(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(tmp_path / "mk"), "--scales", "3,x"]) == 1
        assert "error: argument --scales: invalid scales value: '3,x'" in \
            capsys.readouterr().err

    def test_flag_prefix_is_usage_error(self, workspace, tmp_path, capsys):
        """--lr is a prefix of --lr-ratio only; it must not set it."""
        capsys.readouterr()
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(tmp_path / "x"), "--lr", "0.1"]) == 1
        assert "unrecognized arguments: --lr" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        parser, _ = build_parser()
        args = parser.parse_args(["train", "--data", "d", "--out", "o",
                                  "--lr-ratio", "0.5"])
        assert args.lr_ratio == 0.5 and args.base_lr == 0.01

    def test_negative_scale_is_data_error(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(tmp_path / "mk"), "--scales", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("segstack: error:") and "Traceback" not in err
        assert not (tmp_path / "mk").exists()

    def test_divergence_exit_code(self, workspace, tmp_path):
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(workspace / "data"), "--out",
                         str(tmp_path / "div"), "--epochs", "5",
                         "--batch-size", "3", "--patch", "32",
                         "--base-lr", "1e8"])
        assert code == 3
        manifest = json.loads((tmp_path / "div" / "manifest.json")
                              .read_text())
        assert manifest["status"] == "diverged"

    def test_diverged_run_writes_only_the_divergence_line(self, tmp_path):
        """The overflow of a diverging step reaches stderr once, as the
        loss check's error line, not as numpy warnings first."""
        assert main(["synth", "--out", str(tmp_path / "d"), "--tiles", "8",
                     "--size", "32"]) == 0
        src = Path(segstack.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "segstack.cli", "train", "--data", "d",
             "--out", "r", "--net", "mini", "--epochs", "2", "--patch", "32",
             "--base-lr", "1e8"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 3
        assert done.stderr == (
            "segstack: divergence: non-finite loss at epoch 1; last good "
            f"checkpoint kept at {os.path.join('r', 'checkpoint')}\n")

    def test_manifest_is_independent_of_working_directory(
            self, workspace, tmp_path, monkeypatch):
        """--data is recorded relative to the run directory, so an
        absolute and a relative spelling from two directories give the
        same bytes."""
        flags = ["--epochs", "1", "--batch-size", "3", "--patch", "32"]
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     "runs/one", *flags]) == 0
        monkeypatch.chdir(workspace)
        assert main(["train", "--data", "data", "--out",
                     str(tmp_path / "runs" / "two"), *flags]) == 0
        one, two = ((tmp_path / "runs" / r / "manifest.json").read_bytes()
                    for r in ("one", "two"))
        assert one == two
        data = json.loads(one)["data"]
        assert os.path.realpath(tmp_path / "runs" / "one" / data) == \
            os.path.realpath(workspace / "data")


class TestBadSeedsAndRates:
    """A negative seed, a non-finite learning rate or another out-of-range
    training value, from a flag or a config file, is a usage error: exit 1,
    one error line naming the value, no traceback, and nothing written. It
    is checked before any file is read, so a ``--patch`` larger than the
    tiles does not hide it."""

    def args(self, workspace, command):
        data = str(workspace / "data")
        runs = {"extend-scale": ["--run", str(workspace / "run-a"),
                                 "--new-scale", "5"],
                "train-fusion": ["--run-a", str(workspace / "run-a"),
                                 "--run-b", str(workspace / "run-b")]}
        return [command, "--data", data, *runs.get(command, []),
                "--epochs", "1", "--batch-size", "3", "--patch", "32"]

    def check(self, capsys, code, out, name):
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 1, err
        assert len(errors) == 1 and name in errors[0], err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, name", [
        ("train", ["--seed", "-1"], "seed"),
        ("train", ["--init-seed", "-1"], "--init-seed"),
        ("train", ["--seed", "-1", "--patch", "64"], "seed"),
        ("extend-scale", ["--init-seed", "-1"], "--init-seed"),
        ("train-fusion", ["--init-seed", "-1"], "--init-seed"),
        ("train", ["--base-lr", "nan"], "base_lr"),
        ("train", ["--base-lr", "inf"], "base_lr"),
        ("train", ["--lr-ratio", "nan"], "lr_ratio"),
        ("train", ["--lr-ratio", "inf"], "lr_ratio"),
        ("extend-scale", ["--lr-ratio", "nan", "--unfreeze-all"], "ratio"),
        ("extend-scale", ["--epochs", "0", "--patch", "64"], "epochs"),
        ("train-fusion", ["--batch-size", "0", "--patch", "64"],
         "batch_size"),
    ])
    def test_flag(self, workspace, tmp_path, capsys, command, flags, name):
        out = tmp_path / "run"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main([*self.args(workspace, command), "--out", str(out),
                         *flags])
        self.check(capsys, code, out, name)

    def test_synth_seed_flag(self, tmp_path, capsys):
        capsys.readouterr()
        code = main(["synth", "--out", str(tmp_path / "d"), "--seed", "-1",
                     "--tiles", "1", "--size", "32"])
        self.check(capsys, code, tmp_path / "d", "--seed")

    @pytest.mark.parametrize("command, line, name", [
        ("synth", "seed=-1", "seed"),
        ("train", "seed=-1", "seed"),
        ("train", "init-seed=-1", "init-seed"),
        ("train-fusion", "init-seed=-1", "init-seed"),
        ("train", "base-lr=nan", "base_lr"),
        ("train", "lr-ratio=inf", "lr_ratio"),
        ("train", "stream=nir", "stream"),
        ("train", "net=huge", "net"),
    ])
    def test_config_file(self, workspace, tmp_path, capsys, command, line,
                         name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "run"
        args = (["synth", "--tiles", "1", "--size", "32"]
                if command == "synth" else self.args(workspace, command))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main([*args, "--out", str(out), "--config", str(cfg)])
        self.check(capsys, code, out, name)


class TestExtendScale:
    def test_freezes_old_parameters(self, workspace, tmp_path):
        out = tmp_path / "ext"
        assert main(["extend-scale", "--run", str(workspace / "run-a"),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--new-scale", "5", "--epochs", "1", "--batch-size",
                     "3", "--patch", "32"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["head_scales"] == [3, 5]
        assert manifest["new_scale"] == 5
        # the trunk and the original branch came through bit-identical
        from segstack.tenio import load_bundle
        before = load_bundle(workspace / "run-a" / "checkpoint")
        after = load_bundle(out / "checkpoint")
        moved = []
        for name, entry in before.items():
            if name.endswith("running_mean") or name.endswith("running_var") \
                    or name.endswith("initialized"):
                continue
            if not np.array_equal(entry.array, after[name].array):
                moved.append(name)
        assert moved == []
        assert "head.s5.weight" in after


    def extend(self, workspace, out, *extra):
        return main(["extend-scale", "--run", str(workspace / "run-a"),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--new-scale", "5", "--epochs", "1", "--batch-size",
                     "3", "--patch", "32", *extra])

    def test_unfreeze_all_trains_every_group(self, workspace, tmp_path):
        assert self.extend(workspace, tmp_path / "ext", "--unfreeze-all") == 0
        manifest = json.loads((tmp_path / "ext" / "manifest.json")
                              .read_text())
        assert manifest["group_multipliers"] == {
            "encoder": 1.0, "decoder": 1.0, "head": 1.0}

    def test_config_file_boolean_switch(self, workspace, tmp_path):
        cfg = tmp_path / "ext.cfg"
        cfg.write_text("unfreeze-all=yes\nlr-ratio=0.5\n")
        assert self.extend(workspace, tmp_path / "ext", "--config",
                           str(cfg)) == 0
        manifest = json.loads((tmp_path / "ext" / "manifest.json")
                              .read_text())
        assert manifest["group_multipliers"] == {
            "encoder": 0.5, "decoder": 1.0, "head": 1.0}

    def test_config_file_bad_boolean_is_usage_error(self, workspace,
                                                    tmp_path, capsys):
        cfg = tmp_path / "ext.cfg"
        cfg.write_text("unfreeze-all=maybe\n")
        capsys.readouterr()
        assert self.extend(workspace, tmp_path / "ext", "--config",
                           str(cfg)) == 1
        assert "unfreeze-all: expected a boolean" in capsys.readouterr().err
        assert not (tmp_path / "ext").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--classes", "3"), ("--net", "full"), ("--stream", "comp")])
    def test_network_flags_are_usage_errors(self, workspace, tmp_path,
                                            flag, value):
        """The network comes from the loaded run, so these flags are not
        taken."""
        assert self.extend(workspace, tmp_path / "ext", flag, value) == 1
        assert not (tmp_path / "ext").exists()

    def test_network_config_key_is_unknown(self, workspace, tmp_path,
                                           capsys):
        cfg = tmp_path / "ext.cfg"
        cfg.write_text("classes=3\n")
        capsys.readouterr()
        assert self.extend(workspace, tmp_path / "ext", "--config",
                           str(cfg)) == 1
        assert "unknown config key 'classes'" in capsys.readouterr().err


class TestPredict:
    def test_outputs(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--run", str(workspace / "run-a"),
                     "--scene", str(workspace / "data" / "tile-000"),
                     "--out", str(out), "--patch", "32", "--stride",
                     "32"]) == 0
        probs = read_ten(out / "probs.ten")
        assert probs.shape == (5, 32, 32)
        labels = read_pgm(out / "labels.pgm")
        assert labels.shape == (32, 32)
        render = read_p6(out / "render.ppm")
        assert render.shape == (32, 32, 3)
        np.testing.assert_array_equal(probs.argmax(axis=0), labels)

    def test_deterministic_across_invocations(self, workspace, tmp_path):
        args = ["predict", "--run", str(workspace / "run-a"), "--scene",
                str(workspace / "data" / "tile-001"), "--patch", "32",
                "--stride", "16"]
        assert main([*args, "--out", str(tmp_path / "p1")]) == 0
        assert main([*args, "--out", str(tmp_path / "p2")]) == 0
        assert (tmp_path / "p1" / "probs.ten").read_bytes() == \
            (tmp_path / "p2" / "probs.ten").read_bytes()

    def test_two_workers_print_once_and_write_the_same_bytes(
            self, workspace, tmp_path):
        """The forked tile worker ends inside the prediction call: with
        stdout a pipe, the closing line is printed once, and the files
        match those of one worker."""
        args = ["predict", "--run", str(workspace / "run-a"), "--scene",
                str(workspace / "data" / "tile-001"), "--patch", "16",
                "--stride", "16"]
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
        src = Path(segstack.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run(
            [sys.executable, "-m", "segstack.cli", *args, "--out",
             str(tmp_path / "two"), "--threads", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("prediction written") == 1, done.stdout
        for name in ("probs.ten", "labels.pgm", "render.ppm"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_stride_changes_blend_not_shape(self, workspace, tmp_path):
        outs = []
        for stride in ("32", "16"):
            out = tmp_path / f"s{stride}"
            assert main(["predict", "--run", str(workspace / "run-a"),
                         "--scene", str(workspace / "data" / "tile-002"),
                         "--out", str(out), "--patch", "32", "--stride",
                         stride]) == 0
            outs.append(read_ten(out / "probs.ten"))
        assert outs[0].shape == outs[1].shape

    def test_dual_stream_average(self, workspace, tmp_path):
        out = tmp_path / "dual"
        assert main(["predict", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--scene",
                     str(workspace / "data" / "tile-000"), "--out",
                     str(out), "--patch", "32", "--stride", "32"]) == 0
        dual = read_ten(out / "probs.ten")
        singles = []
        for run in ("run-a", "run-b"):
            o = tmp_path / f"single-{run}"
            assert main(["predict", "--run", str(workspace / run),
                         "--scene", str(workspace / "data" / "tile-000"),
                         "--out", str(o), "--patch", "32", "--stride",
                         "32"]) == 0
            singles.append(read_ten(o / "probs.ten"))
        np.testing.assert_allclose(dual, (singles[0] + singles[1]) / 2,
                                   atol=1e-7)

    def test_non_finite_scene_is_data_error(self, workspace, tmp_path,
                                            capsys):
        bands = read_ten(workspace / "data" / "tile-000.irrg.ten")
        bands[2, 3, 4] = np.nan
        write_ten(tmp_path / "scene.irrg.ten", bands)
        out = tmp_path / "pred"
        capsys.readouterr()
        assert main(["predict", "--run", str(workspace / "run-a"),
                     "--scene", str(tmp_path / "scene"), "--out", str(out),
                     "--patch", "32", "--stride", "32"]) == 2
        assert "non-finite value nan at band 2, row 3, column 4" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_scene_smaller_than_patch_is_data_error(self, workspace,
                                                    tmp_path):
        assert main(["predict", "--run", str(workspace / "run-a"),
                     "--scene", str(workspace / "data" / "tile-000"),
                     "--out", str(tmp_path / "x"), "--patch", "128",
                     "--stride", "128"]) == 2

    def test_needs_some_run(self, workspace, tmp_path):
        assert main(["predict", "--scene",
                     str(workspace / "data" / "tile-000"),
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("extra", [
        ["--fusion-run", "run-b"], ["--run-a", "run-b"],
        ["--run-a", "run-a", "--run-b", "run-b"]],
        ids=["fusion_run", "run_a", "run_a_and_b"])
    def test_run_with_dual_stream_flags_is_usage_error(self, workspace,
                                                       tmp_path, capsys,
                                                       extra):
        """--run would be used and the other flags silently dropped."""
        extra = [str(workspace / e) if e.startswith("run") else e
                 for e in extra]
        capsys.readouterr()
        assert main(["predict", "--run", str(workspace / "run-a"), *extra,
                     "--scene", str(workspace / "data" / "tile-000"),
                     "--out", str(tmp_path / "x"), "--patch", "32",
                     "--stride", "32"]) == 1
        assert "--run alone" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestFusionCommands:
    def test_train_fusion_and_stats(self, workspace, tmp_path, capsys):
        out = tmp_path / "fusion"
        assert main(["train-fusion", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--data",
                     str(workspace / "data"), "--out", str(out),
                     "--epochs", "1", "--batch-size", "3",
                     "--patch", "32"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["variant"] == "fusion"
        assert manifest["corrector_in"] == 32
        capsys.readouterr()
        assert main(["fusion-stats", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(out), "--data", str(workspace / "data")]) == 0
        stdout = capsys.readouterr().out
        for key in ("m_avg=", "s_avg=", "m_corr=", "s_corr="):
            assert key in stdout

    def test_fused_predict_with_corrector(self, workspace, tmp_path):
        fusion = tmp_path / "fusion"
        assert main(["train-fusion", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--data",
                     str(workspace / "data"), "--out", str(fusion),
                     "--epochs", "1", "--batch-size", "3",
                     "--patch", "32"]) == 0
        out = tmp_path / "pred"
        assert main(["predict", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(fusion), "--scene",
                     str(workspace / "data" / "tile-003"), "--out",
                     str(out), "--patch", "32", "--stride", "32"]) == 0
        assert read_ten(out / "probs.ten").shape == (5, 32, 32)

    @pytest.mark.parametrize("flag, value", [
        ("--classes", "3"), ("--net", "full"), ("--stream", "comp")])
    def test_network_flags_are_usage_errors(self, workspace, tmp_path,
                                            flag, value):
        assert main(["train-fusion", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--data",
                     str(workspace / "data"), "--out", str(tmp_path / "f"),
                     "--epochs", "1", flag, value]) == 1
        assert not (tmp_path / "f").exists()


@pytest.fixture(scope="module")
def tuned_fusion(workspace):
    """A fusion run that fine-tuned copies of run-a and run-b."""
    out = workspace / "tuned-fusion"
    assert main(["train-fusion", "--run-a", str(workspace / "run-a"),
                 "--run-b", str(workspace / "run-b"), "--data",
                 str(workspace / "data"), "--out", str(out), "--epochs", "2",
                 "--batch-size", "3", "--patch", "32", "--base-lr", "0.05",
                 "--hidden", "8", "--unfreeze-streams"]) == 0
    return out


class TestFineTunedFusion:
    """A run trained with --unfreeze-streams is read with the streams it
    trained, not the ones in --run-a/--run-b."""

    def streams(self, workspace, tuned_fusion):
        """(original, fine-tuned) stream pairs and the corrector, loaded
        from the run files directly."""
        original = [load_run(workspace / r)[0] for r in ("run-a", "run-b")]
        tuned = [load_run(workspace / r)[0] for r in ("run-a", "run-b")]
        for spec, tag in zip(tuned, "ab"):
            load_checkpoint(spec, tuned_fusion / f"stream_{tag}")
        corr = make_corrector(in_channels=32, k=5, hidden=8)
        load_corrector(corr, tuned_fusion / "checkpoint")
        return original, tuned, corr

    def test_predict(self, workspace, tuned_fusion, tmp_path):
        out = tmp_path / "pred"
        scene = workspace / "data" / "tile-003"
        assert main(["predict", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(tuned_fusion), "--scene", str(scene), "--out",
                     str(out), "--patch", "32", "--stride", "32"]) == 0
        original, tuned, corr = self.streams(workspace, tuned_fusion)
        bands = [read_ten(f"{scene}.{s}.ten") for s in ("irrg", "comp")]
        geom = TileGeometry(32, 32)
        want = predict_probs_fused(*tuned, corr, *bands, geom)
        stale = predict_probs_fused(*original, corr, *bands, geom)
        assert not np.array_equal(want, stale)
        np.testing.assert_array_equal(read_ten(out / "probs.ten"), want)

    def test_fusion_stats(self, workspace, tuned_fusion, capsys):
        capsys.readouterr()
        assert main(["fusion-stats", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(tuned_fusion), "--data",
                     str(workspace / "data")]) == 0
        stdout = capsys.readouterr().out
        _, tuned, corr = self.streams(workspace, tuned_fusion)
        dataset = [(read_ten(workspace / "data" / f"tile-00{i}.irrg.ten"),
                    read_ten(workspace / "data" / f"tile-00{i}.comp.ten"),
                    read_pgm(workspace / "data" / f"tile-00{i}.labels.pgm"))
                   for i in range(6)]
        stats, corr_mag, _ = measure_fusion_stats(*tuned, corr, dataset)
        assert f"m_corr={stats.m_corr:.6f}\n" in stdout
        assert f"mean_correction_magnitude={corr_mag:.6f}\n" in stdout


@pytest.fixture(scope="module")
def library_runs(workspace):
    """Runs written by train_segnet and train_fusion with no
    manifest_extra: a plain irrg stream and a corrector over the CLI's
    run-a and run-b."""
    root = workspace / "library"
    samples = [(read_ten(workspace / "data" / f"tile-00{i}.irrg.ten"),
                read_pgm(workspace / "data" / f"tile-00{i}.labels.pgm"))
               for i in range(6)]
    cfg = TrainConfig(epochs=1, batch_size=3, patch=32)
    spec = build_segnet(k=5, scale="mini")
    init_he(spec, seed=4)
    train_segnet(spec, samples, cfg, root / "stream")
    (spec_a, _), (spec_b, _) = (load_run(workspace / r)
                                for r in ("run-a", "run-b"))
    comp = [read_ten(workspace / "data" / f"tile-00{i}.comp.ten")
            for i in range(6)]
    corr = make_corrector(in_channels=32, k=5, hidden=8)
    init_corrector(corr, seed=5)
    train_fusion(spec_a, spec_b, corr,
                 [(x, c, y) for (x, y), c in zip(samples, comp)], cfg,
                 root / "fusion")
    return root


class TestLibraryRuns:
    """The CLI reads runs the library wrote without CLI extras."""

    def fused(self, workspace):
        return ["--run-a", str(workspace / "run-a"), "--run-b",
                str(workspace / "run-b"), "--fusion-run",
                str(workspace / "library" / "fusion")]

    def test_predict_single_stream_run(self, workspace, library_runs,
                                       tmp_path):
        assert main(["predict", "--run", str(library_runs / "stream"),
                     "--scene", str(workspace / "data" / "tile-000"),
                     "--out", str(tmp_path / "pred"), "--patch", "32",
                     "--stride", "32"]) == 0
        assert read_ten(tmp_path / "pred" / "probs.ten").shape == (5, 32, 32)

    def test_extend_scale_single_stream_run(self, workspace, library_runs,
                                            tmp_path):
        out = tmp_path / "ext"
        assert main(["extend-scale", "--run", str(library_runs / "stream"),
                     "--data", str(workspace / "data"), "--out", str(out),
                     "--new-scale", "5", "--epochs", "1", "--batch-size",
                     "3", "--patch", "32"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["head_scales"] == [3, 5]
        assert manifest["in_channels"] == 3

    def test_predict_with_fusion_run(self, workspace, library_runs,
                                     tmp_path):
        assert main(["predict", *self.fused(workspace), "--scene",
                     str(workspace / "data" / "tile-001"), "--out",
                     str(tmp_path / "pred"), "--patch", "32", "--stride",
                     "32"]) == 0
        assert read_ten(tmp_path / "pred" / "probs.ten").shape == (5, 32, 32)

    def test_fusion_stats_of_fusion_run(self, workspace, library_runs,
                                        capsys):
        capsys.readouterr()
        assert main(["fusion-stats", *self.fused(workspace), "--data",
                     str(workspace / "data")]) == 0
        assert "m_corr=" in capsys.readouterr().out


class TestRunManifest:
    def scene(self, workspace):
        return ["--scene", str(workspace / "data" / "tile-000"), "--patch",
                "32", "--stride", "32"]

    def test_missing_stream_is_first_stream_for_every_run(self, workspace,
                                                          tmp_path):
        bare = tmp_path / "bare"
        shutil.copytree(workspace / "run-a", bare)
        manifest = json.loads((bare / "manifest.json").read_text())
        del manifest["stream"]
        (bare / "manifest.json").write_text(json.dumps(manifest))
        assert main(["predict", "--run", str(bare), "--out",
                     str(tmp_path / "single"), *self.scene(workspace)]) == 0
        assert main(["predict", "--run-a", str(bare), "--run-b", str(bare),
                     "--out", str(tmp_path / "dual"),
                     *self.scene(workspace)]) == 0
        np.testing.assert_array_equal(read_ten(tmp_path / "dual" / "probs.ten"),
                                      read_ten(tmp_path / "single" / "probs.ten"))

    @pytest.mark.parametrize("break_manifest", [
        lambda text: "{not json",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "head_scales"}),
    ], ids=["invalid_json", "missing_key"])
    def test_broken_manifest_is_data_error(self, workspace, tmp_path, capsys,
                                           break_manifest):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run-a", run)
        path = run / "manifest.json"
        path.write_text(break_manifest(path.read_text()))
        capsys.readouterr()
        assert main(["predict", "--run", str(run), "--out",
                     str(tmp_path / "pred"), *self.scene(workspace)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_unknown_stream_is_data_error(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run-a", run)
        path = run / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "stream": "nir"}))
        capsys.readouterr()
        assert main(["predict", "--run", str(run), "--out",
                     str(tmp_path / "pred"), *self.scene(workspace)]) == 2
        assert "unknown stream 'nir'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("k", "5"), ("in_channels", 3.0), ("scale", 1), ("head_scales", "3"),
        ("head_scales", [3.0]), ("checkpoint", 5)])
    def test_mistyped_run_value_is_data_error(self, workspace, tmp_path,
                                              capsys, key, value):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run-a", run)
        path = run / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    key: value}))
        capsys.readouterr()
        assert main(["predict", "--run", str(run), "--out",
                     str(tmp_path / "pred"), *self.scene(workspace)]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("corrector_in", "32"),
                                            ("hidden", 8.0)])
    def test_mistyped_fusion_value_is_data_error(self, workspace, tmp_path,
                                                 capsys, key, value):
        fusion = tmp_path / "fusion"
        fusion.mkdir()
        manifest = {"corrector_in": 32, "k": 5, "hidden": 8,
                    "checkpoint": "checkpoint", key: value}
        (fusion / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["predict", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(fusion), "--out", str(tmp_path / "pred"),
                     *self.scene(workspace)]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("outside", ["absolute", "parent"])
    def test_checkpoint_outside_run_is_data_error(self, workspace, tmp_path,
                                                  capsys, outside):
        # both paths name a loadable checkpoint, so only confinement
        # rejects them
        shutil.copytree(workspace / "run-a", tmp_path / "other")
        run = tmp_path / "run"
        shutil.copytree(workspace / "run-a", run)
        ckpt = (str(tmp_path / "other" / "checkpoint")
                if outside == "absolute" else "../other/checkpoint")
        path = run / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "checkpoint": ckpt}))
        capsys.readouterr()
        assert main(["predict", "--run", str(run), "--out",
                     str(tmp_path / "pred"), *self.scene(workspace)]) == 2
        assert "outside the run directory" in capsys.readouterr().err

    def test_missing_fusion_manifest_is_usage_error(self, workspace,
                                                    tmp_path):
        assert main(["predict", "--run-a", str(workspace / "run-a"),
                     "--run-b", str(workspace / "run-b"), "--fusion-run",
                     str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "pred"), *self.scene(workspace)]) == 1


def run_refused(capsys, argv, out):
    """Exit code and the one error line of a command that writes nothing
    to ``out``."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("segstack: error:"), err
    assert not out.exists()
    return code, err[0]


def _nan_at_1_2_3(bands):
    bands[1, 2, 3] = np.nan
    return bands


class TestHostileFiles:
    """Malformed inputs end in their documented exit code, not a
    traceback."""

    def run_main(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("segstack: error:")
        return code

    def test_negative_pgm_extents(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n-2 -3\n255\n" + bytes(6))
        assert self.run_main(capsys, [
            "evaluate", "--pred", str(bad), "--gt",
            str(workspace / "data" / "tile-000.labels.pgm")]) == 2

    def test_non_utf8_config_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=1\n\xff\xfe=2\n")
        assert self.run_main(capsys, [
            "train", "--config", str(cfg), "--data", str(workspace / "data"),
            "--out", str(tmp_path / "x")]) == 1

    def test_non_utf8_dataset_index(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "dataset.txt").write_bytes(b"tile-\xff\n")
        assert self.run_main(capsys, [
            "train", "--data", str(data), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("where", ["relative", "absolute"])
    def test_dataset_index_outside_data_dir(self, workspace, tmp_path,
                                            capsys, where):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        outside = tmp_path / "outside"
        outside.mkdir()
        for f in (workspace / "data").glob("tile-000.*"):
            shutil.copy(f, outside)
        stem = ("../outside/tile-000" if where == "relative"
                else str(outside / "tile-000"))
        (data / "dataset.txt").write_text(f"tile-000\n{stem}\n")
        assert self.run_main(capsys, [
            "train", "--data", str(data), "--out", str(tmp_path / "x"),
            "--epochs", "1", "--patch", "32"]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("corrupt, message", [
        (_nan_at_1_2_3,
         "has a non-finite value nan at band 1, row 2, column 3"),
        (lambda b: np.concatenate([b, b[:1]]),
         "has shape (4, 32, 32), not 3 bands"),
        (lambda b: np.ascontiguousarray(b[:, :, :16]),
         "has shape (3, 32, 16), not 3 bands over its labels' (32, 32)"),
    ], ids=["non_finite", "band_count", "extent_vs_labels"])
    def test_bad_training_tile_is_data_error(self, workspace, tmp_path,
                                             capsys, corrupt, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        tile = data / "tile-002.irrg.ten"
        write_ten(tile, corrupt(read_ten(tile)))
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--patch", "32"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("segstack: error:")
        assert f"{tile} {message}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("classes, message", [
        ("5", "tile-002.labels.pgm has label 7 at row 5, column 5, not below "
              "5 classes or 255"),
        ("3", ".labels.pgm has label"),
    ], ids=["label_7", "classes_3"])
    def test_label_outside_the_classes_is_data_error(
            self, workspace, tmp_path, capsys, classes, message):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        labels = read_pgm(data / "tile-002.labels.pgm")
        labels[5, 5] = 7
        write_pgm(data / "tile-002.labels.pgm", labels)
        out = tmp_path / "x"
        code, line = run_refused(capsys, [
            "train", "--data", str(data), "--out", str(out), "--classes",
            classes, "--epochs", "1", "--patch", "32"], out)
        assert code == 2 and str(data) in line and message in line
        assert f"not below {classes} classes" in line

    @pytest.mark.parametrize("patch, message", [
        ("100", "--patch 100 is larger than tile "),
        ("30", "patch 30 must be divisible by 4"),
    ], ids=["larger_than_tiles", "not_divisible"])
    def test_bad_patch_is_usage_error(self, workspace, tmp_path, capsys,
                                      patch, message):
        out = tmp_path / "x"
        code, line = run_refused(capsys, [
            "train", "--data", str(workspace / "data"), "--out", str(out),
            "--epochs", "1", "--patch", patch], out)
        assert code == 1 and message in line

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_predict_patch_not_divisible_is_usage_error(
            self, workspace, tmp_path, capsys, threads):
        out = tmp_path / "x"
        code, line = run_refused(capsys, [
            "predict", "--run", str(workspace / "run-a"), "--scene",
            str(workspace / "data" / "tile-000"), "--out", str(out),
            "--patch", "30", "--stride", "30", "--threads", threads], out)
        assert code == 1 and "patch 30 must be divisible by 4" in line

    def test_fusion_over_runs_of_other_classes_is_spec_error(
            self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        for path in data.glob("*.labels.pgm"):
            write_pgm(path, np.minimum(read_pgm(path), 3))
        assert main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run-4"), "--classes", "4", "--stream",
                     "comp", "--epochs", "1", "--patch", "32"]) == 0
        out = tmp_path / "f"
        code, line = run_refused(capsys, [
            "train-fusion", "--run-a", str(workspace / "run-a"), "--run-b",
            str(tmp_path / "run-4"), "--data", str(workspace / "data"),
            "--out", str(out), "--epochs", "1", "--patch", "32"], out)
        assert code == 2 and "stream a has 5 classes and stream b 4" in line
        # a corrector over two 4-class streams is refused with 5-class ones
        # when the fusion run loads, before any forward
        fusion = tmp_path / "fusion-4"
        assert main(["train-fusion", "--run-a", str(tmp_path / "run-4"),
                     "--run-b", str(tmp_path / "run-4"), "--data", str(data),
                     "--out", str(fusion), "--epochs", "1", "--patch",
                     "32"]) == 0
        runs = ["--run-a", str(workspace / "run-a"), "--run-b",
                str(workspace / "run-b"), "--fusion-run", str(fusion)]
        out = tmp_path / "pred"
        for argv in (["fusion-stats", *runs, "--data",
                      str(workspace / "data")],
                     ["predict", *runs, "--scene",
                      str(workspace / "data" / "tile-000"), "--out", str(out),
                      "--patch", "32", "--stride", "32"]):
            code, line = run_refused(capsys, argv, out)
            assert code == 2 and (
                "stream a has 5 classes and stream b 5, with 32 head channels "
                "in all; the corrector maps 32 channels to 4 classes") in line

    @pytest.mark.parametrize("case, exit_code, message", [
        ("mixed_extents", 2,
         "sample 1 has extent (64, 64), not sample 0's (32, 32)"),
        ("empty", 1, "dataset is empty"),
    ], ids=["mixed_extents", "empty"])
    def test_fusion_stats_on_data_it_cannot_score(
            self, workspace, tuned_fusion, tmp_path, capsys, case, exit_code,
            message):
        """Training crops tiles of mixed extent; fusion-stats scores whole
        tiles, so it refuses them, as it refuses no tiles at all."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        if case == "empty":
            (data / "dataset.txt").write_text("")
        else:
            assert main(["synth", "--out", str(tmp_path / "big"), "--tiles",
                         "1", "--size", "64"]) == 0
            for path in (tmp_path / "big").glob("tile-000.*"):
                shutil.copy(path, data / path.name.replace("000", "001"))
        code, line = run_refused(capsys, [
            "fusion-stats", "--run-a", str(workspace / "run-a"), "--run-b",
            str(workspace / "run-b"), "--fusion-run", str(tuned_fusion),
            "--data", str(data)], tmp_path / "nothing-written")
        assert code == exit_code and message in line

    @pytest.mark.parametrize("classes", ["6", "300"])
    def test_predict_refuses_more_classes_than_the_palette(
            self, workspace, tmp_path, capsys, classes):
        run = tmp_path / "run"
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(run), "--classes", classes, "--epochs", "1",
                     "--patch", "32"]) == 0
        out = tmp_path / "pred"
        code, line = run_refused(capsys, [
            "predict", "--run", str(run), "--scene",
            str(workspace / "data" / "tile-000"), "--out", str(out),
            "--patch", "32", "--stride", "32"], out)
        assert code == 2 and f"the run has {classes} classes" in line

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.encode() + b"\xff\n",
        lambda text: text.replace("\t16x3x3x3\t", "\t16xAx3x3\t",
                                  1).encode(),
    ], ids=["non_utf8", "bad_shape_token"])
    def test_broken_bundle_index(self, workspace, tmp_path, capsys, corrupt):
        run = tmp_path / "run"
        shutil.copytree(workspace / "run-a", run)
        index = run / "checkpoint" / "index.txt"
        text = index.read_text()
        assert "\t16x3x3x3\t" in text
        index.write_bytes(corrupt(text))
        assert self.run_main(capsys, [
            "predict", "--run", str(run), "--scene",
            str(workspace / "data" / "tile-000"), "--out",
            str(tmp_path / "pred"), "--patch", "32", "--stride", "32"]) == 2


class TestEvaluate:
    def test_perfect_prediction(self, workspace, capsys):
        gt = str(workspace / "data" / "tile-000.labels.pgm")
        assert main(["evaluate", "--pred", gt, "--gt", gt]) == 0
        stdout = capsys.readouterr().out
        assert "accuracy=1.000000" in stdout

    def test_radius_zero_scores_everything(self, workspace, capsys):
        gt = str(workspace / "data" / "tile-000.labels.pgm")
        assert main(["evaluate", "--pred", gt, "--gt", gt,
                     "--radius", "0"]) == 0
        assert "accuracy=1.000000" in capsys.readouterr().out

    def test_mismatched_shapes_is_data_error(self, workspace, tmp_path):
        from segstack.datapipe import write_pgm
        small = tmp_path / "small.pgm"
        write_pgm(small, np.zeros((8, 8), np.uint8))
        assert main(["evaluate", "--pred", str(small), "--gt",
                     str(workspace / "data" / "tile-000.labels.pgm")]) == 2


class TestUsage:
    def test_network_flags_only_where_a_network_is_built(self):
        _, registry = build_parser()
        for command, takes in (("train", True), ("extend-scale", False),
                               ("train-fusion", False)):
            dests = {a.dest for a in registry[command]._actions}
            for dest in ("classes", "net", "stream", "scales"):
                assert (dest in dests) == takes, (command, dest)

    def test_train_flags_mirror_train_config(self):
        """Every TrainConfig field has a flag on each training command,
        with the field's default."""
        _, registry = build_parser()
        for command in ("train", "extend-scale", "train-fusion"):
            parser = registry[command]
            flags = {a.dest: a for a in parser._actions}
            for f in dataclasses.fields(TrainConfig):
                action = flags[f.name]
                assert action.option_strings == [
                    "--" + f.name.replace("_", "-")], (command, f.name)
                assert parser.get_default(f.name) == f.default, \
                    (command, f.name)
                assert action.type is type(f.default), (command, f.name)

    def refused(self, workspace, tmp_path, capsys, argv):
        """``run_refused`` of ``argv``, whose ``{ws}`` is the workspace,
        with an ``--out`` unless it is ``evaluate``."""
        out = tmp_path / "out"
        argv = [a.format(ws=workspace) for a in argv]
        if argv[0] != "evaluate":
            argv += ["--out", str(out)]
        return run_refused(capsys, argv, out)

    FUSION = ["train-fusion", "--run-a", "{ws}/run-a", "--run-b",
              "{ws}/run-b", "--data", "{ws}/data", "--epochs", "1"]
    PREDICT = ["predict", "--run", "{ws}/run-a", "--scene",
               "{ws}/data/tile-000"]
    EVALUATE = ["evaluate", "--pred", "{ws}/data/tile-000.labels.pgm",
                "--gt", "{ws}/data/tile-000.labels.pgm"]

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--tiles", "0"], "tile count must be positive, got 0"),
        (["synth", "--tiles", "-1"], "tile count must be positive, got -1"),
        (["synth", "--size", "8"], "tile size must be >= 32, got 8"),
        ([*PREDICT, "--patch", "0"], "patch extent must be positive, got 0"),
        ([*PREDICT, "--stride", "0"], "stride must be in [1, patch=64], "
                                      "got 0"),
        (["predict", "--run", "{ws}/run-a", "--scene", "{ws}/data/none",
          "--stride", "0"], "stride must be in [1, patch=64], got 0"),
        ([*PREDICT, "--patch", "32", "--stride", "32", "--threads", "0"],
         "thread count must be >= 1, got 0"),
        ([*EVALUATE, "--radius", "-1"], "radius must be >= 0, got -1"),
        ([*EVALUATE, "--classes", "0"], "need at least 1 class, got 0"),
        ([*EVALUATE, "--classes", "-1"], "need at least 1 class, got -1"),
        (["evaluate", "--pred", "{ws}/none.pgm", "--gt",
          "{ws}/data/tile-000.labels.pgm", "--classes", "0"],
         "need at least 1 class, got 0"),
        ([*FUSION, "--hidden", "0"], "at least 1 hidden channel, got 0"),
        ([*FUSION, "--hidden", "-3"], "at least 1 hidden channel, got -3"),
    ], ids=["tiles_0", "tiles_-1", "size_8", "patch_0", "stride_0",
            "stride_0_missing_scene", "threads_0", "radius_-1", "classes_0",
            "classes_-1", "classes_0_missing_pred", "hidden_0", "hidden_-3"])
    def test_out_of_range_flag_is_usage_error(self, workspace, tmp_path,
                                              capsys, argv, message):
        code, line = self.refused(workspace, tmp_path, capsys, argv)
        assert code == 1 and message in line

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "{ws}/data", "--classes", "1"],
         "need at least 2 classes, got 1"),
        (["train", "--data", "{ws}/data", "--scales", "4"],
         "positive odd kernel size, got 4"),
        (["train", "--data", "{ws}/data", "--scales", "3,3"],
         "strictly ascending by size, got [3, 3]"),
        (["extend-scale", "--run", "{ws}/run-a", "--data", "{ws}/data",
          "--new-scale", "3", "--patch", "32"],
         "strictly ascending by size, got [3, 3]"),
    ], ids=["classes_1", "even_scale", "repeated_scale", "repeated_new_scale"])
    def test_network_builder_check_is_data_error(self, workspace, tmp_path,
                                                 capsys, argv, message):
        """The builder checks the run manifests' values too, where a bad
        one is a data error; a flag that reaches them exits the same."""
        code, line = self.refused(workspace, tmp_path, capsys, argv)
        assert code == 2 and message in line

    def test_os_error_is_exit_2_without_traceback(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        capsys.readouterr()
        assert main(["synth", "--out", str(taken), "--tiles", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("segstack: error:")
        assert "Traceback" not in err

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_train_mk_is_gone(self, workspace, tmp_path, capsys):
        """``train --scales`` trains a multi-kernel head; no command of
        its own does."""
        out = tmp_path / "mk"
        capsys.readouterr()
        assert main(["train-mk", "--data", str(workspace / "data"), "--out",
                     str(out)]) == 1
        assert "invalid choice: 'train-mk'" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["synth", "--out", "x", "--bogus"]) == 1
        capsys.readouterr()

    def test_missing_dataset_directory(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "out")]) == 1
