import numpy as np
import pytest

from segstack import Tensor, cross_entropy_loss, nnops, segnet
from segstack.errors import (CheckpointError, ConfigError, FormatError,
                             ShapeError, SpecError)
from segstack.segnet import (build_segnet, forward, forward_parts, init_he,
                             load_checkpoint, load_encoder_checkpoint,
                             named_parameters, param_groups, save_checkpoint,
                             state_entries)
from segstack.tenio import save_bundle
from segstack.training import TrainConfig, train_segnet


def mini(k=5, seed=0, **kw):
    spec = build_segnet(k, scale="mini", **kw)
    init_he(spec, seed)
    return spec


class TestStructure:
    def test_mini_output_shape(self):
        spec = mini(k=5)
        out = forward(spec, Tensor(np.random.default_rng(0)
                                   .standard_normal((1, 3, 64, 64))
                                   .astype(np.float32)), mode="train")
        assert out.shape == (1, 5, 64, 64)

    def test_full_conv_census(self):
        spec = build_segnet(6, scale="full")
        enc = sum(len(b) for b in spec.enc_blocks)
        dec = sum(len(b) for b in spec.dec_blocks) + len(spec.head.branches)
        assert enc == 13
        assert dec == 13

    def test_full_channel_plan(self):
        spec = build_segnet(6, scale="full")
        assert [len(b) for b in spec.enc_blocks] == [2, 2, 3, 3, 3]
        assert [b[-1].params.out_channels for b in spec.enc_blocks] == \
            [64, 128, 256, 512, 512]
        assert spec.enc_blocks[0][0].params.in_channels == 3
        assert spec.enc_blocks[0][0].params.out_channels == 64
        # decoder blocks run deepest first; each hands its mirror's input
        # width to the next
        assert spec.dec_blocks[0][-1].params.out_channels == 512
        assert spec.dec_blocks[1][-1].params.out_channels == 256
        assert spec.dec_blocks[3][-1].params.out_channels == 64
        # final block keeps width; its real last conv is the head
        assert spec.dec_blocks[4][-1].params.out_channels == 64
        assert spec.head.in_channels == 64
        assert spec.head.out_channels == 6

    def test_mini_and_full_share_naming_scheme(self):
        names_mini = [n for n, _, _ in named_parameters(build_segnet(3, "mini"))]
        names_full = [n for n, _, _ in named_parameters(build_segnet(3, "full"))]
        assert "enc.b1.c0.weight" in names_mini
        assert "enc.b1.c0.weight" in names_full
        assert "dec.b2.c1.bn.gamma" in names_mini
        assert "head.s3.weight" in names_mini
        assert "head.s3.bias" in names_full
        # decoder naming counts down from the deepest block
        assert "dec.b5.c0.weight" in names_full
        assert not any(n.startswith("dec.b1.c1") for n in names_full)

    def test_asymmetric_input_round_trips_shapes(self):
        spec = mini(k=3)
        x = Tensor(np.random.default_rng(1)
                   .standard_normal((2, 3, 32, 48)).astype(np.float32))
        assert forward(spec, x, mode="train").shape == (2, 3, 32, 48)

    def test_indivisible_extent_rejected(self):
        spec = mini(k=3)
        with pytest.raises(ShapeError, match="divisible"):
            forward(spec, Tensor(np.zeros((1, 3, 66, 64), dtype=np.float32)),
                    mode="train")

    def test_wrong_channel_count_rejected(self):
        spec = mini(k=3)
        with pytest.raises(ShapeError, match="channels"):
            forward(spec, Tensor(np.zeros((1, 4, 64, 64), dtype=np.float32)),
                    mode="train")

    def test_bad_plans_rejected(self):
        with pytest.raises(SpecError):
            build_segnet(1, scale="mini")
        with pytest.raises(SpecError, match="scale"):
            build_segnet(3, scale="huge")
        with pytest.raises(SpecError, match="at least one branch"):
            build_segnet(3, scale="mini", head_scales=())

    def test_forward_is_finite(self):
        spec = mini(k=4, seed=3)
        x = Tensor(np.random.default_rng(2)
                   .standard_normal((2, 3, 32, 32)).astype(np.float32))
        logits, feats = forward_parts(spec, x, mode="train")
        assert np.isfinite(logits.data).all()
        assert np.isfinite(feats.data).all()
        assert feats.shape == (2, 16, 32, 32)
        assert logits.shape == (2, 4, 32, 32)

    def test_forward_and_training_build_no_features(self, monkeypatch,
                                                     tmp_path):
        spec = mini(k=5, seed=3)
        x = np.random.default_rng(2).standard_normal(
            (4, 3, 32, 32)).astype(np.float32)
        want = forward_parts(spec, Tensor(x), mode="train")[0].data

        def no_features(h):
            # the logits pass through to_nchw too; the features are pending
            if isinstance(h, nnops._Pending):
                raise AssertionError("trunk features built")
            return nnops.to_nchw(h)

        monkeypatch.setattr(segnet, "to_nchw", no_features)
        np.testing.assert_array_equal(
            forward(spec, Tensor(x), mode="train").data, want)
        labels = np.zeros((32, 32), np.uint8)
        train_segnet(spec, [(xi, labels) for xi in x],
                     TrainConfig(epochs=1, batch_size=4, patch=32), tmp_path)


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = mini(seed=7), mini(seed=7)
        for (n1, t1, _), (n2, t2, _) in zip(named_parameters(a),
                                            named_parameters(b)):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_different_seed_differs(self):
        a, b = mini(seed=7), mini(seed=8)
        assert not np.array_equal(a.enc_blocks[0][0].params.weight.data,
                                  b.enc_blocks[0][0].params.weight.data)

    def test_he_std(self):
        spec = mini(k=2, seed=0)
        w = spec.enc_blocks[1][0].params.weight  # 32x16x3x3 = 4608 values
        assert w.data.size >= 4096
        fan_in = 16 * 9
        assert w.data.std() == pytest.approx(np.sqrt(2 / fan_in), rel=0.1)

    def test_negative_seed_is_config_error(self):
        spec = build_segnet(k=5, scale="mini", in_channels=3)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            init_he(spec, seed=-1)

    def test_biases_zero(self):
        for _, t, _ in named_parameters(mini(seed=4)):
            pass
        spec = mini(seed=4)
        for n, t, _ in named_parameters(spec):
            if n.endswith(".bias") or n.endswith(".beta"):
                assert not t.data.any(), n


class TestParamGroups:
    def test_roles_and_multipliers(self):
        groups = param_groups(mini(), ratio=0.5)
        by_role = {g.role: g for g in groups}
        assert by_role["encoder"].lr_multiplier == 0.5
        assert by_role["decoder"].lr_multiplier == 1.0
        assert by_role["head"].lr_multiplier == 1.0

    def test_partition_is_total_and_disjoint(self):
        spec = mini()
        groups = param_groups(spec, 1.0)
        ids = [id(t) for g in groups for _, t in g.params]
        assert len(ids) == len(set(ids))
        assert len(ids) == len(named_parameters(spec))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            param_groups(mini(), ratio=-0.1)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(ConfigError, match="finite"):
            param_groups(mini(), ratio=ratio)


class TestCheckpoint:
    def run_training_forward(self, spec, seed=5):
        x = Tensor(np.random.default_rng(seed)
                   .standard_normal((2, 3, 32, 32)).astype(np.float32))
        return forward(spec, x, mode="train")

    def test_round_trip_forward_bitwise(self, tmp_path):
        spec = mini(k=4, seed=1)
        self.run_training_forward(spec)  # populate running stats
        x = Tensor(np.random.default_rng(9)
                   .standard_normal((1, 3, 64, 64)).astype(np.float32))
        before = forward(spec, x, mode="eval").data
        save_checkpoint(tmp_path / "ckpt", state_entries(spec))

        fresh = build_segnet(4, scale="mini")
        load_checkpoint(fresh, tmp_path / "ckpt")
        after = forward(fresh, x, mode="eval").data
        np.testing.assert_array_equal(before, after)

    def test_missing_parameter(self, tmp_path):
        spec = mini(k=3)
        save_bundle(tmp_path / "c2", [e for e in state_entries(spec)
                                      if e[0] != "dec.b1.c0.weight"])
        with pytest.raises(CheckpointError, match="missing.*dec.b1.c0.weight"):
            load_checkpoint(build_segnet(3, scale="mini"), tmp_path / "c2")

    def test_shape_mismatch_names_both_shapes(self, tmp_path):
        spec = mini(k=3)
        save_checkpoint(tmp_path / "c", state_entries(spec))
        other = build_segnet(4, scale="mini")
        with pytest.raises(CheckpointError, match=r"\(3,.*\(4,"):
            load_checkpoint(other, tmp_path / "c")

    def test_encoder_round_trip(self, tmp_path):
        src = mini(k=3, seed=11)
        self.run_training_forward(src)
        save_checkpoint(tmp_path / "c", state_entries(src))

        dst = mini(k=3, seed=99)
        dec_before = dst.dec_blocks[0][0].params.weight.data.copy()
        load_encoder_checkpoint(dst, tmp_path / "c")
        for (n, t, g), (_, t_src, _) in zip(named_parameters(dst),
                                            named_parameters(src)):
            if g == "encoder":
                np.testing.assert_array_equal(t.data, t_src.data)
        np.testing.assert_array_equal(dst.dec_blocks[0][0].params.weight.data,
                                      dec_before)
        # encoder running stats came along, so eval works immediately
        assert dst.enc_blocks[0][0].bn.initialized

    def test_decoder_only_bundle_rejected(self, tmp_path):
        spec = mini(k=3, seed=2)
        dec_only = [e for e in state_entries(spec) if e[2] != "encoder"]
        save_bundle(tmp_path / "dec", dec_only)
        with pytest.raises(CheckpointError, match="missing encoder parameters"):
            load_encoder_checkpoint(mini(k=3), tmp_path / "dec")

    def test_truncated_payload_leaves_net_untouched(self, tmp_path):
        spec = mini(k=3, seed=2)
        save_checkpoint(tmp_path / "c", state_entries(spec))
        victim = tmp_path / "c" / "enc.b2.c1.weight.ten"
        victim.write_bytes(victim.read_bytes()[:20])

        target = mini(k=3, seed=50)
        snapshot = [t.data.copy() for _, t, _ in named_parameters(target)]
        with pytest.raises(FormatError, match="truncated"):
            load_encoder_checkpoint(target, tmp_path / "c")
        for (n, t, _), before in zip(named_parameters(target), snapshot):
            np.testing.assert_array_equal(t.data, before, err_msg=n)

    def test_unknown_entry_rejected_on_full_load(self, tmp_path):
        spec = mini(k=3, seed=2)
        entries = state_entries(spec)
        entries.append(("mystery.weight", np.zeros(2, dtype=np.float32), "x"))
        save_bundle(tmp_path / "c2", entries)
        with pytest.raises(CheckpointError, match="unknown"):
            load_checkpoint(build_segnet(3, scale="mini"), tmp_path / "c2")


class TestTraining:
    def test_loss_backward_through_whole_net(self):
        spec = mini(k=4, seed=6)
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        labels = rng.integers(0, 4, size=(2, 32, 32))
        from segstack import backward
        loss = cross_entropy_loss(forward(spec, x, mode="train"), labels)
        backward(loss)
        for n, t, _ in named_parameters(spec):
            assert t.grad is not None, n
            assert np.isfinite(t.grad).all(), n
