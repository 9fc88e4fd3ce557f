"""Fusion decoder: state update semantics, injection, shape and ablation contracts."""

import numpy as np
import pytest

from lightavseg.backbones import AudioState
from lightavseg.decoder import (
    DecoderStageParams, FusionDecoder, audio_state_update, visual_inject,
)
from lightavseg.model import ModelConfig, SegModel
from lightavseg.tensor import FLOPS, RngState, Tensor, add, bilinear_upsample, grad_check
from lightavseg.attention import fit_loglog_slope
from lightavseg.losses import total_loss


def dec_params(c, seed=0):
    return DecoderStageParams("d.{}", c, c, RngState(seed), {})


class TestAudioStateUpdate:
    def test_all_zero_inputs_zero_biases_give_zero(self):
        p = dec_params(3)
        z = AudioState(Tensor(np.zeros((2, 3, 1, 1))))
        v = Tensor(np.zeros((2, 3, 4, 4)))
        out = audio_state_update(z, z, v, p)
        np.testing.assert_array_equal(out.value.data, 0.0)

    def test_saturated_gate_identity_on_first_half(self):
        p = dec_params(2)
        p.proj_prev.weight.data[...] = np.eye(2)
        p.proj_enc.weight.data[...] = np.eye(2)
        p.fuse_map.weight.data[...] = np.hstack([np.eye(2), np.zeros((2, 2))])
        p.fuse_map.bias.data[...] = 0.0
        p.gate_map.weight.data[...] = 0.0
        p.gate_map.bias.data[...] = 100.0
        a_prev = AudioState(Tensor(np.array([0.7, -0.3]).reshape(1, 2, 1, 1)))
        a_enc = AudioState(Tensor(RngState(1).uniform((1, 2, 1, 1))))
        out = audio_state_update(a_prev, a_enc, Tensor(np.zeros((1, 2, 2, 2))), p)
        np.testing.assert_allclose(out.value.data.ravel(), [0.7, 0.0])  # ReLU clips

    def test_hand_two_channel_case(self):
        # concatenated state [1,-1 | 2,0], fuse sums pairs -> ReLU([3,-1]) = [3,0],
        # gate [0.5, 1] -> [1.5, 0]
        p = dec_params(2)
        p.proj_prev.weight.data[...] = np.eye(2)
        p.proj_enc.weight.data[...] = np.eye(2)
        p.fuse_map.weight.data[...] = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        p.fuse_map.bias.data[...] = 0.0
        p.gate_map.weight.data[...] = 0.0
        p.gate_map.bias.data[...] = [0.0, 100.0]
        a_prev = AudioState(Tensor(np.array([1.0, -1.0]).reshape(1, 2, 1, 1)))
        a_enc = AudioState(Tensor(np.array([2.0, 0.0]).reshape(1, 2, 1, 1)))
        out = audio_state_update(a_prev, a_enc, Tensor(np.zeros((1, 2, 2, 2))), p)
        np.testing.assert_allclose(out.value.data.ravel(), [1.5, 0.0])

    def test_output_nonnegative_for_any_inputs(self):
        p = dec_params(4, seed=2)
        rng = RngState(3)
        for trial in range(10):
            a1 = AudioState(Tensor(rng.uniform((2, 4, 1, 1), -5, 5)))
            a2 = AudioState(Tensor(rng.uniform((2, 4, 1, 1), -5, 5)))
            v = Tensor(rng.uniform((2, 4, 3, 3), -5, 5))
            out = audio_state_update(a1, a2, v, p)
            assert np.all(out.value.data >= 0.0)


class TestVisualInject:
    def test_zero_state_zero_bias_identity(self):
        p = dec_params(3)
        v = Tensor(RngState(1).uniform((2, 3, 4, 4)))
        out = visual_inject(v, AudioState(Tensor(np.zeros((2, 3, 1, 1)))), p)
        np.testing.assert_array_equal(out.data, v.data)

    def test_hand_constant_bias(self):
        p = dec_params(1)
        p.inject_map.weight.data[...] = [[1.0]]
        p.inject_map.bias.data[...] = 0.0
        v = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        a = AudioState(Tensor(np.full((1, 1, 1, 1), 0.5)))
        out = visual_inject(v, a, p)
        np.testing.assert_allclose(out.data[0, 0], [[0.5, 1.5], [2.5, 3.5]])

    def test_contrast_preservation(self):
        p = dec_params(2, seed=4)
        v = Tensor(RngState(5).uniform((1, 2, 3, 3)))
        a = AudioState(Tensor(RngState(6).uniform((1, 2, 1, 1))))
        out = visual_inject(v, a, p).data
        d_out = out[0, 0, 0, 0] - out[0, 0, 1, 2]
        d_in = v.data[0, 0, 0, 0] - v.data[0, 0, 1, 2]
        assert d_out == pytest.approx(d_in, abs=1e-12)


def tiny_model(seed=0):
    cfg = ModelConfig(stage_channels=(4, 5, 6, 7), audio_channels=8, stem_channels=3)
    return SegModel(cfg, RngState(seed))


class TestDecoderForward:
    def test_logits_shape_at_input_resolution(self):
        model = SegModel(ModelConfig(), RngState(0))
        frames = Tensor(RngState(1).uniform((1, 3, 224, 224), 0, 1))
        mel = Tensor(RngState(2).uniform((1, 96, 64), -20, 0))
        seg, _ = model.forward(frames, mel)
        assert seg.logits.shape == (1, 1, 224, 224)

    def test_per_stage_feature_list_has_three_entries(self):
        model = tiny_model()
        frames = Tensor(RngState(3).uniform((2, 3, 32, 32), 0, 1))
        mel = Tensor(RngState(4).uniform((2, 96, 64), -20, 0))
        seg, _ = model.forward(frames, mel)
        assert len(seg.per_stage_features) == 3
        assert len(seg.audio_states) == 3
        # deepest first; widths match the deepest three stages
        assert [f.shape[1] for f in seg.per_stage_features] == [7, 6, 5]

    def test_muted_audio_equals_pure_visual_fpn_decode(self):
        # zero audio state at zero-bias init: the output must equal a decode
        # composed by hand from the visual stages and the FPN merges alone
        model = tiny_model()
        frames = Tensor(RngState(5).uniform((1, 3, 32, 32), 0, 1))
        seg_muted, _ = model.forward(frames, None)

        backbone, dec = model.backbone, model.decoder
        feats = [backbone.stem_forward(frames)]
        for i in range(4):
            feats.append(backbone.stage_forward(i, feats[-1]))
        merged = feats[4]
        for i in (2, 1, 0):
            v = feats[i + 1]
            up = bilinear_upsample(merged, v.shape[2], v.shape[3])
            merged = add(dec.align[i + 1](up), v)
        logits = bilinear_upsample(dec.head(merged), 32, 32)
        np.testing.assert_array_equal(seg_muted.logits.data, logits.data)

    def test_recurrence_nondegenerate(self):
        # replacing the recurrent input with zeros must change the output
        model = tiny_model(seed=11)
        # move biases off zero so the zero-state shortcut is not silently dead
        jit = RngState(99)
        for name, p in model.params.items():
            if name.endswith(".bias"):
                p.data += jit.uniform(p.data.shape, 0.01, 0.05)
        frames = Tensor(RngState(6).uniform((1, 3, 32, 32), 0, 1))
        mel = Tensor(RngState(7).uniform((1, 96, 64), -20, 0))
        a0 = model.initial_audio_state(mel, 1)
        enc = model.encoder.forward(frames, a0)
        normal = model.decoder.forward(enc, (32, 32))
        # proj_prev with a zero weight maps any state to its bias, exactly what
        # it maps a zero state to, so this severs the recurrent input
        severed = [n for n in model.params if n.endswith(".proj_prev.weight")]
        assert severed == [f"decoder.s{i}.proj_prev.weight" for i in (4, 3, 2)]
        for name in severed:
            model.params[name].data[...] = 0.0
        broken = model.decoder.forward(enc, (32, 32))
        diff = np.abs(normal.logits.data - broken.logits.data).max()
        assert diff > 1e-6, diff

    def test_decoder_interaction_flops_linear(self):
        p = dec_params(16, seed=1)
        a = AudioState(Tensor(RngState(2).uniform((1, 16, 1, 1))))
        ns, ops = [], []
        for g in (28, 56, 112, 224):
            v = Tensor(RngState(3).uniform((1, 16, g, g)))
            FLOPS.reset()
            a_hat = audio_state_update(a, a, v, p)
            visual_inject(v, a_hat, p)
            ns.append(g * g)
            ops.append(FLOPS.ops("fusion.interaction"))
        slope = fit_loglog_slope(ns, ops)
        assert abs(slope - 1.0) < 0.01

    def test_gradients_through_decoder_and_loss(self):
        model = tiny_model(seed=3)
        jit = RngState(50)
        for name, p in model.params.items():
            if name.endswith(".bias"):
                sign = np.where(jit.uniform(p.data.shape, 0, 1) < 0.5, -1.0, 1.0)
                p.data += sign * jit.uniform(p.data.shape, 0.008, 0.02)
        mel = Tensor(RngState(8).uniform((1, 96, 64), -20, 0))
        y = Tensor((RngState(9).uniform((1, 1, 32, 32), 0, 1) > 0.7).astype(float))
        frames = Tensor(RngState(10).uniform((1, 3, 32, 32), 0.1, 0.9))

        def f(t):
            seg, _ = model.forward(t, mel)
            rep = total_loss(seg.logits, seg.per_stage_features,
                             seg.audio_states, y)
            return rep.loss

        rep = grad_check(f, frames, tol=1e-4, max_coords=64, rng=RngState(11))
        assert rep.passed, rep.failures[:3]
