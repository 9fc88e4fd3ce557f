"""Reciprocal encoder: gate semantics, ablation collapse, linear interaction cost."""

import numpy as np
import pytest

from lightavseg.backbones import AudioState, VisualBackbone
from lightavseg.encoder import (
    EncoderStageParams, ReciprocalEncoder, agve_step, har_step,
)
from lightavseg.model import ModelConfig
from lightavseg.tensor import (
    FLOPS, ContractError, RngState, Tensor, grad_check, tsum, mul,
)
from lightavseg.attention import fit_loglog_slope


def stage_params(c, seed=0):
    return EncoderStageParams("t.{}", c, RngState(seed), {})


class TestHarStep:
    def test_saturated_gate_passes_linear_map(self):
        p = stage_params(3)
        p.gate_map.weight.data[...] = 0.0
        p.gate_map.bias.data[...] = 100.0  # hsigmoid -> 1
        a = AudioState(Tensor(RngState(1).uniform((2, 3, 1, 1))))
        v = Tensor(RngState(2).uniform((2, 3, 4, 4)))
        out = har_step(a, v, p)
        want = p.audio_map(a.value)
        np.testing.assert_allclose(out.value.data, want.data, atol=1e-14)

    def test_closed_gate_zeroes_state(self):
        p = stage_params(3)
        p.gate_map.bias.data[...] = -100.0  # hsigmoid -> 0
        a = AudioState(Tensor(RngState(1).uniform((2, 3, 1, 1))))
        v = Tensor(RngState(2).uniform((2, 3, 4, 4)))
        np.testing.assert_array_equal(har_step(a, v, p).value.data, 0.0)

    def test_hand_two_channel_case(self):
        # mapped state [1,2], pooled-gate pre-activation [0,3] -> gate [0.5,1]
        p = stage_params(2)
        p.audio_map.weight.data[...] = np.eye(2)
        p.audio_map.bias.data[...] = 0.0
        p.gate_map.weight.data[...] = 0.0
        p.gate_map.bias.data[...] = [0.0, 3.0]
        a = AudioState(Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1)))
        v = Tensor(np.zeros((1, 2, 2, 2)))
        out = har_step(a, v, p)
        np.testing.assert_allclose(out.value.data.ravel(), [0.5, 2.0])

    def test_gate_range_always_unit_interval(self):
        p = stage_params(4, seed=3)
        from lightavseg import tensor as T
        v = Tensor(RngState(5).uniform((2, 4, 3, 3), -50, 50))
        gate = T.hsigmoid(p.gate_map(T.global_max_pool(v)))
        assert np.all(gate.data >= 0.0) and np.all(gate.data <= 1.0)

    def test_frame_count_mismatch_rejected(self):
        p = stage_params(3)
        a = AudioState(Tensor(np.zeros((2, 3, 1, 1))))
        with pytest.raises(ContractError):
            har_step(a, Tensor(np.zeros((3, 3, 4, 4))), p)

    def test_flops_independent_of_grid_except_pool(self):
        p = stage_params(4)
        a = AudioState(Tensor(RngState(1).uniform((1, 4, 1, 1))))
        counts = {}
        for g in (8, 16):
            FLOPS.reset()
            har_step(a, Tensor(RngState(2).uniform((1, 4, g, g))), p)
            counts[g] = (FLOPS.madds(), FLOPS.elems())
        assert counts[8][0] == counts[16][0]  # madds grid-independent
        # elems difference is exactly the pooling pass: one comparison/element
        assert counts[16][1] - counts[8][1] == 4 * (16 * 16 - 8 * 8)


class TestAgveStep:
    def test_zero_state_is_identity(self):
        v = Tensor(RngState(1).uniform((2, 3, 4, 4)))
        out = agve_step(v, AudioState(Tensor(np.zeros((2, 3, 1, 1)))))
        np.testing.assert_array_equal(out.data, v.data)

    def test_zero_visual_gives_per_channel_constant(self):
        a = AudioState(Tensor(RngState(2).uniform((1, 3, 1, 1))))
        out = agve_step(Tensor(np.zeros((1, 3, 4, 4))), a)
        for c in range(3):
            assert np.all(out.data[0, c] == a.value.data[0, c, 0, 0])

    def test_spatial_contrast_preserved(self):
        v = Tensor(RngState(3).uniform((1, 2, 3, 3)))
        a = AudioState(Tensor(RngState(4).uniform((1, 2, 1, 1))))
        out = agve_step(v, a).data
        diff_out = out[0, 1, 0, 0] - out[0, 1, 2, 1]
        diff_in = v.data[0, 1, 0, 0] - v.data[0, 1, 2, 1]
        assert diff_out == pytest.approx(diff_in, abs=1e-15)

    def test_flop_count_is_one_add_per_element(self):
        FLOPS.reset()
        agve_step(Tensor(np.zeros((2, 3, 5, 7))),
                  AudioState(Tensor(np.zeros((2, 3, 1, 1)))))
        assert FLOPS.elems("fusion.interaction") == 2 * 3 * 5 * 7
        assert FLOPS.madds("fusion.interaction") == 0


def make_encoder(seed=0, channels=(4, 6, 8, 10), audio=8):
    cfg = ModelConfig(stage_channels=channels, audio_channels=audio, stem_channels=3)
    params = {}
    rng = RngState(seed)
    bb = VisualBackbone(cfg.stem_channels, cfg.stage_channels, rng, params)
    enc = ReciprocalEncoder(bb, cfg.audio_channels, cfg.stage_channels, rng, params)
    return enc, params, cfg


class TestEncoderForward:
    def test_audio_ablated_collapse_to_plain_backbone(self):
        # zero state and zero-init biases: states vanish, features match the
        # audio-free pyramid exactly
        enc, _, cfg = make_encoder()
        frames = Tensor(RngState(9).uniform((2, 3, 32, 32), 0, 1))
        a0 = AudioState(Tensor(np.zeros((2, cfg.audio_channels, 1, 1))))
        out = enc.forward(frames, a0)
        for s in out.audio_states:
            np.testing.assert_array_equal(s.value.data, 0.0)
        x = enc.backbone.stem_forward(frames)
        for i, got in enumerate(out.enhanced):
            x = enc.backbone.stage_forward(i, x)
            np.testing.assert_array_equal(got.data, x.data)

    def test_single_stage_matches_hand_composition(self):
        enc, _, cfg = make_encoder()
        frames = Tensor(RngState(10).uniform((1, 3, 32, 32), 0, 1))
        a0 = AudioState(Tensor(RngState(11).uniform((1, cfg.audio_channels, 1, 1))))
        out = enc.forward(frames, a0)
        # recompute stage 1 by hand from the same parameters
        x = enc.backbone.stem_forward(frames)
        v1 = enc.backbone.stage_forward(0, x)
        a1 = har_step(AudioState(enc.projections[0](a0.value)), v1, enc.stage_params[0])
        want = agve_step(v1, a1)
        np.testing.assert_array_equal(out.enhanced[0].data, want.data)
        np.testing.assert_array_equal(out.audio_states[0].value.data, a1.value.data)

    def test_audio_path_invariant_to_spatial_permutation(self):
        # permuting every stage's spatial positions leaves all audio states
        # bit-identical (max-pool symmetry); checked at one stage with the
        # permutation applied to the stage input
        p = stage_params(5, seed=2)
        a = AudioState(Tensor(RngState(3).uniform((1, 5, 1, 1))))
        v = RngState(4).uniform((1, 5, 4, 4))
        perm = RngState(5)._next().permutation(16)
        v_perm = v.reshape(1, 5, 16)[:, :, perm].reshape(1, 5, 4, 4)
        out_a = har_step(a, Tensor(v), p).value.data
        out_b = har_step(a, Tensor(v_perm), p).value.data
        np.testing.assert_array_equal(out_a, out_b)

    def test_interaction_flops_ratio_4x_at_doubled_input(self):
        enc, _, cfg = make_encoder(channels=(16, 32, 64, 128), audio=128)
        counts = {}
        for hw in (112, 224):
            frames = Tensor(RngState(6).uniform((1, 3, hw, hw), 0, 1))
            a0 = AudioState(Tensor(RngState(7).uniform((1, 128, 1, 1))))
            FLOPS.reset()
            enc.forward(frames, a0)
            counts[hw] = FLOPS.ops("fusion.interaction")
        ratio = counts[224] / counts[112]
        # ceil-sized deep stages leave the ratio at the edge of 4.0 +- 2%
        assert abs(ratio - 4.0) <= 0.08 + 1e-12, ratio

    def test_interaction_flops_slope_one(self):
        p = stage_params(16, seed=1)
        a = AudioState(Tensor(RngState(2).uniform((1, 16, 1, 1))))
        ns, ops = [], []
        for g in (28, 56, 112, 224):
            v = Tensor(RngState(3).uniform((1, 16, g, g)))
            FLOPS.reset()
            agve_step(v, har_step(a, v, p))
            ns.append(g * g)
            ops.append(FLOPS.ops("fusion.interaction"))
        slope = fit_loglog_slope(ns, ops)
        assert abs(slope - 1.0) < 0.01

    def test_end_to_end_differentiable(self):
        enc, _, cfg = make_encoder(channels=(3, 4, 5, 6), audio=4)
        a0 = AudioState(Tensor(RngState(13).uniform((1, 4, 1, 1))))
        frames = Tensor(RngState(12).uniform((1, 3, 32, 32), 0.1, 0.9))

        def f(t):
            out = enc.forward(t, a0)
            total = tsum(mul(out.enhanced[-1], out.enhanced[-1]))
            return total

        rep = grad_check(f, frames, tol=1e-4, max_coords=80, rng=RngState(14))
        assert rep.passed, rep.failures[:3]
