"""Backbones: pyramid shape contract, audio embedding purity, FLOP budget."""

import math

import numpy as np
import pytest

from lightavseg.backbones import AudioEmbed, AudioState, VisualBackbone
from lightavseg.layers import Linear1x1
from lightavseg.model import ModelConfig
from lightavseg.tensor import FLOPS, DimensionError, RngState, Tensor


def make_backbone(seed=0, **kw):
    cfg = ModelConfig(**kw)
    params = {}
    return VisualBackbone(cfg.stem_channels, cfg.stage_channels, RngState(seed),
                          params), params, cfg


def pyramid(bb, frames):
    """Stage outputs, shallow to deep, from the stem and stage walk."""
    x = bb.stem_forward(frames)
    stages = []
    for i in range(len(bb.stages)):
        x = bb.stage_forward(i, x)
        stages.append(x)
    return stages


class TestVisualBackbone:
    def test_224_input_gives_56_28_14_7(self):
        bb, _, _ = make_backbone()
        stages = pyramid(bb, Tensor(RngState(1).uniform((1, 3, 224, 224), 0, 1)))
        assert [t.shape[2] for t in stages] == [56, 28, 14, 7]
        assert [t.shape[1] for t in stages] == [16, 32, 64, 128]
        assert [t.shape[2:] for t in stages] == [(56, 56), (28, 28), (14, 14), (7, 7)]

    def test_ceil_rule_for_non_multiple_of_32(self):
        bb, _, _ = make_backbone()
        stages = pyramid(bb, Tensor(RngState(2).uniform((1, 3, 100, 60), 0, 1)))
        assert [t.shape[2:] for t in stages] == [
            (math.ceil(100 / 2 ** (i + 2)), math.ceil(60 / 2 ** (i + 2))) for i in range(4)]
        assert stages[0].shape[2:] == (25, 15)
        assert stages[3].shape[2:] == (4, 2)

    def test_zero_input_zero_bias_gives_zero(self):
        bb, _, _ = make_backbone()
        for t in pyramid(bb, Tensor(np.zeros((1, 3, 32, 32)))):
            np.testing.assert_array_equal(t.data, 0.0)

    def test_determinism_across_constructions(self):
        a, _, _ = make_backbone(seed=5)
        b, _, _ = make_backbone(seed=5)
        x = Tensor(RngState(3).uniform((1, 3, 64, 64), 0, 1))
        np.testing.assert_array_equal(pyramid(a, x)[-1].data, pyramid(b, x)[-1].data)

    def test_flop_budget_under_50M_for_224_frame(self):
        bb, _, _ = make_backbone()
        FLOPS.reset()
        pyramid(bb, Tensor(RngState(4).uniform((1, 3, 224, 224), 0, 1)))
        assert FLOPS.madds("visual_backbone") < 50_000_000

    def test_channels_must_match_stage_count(self):
        with pytest.raises(DimensionError):
            ModelConfig(stage_channels=(8, 16))


class TestAudioEmbed:
    def make(self, seed=0):
        cfg = ModelConfig()
        params = {}
        return AudioEmbed(cfg.audio_channels, RngState(seed), params), cfg

    def test_zero_spectrogram_zero_bias_gives_zero_state(self):
        emb, cfg = self.make()
        state = emb(Tensor(np.zeros((3, 96, 64))))
        np.testing.assert_array_equal(state.value.data, 0.0)

    def test_output_shape_default_config(self):
        emb, cfg = self.make()
        state = emb(Tensor(RngState(1).uniform((5, 96, 64), -10, 0)))
        assert state.value.shape == (5, 128, 1, 1)

    def test_identical_windows_give_identical_rows(self):
        emb, _ = self.make()
        w = RngState(2).uniform((1, 96, 64), -10, 0)
        windows = np.concatenate([w, w], axis=0)
        state = emb(Tensor(windows))
        np.testing.assert_array_equal(state.value.data[0], state.value.data[1])

    def test_window_permutation_equivariance(self):
        emb, _ = self.make()
        windows = RngState(3).uniform((6, 96, 64), -10, 0)
        perm = RngState(4)._next().permutation(6)
        a = emb(Tensor(windows)).value.data
        b = emb(Tensor(windows[perm])).value.data
        np.testing.assert_array_equal(a[perm], b)


class TestProjection:
    def test_identity_projection_is_noop(self):
        params = {}
        proj = Linear1x1("p", 3, 3, RngState(0), params)
        proj.weight.data[...] = np.eye(3)
        proj.bias.data[...] = 0.0
        a = AudioState(Tensor(RngState(1).uniform((2, 3, 1, 1))))
        out = proj(a.value)
        np.testing.assert_array_equal(out.data, a.value.data)

    def test_zero_input_gives_bias(self):
        params = {}
        proj = Linear1x1("p", 3, 2, RngState(0), params)
        proj.bias.data[...] = [0.5, -0.25]
        out = proj(AudioState(Tensor(np.zeros((1, 3, 1, 1)))).value)
        np.testing.assert_allclose(out.data.ravel(), [0.5, -0.25])

    def test_hand_2x2_projection(self):
        params = {}
        proj = Linear1x1("p", 2, 2, RngState(0), params)
        proj.weight.data[...] = [[1.0, 2.0], [3.0, -1.0]]
        proj.bias.data[...] = [0.0, 1.0]
        a = AudioState(Tensor(np.array([0.5, -1.0]).reshape(1, 2, 1, 1)))
        out = proj(a.value)
        # rows: 1*0.5 + 2*(-1) = -1.5; 3*0.5 - 1*(-1) + 1 = 3.5
        np.testing.assert_allclose(out.data.ravel(), [-1.5, 3.5])

    def test_audio_state_shape_contract(self):
        with pytest.raises(DimensionError):
            AudioState(Tensor(np.zeros((1, 3, 2, 2))))
