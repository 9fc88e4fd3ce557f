"""Toy visual and audio backbones.

The visual backbone is a stem plus four stride-2 stages (3x3 conv, ReLU, 1x1
mixing, ReLU), producing a pyramid at strides 4/8/16/32. The audio backbone
mean-pools each one-second log-mel window over time and applies a two-layer
channel map, giving one spatially-global embedding per frame. Both are small
stand-ins for the mobile backbones this architecture normally rides on; no
pretrained weights are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .audio import FRAMES_PER_WINDOW, N_MELS
from .layers import Conv3x3, Linear1x1
from .tensor import (
    DimensionError, RngState, Tensor, relu, reshape, section, tmean,
)


@dataclass
class BackboneConfig:
    stage_channels: tuple = (16, 32, 64, 128)
    audio_channels: int = 128
    input_hw: int = 224
    stages: int = 4
    stem_channels: int = 8
    in_channels: int = 3

    def __post_init__(self):
        self.stage_channels = tuple(self.stage_channels)
        if len(self.stage_channels) != self.stages:
            raise DimensionError(
                f"stage_channels has {len(self.stage_channels)} entries "
                f"for {self.stages} stages")


@dataclass
class FeaturePyramid:
    """Per-stage visual features; stage i sits at stride 2^(i+1)."""

    stages: list            # Tensor[B, C_i, H_i, W_i], shallow to deep

    def validate(self, input_h: int, input_w: int):
        prev_c = 0
        for i, t in enumerate(self.stages):
            want_h = math.ceil(input_h / 2 ** (i + 2))
            want_w = math.ceil(input_w / 2 ** (i + 2))
            if t.shape[2] != want_h or t.shape[3] != want_w:
                raise DimensionError(
                    f"stage {i + 1} extent {t.shape[2:]} != expected ({want_h}, {want_w})")
            if t.shape[1] < prev_c:
                raise DimensionError("stage channels must be non-decreasing with depth")
            prev_c = t.shape[1]


@dataclass
class AudioState:
    """Spatially global per-frame audio embedding, shape (T, C, 1, 1)."""

    value: Tensor
    stage: int = 0

    def __post_init__(self):
        if self.value.ndim != 4 or self.value.shape[2:] != (1, 1):
            raise DimensionError(
                f"audio state must be (T, C, 1, 1), got {self.value.shape}")

    @property
    def frames(self) -> int:
        return self.value.shape[0]


class VisualStage:
    """Stride-2 3x3 conv + ReLU + pointwise mixing + ReLU."""

    def __init__(self, name: str, c_in: int, c_out: int, rng: RngState, params: dict):
        self.conv = Conv3x3(f"{name}.conv", c_in, c_out, rng, params, stride=2)
        self.mix = Linear1x1(f"{name}.mix", c_out, c_out, rng, params)

    def __call__(self, x: Tensor) -> Tensor:
        return relu(self.mix(relu(self.conv(x))))


class VisualBackbone:
    """Stem (stride 2) followed by one halving stage per pyramid level."""

    def __init__(self, cfg: BackboneConfig, rng: RngState, params: dict,
                 prefix: str = "visual"):
        self.cfg = cfg
        self.stem = Conv3x3(f"{prefix}.stem", cfg.in_channels, cfg.stem_channels,
                            rng, params, stride=2)
        self.stages = []
        c_prev = cfg.stem_channels
        for i, c in enumerate(cfg.stage_channels):
            self.stages.append(VisualStage(f"{prefix}.stage{i + 1}", c_prev, c,
                                           rng, params))
            c_prev = c

    def stem_forward(self, frames: Tensor) -> Tensor:
        with section("visual_backbone"):
            return relu(self.stem(frames))

    def stage_forward(self, index: int, x: Tensor) -> Tensor:
        with section("visual_backbone"):
            return self.stages[index](x)

    def forward(self, frames: Tensor) -> FeaturePyramid:
        """Plain pyramid without any audio interaction."""
        x = self.stem_forward(frames)
        feats = []
        for i in range(len(self.stages)):
            x = self.stage_forward(i, x)
            feats.append(x)
        return FeaturePyramid(feats)


class AudioEmbed:
    """Mean-pool each window over time, then a two-layer channel map to C_a."""

    def __init__(self, cfg: BackboneConfig, rng: RngState, params: dict,
                 prefix: str = "audio_embed"):
        c = cfg.audio_channels
        self.fc1 = Linear1x1(f"{prefix}.fc1", N_MELS, c, rng, params)
        self.fc2 = Linear1x1(f"{prefix}.fc2", c, c, rng, params)

    def __call__(self, windows: Tensor) -> AudioState:
        if windows.ndim != 3 or windows.shape[1:] != (FRAMES_PER_WINDOW, N_MELS):
            raise DimensionError(
                f"audio_embed expects (T, {FRAMES_PER_WINDOW}, {N_MELS}), "
                f"got {windows.shape}")
        with section("audio_embed"):
            t = windows.shape[0]
            pooled = tmean(windows, axis=1)                # (T, 64)
            x = reshape(pooled, (t, N_MELS, 1, 1))
            return AudioState(self.fc2(relu(self.fc1(x))), stage=0)


def project_audio_to_stage(a: AudioState, proj: Linear1x1, stage: int) -> AudioState:
    """Channel-align an audio state to a stage width via a pointwise map."""
    return AudioState(proj(a.value), stage=stage)
