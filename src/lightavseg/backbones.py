"""Toy visual and audio backbones.

The visual backbone is a stem plus four stride-2 stages (3x3 conv, ReLU, 1x1
mixing, ReLU), producing a pyramid at strides 4/8/16/32. The audio backbone
mean-pools each one-second log-mel window over time and applies a two-layer
channel map, giving one spatially-global embedding per frame. Both are small
stand-ins for the mobile backbones this architecture normally rides on; no
pretrained weights are involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .audio import FRAMES_PER_WINDOW, N_MELS
from .layers import Conv3x3, Linear1x1
from .tensor import (
    DimensionError, RngState, Tensor, reshape, section, tmean,
)


@dataclass
class AudioState:
    """Spatially global per-frame audio embedding, shape (T, C, 1, 1)."""

    value: Tensor

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
        self.conv = Conv3x3(f"{name}.conv", c_in, c_out, rng, params)
        self.mix = Linear1x1(f"{name}.mix", c_out, c_out, rng, params)

    def __call__(self, x: Tensor) -> Tensor:
        return self.mix(self.conv(x), relu=True)


class VisualBackbone:
    """Stem (stride 2) followed by one halving stage per pyramid level."""

    def __init__(self, stem_channels: int, stage_channels: tuple, rng: RngState,
                 params: dict):
        # frames are RGB
        self.stem = Conv3x3("visual.stem", 3, stem_channels, rng, params)
        self.stages = []
        c_prev = stem_channels
        for i, c in enumerate(stage_channels):
            self.stages.append(VisualStage(f"visual.stage{i + 1}", c_prev, c, rng, params))
            c_prev = c

    def stem_forward(self, frames: Tensor) -> Tensor:
        with section("visual_backbone"):
            return self.stem(frames)

    def stage_forward(self, index: int, x: Tensor) -> Tensor:
        with section("visual_backbone"):
            return self.stages[index](x)


class AudioEmbed:
    """Mean-pool each window over time, then a two-layer channel map to C_a."""

    def __init__(self, channels: int, rng: RngState, params: dict):
        self.fc1 = Linear1x1("audio_embed.fc1", N_MELS, channels, rng, params)
        self.fc2 = Linear1x1("audio_embed.fc2", channels, channels, rng, params)

    def __call__(self, windows: Tensor) -> AudioState:
        if windows.ndim != 3 or windows.shape[1:] != (FRAMES_PER_WINDOW, N_MELS):
            raise DimensionError(
                f"audio_embed expects (T, {FRAMES_PER_WINDOW}, {N_MELS}), "
                f"got {windows.shape}")
        with section("audio_embed"):
            t = windows.shape[0]
            pooled = tmean(windows, axis=1)                # (T, 64)
            x = reshape(pooled, (t, N_MELS, 1, 1))
            return AudioState(self.fc2(self.fc1(x, relu=True)))

