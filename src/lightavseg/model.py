"""Full segmentation model: backbones + reciprocal encoder + fusion decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbones import AudioEmbed, AudioState, VisualBackbone
from .decoder import FusionDecoder, SegOutput
from .encoder import EncoderOutput, ReciprocalEncoder
from .tensor import ContractError, DimensionError, RngState, Tensor


@dataclass
class ModelConfig:
    stage_channels: tuple = (16, 32, 64, 128)  # visual widths at strides 4/8/16/32
    audio_channels: int = 128     # audio embedding width
    stem_channels: int = 8

    def __post_init__(self):
        self.stage_channels = tuple(self.stage_channels)
        if len(self.stage_channels) != 4:
            raise DimensionError(
                f"stage_channels has {len(self.stage_channels)} entries for 4 stages")
        if min(self.stage_channels + (self.audio_channels, self.stem_channels)) < 1:
            raise ContractError(f"model widths must be >= 1, got {self}")


class SegModel:
    """End-to-end sounding-object segmenter over stacked per-frame batches.

    The visual batch axis carries frames; the audio state pairs with it one
    row per frame, so a batch of T=1 clips is simply stacked along axis 0.
    """

    def __init__(self, cfg: ModelConfig, rng: RngState):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.backbone = VisualBackbone(cfg.stem_channels, cfg.stage_channels, rng,
                                       self.params)
        self.audio_embed = AudioEmbed(cfg.audio_channels, rng, self.params)
        self.encoder = ReciprocalEncoder(self.backbone, cfg.audio_channels,
                                         cfg.stage_channels, rng, self.params)
        self.decoder = FusionDecoder(cfg.stage_channels, rng, self.params)

    # -- parameters ---------------------------------------------------------

    def audio_backbone_param_names(self) -> set[str]:
        return {n for n in self.params if n.startswith("audio_embed.")}

    def load_state(self, arrays: dict[str, np.ndarray]):
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise ContractError(
                f"checkpoint/config mismatch: missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]}")
        for name, arr in arrays.items():
            p = self.params[name]
            if p.data.shape != arr.shape:
                raise ContractError(
                    f"parameter {name} has shape {p.data.shape}, checkpoint "
                    f"has {arr.shape}")
            p.data[...] = arr

    # -- forward ------------------------------------------------------------

    def initial_audio_state(self, mel: Tensor | None, batch: int) -> AudioState:
        """The embedded audio, or a zero state when ``mel`` is None (muted)."""
        if mel is None:
            return AudioState(Tensor(np.zeros((batch, self.cfg.audio_channels, 1, 1))))
        if mel.shape[0] != batch:
            raise ContractError(
                f"{mel.shape[0]} audio windows for a visual batch of {batch} frames")
        return self.audio_embed(mel)

    def forward(self, frames: Tensor, mel: Tensor | None) -> tuple[SegOutput, EncoderOutput]:
        """Segment ``frames``; ``mel=None`` is the muted forward (zero audio state)."""
        if frames.ndim != 4:
            raise ContractError(f"frames must be (B, C, H, W), got {frames.shape}")
        a0 = self.initial_audio_state(mel, frames.shape[0])
        enc = self.encoder.forward(frames, a0)
        seg = self.decoder.forward(enc, (frames.shape[2], frames.shape[3]))
        return seg, enc
