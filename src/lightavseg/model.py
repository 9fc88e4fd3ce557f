"""Full segmentation model: backbones + reciprocal encoder + fusion decoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbones import AudioEmbed, AudioState, BackboneConfig, VisualBackbone
from .decoder import FusionDecoder, SegOutput
from .encoder import EncoderOutput, ReciprocalEncoder
from .tensor import ContractError, RngState, Tensor


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    interact_stages: int = 3      # decoder interaction / alignment supervision depth
    enable_har: bool = True       # dynamic (visually gated) audio state in the encoder
    enable_agve: bool = True      # broadcast audio bias into the visual stream
    enable_cmfd: bool = True      # decoder-side audio recurrence and injection


class SegModel:
    """End-to-end sounding-object segmenter over stacked per-frame batches.

    The visual batch axis carries frames; the audio state pairs with it one
    row per frame, so a batch of T=1 clips is simply stacked along axis 0.
    """

    def __init__(self, cfg: ModelConfig, rng: RngState):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.backbone = VisualBackbone(cfg.backbone, rng, self.params)
        self.audio_embed = AudioEmbed(cfg.backbone, rng, self.params)
        self.encoder = ReciprocalEncoder(self.backbone, rng, self.params,
                                         enable_har=cfg.enable_har,
                                         enable_agve=cfg.enable_agve)
        self.decoder = FusionDecoder(cfg.backbone.stage_channels, rng, self.params,
                                     interact_stages=cfg.interact_stages,
                                     enable_cmfd=cfg.enable_cmfd)

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

    def initial_audio_state(self, mel: Tensor | None, batch: int,
                            mute_audio: bool = False) -> AudioState:
        if mute_audio or mel is None:
            return AudioState(
                Tensor(np.zeros((batch, self.cfg.backbone.audio_channels, 1, 1))),
                stage=0)
        if mel.shape[0] != batch:
            raise ContractError(
                f"{mel.shape[0]} audio windows for a visual batch of {batch} frames")
        return self.audio_embed(mel)

    def forward(self, frames: Tensor, mel: Tensor | None,
                mute_audio: bool = False) -> tuple[SegOutput, EncoderOutput]:
        if frames.ndim != 4:
            raise ContractError(f"frames must be (B, C, H, W), got {frames.shape}")
        a0 = self.initial_audio_state(mel, frames.shape[0], mute_audio=mute_audio)
        enc = self.encoder.forward(frames, a0)
        seg = self.decoder.forward(enc, (frames.shape[2], frames.shape[3]))
        return seg, enc
