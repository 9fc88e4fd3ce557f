"""Reciprocal audio-visual encoder.

Two moves per stage, interleaved with the visual backbone:

  * ``har_step`` refines the global audio state: the state goes through a
    pointwise channel map, and ``semantic_filter`` max-pools the visual map to
    1x1 and gates the audio channels by a hard sigmoid of its own channel map.
  * ``agve_step`` injects the refined state back by broadcasting it over the
    spatial grid and adding it residually (a pure per-channel bias).

Neither move touches token-to-token affinities: per-grid-cell work is one max
comparison and one addition per channel, so the interaction cost is linear in
H*W. FLOPs land in two scopes: ``fusion.interaction`` for the grid-dependent
work (pooling, broadcast adds) and ``fusion.state`` for the constant-size 1x1
state arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backbones import AudioState, VisualBackbone
from .layers import Linear1x1
from .tensor import (
    FLOPS, ContractError, RngState, Tensor, broadcast_add, global_max_pool,
    hsigmoid, mul, section,
)


class EncoderStageParams:
    """Channel maps of one refinement step; both map the stage width to itself.

    ``name`` is a template whose ``{}`` takes each map's role (``audio``,
    ``gate``); the maps are drawn from ``rng`` in that order.
    """

    def __init__(self, name: str, c: int, rng: RngState, params: dict):
        self.audio_map = Linear1x1(name.format("audio"), c, c, rng, params)
        self.gate_map = Linear1x1(name.format("gate"), c, c, rng, params)


@dataclass
class EncoderOutput:
    enhanced: list       # audio-enhanced visual features, shallow to deep
    audio_states: list   # refined AudioState per stage, shallow to deep


def semantic_filter(state: Tensor, v: Tensor, gate_map: Linear1x1) -> AudioState:
    """Semantic filtering: scale ``state`` by ``hsigmoid(gate_map(max-pooled v))``."""
    with FLOPS.scope("fusion.interaction"):
        pooled = global_max_pool(v)
    with FLOPS.scope("fusion.state"):
        return AudioState(mul(state, hsigmoid(gate_map(pooled))))


def har_step(a_prev: AudioState, v: Tensor, p: EncoderStageParams) -> AudioState:
    """Gated audio refinement: map the state, gate it by pooled visual context."""
    if a_prev.frames != v.shape[0]:
        raise ContractError(
            f"audio state has {a_prev.frames} frames but visual batch is {v.shape[0]}")
    with FLOPS.scope("fusion.state"):
        mapped = p.audio_map(a_prev.value)
    return semantic_filter(mapped, v, p.gate_map)


def agve_step(v: Tensor, a: AudioState) -> Tensor:
    """Residual broadcast of the audio state over the visual grid."""
    with FLOPS.scope("fusion.interaction"):
        return broadcast_add(v, a.value)


class ReciprocalEncoder:
    """Visual stages interleaved with audio refinement and re-injection."""

    def __init__(self, backbone: VisualBackbone, audio_channels: int, stage_channels: tuple,
                 rng: RngState, params: dict):
        self.backbone = backbone
        self.projections = []
        self.stage_params = []
        c_prev = audio_channels
        for i, c in enumerate(stage_channels):
            self.projections.append(Linear1x1(f"encoder.proj{i + 1}", c_prev, c, rng, params))
            self.stage_params.append(EncoderStageParams(f"encoder.{{}}{i + 1}", c, rng, params))
            c_prev = c

    def forward(self, frames: Tensor, a0: AudioState) -> EncoderOutput:
        """Run all stages; each stage consumes the previous enhanced feature."""
        x = self.backbone.stem_forward(frames)
        audio = a0
        enhanced, states = [], []
        for i in range(len(self.backbone.stages)):
            v = self.backbone.stage_forward(i, x)
            with section("encoder_fusion"):
                audio = har_step(AudioState(self.projections[i](audio.value)), v,
                                 self.stage_params[i])
                enhanced_v = agve_step(v, audio)
            enhanced.append(enhanced_v)
            states.append(audio)
            x = enhanced_v
        return EncoderOutput(enhanced=enhanced, audio_states=states)
