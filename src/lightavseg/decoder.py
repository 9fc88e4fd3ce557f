"""Cross-modal fusion decoder.

Top-down path over the pyramid, deepest stage first. At each of the deepest
``INTERACT_STAGES`` stages the decoder keeps a recurrent audio state: the
previous decoder state and the stage's encoder state are channel-aligned,
concatenated and fused through a ReLU-gated pointwise map, then reweighted by
the encoder's ``semantic_filter`` (a hard-sigmoid gate computed from the
max-pooled visual feature). The result is mapped and injected into the visual
feature by the encoder's ``agve_step``, as a broadcast channel bias. Features then
merge FPN-style: bilinear x2 upsample, channel-aligning pointwise map, add,
as one ``upsample_merge`` node that keeps no upsampled map. The shallowest
stage merges in visually (no injection), and a pointwise head plus a final
bilinear resize produce logits at the input resolution.

The recurrence starts from the deepest encoder audio state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backbones import AudioState
from .encoder import EncoderOutput, agve_step, semantic_filter
from .layers import Linear1x1
from .tensor import (
    FLOPS, RngState, Tensor, bilinear_upsample, concat_channels, section, upsample_merge,
)

INTERACT_STAGES = 3  # deepest stages with audio recurrence and alignment supervision


class DecoderStageParams:
    """Channel maps of one decoder stage of width ``c``.

    ``name`` is a template whose ``{}`` takes each map's role; the maps are
    drawn from ``rng`` in the order below.
    """

    def __init__(self, name: str, c_prev: int, c: int, rng: RngState, params: dict):
        # previous decoder audio state, of width c_prev -> shared width
        self.proj_prev = Linear1x1(name.format("proj_prev"), c_prev, c, rng, params)
        # encoder audio state -> shared width
        self.proj_enc = Linear1x1(name.format("proj_enc"), c, c, rng, params)
        # concatenated states -> fused state
        self.fuse_map = Linear1x1(name.format("fuse"), 2 * c, c, rng, params)
        # pooled visual -> gate pre-activation
        self.gate_map = Linear1x1(name.format("gate"), c, c, rng, params)
        # fused state -> visual channel bias
        self.inject_map = Linear1x1(name.format("inject"), c, c, rng, params)


@dataclass
class SegOutput:
    logits: Tensor                    # (B, 1, H, W)
    per_stage_features: list          # injected features, deepest first
    audio_states: list = field(default_factory=list)  # fused states, deepest first


def audio_state_update(a_prev_dec: AudioState, a_enc: AudioState, v_enc: Tensor,
                       p: DecoderStageParams) -> AudioState:
    """Fuse the recurrent and encoder audio states, gated by pooled visuals."""
    with FLOPS.scope("fusion.state"):
        joint = concat_channels(p.proj_prev(a_prev_dec.value), p.proj_enc(a_enc.value))
        fused = p.fuse_map(joint, relu=True)
    return semantic_filter(fused, v_enc, p.gate_map)


def visual_inject(v_enc: Tensor, a_hat: AudioState, p: DecoderStageParams) -> Tensor:
    """Residual broadcast of the mapped audio state into the visual feature."""
    with FLOPS.scope("fusion.state"):
        bias = AudioState(p.inject_map(a_hat.value))
    return agve_step(v_enc, bias)


class FusionDecoder:
    """Recurrent-audio top-down decoder emitting segmentation logits."""

    def __init__(self, stage_channels, rng: RngState, params: dict):
        self.channels = tuple(stage_channels)
        n = len(self.channels)

        self.stage_params = {}
        prev_width = self.channels[-1]  # recurrence starts at the deepest state
        for i in range(n - 1, n - 1 - INTERACT_STAGES, -1):
            self.stage_params[i] = DecoderStageParams(
                f"decoder.s{i + 1}.{{}}", prev_width, self.channels[i], rng, params)
            prev_width = self.channels[i]

        # channel-aligning maps for the top-down merges (deep -> shallow)
        self.align = {}
        for i in range(n - 1, 0, -1):
            self.align[i] = Linear1x1(f"decoder.align{i + 1}to{i}",
                                      self.channels[i], self.channels[i - 1], rng, params)
        # one foreground plane, the only output the losses and metrics read
        self.head = Linear1x1("decoder.head", self.channels[0], 1, rng, params)

    def forward(self, enc: EncoderOutput, out_hw) -> SegOutput:
        """Decode the fused pyramid to logits at ``out_hw``."""
        feats, hats = [], []
        a_dec = enc.audio_states[-1]
        merged = None
        for i in reversed(range(len(self.channels))):
            v = enc.enhanced[i]
            if i in self.stage_params:  # one of the deepest INTERACT_STAGES
                with section("decoder_fusion"):
                    a_dec = audio_state_update(a_dec, enc.audio_states[i], v,
                                               self.stage_params[i])
                    injected = visual_inject(v, a_dec, self.stage_params[i])
                feats.append(injected)
                hats.append(a_dec)
            else:
                injected = v
            with section("seg_head"):
                if merged is None:
                    merged = injected
                else:
                    align = self.align[i + 1]
                    merged = upsample_merge(merged, align.weight, align.bias, injected)
        with section("seg_head"):
            logits = bilinear_upsample(self.head(merged), *out_hw)
        return SegOutput(logits=logits, per_stage_features=feats, audio_states=hats)
