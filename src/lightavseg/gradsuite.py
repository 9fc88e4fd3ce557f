"""Gradient verification suite: every op the model runs, its modules, the full model.

Each check compares reverse-mode gradients against central differences at
``tensor``'s fixed steps; it passes below the default relative error 1e-4,
|a-n| / max(|a|,|n|,1e-8). Test points are drawn away from kinks
(hard-sigmoid breakpoints, ReLU zero, max-pool ties have measure zero under
continuous draws).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor as T
from .attention import AttentionParams, dense_attention, fusion_stage_params, fusion_step
from .backbones import AudioState
from .encoder import agve_step, har_step
from .losses import bce_loss, cosine_scores, dice_loss, msa_loss, total_loss
from .model import ModelConfig, SegModel
from .tensor import GradCheckReport, RngState, Tensor, grad_check, grad_check_params


def _sq(y):
    return T.tsum(T.mul(y, y))


def tiny_model(seed: int = 0) -> SegModel:
    cfg = ModelConfig(stage_channels=(4, 5, 6, 7), audio_channels=8, stem_channels=3)
    return SegModel(cfg, RngState(seed))


def _model_loss_fn(model: SegModel, frames: Tensor, mel: Tensor, y: Tensor):
    seg, _ = model.forward(frames, mel)
    rep = total_loss(seg.logits, seg.per_stage_features, seg.audio_states, y,
                     lam=0.5, tau=0.1)
    return rep.loss


def _check(name: str, fn, x: Tensor, **options) -> GradCheckReport:
    """One ``grad_check(fn, x, **options)``, reported under ``name``."""
    return replace(grad_check(fn, x, **options), name=name)


def op_checks() -> list[GradCheckReport]:
    rng = RngState(42)
    vec = Tensor(rng.uniform((8,), -0.9, 0.9) + 0.017)
    x4 = Tensor(rng.uniform((1, 3, 4, 4), -1, 1))
    w = Tensor(rng.uniform((5, 3), -0.5, 0.5))
    b = Tensor(rng.uniform((5,), -0.1, 0.1))
    wc = Tensor(rng.uniform((4, 3, 3, 3), -0.4, 0.4))
    bc = Tensor(np.zeros(4))
    g = Tensor(rng.uniform((1, 3, 1, 1), -1, 1))
    x3 = Tensor(rng.uniform((2, 3, 4), -1, 1))
    wr = Tensor(rng.uniform((3, 2), -1, 1))
    br = Tensor(rng.uniform((3,), -0.1, 0.1))
    audio = Tensor(rng.uniform((1, 2, 1, 1), -1, 1))
    mask = Tensor((rng.uniform((1, 1, 2, 4), 0, 1) > 0.5).astype(np.float64))
    probs = Tensor(rng.uniform((1, 1, 2, 4), 0.1, 0.9))
    mask_up = Tensor((rng.uniform((1, 1, 4, 8), 0, 1) > 0.5).astype(np.float64))
    skip = Tensor(rng.uniform((1, 5, 7, 9), -1, 1))

    return [
        _check("pointwise_linear(relu)", lambda t: _sq(
            T.pointwise_linear(t.reshape((1, 2, 2, 2)), wr, br, relu=True)), vec),
        _check("cosine_scores",
               lambda t: _sq(cosine_scores(t.reshape((1, 2, 2, 2)), audio, 0.5)), vec),
        _check("hsigmoid", lambda t: _sq(T.hsigmoid(t)), vec),
        _check("bce_loss", lambda t: bce_loss(t.reshape((1, 1, 2, 4)), mask), vec),
        _check("msa_loss", lambda t: msa_loss([t], mask_up), probs),
        _check("dice_loss", lambda t: dice_loss(t.reshape((1, 1, 2, 4)), mask), vec),
        _check("softmax", lambda t: _sq(T.softmax(t.reshape((2, 4)), axis=-1)), vec),
        _check("mul/add/mean", lambda t: _sq(T.tmean(
            T.add(T.mul(t, t), T.mul(t, 0.5)).reshape((2, 4)), axis=1)), vec),
        _check("pointwise_linear", lambda t: _sq(T.pointwise_linear(t, w, b)), x4),
        _check("conv2d(relu)",
               lambda t: _sq(T.conv2d(t, wc, bc, stride=2, padding=1, relu=True)), x4),
        _check("global_max_pool", lambda t: _sq(T.global_max_pool(t)), x4),
        _check("broadcast_add", lambda t: _sq(T.broadcast_add(t, g)), x4),
        _check("upsample_merge", lambda t: _sq(T.upsample_merge(t, w, b, skip)), x4),
        _check("bilinear_upsample", lambda t: _sq(T.bilinear_upsample(t, 7, 9)), x4),
        _check("concat_channels", lambda t: _sq(T.concat_channels(t, T.mul(t, 0.5))), x4),
        _check("matmul", lambda t: _sq(T.matmul(t, T.transpose(t, (0, 2, 1)))), x3),
    ]


def module_checks() -> list[GradCheckReport]:
    rng = RngState(7)
    c = 4
    enc_p, dec_p = fusion_stage_params(c, rng)
    v = Tensor(rng.uniform((1, c, 3, 3), -1, 1))
    a = Tensor(rng.uniform((1, c, 1, 1), -1, 1))
    attn_p = AttentionParams(c, 3, rng)

    def fusion_audio_fn(t):
        state = har_step(AudioState(t), v, enc_p)
        return _sq(agve_step(v, state))

    return [
        _check("fusion_step(visual)",
               lambda t: _sq(fusion_step(t, AudioState(a), enc_p, dec_p)), v),
        _check("fusion_step(audio)", fusion_audio_fn, a),
        _check("dense_attention", lambda t: _sq(dense_attention(t, AudioState(a), attn_p)), v),
    ]


def end_to_end_check(input_coords: int | None = None,
                     param_coords: int = 3) -> list[GradCheckReport]:
    """Full encoder+decoder+loss gradients on a 1x3x32x32 input.

    Checks d loss / d frames on ``input_coords`` coordinates (all 3072 when
    None) and ``param_coords`` sampled coordinates of every named parameter.

    Biases are jittered away from zero first: with zero biases, spatial cells
    whose upstream ReLUs are all dead emit exactly the bias value, which parks
    the network precisely on downstream ReLU breakpoints where one-sided
    slopes and subgradients legitimately disagree. A generic parameter point
    keeps every breakpoint strictly away from the evaluation point.
    """
    model = tiny_model()
    jit = RngState(50)
    for name, p in model.params.items():
        if name.endswith(".bias"):
            sign = np.where(jit.uniform(p.data.shape, 0, 1) < 0.5, -1.0, 1.0)
            p.data += sign * jit.uniform(p.data.shape, 0.008, 0.02)
    rng = RngState(100)
    frames = Tensor(rng.uniform((1, 3, 32, 32), 0.05, 0.95))
    mel = Tensor(rng.uniform((1, 96, 64), -20.0, 0.0))
    y = Tensor((rng.uniform((1, 1, 32, 32), 0, 1) > 0.7).astype(np.float64))

    inputs = _check("end_to_end(d/d input)", lambda t: _model_loss_fn(model, t, mel, y),
                    frames, max_coords=input_coords, rng=RngState(5))
    params = grad_check_params(
        lambda: _model_loss_fn(model, frames, mel, y), model.params,
        max_coords_per_param=param_coords, rng=RngState(6))
    return [inputs, replace(params, name="end_to_end(d/d params)")]


def full_suite(quick: bool = False) -> list[GradCheckReport]:
    input_coords = 192 if quick else None
    results = op_checks() + module_checks()
    results += end_to_end_check(input_coords=input_coords,
                                param_coords=2 if quick else 3)
    return results
