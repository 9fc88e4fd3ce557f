"""Gradient verification suite: every differentiable op plus the full model.

Each check compares reverse-mode gradients against central differences at
``tensor``'s fixed steps; it passes below the default relative error 1e-4,
|a-n| / max(|a|,|n|,1e-8). Test points are drawn away from kinks
(hard-sigmoid breakpoints, ReLU zero, max-pool ties have measure zero under
continuous draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    dense_attention, fusion_stage_params, fusion_step, make_attention_params,
)
from .backbones import AudioState
from .encoder import agve_step, har_step
from .losses import total_loss
from .model import ModelConfig, SegModel
from .tensor import RngState, Tensor, grad_check, grad_check_params


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    n_checked: int
    passed: bool


def _sq(y):
    return T.tsum(T.mul(y, y))


def tiny_model(seed: int = 0) -> SegModel:
    cfg = ModelConfig(stage_channels=(4, 5, 6, 7), audio_channels=8, stem_channels=3)
    return SegModel(cfg, RngState(seed))


def _model_loss_fn(model: SegModel, frames: Tensor, mel: Tensor, y: Tensor,
                   frames_override: Tensor | None = None):
    f = frames_override if frames_override is not None else frames
    seg, _ = model.forward(f, mel)
    rep = total_loss(seg.logits, seg.per_stage_features, seg.audio_states, y,
                     lam=0.5, tau=0.1)
    return rep.loss


def _checker():
    """A result list and ``run(name, fn, x)``, which appends one ``grad_check``."""
    results = []

    def run(name, fn, x):
        rep = grad_check(fn, x)
        results.append(CheckResult(name, rep.max_rel_err, rep.n_checked, rep.passed))

    return results, run


def op_checks() -> list[CheckResult]:
    rng = RngState(42)
    results, run = _checker()

    vec = Tensor(rng.uniform((8,), -0.9, 0.9) + 0.017)
    run("relu", lambda t: _sq(T.relu(t)), vec)
    run("sigmoid", lambda t: _sq(T.sigmoid(t)), vec)
    run("hsigmoid", lambda t: _sq(T.hsigmoid(t)), vec)
    run("softplus", lambda t: _sq(T.softplus(t)), vec)
    run("log", lambda t: _sq(T.tlog(T.add(T.mul(t, t), 0.5))), vec)
    run("sqrt", lambda t: _sq(T.tsqrt(T.add(T.mul(t, t), 0.5))), vec)
    run("softmax", lambda t: _sq(T.softmax(t.reshape((2, 4)), axis=-1)), vec)
    run("mul/add/div", lambda t: _sq(T.div(T.add(T.mul(t, t), 1.0),
                                           T.add(T.mul(t, 0.5), 2.0))), vec)

    x4 = Tensor(rng.uniform((1, 3, 4, 4), -1, 1))
    w = Tensor(rng.uniform((5, 3), -0.5, 0.5))
    b = Tensor(rng.uniform((5,), -0.1, 0.1))
    run("pointwise_linear", lambda t: _sq(T.pointwise_linear(t, w, b)), x4)
    wc = Tensor(rng.uniform((4, 3, 3, 3), -0.4, 0.4))
    bc = Tensor(np.zeros(4))
    run("conv2d", lambda t: _sq(T.conv2d(t, wc, bc, stride=2, padding=1)), x4)
    run("global_max_pool", lambda t: _sq(T.global_max_pool(t)), x4)
    g = Tensor(rng.uniform((1, 3, 1, 1), -1, 1))
    run("broadcast_add", lambda t: _sq(T.broadcast_add(t, g)), x4)
    run("l2_normalize", lambda t: _sq(T.l2_normalize(t, axis=1)), x4)
    run("bilinear_upsample", lambda t: _sq(T.bilinear_upsample(t, 7, 9)), x4)
    run("concat_channels", lambda t: _sq(T.concat_channels(t, T.mul(t, 0.5))), x4)
    run("matmul", lambda t: _sq(T.matmul(t, T.transpose(t, (0, 2, 1)))),
        Tensor(rng.uniform((2, 3, 4), -1, 1)))
    return results


def module_checks() -> list[CheckResult]:
    rng = RngState(7)
    results, run = _checker()
    c = 4
    enc_p, dec_p = fusion_stage_params(c, rng)
    v = Tensor(rng.uniform((1, c, 3, 3), -1, 1))
    a = Tensor(rng.uniform((1, c, 1, 1), -1, 1))

    run("fusion_step(visual)",
        lambda t: _sq(fusion_step(t, AudioState(a), enc_p, dec_p)), v)

    def fusion_audio_fn(t):
        state = har_step(AudioState(t), v, enc_p)
        return _sq(agve_step(v, state))

    run("fusion_step(audio)", fusion_audio_fn, a)
    attn_p = make_attention_params(c, 3, rng)
    run("dense_attention", lambda t: _sq(dense_attention(t, AudioState(a), attn_p)), v)
    return results


def end_to_end_check(input_coords: int | None = None,
                     param_coords: int = 3) -> list[CheckResult]:
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

    results = []
    rep = grad_check(lambda t: _model_loss_fn(model, frames, mel, y, t),
                     frames, max_coords=input_coords, rng=RngState(5))
    results.append(CheckResult("end_to_end(d/d input)", rep.max_rel_err,
                               rep.n_checked, rep.passed))

    reports = grad_check_params(
        lambda: _model_loss_fn(model, frames, mel, y), model.params,
        max_coords_per_param=param_coords, rng=RngState(6))
    worst = max(reports.values(), key=lambda r: r.max_rel_err)
    total = sum(r.n_checked for r in reports.values())
    results.append(CheckResult("end_to_end(d/d params)", worst.max_rel_err,
                               total, all(r.passed for r in reports.values())))
    return results


def full_suite(quick: bool = False) -> list[CheckResult]:
    input_coords = 192 if quick else None
    results = op_checks() + module_checks()
    results += end_to_end_check(input_coords=input_coords,
                                param_coords=2 if quick else 3)
    return results
