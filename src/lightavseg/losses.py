"""Training objectives and evaluation metrics.

The segmentation objective is Dice plus logit-stable BCE. The auxiliary
multi-scale alignment term compares, at each supervised scale, the cosine
similarity between the per-pixel decoder feature and the paired global audio
state (both L2-normalized, similarity sharpened by a temperature and squashed
to a probability) against the binary sounding-foreground mask, with a
pixelwise BCE averaged over scales. The total is seg + lambda * alignment.

Metrics: per-frame Jaccard index (mIoU) and region F-beta with beta^2 = 0.3,
both averaged over frames.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    FLOPS, ContractError, DimensionError, Tensor, _accum, _result, _sigmoid_data,
    add, bilinear_upsample, l2_normalize, mul, no_grad, sigmoid, tsum,
)

PROB_EPS = 1e-7
FSCORE_BETA_SQ = 0.3


@dataclass
class AlignmentMaps:
    """Audio-visual similarity scores per scale, raw and upsampled."""

    s: list      # Tensor[B,1,H_i,W_i], values in (0,1), deepest first
    s_up: list   # Tensor[B,1,H,W]


@dataclass
class LossReport:
    dice: float
    bce: float
    msa: float
    total: float
    per_scale_msa: list = field(default_factory=list)
    loss: Tensor | None = None   # differentiable total, excluded from logs

    def to_json_dict(self, step: int) -> dict:
        return {"step": step, "dice": self.dice, "bce": self.bce,
                "msa": self.msa, "total": self.total}


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------

def foreground_mask(y: Tensor) -> Tensor:
    """The sounding-foreground mask as data, checked to be strictly binary."""
    vals = y.data
    if not np.isin(vals, (0.0, 1.0)).all():
        raise ContractError("masks must be strictly binary")
    return Tensor(vals.copy())


# ---------------------------------------------------------------------------
# Segmentation losses
#
# Each loss is one graph node: the forward is plain numpy over the whole
# batch and the backward is its closed-form gradient with respect to the
# first argument. The mask is data, so a mask that requires grad is refused
# rather than silently left without a gradient. Each op records the FLOPs of
# the elementwise chain it replaces.
# ---------------------------------------------------------------------------

def _mask_data(x: Tensor, mask: Tensor, name: str) -> np.ndarray:
    if mask.requires_grad:
        raise ContractError(f"{name}: the mask is data and must not require grad")
    if x.shape != mask.shape:
        raise DimensionError(f"{name} shapes differ: {x.shape} vs {mask.shape}")
    return mask.data


def dice_loss(logits: Tensor, mask: Tensor, smooth: float = 1.0) -> Tensor:
    """Soft Dice with +1 smoothing, computed per frame and averaged.

    With p = sigmoid(x), per frame D = sum p + sum m + smooth and
    frac = (2 sum p*m + smooth) / D; the gradient is
    (frac - 2m) / (B * D) * p * (1 - p).
    """
    m = _mask_data(logits, mask, "dice")
    x = logits.data
    batch = x.shape[0]
    p = _sigmoid_data(x)
    axes = tuple(range(1, x.ndim))
    inter = (p * m).sum(axis=axes, keepdims=True)
    denom = p.sum(axis=axes, keepdims=True) + m.sum(axis=axes, keepdims=True)
    denom += smooth
    frac = (inter * 2.0 + smooth) / denom
    out = (1.0 - frac).sum().reshape(1) * (1.0 / batch)
    FLOPS.add(elems=5 * x.size + 7 * batch + 1)

    def bw(g):
        _accum(logits, (frac - 2.0 * m) * (g / (batch * denom)) * (p * (1.0 - p)), own=True)

    return _result(out, "dice_loss", (logits,), bw)


def bce_loss(logits: Tensor, mask: Tensor) -> Tensor:
    """Mean logit-stable binary cross-entropy; gradient (sigmoid(x) - m) / N."""
    m = _mask_data(logits, mask, "bce")
    x = logits.data
    n = x.size
    # softplus as max(x, 0) + log1p(exp(-|x|)): np.logaddexp is about 5x slower
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    out = (softplus - x * m).sum().reshape(1) * (1.0 / n)
    FLOPS.add(elems=4 * n + 1)

    def bw(g):
        _accum(logits, (_sigmoid_data(x) - m) * (g / n), own=True)

    return _result(out, "bce_loss", (logits,), bw)


def bce_on_probs(probs: Tensor, mask: Tensor) -> Tensor:
    """BCE for inputs that are already probabilities; clamped to avoid log(0).

    The gradient is -(m/p - (1-m)/(1-p)) / N where PROB_EPS < x < 1 - PROB_EPS,
    and zero where the clamp is active.
    """
    m = _mask_data(probs, mask, "bce_on_probs")
    x = probs.data
    n = x.size
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    p = np.clip(x, lo, hi)
    out = -((m * np.log(p) + (1.0 - m) * np.log(1.0 - p)).sum().reshape(1) * (1.0 / n))
    FLOPS.add(elems=9 * n + 2)

    def bw(g):
        p = np.clip(x, lo, hi)  # recomputed rather than kept alive until backward
        gp = (1.0 - m) / (1.0 - p)
        gp -= m / p
        gp *= g / n
        gp[(x <= lo) | (x >= hi)] = 0.0
        _accum(probs, gp, own=True)

    return _result(out, "bce_on_probs", (probs,), bw)


# ---------------------------------------------------------------------------
# Multi-scale alignment
# ---------------------------------------------------------------------------

def alignment_maps(features: list, audio: list, tau: float, out_h: int,
                   out_w: int, eps: float = 1e-6) -> AlignmentMaps:
    """Per-scale sharpened cosine-similarity maps between pixels and audio."""
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if len(features) != len(audio):
        raise ContractError(
            f"{len(features)} feature scales but {len(audio)} audio states")
    raw, up = [], []
    for f, a in zip(features, audio):
        a_val = a.value if hasattr(a, "value") else a
        if f.shape[1] != a_val.shape[1]:
            raise DimensionError(
                f"feature width {f.shape[1]} != audio width {a_val.shape[1]}")
        v_bar = l2_normalize(f, axis=1, eps=eps)
        a_bar = l2_normalize(a_val, axis=1, eps=eps)
        sim = tsum(mul(v_bar, a_bar), axis=1, keepdims=True)
        s = sigmoid(mul(sim, 1.0 / tau))
        raw.append(s)
        up.append(bilinear_upsample(s, out_h, out_w))
    return AlignmentMaps(s=raw, s_up=up)


def msa_loss(maps: AlignmentMaps, mask: Tensor):
    """Mean over scales of pixelwise BCE between upsampled scores and mask.

    Returns the mean and the per-scale losses it averages.
    """
    per_scale = [bce_on_probs(s, mask) for s in maps.s_up]
    total = per_scale[0]
    for t in per_scale[1:]:
        total = add(total, t)
    return mul(total, 1.0 / len(per_scale)), per_scale


def total_loss(logits: Tensor, features: list, audio: list, y: Tensor,
               lam: float = 0.5, tau: float = 0.1,
               variant: str = "seg+msa") -> LossReport:
    """Assemble the training objective and its per-component report."""
    if lam < 0:
        raise ContractError(f"balance weight must be >= 0, got {lam}")
    if variant not in ("seg", "seg+msa"):
        raise ContractError(f"unknown loss variant {variant!r}")
    mask = foreground_mask(y)
    d = dice_loss(logits, mask)
    b = bce_loss(logits, mask)
    seg = add(d, b)

    # seg logs msa without building a graph for backward to walk
    with no_grad() if variant == "seg" else nullcontext():
        maps = alignment_maps(features, audio, tau, logits.shape[2], logits.shape[3])
        m, per_scale = msa_loss(maps, mask)
    loss = seg if variant == "seg" else add(seg, mul(m, lam))
    return LossReport(
        dice=d.item(), bce=b.item(), msa=m.item(), total=loss.item(),
        per_scale_msa=[t.item() for t in per_scale], loss=loss)


# ---------------------------------------------------------------------------
# Metrics (plain numpy, no gradients)
# ---------------------------------------------------------------------------

def _as_mask_batch(m) -> np.ndarray:
    arr = m.data if isinstance(m, Tensor) else np.asarray(m)
    arr = arr.astype(bool)
    if arr.ndim == 2:
        arr = arr[None]
    return arr.reshape(arr.shape[0], -1) if arr.ndim == 3 else arr.reshape(
        arr.shape[0] * arr.shape[1], -1)


def miou(pred_mask, gt_mask) -> float:
    """Mean per-frame intersection-over-union; empty-union frames score 1."""
    p, g = _as_mask_batch(pred_mask), _as_mask_batch(gt_mask)
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    scores = []
    for pf, gf in zip(p, g):
        union = np.logical_or(pf, gf).sum()
        if union == 0:
            scores.append(1.0)
        else:
            scores.append(np.logical_and(pf, gf).sum() / union)
    return float(np.mean(scores))


def fscore(pred_mask, gt_mask, beta_sq: float = FSCORE_BETA_SQ) -> float:
    """Mean per-frame region F-beta (beta^2 = 0.3 by convention)."""
    p, g = _as_mask_batch(pred_mask), _as_mask_batch(gt_mask)
    if p.shape != g.shape:
        raise DimensionError(f"mask shapes differ: {p.shape} vs {g.shape}")
    scores = []
    for pf, gf in zip(p, g):
        np_, ng = pf.sum(), gf.sum()
        if np_ == 0 and ng == 0:
            scores.append(1.0)
            continue
        tp = np.logical_and(pf, gf).sum()
        prec = tp / np_ if np_ > 0 else 0.0
        rec = tp / ng if ng > 0 else 0.0
        denom = beta_sq * prec + rec
        scores.append(0.0 if denom == 0 else (1 + beta_sq) * prec * rec / denom)
    return float(np.mean(scores))
