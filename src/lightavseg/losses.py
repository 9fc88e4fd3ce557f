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
    FLOPS, ContractError, DimensionError, Tensor, _accum, _interp_matrix, _result,
    _sigmoid_data, add, mul, no_grad,
)

PROB_EPS = 1e-7
DICE_SMOOTH = 1.0
COSINE_EPS = 1e-6
FSCORE_BETA_SQ = 0.3


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

def _binary_zeros(m: np.ndarray, what: str) -> np.ndarray:
    """Where ``m`` is 0, as booleans; a value other than 0 or 1 raises ContractError."""
    zeros = m == 0.0
    if np.count_nonzero(zeros) + np.count_nonzero(m == 1.0) != m.size:
        raise ContractError(f"{what} must be strictly binary")
    return zeros


def foreground_mask(y: Tensor) -> Tensor:
    """The sounding-foreground mask as data, checked to be strictly binary."""
    _binary_zeros(y.data, "masks")
    return Tensor(y.data.copy())


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


def dice_loss(logits: Tensor, mask: Tensor) -> Tensor:
    """Soft Dice with +1 smoothing, computed per frame and averaged.

    With p = sigmoid(x), per frame D = sum p + sum m + DICE_SMOOTH and
    frac = (2 sum p*m + DICE_SMOOTH) / D; the gradient is
    (frac - 2m) / (B * D) * p * (1 - p).
    """
    m = _mask_data(logits, mask, "dice")
    x = logits.data
    batch = x.shape[0]
    p = _sigmoid_data(x)
    axes = tuple(range(1, x.ndim))
    inter = (p * m).sum(axis=axes, keepdims=True)
    denom = p.sum(axis=axes, keepdims=True) + m.sum(axis=axes, keepdims=True)
    denom += DICE_SMOOTH
    frac = (inter * 2.0 + DICE_SMOOTH) / denom
    out = (1.0 - frac).sum().reshape(1) * (1.0 / batch)
    FLOPS.add(elems=5 * x.size + 7 * batch + 1)

    def bw(g):
        gx = m * 2.0
        np.subtract(frac, gx, out=gx)
        gx *= g / (batch * denom)
        q = np.subtract(1.0, p)
        q *= p
        gx *= q
        _accum(logits, gx, own=True)

    return _result(out, "dice_loss", (logits,), bw)


def bce_loss(logits: Tensor, mask: Tensor) -> Tensor:
    """Mean logit-stable binary cross-entropy; gradient (sigmoid(x) - m) / N."""
    m = _mask_data(logits, mask, "bce")
    x = logits.data
    n = x.size
    # softplus as max(x, 0) + log1p(exp(-|x|)): np.logaddexp is about 5x slower
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    u = np.maximum(x, 0.0)
    t += u
    np.multiply(x, m, out=u)
    t -= u
    out = t.sum().reshape(1) * (1.0 / n)
    FLOPS.add(elems=4 * n + 1)

    def bw(g):
        gx = _sigmoid_data(x)
        gx -= m
        gx *= g / n
        _accum(logits, gx, own=True)

    return _result(out, "bce_loss", (logits,), bw)


# ---------------------------------------------------------------------------
# Multi-scale alignment
#
# Two kinds of node: one ``cosine_scores`` per scale, and one ``msa_loss``
# over all scales that upsamples each score map to the mask's size inside the
# node, so no full-resolution map is a graph node or lives until backward.
# ---------------------------------------------------------------------------

def cosine_scores(feature: Tensor, audio: Tensor, tau: float) -> Tensor:
    """sigmoid(cos(f, a) / tau) per pixel, as one node.

    With v = f / (||f|| + eps) and b = a / (||a|| + eps) (norms over
    channels, eps = COSINE_EPS), the score is sigmoid(sum_c v b / tau). The
    forward runs the op chain's own expressions (l2_normalize twice, mul, sum,
    mul by 1/tau, sigmoid), so its values and FLOPs are that chain's. The
    backward is closed-form for both inputs; where a norm is 0 it passes no
    gradient through that norm, as the chain's sqrt does.
    """
    x, a = feature.data, audio.data
    if x.ndim != 4 or a.shape != (*x.shape[:2], 1, 1):
        raise DimensionError(f"cosine_scores needs features (B,C,H,W) and audio (B,C,1,1), "
                             f"got {x.shape} and {a.shape}")
    B, C = x.shape[:2]
    inv_tau = 1.0 / tau
    nx = np.sqrt((x * x).sum(axis=1, keepdims=True))
    dx = nx + COSINE_EPS
    v = x / dx
    na = np.sqrt((a * a).sum(axis=1, keepdims=True))
    da = na + COSINE_EPS
    b = a / da
    sim = (v * b).sum(axis=1, keepdims=True)
    out = _sigmoid_data(sim * inv_tau)
    FLOPS.add(elems=5 * x.size + 4 * sim.size + 3 * a.size + 2 * na.size)

    def bw(g):
        # dL/dv = gsim * b and dL/db = sum_hw(gsim * v); through y = x / (n + eps),
        # dL/dx = dL/dy / d - x * sum_c(dL/dy * x) / (d^2 n), the second term only where n > 0
        gsim = g * out * (1.0 - out) * inv_tau
        k = gsim / dx
        with np.errstate(divide="ignore", invalid="ignore"):
            if feature.requires_grad:
                gx = k * b      # sum_c(gsim * b * x) = gsim * dx * sim
                gx -= x * np.where(nx > 0.0, k * sim / nx, 0.0)
                _accum(feature, gx, own=True)
            if audio.requires_grad:
                gb = (x.reshape(B, C, -1) @ k.reshape(B, -1, 1)).reshape(a.shape)
                r = (gb * a).sum(axis=1, keepdims=True)
                ga = gb / da
                ga -= a * np.where(na > 0.0, r / (da * da * na), 0.0)
                _accum(audio, ga, own=True)

    return _result(out, "cosine_scores", (feature, audio), bw)


def alignment_maps(features: list, audio: list, tau: float) -> list:
    """Per-scale sharpened cosine-similarity scores in (0, 1), deepest first.

    ``audio`` holds one ``AudioState`` per feature scale, of the same width.
    The scores keep each scale's resolution; ``msa_loss`` upsamples them
    inside its node, and a no-grad caller that wants full-resolution maps
    calls ``harness.frame_alignment_maps``.
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if len(features) != len(audio):
        raise ContractError(
            f"{len(features)} feature scales but {len(audio)} audio states")
    return [cosine_scores(f, a.value, tau) for f, a in zip(features, audio)]


def msa_loss(scores: list, mask: Tensor):
    """Mean over scales of pixelwise BCE between upsampled scores and mask.

    One node over every scale. Each score map is bilinearly upsampled to the
    mask's size and clamped to [PROB_EPS, 1 - PROB_EPS] as p; with q = p where
    m is 1 and 1 - p where m is 0, a scale's loss is -mean(log q), and its
    gradient with respect to p is (1 - 2m) / (q N), zero where the clamp is
    active. This one-log form is exact only for a binary mask, so any other
    mask raises ContractError. The backward recomputes each upsample rather
    than keeping full-resolution maps alive.

    Returns the mean and the per-scale losses it averages (values, not nodes).
    """
    if not scores:
        raise ContractError("msa_loss needs at least one scale")
    if mask.requires_grad:
        raise ContractError("msa_loss: the mask is data and must not require grad")
    m = mask.data
    if m.ndim != 4:
        raise DimensionError(f"msa_loss needs a 4D mask, got {m.shape}")
    neg = _binary_zeros(m, "msa_loss: the mask")
    B, C, H, W = m.shape
    n = m.size
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    interp = []
    for s in scores:
        if s.ndim != 4 or s.shape[:2] != (B, C) or s.shape[2] > H or s.shape[3] > W:
            raise DimensionError(f"msa_loss: scores {s.shape} do not upsample to mask {m.shape}")
        interp.append((_interp_matrix(H, s.shape[2]), _interp_matrix(W, s.shape[3])))

    def one_log_arg(up):
        """q from the upsampled scores, in place."""
        np.clip(up, lo, hi, out=up)
        np.subtract(1.0, up, out=up, where=neg)
        return up

    per_scale = []
    for s, (my, mx) in zip(scores, interp):
        q = one_log_arg((my @ s.data) @ mx.T)
        np.log(q, out=q)
        per_scale.append(-(q.sum() * (1.0 / n)))
    total = per_scale[0]
    for v in per_scale[1:]:
        total = total + v
    out = np.array([total * (1.0 / len(scores))])
    FLOPS.add(elems=len(scores) * (13 * n + 3))

    def bw(g):
        g_scale = g * (1.0 / len(scores)) / n
        sign = m * -2.0
        sign += 1.0
        for s, (my, mx) in zip(scores, interp):
            if not s.requires_grad:
                continue
            up = (my @ s.data) @ mx.T
            band = up <= lo
            band |= up >= hi
            q = one_log_arg(up)
            np.divide(sign, q, out=q)
            q *= g_scale
            np.copyto(q, 0.0, where=band)
            _accum(s, my.T @ (q @ mx), own=True)

    return _result(out, "msa_loss", tuple(scores), bw), per_scale


def total_loss(logits: Tensor, features: list, audio: list, y: Tensor,
               lam: float = 0.5, tau: float = 0.1,
               variant: str = "seg+msa") -> LossReport:
    """Assemble the training objective and its per-component report."""
    if lam < 0:
        raise ContractError(f"balance weight must be >= 0, got {lam}")
    if variant not in ("seg", "seg+msa"):
        raise ContractError(f"unknown loss variant {variant!r}")
    # each loss refuses a mask that requires grad; msa_loss checks it is binary
    d = dice_loss(logits, y)
    b = bce_loss(logits, y)
    seg = add(d, b)

    # seg logs msa without building a graph for backward to walk
    with no_grad() if variant == "seg" else nullcontext():
        m, per_scale = msa_loss(alignment_maps(features, audio, tau), y)
    loss = seg if variant == "seg" else add(seg, mul(m, lam))
    return LossReport(
        dice=d.item(), bce=b.item(), msa=m.item(), total=loss.item(),
        per_scale_msa=[float(v) for v in per_scale], loss=loss)


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


def fscore(pred_mask, gt_mask) -> float:
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
        denom = FSCORE_BETA_SQ * prec + rec
        scores.append(0.0 if denom == 0 else (1 + FSCORE_BETA_SQ) * prec * rec / denom)
    return float(np.mean(scores))
