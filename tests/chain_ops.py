"""The op chains that the fused ops replaced, kept as the tests' references.

The model runs one node where each of these chains ran several: a ReLU
inside its ``conv2d`` or ``pointwise_linear``, ``upsample_merge`` for a
resize, channel map and add, and one node per loss. The elementwise ops
below are the ones only these chains use. Each records its FLOPs and builds
its backward as a ``lightavseg.tensor`` op does, so a fused op can be held to
its chain's values, gradients and FLOP counts. Tests import this module;
pytest does not collect it.
"""

import numpy as np

from lightavseg.losses import PROB_EPS
from lightavseg.tensor import (
    FLOPS, Tensor, _accum, _coerce, _result, _sigmoid_data, _unbroadcast, add,
    bilinear_upsample, mul, pointwise_linear, tmean, tsum,
)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape), own=True)

    return _result(out, "sub", (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data / b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape), own=True)
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), own=True)

    return _result(out, "div", (a, b), bw)


def relu(x) -> Tensor:
    x = _coerce(x)
    out = np.maximum(x.data, 0.0)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * (x.data > 0.0), own=True)

    return _result(out, "relu", (x,), bw)


def sigmoid(x) -> Tensor:
    x = _coerce(x)
    out = _sigmoid_data(x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * out * (1.0 - out), own=True)

    return _result(out, "sigmoid", (x,), bw)


def softplus(x) -> Tensor:
    """log(1+exp(x)) in the overflow-stable branch form."""
    x = _coerce(x)
    out = np.logaddexp(0.0, x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * _sigmoid_data(x.data), own=True)

    return _result(out, "softplus", (x,), bw)


def tlog(x) -> Tensor:
    x = _coerce(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)  # log(<=0) trips the finite check with a clear op name
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g / x.data, own=True)

    return _result(out, "log", (x,), bw)


def tsqrt(x) -> Tensor:
    x = _coerce(x)
    out = np.sqrt(x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        safe = np.where(out > 0.0, out, 1.0)
        _accum(x, np.where(out > 0.0, g / (2.0 * safe), 0.0), own=True)

    return _result(out, "sqrt", (x,), bw)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = _coerce(x)
    out = np.clip(x.data, lo, hi)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * ((x.data > lo) & (x.data < hi)), own=True)

    return _result(out, "clamp", (x,), bw)


def l2_normalize(x, axis: int, eps: float = 1e-6) -> Tensor:
    """x / (||x||_2 + eps) with the norm taken along ``axis``."""
    x = _coerce(x)
    sq = mul(x, x)
    norm = tsqrt(tsum(sq, axis=axis, keepdims=True))
    return div(x, add(norm, eps))


# ---------------------------------------------------------------------------
# The chains each fused op replaced
# ---------------------------------------------------------------------------

def merge_chain(x, weight, bias, skip):
    """``upsample_merge`` as three nodes."""
    up = bilinear_upsample(x, *skip.shape[2:])
    return add(pointwise_linear(up, weight, bias), skip)


def ref_dice(logits, mask, smooth=1.0):
    p = sigmoid(logits)
    inter = tsum(mul(p, mask), axis=(1, 2, 3))
    denom = add(tsum(p, axis=(1, 2, 3)), tsum(mask, axis=(1, 2, 3)))
    frac = div(add(mul(inter, 2.0), smooth), add(denom, smooth))
    return tmean(sub(1.0, frac))


def ref_bce(logits, mask):
    return tmean(sub(softplus(logits), mul(logits, mask)))


def ref_bce_on_probs(probs, mask):
    p = clamp(probs, PROB_EPS, 1.0 - PROB_EPS)
    pos = mul(mask, tlog(p))
    neg = mul(sub(1.0, mask), tlog(sub(1.0, p)))
    return mul(tmean(add(pos, neg)), -1.0)


def ref_msa(scores, mask):
    h, w = mask.shape[2:]
    per_scale = [ref_bce_on_probs(bilinear_upsample(s, h, w), mask) for s in scores]
    total = per_scale[0]
    for t in per_scale[1:]:
        total = add(total, t)
    return mul(total, 1.0 / len(per_scale))


def ref_cosine_scores(f, a, tau, eps=1e-6):
    sim = tsum(mul(l2_normalize(f, axis=1, eps=eps), l2_normalize(a, axis=1, eps=eps)),
               axis=1, keepdims=True)
    return sigmoid(mul(sim, 1.0 / tau))
