"""Dense audio-conditioned cross-attention oracle and FLOP scaling sweeps.

The attention block flattens the spatial grid to N tokens and computes a full
token-to-token affinity matrix, so its cost carries an N^2 term. It exists as
the quadratic reference against which the gated fusion path's linear scaling
is demonstrated. Accounting: the two affinity matmuls record 2*N^2*d each
(scope ``xattn.affinity``) and the four channel projections N*d*C each, so the
madd total of scope ``xattn`` matches 4*N^2*d + 4*N*d*C exactly.

``fusion_step`` is the linear path: one encoder refinement plus one decoder
update, as the gradient suite checks it. ``scaling_sweep`` measures counted
FLOPs and the median no-grad wall time of one module's forward per grid size
and fits the log-log slope against N = H*W.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .backbones import AudioState
from .decoder import DecoderStageParams, audio_state_update, visual_inject
from .encoder import EncoderStageParams, agve_step, har_step
from .layers import Linear1x1
from .tensor import (
    FLOPS, ContractError, RngState, Tensor, broadcast_add, matmul, mul, no_grad,
    reshape, softmax, transpose,
)

FUSION_CHANNELS = 16  # width of the fusion sweep's encoder and decoder stage
XATTN_CHANNELS = 64   # width of the attention sweep's input
XATTN_D = 64          # attention sweep's token dimension
INPUT_SEED = 0        # seed of the sweeps' parameters and inputs and the report's inputs
REPORT_REPS = 3       # timed forwards per component report


@dataclass
class AttentionParams:
    query: Linear1x1
    key: Linear1x1
    value: Linear1x1
    out: Linear1x1
    d: int


def make_attention_params(channels: int, d: int, rng: RngState) -> AttentionParams:
    params = {}
    return AttentionParams(
        query=Linear1x1("xattn.query", channels, d, rng, params),
        key=Linear1x1("xattn.key", channels, d, rng, params),
        value=Linear1x1("xattn.value", channels, d, rng, params),
        out=Linear1x1("xattn.out", d, channels, rng, params),
        d=d)


def dense_attention(v: Tensor, audio: AudioState, p: AttentionParams) -> Tensor:
    """Single-head dense attention over spatial tokens, audio as query bias."""
    b, c, h, w = v.shape
    n = h * w
    with FLOPS.scope("xattn"):
        q_in = broadcast_add(v, audio.value)
        q = p.query(q_in)
        k = p.key(v)
        val = p.value(v)
        q_t = transpose(reshape(q, (b, p.d, n)), (0, 2, 1))      # (B, N, d)
        k_flat = reshape(k, (b, p.d, n))                          # (B, d, N)
        v_t = transpose(reshape(val, (b, p.d, n)), (0, 2, 1))     # (B, N, d)
        with FLOPS.scope("xattn.affinity"):
            scores = matmul(q_t, k_flat)                          # (B, N, N)
        scores = mul(scores, 1.0 / math.sqrt(p.d))
        weights = softmax(scores, axis=-1)
        with FLOPS.scope("xattn.affinity"):
            mixed = matmul(weights, v_t)                          # (B, N, d)
        mixed = reshape(transpose(mixed, (0, 2, 1)), (b, p.d, h, w))
        return p.out(mixed)


def attention_flops_closed_form(n: int, d: int, c: int) -> tuple[int, int]:
    """(affinity, projection) madd counts for one batch-1 forward."""
    return 4 * n * n * d, 4 * n * d * c


# ---------------------------------------------------------------------------
# Scaling sweep
# ---------------------------------------------------------------------------

@dataclass
class FlopPoint:
    module: str
    n: int
    flops: int
    wall_ms: float
    madds: int = 0
    elems: int = 0


@dataclass
class FlopReport:
    module: str
    points: list
    slope: float
    channels: int
    extra: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["module,N,flops,wall_ms"]
        for pt in self.points:
            lines.append(f"{pt.module},{pt.n},{pt.flops},{pt.wall_ms:.4f}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "module": self.module,
            "channels": self.channels,
            "slope": self.slope,
            "points": [{"N": pt.n, "flops": pt.flops, "wall_ms": pt.wall_ms,
                        "madds": pt.madds, "elems": pt.elems} for pt in self.points],
            **self.extra,
        }


def fit_loglog_slope(ns, counts) -> float:
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(counts, dtype=np.float64))
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def _median_wall_ms(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def fusion_stage_params(c: int, rng: RngState):
    """Unregistered channel maps of one encoder stage and one decoder stage."""
    enc_p = EncoderStageParams(audio_map=Linear1x1("enc.audio", c, c, rng, {}),
                               gate_map=Linear1x1("enc.gate", c, c, rng, {}))
    dec_p = DecoderStageParams(
        proj_prev=Linear1x1("dec.proj_prev", c, c, rng, {}),
        proj_enc=Linear1x1("dec.proj_enc", c, c, rng, {}),
        fuse_map=Linear1x1("dec.fuse", 2 * c, c, rng, {}),
        gate_map=Linear1x1("dec.gate", c, c, rng, {}),
        inject_map=Linear1x1("dec.inject", c, c, rng, {}))
    return enc_p, dec_p


def fusion_step(v: Tensor, a: AudioState, enc_p: EncoderStageParams,
                dec_p: DecoderStageParams) -> Tensor:
    """One encoder refinement plus one decoder update (HAR, AGVE, state, inject)."""
    refined = har_step(a, v, enc_p)
    enhanced = agve_step(v, refined)
    a_hat = audio_state_update(refined, refined, enhanced, dec_p)
    return visual_inject(enhanced, a_hat, dec_p)


def scaling_sweep(module: str, grid_sizes, reps: int = 5) -> FlopReport:
    """Counted FLOPs and median-of-``reps`` wall time across grid sizes.

    ``module`` is ``fusion`` (``fusion_step``; the gated count is the
    grid-dependent interaction scope) or ``xattn`` (``dense_attention``; the
    gated count is the N^2 affinity term). Each grid's inputs are drawn once;
    every count is read from one forward, and ``wall_ms`` is the median
    no-grad forward of the module alone on those inputs.
    """
    grid_sizes = list(grid_sizes)
    if any(b <= a for a, b in zip(grid_sizes, grid_sizes[1:])):
        raise ContractError(f"grid sizes must be strictly increasing: {grid_sizes}")
    if module == "fusion":
        channels, gated = FUSION_CHANNELS, "fusion.interaction"
        counted = gated
        enc_p, dec_p = fusion_stage_params(channels, RngState(INPUT_SEED))
        forward = partial(fusion_step, enc_p=enc_p, dec_p=dec_p)
    elif module == "xattn":
        channels, gated, counted = XATTN_CHANNELS, "xattn.affinity", "xattn"
        forward = partial(dense_attention,
                          p=make_attention_params(channels, XATTN_D, RngState(INPUT_SEED)))
    else:
        raise ContractError(f"unknown sweep module {module!r} (want fusion or xattn)")
    points = []
    for g in grid_sizes:
        data_rng = RngState(INPUT_SEED + g)
        v = Tensor(data_rng.uniform((1, channels, g, g), -1, 1))
        a = AudioState(Tensor(data_rng.uniform((1, channels, 1, 1), -1, 1)))
        with no_grad():
            FLOPS.reset()
            forward(v, a)
            flops, madds, elems = (FLOPS.ops(gated), FLOPS.madds(counted),
                                   FLOPS.elems(counted))
            state_madds = FLOPS.madds("fusion.state")
            wall = _median_wall_ms(lambda: forward(v, a), reps=reps)
        points.append(FlopPoint(module, g * g, flops, wall, madds, elems))
    extra = {"state_madds_last": state_madds} if module == "fusion" else {"d": XATTN_D}
    slope = fit_loglog_slope([pt.n for pt in points], [pt.flops for pt in points])
    return FlopReport(module=module, points=points, slope=slope, channels=channels,
                      extra={"gated_scope": gated, **extra})


def component_report(model, hw: int = 224) -> dict:
    """Per-component FLOPs and wall time of a full forward (latency breakdown).

    ``total_wall_ms`` is the median time of a whole forward, and
    ``unattributed_ms`` the median part of a forward outside the five sections.
    """
    rng = RngState(INPUT_SEED)
    frames = Tensor(rng.uniform((1, 3, hw, hw), 0, 1))
    mel = Tensor(rng.uniform((1, 96, 64), -20, 0))
    names = ["visual_backbone", "audio_embed", "encoder_fusion",
             "decoder_fusion", "seg_head"]
    FLOPS.reset()
    with no_grad():
        model.forward(frames, mel)
    flops = {n: {"madds": FLOPS.madds(n), "elems": FLOPS.elems(n)} for n in names}

    times, totals = [], []
    for _ in range(REPORT_REPS):
        FLOPS.reset()
        t0 = time.perf_counter()
        with no_grad():
            model.forward(frames, mel)
        totals.append((time.perf_counter() - t0) * 1e3)
        times.append({n: FLOPS.seconds(n) * 1e3 for n in names})
    med = {n: float(np.median([t[n] for t in times])) for n in names}
    total_ms = float(np.median(totals))
    rest = [max(0.0, tot - sum(t.values())) for tot, t in zip(totals, times)]
    return {
        "hw": hw,
        "components": [
            {"name": n, "madds": flops[n]["madds"], "elems": flops[n]["elems"],
             "wall_ms": med[n],
             "share": med[n] / total_ms if total_ms > 0 else 0.0}
            for n in names],
        "total_wall_ms": total_ms,
        "unattributed_ms": float(np.median(rest)),
    }
