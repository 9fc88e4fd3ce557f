"""The benchmark's workloads, driven only through the package's public functions.

Every workload is a closed loop with one client: the next iteration starts
when the previous one has finished. An iteration is one training step, one
eval frame, or one pass of the quick gradient suite. The workload seed picks
the generated inputs; the package receives only those inputs.

  train-64         training steps, hw 64, batch 8. Per-op Python and numpy
                   dispatch dominate, so it shows per-op overhead, backward
                   and AdamW.
  train-224        the same loop at the paper's resolution. Arithmetic
                   dominates: convolutions, upsampling and the full-resolution
                   alignment loss.
  eval-disk        no-grad inference as ``lightavseg eval --data`` runs it:
                   PNG/WAV decode, log-mel and ``evaluate`` per clip.
  gradcheck-quick  ``gradsuite.full_suite(quick=True)``; its inputs are fixed
                   points chosen by the suite, so the seed only feeds set-up.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
from pathlib import Path

import numpy as np

from lightavseg import (audio, backbones, data, decoder, encoder, gradsuite, harness,
                        losses, model, tensor)
from spans import nospan

BATCH = 8
N_SCENES = 64
LR = 1e-3
LOSS_VARIANT = "seg+msa"
EVAL_HW = 64
REPLAY_STEPS = 2
GRADCHECK_CHECKS = 21
GRADCHECK_COORDS = 859

SECTION_LAYER = {"visual_backbone": "backbones", "audio_embed": "backbones",
                 "encoder_fusion": "encoder", "decoder_fusion": "decoder",
                 "seg_head": "decoder"}
FLOP_SCOPES = (tensor.FlopCounter.TOTAL,) + tuple(SECTION_LAYER)


def train_config(hw: int, seed: int, **overrides) -> harness.TrainConfig:
    fields = dict(hw=hw, seed=seed, lr=LR, batch_size=BATCH, n_scenes=N_SCENES,
                  loss_variant=LOSS_VARIANT)
    return harness.TrainConfig(**{**fields, **overrides})


class TrainLoop:
    """``harness.train``'s step, driven through public functions.

    Batching repeats ``harness.train`` exactly (the same batch RNG stream and
    permutation refill), so the losses equal its log bit for bit.
    """

    def __init__(self, cfg: harness.TrainConfig, frames: list, masks: list, mels: list):
        self.cfg = cfg
        self.frames, self.masks, self.mels = frames, masks, mels
        self.model = model.SegModel(cfg.model_config(), tensor.RngState(cfg.seed))
        frozen = (self.model.audio_backbone_param_names()
                  if cfg.freeze_audio_backbone else set())
        self.update_names = [n for n in self.model.params if n not in frozen]
        self.state = harness.AdamWState()
        self.batch_rng = tensor.RngState(cfg.seed, counter=1_000_000)
        self.order: list[int] = []

    def batch(self):
        bs = self.cfg.batch_size
        while len(self.order) < bs:
            self.order.extend(self.batch_rng.permutation(len(self.frames)).tolist())
        idxs, self.order = self.order[:bs], self.order[bs:]
        return tuple(tensor.Tensor(np.concatenate([arrs[i] for i in idxs]))
                     for arrs in (self.frames, self.mels, self.masks))

    def step(self, span=nospan) -> losses.LossReport:
        cfg = self.cfg
        with span("harness.batch"):
            frames, mel, y = self.batch()
        for p in self.model.params.values():
            p.zero_grad()
        seg, _ = self.model.forward(frames, mel)
        rep = losses.total_loss(seg.logits, seg.per_stage_features, seg.audio_states,
                                y, lam=cfg.lam, tau=cfg.tau, variant=cfg.loss_variant)
        tensor.backward(rep.loss)
        grads = {n: self.model.params[n].grad for n in self.update_names}
        harness.adamw_step(self.model.params, grads, self.state, cfg,
                           update_names=self.update_names)
        return rep


def scene_arrays(scenes: list):
    """Per-scene frames, masks and mel windows, as ``harness.train`` caches them."""
    return ([s.frames.data for s in scenes], [s.masks.data for s in scenes],
            [audio.log_mel(s.waveform).windows.data for s in scenes])


def _graph_ids(roots) -> set:
    ids = set()
    for r in roots:
        ids.update(id(t) for t in tensor.topo_order(r))
    return ids


def forward_counts(m: model.SegModel, frames, mel, y) -> dict:
    """Exact FLOPs of one forward, and graph nodes of the loss built on it."""
    tensor.FLOPS.reset()
    seg, _ = m.forward(frames, mel)
    flops = tensor.FLOPS.report()
    counts = {}
    for scope in FLOP_SCOPES:
        row = flops.get(scope, {"madds": 0, "elems": 0})
        counts[f"tensor.flops.{scope}.madds"] = row["madds"]
        counts[f"tensor.flops.{scope}.elems"] = row["elems"]
    if y is not None:
        rep = losses.total_loss(seg.logits, seg.per_stage_features, seg.audio_states,
                                y, lam=0.5, tau=0.1, variant=LOSS_VARIANT)
        loss_ids = _graph_ids([rep.loss])
        model_ids = _graph_ids([seg.logits, *seg.per_stage_features,
                                *(a.value for a in seg.audio_states)])
        counts["tensor.graph_nodes"] = len(loss_ids)
        counts["losses.graph_nodes"] = len(loss_ids - model_ids)
    return counts


class Workload:
    name = ""
    root = "iteration"        # name of the span that opens one iteration
    ops_per_iteration = 1     # steps, frames or gradient checks per iteration
    items_per_iteration = 1   # samples, frames or gradient checks per iteration

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def teardown(self):
        """Release what ``setup`` made; the next ``setup`` starts afresh."""

    def iteration(self, span=nospan) -> int:
        """Run one iteration; return how many of its operations failed their check."""
        raise NotImplementedError

    def check(self) -> int:
        """Output checks after the loop; return how many operations they failed."""
        return 0

    def count_layers(self) -> dict:
        """Exact per-layer counts, from extra calls outside the timed loop."""
        return {}


class TrainWorkload(Workload):
    root = "step"
    items_per_iteration = BATCH

    def __init__(self, seed, workdir, hw):
        super().__init__(seed, workdir)
        self.name = f"train-{hw}"
        self.cfg = train_config(hw, seed)
        self.losses: list[float] = []

    def setup(self):
        scenes = data.generate_dataset(self.cfg.dataset_spec())
        self.arrays = scene_arrays(scenes)
        self.loop = TrainLoop(self.cfg, *self.arrays)

    def iteration(self, span=nospan) -> int:
        total = self.loop.step(span).total
        self.losses.append(total)
        return 0 if math.isfinite(total) else 1

    def check(self) -> int:
        """Replay the first steps from a fresh model: losses must be bit-identical."""
        replay = TrainLoop(self.cfg, *self.arrays)
        n = min(REPLAY_STEPS, len(self.losses))
        return sum(replay.step().total != self.losses[k] for k in range(n))

    def count_layers(self) -> dict:
        loop = TrainLoop(self.cfg, *self.arrays)
        return forward_counts(loop.model, *loop.batch())


class EvalDiskWorkload(Workload):
    name = "eval-disk"
    root = "frame"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = train_config(EVAL_HW, seed)
        self.dir = None
        self.counts: dict = {}
        self.scored: list[tuple] = []

    def setup(self):
        self.dir = Path(tempfile.mkdtemp(prefix="eval-disk-", dir=self.workdir))
        self.clips = self.dir / "clips"
        data.materialize_dataset(self.cfg.dataset_spec(), self.clips)
        seed_model = model.SegModel(self.cfg.model_config(), tensor.RngState(self.seed))
        ckpt = self.dir / "seed.ckpt"
        harness.save_checkpoint(ckpt, self.cfg, seed_model.params, harness.AdamWState(),
                                tensor.RngState(self.seed), 0)
        self.model, _ = harness.model_from_checkpoint(harness.load_checkpoint(ckpt))
        self.counts = {
            "harness.ckpt_bytes": ckpt.stat().st_size,
            "data.bytes_written": sum(p.stat().st_size for p in self.clips.rglob("*")
                                      if p.is_file())}
        self.scenes = data.load_avsbench_layout(self.clips)

    def teardown(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def iteration(self, span=nospan) -> int:
        with span("data.load_avsbench_layout"):
            scene = next(self.scenes, None)
            if scene is None:
                self.scenes = data.load_avsbench_layout(self.clips)
                scene = next(self.scenes)
        row = harness.evaluate(self.model, [scene])["per_scene"][0]
        self.scored.append((row["index"], row["miou"], row["fscore"]))
        return 0

    def check(self) -> int:
        """Every clip loads, and each scored frame equals a direct ``evaluate``."""
        direct = harness.evaluate(self.model, list(data.load_avsbench_layout(self.clips)))
        table = {r["index"]: (r["miou"], r["fscore"]) for r in direct["per_scene"]}
        if len(table) != N_SCENES:
            return len(self.scored)
        return sum(table.get(vid) != (mi, fs) for vid, mi, fs in self.scored)

    def count_layers(self) -> dict:
        scene = next(data.load_avsbench_layout(self.clips))
        mel = audio.log_mel(scene.waveform).windows
        with tensor.no_grad():  # inference builds no autodiff graph
            counts = forward_counts(self.model, scene.frames, mel, None)
        return {**counts, **self.counts}


class GradcheckWorkload(Workload):
    name = "gradcheck-quick"
    root = "suite"
    ops_per_iteration = GRADCHECK_CHECKS
    items_per_iteration = GRADCHECK_CHECKS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.coords: list[int] = []

    def setup(self):
        """The suite's tiny model and a seeded input, used for the layer counts."""
        self.model = gradsuite.tiny_model(self.seed)
        rng = tensor.RngState(self.seed + 100)
        self.inputs = (tensor.Tensor(rng.uniform((1, 3, 32, 32), 0.05, 0.95)),
                       tensor.Tensor(rng.uniform((1, 96, 64), -20.0, 0.0)),
                       tensor.Tensor((rng.uniform((1, 1, 32, 32), 0, 1) > 0.7)
                                     .astype(np.float64)))

    def iteration(self, span=nospan) -> int:
        results = gradsuite.full_suite(quick=True)
        coords = sum(r.n_checked for r in results)
        self.coords.append(coords)
        if len(results) != GRADCHECK_CHECKS or coords != GRADCHECK_COORDS:
            return GRADCHECK_CHECKS
        return sum(not r.passed for r in results)

    def count_layers(self) -> dict:
        counts = forward_counts(self.model, *self.inputs)
        counts["gradsuite.coords_checked"] = self.coords[0] if self.coords else 0
        return counts


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "eval-disk":
        return EvalDiskWorkload(seed, workdir)
    if name == "gradcheck-quick":
        return GradcheckWorkload(seed, workdir)
    return TrainWorkload(seed, workdir, hw=int(name.removeprefix("train-")))


WORKLOADS = ("train-64", "train-224", "eval-disk", "gradcheck-quick")


# ---------------------------------------------------------------------------
# Traced run: where spans come from, and the per-layer metrics built on them
# ---------------------------------------------------------------------------

def patch_targets(tracer) -> list:
    """Module attributes the package looks up, each wrapped in a span of its layer."""
    def span(name):
        return lambda fn: tracer.wrap(fn, name)

    def section(fn):
        return tracer.wrap_section(fn, SECTION_LAYER)

    return [
        (tensor, "backward", span("tensor.backward")),
        (model.SegModel, "forward", span("model.forward")),
        (losses, "total_loss", span("losses.total_loss")),
        (gradsuite, "total_loss", span("losses.total_loss")),
        (harness, "adamw_step", span("harness.adamw_step")),
        (harness, "evaluate", span("harness.evaluate")),
        (harness, "save_checkpoint", span("harness.save_checkpoint")),
        (harness, "load_checkpoint", span("harness.load_checkpoint")),
        (audio, "log_mel", span("audio.log_mel")),
        (data, "log_mel", span("audio.log_mel")),
        (harness, "log_mel", span("audio.log_mel")),
        (data, "read_wav", span("audio.read_wav")),
        (data, "read_png", span("pngio.read_png")),
        (data, "generate_scene", span("data.generate_scene")),
        (data, "materialize_dataset", span("data.materialize_dataset")),
        (gradsuite, "op_checks", span("gradsuite.op_checks")),
        (gradsuite, "module_checks", span("gradsuite.module_checks")),
        (gradsuite, "end_to_end_check", span("gradsuite.end_to_end_check")),
        (backbones, "section", section),
        (encoder, "section", section),
        (decoder, "section", section),
    ]


# per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "tensor.backward_ms": "ms",
    "tensor.graph_nodes": "count",
    **{f"tensor.flops.{s}.{k}": "count" for s in FLOP_SCOPES for k in ("madds", "elems")},
    "model.forward_ms": "ms",
    "model.forward_unattributed_ms": "ms",
    **{f"{layer}.{name}_ms": "ms" for name, layer in SECTION_LAYER.items()},
    "losses.total_loss_ms": "ms",
    "losses.graph_nodes": "count",
    "harness.batch_ms": "ms",
    "harness.adamw_ms": "ms",
    "harness.evaluate_ms": "ms",
    "harness.ckpt_save_ms": "ms",
    "harness.ckpt_load_ms": "ms",
    "harness.ckpt_bytes": "B",
    "audio.log_mel_ms": "ms",
    "audio.log_mel_calls_per_frame": "calls/frame",
    "audio.read_wav_ms": "ms",
    "data.load_ms": "ms",
    "pngio.read_png_ms": "ms",
    "data.materialize_ms": "ms",
    "data.bytes_written": "B",
    "data.generate_ms": "ms",
    "gradsuite.op_checks_ms": "ms",
    "gradsuite.module_checks_ms": "ms",
    "gradsuite.end_to_end_ms": "ms",
    "gradsuite.coords_checked": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.span_cost_ms": "ms",
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, w: Workload) -> dict:
    """Per-call medians of each layer's spans, and the workload's exact counts.

    A layer the workload never reaches reads 0, so every workload reports
    every name in ``LAYER_UNITS``.
    """
    per_call = {
        "tensor.backward_ms": "tensor.backward",
        "model.forward_ms": "model.forward",
        "losses.total_loss_ms": "losses.total_loss",
        "harness.batch_ms": "harness.batch",
        "harness.adamw_ms": "harness.adamw_step",
        "harness.evaluate_ms": "harness.evaluate",
        "harness.ckpt_save_ms": "harness.save_checkpoint",
        "harness.ckpt_load_ms": "harness.load_checkpoint",
        "audio.log_mel_ms": "audio.log_mel",
        "audio.read_wav_ms": "audio.read_wav",
        "data.load_ms": "data.load_avsbench_layout",
        "pngio.read_png_ms": "pngio.read_png",
        "data.materialize_ms": "data.materialize_dataset",
        "gradsuite.op_checks_ms": "gradsuite.op_checks",
        "gradsuite.module_checks_ms": "gradsuite.module_checks",
        "gradsuite.end_to_end_ms": "gradsuite.end_to_end_check",
    }
    m = {metric: _median(tracer.durations_ms(span)) for metric, span in per_call.items()}
    m["model.forward_unattributed_ms"] = _median(tracer.self_ms("model.forward"))
    for name, layer in SECTION_LAYER.items():
        m[f"{layer}.{name}_ms"] = _median(
            tracer.child_sums_ms("model.forward", f"{layer}.{name}"))
    m["data.generate_ms"] = _median(tracer.group_sums_ms("setup", "data.generate_scene"))
    m["audio.log_mel_calls_per_frame"] = tracer.count_per_group(w.root, "audio.log_mel")
    counts = {k: 0 for k, unit in LAYER_UNITS.items() if unit in ("count", "B")}
    return {**m, **counts, **w.count_layers()}
