"""Training, evaluation, and checkpointing.

Training is a plain loop: forward, compound loss, reverse pass, AdamW with
decoupled weight decay. The audio backbone is excluded from updates when
frozen (the default). Everything is seeded through counter-based RNG streams,
so two runs with the same config produce bit-identical logs and checkpoints.

Checkpoint format (little-endian):
    magic 'AVSC', u32 version (2), u32 config_len, config text (the key=value
    lines of a run's config.txt, utf8), u64 step, u64 adam_t, i64 rng_seed,
    u64 rng_counter, u32 n_entries,
    then per entry: u32 name_len, name utf8, u32 ndim, u32 dims..., f64 data.
Optimizer moments are stored as entries named 'adam.m/<param>' and
'adam.v/<param>'.
"""

from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio import log_mel
from .data import DatasetSpec, generate_dataset
from .losses import alignment_maps, foreground_mask, fscore, miou, total_loss
from .model import ModelConfig, SegModel
from .tensor import (
    ContractError, DimensionError, RngState, Tensor, _read_exact, _sigmoid_data,
    backward, bilinear_upsample, no_grad, read_array, write_array,
)

CKPT_MAGIC = b"AVSC"
CKPT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    steps: int = 500
    lam: float = 0.5                 # balance weight on the alignment term
    tau: float = 0.1                 # similarity temperature
    weight_decay: float = 1e-2
    seed: int = 0
    freeze_audio_backbone: bool = True
    loss_variant: str = "seg+msa"    # seg | seg+msa
    # model
    stage_channels: tuple = (16, 32, 64, 128)
    audio_channels: int = 128
    stem_channels: int = 8
    # synthetic dataset
    hw: int = 64
    n_scenes: int = 64
    # bookkeeping
    log_every: int = 10

    def __post_init__(self):
        self.stage_channels = tuple(int(c) for c in self.stage_channels)
        # written so that NaN fails every comparison
        for name, ok, want in (
                ("lr", 0 < self.lr < math.inf, "positive and finite"),
                ("tau", 0 < self.tau < math.inf, "positive and finite"),
                ("lam", 0 <= self.lam < math.inf, "non-negative and finite"),
                ("weight_decay", abs(self.weight_decay) < math.inf, "finite")):
            if not ok:
                raise ContractError(f"{name} must be {want}, got {getattr(self, name)}")
        for name, low in (("batch_size", 1), ("steps", 0), ("log_every", 1)):
            if not getattr(self, name) >= low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.loss_variant not in ("seg", "seg+msa"):
            raise ContractError(f"unknown loss variant {self.loss_variant!r}")
        # ModelConfig and DatasetSpec range-check the model and dataset fields
        self.model_config()
        self.dataset_spec()

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(n_scenes=self.n_scenes, hw=self.hw, seed=self.seed)


# Config file surface: flat key=value lines, one per TrainConfig field, each
# parsed by the field's declared type.
_KEY_ALIASES = {"lambda": "lam"}
_FIELD_TYPES = typing.get_type_hints(TrainConfig)
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_value(name: str, raw, ftype):
    """One config value: a literal is parsed by ``ftype``, a typed value kept."""
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    try:
        if ftype is bool:
            return _BOOLS[raw.lower()]
        if ftype is tuple:
            return tuple(int(v) for v in raw.split(","))
        return ftype(raw)
    except (KeyError, ValueError):
        raise ContractError(f"config key {name}: bad {ftype.__name__} {raw!r}") from None


def config_from_mapping(mapping: dict) -> TrainConfig:
    """Build a TrainConfig from string or typed values, validating keys."""
    parsed = {}
    for key, raw in mapping.items():
        name = _KEY_ALIASES.get(key, key)
        if name not in _FIELD_TYPES:
            raise ContractError(f"unknown config key {key!r}")
        parsed[name] = _parse_value(name, raw, _FIELD_TYPES[name])
    return TrainConfig(**parsed)


def _utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ContractError(f"{what} is not UTF-8 ({e})") from None


def config_from_text(text: str, overrides: dict | None = None) -> TrainConfig:
    """Parse flat key=value lines, as ``config_to_flat_text`` writes them."""
    mapping = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ContractError(f"bad config line (want key=value): {line!r}")
        key, _, raw = line.partition("=")
        mapping[key.strip()] = raw.strip()
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)


def config_from_file(path, overrides: dict | None = None) -> TrainConfig:
    return config_from_text(_utf8(Path(path).read_bytes(), f"config file {path}"),
                            overrides)


def config_to_flat_text(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        key = "lambda" if f.name == "lam" else f.name
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{key}={v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adamw_step(params: dict, grads: dict, state: AdamWState, cfg: TrainConfig,
               update_names=None):
    """One decoupled-weight-decay Adam step over the named parameters."""
    names = sorted(update_names if update_names is not None else params)
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name in names:
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(params[name].data)
        if not np.all(np.isfinite(g)):
            raise ContractError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p = params[name].data
        if cfg.weight_decay:
            p -= cfg.lr * cfg.weight_decay * p
        p -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    params: dict
    adam_m: dict
    adam_v: dict
    adam_t: int
    rng: RngState
    step: int


def _unpack(f, fmt: str, what: str):
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def save_checkpoint(path, cfg: TrainConfig, params: dict, state: AdamWState,
                    rng: RngState, step: int):
    cfg_text = config_to_flat_text(cfg).encode("utf-8")
    entries = [(n, p.data) for n, p in sorted(params.items())]
    entries += [(f"adam.m/{n}", a) for n, a in sorted(state.m.items())]
    entries += [(f"adam.v/{n}", a) for n, a in sorted(state.v.items())]
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(cfg_text)))
        f.write(cfg_text)
        f.write(struct.pack("<Q", step))
        f.write(struct.pack("<Q", state.t))
        f.write(struct.pack("<q", rng.seed))
        f.write(struct.pack("<Q", rng.counter))
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)) + nb)
            write_array(f, arr)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise ContractError(f"{path}: not a checkpoint file")
        (version,) = _unpack(f, "<I", "version")
        if version != CKPT_VERSION:
            raise ContractError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = _unpack(f, "<I", "config length")
        text = _utf8(_read_exact(f, cfg_len, "config"), f"{path}: checkpoint config")
        try:
            config = config_from_text(text)
        except (ContractError, DimensionError) as e:
            raise ContractError(f"{path}: checkpoint config: {e}") from None
        step, adam_t, seed, counter, n_entries = _unpack(f, "<QQqQI", "header")
        params, adam_m, adam_v = {}, {}, {}
        for _ in range(n_entries):
            (nlen,) = _unpack(f, "<I", "entry name length")
            name = _utf8(_read_exact(f, nlen, "entry name"), f"{path}: entry name")
            arr = read_array(f, repr(name))
            if name.startswith("adam.m/"):
                adam_m[name[len("adam.m/"):]] = arr
            elif name.startswith("adam.v/"):
                adam_v[name[len("adam.v/"):]] = arr
            else:
                params[name] = arr
    return Checkpoint(version=version, config=config, params=params,
                      adam_m=adam_m, adam_v=adam_v, adam_t=adam_t,
                      rng=RngState(seed, counter), step=step)


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[SegModel, TrainConfig]:
    model = SegModel(ckpt.config.model_config(), RngState(ckpt.config.seed))
    model.load_state(ckpt.params)
    return model, ckpt.config


# ---------------------------------------------------------------------------
# Training and evaluation
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model: SegModel
    opt_state: AdamWState
    log_lines: list
    batch_rng: RngState


def _scene_id(scene):
    """A synthetic scene's index or a loaded clip's directory name."""
    return scene.meta.get("index", scene.meta.get("video_id"))


def train(cfg: TrainConfig, scenes: list | None = None,
          out_dir=None) -> TrainResult:
    """Run the training loop; scenes default to the config's synthetic set."""
    if scenes is None:
        scenes = generate_dataset(cfg.dataset_spec())
    if not scenes:
        raise ContractError("training dataset is empty")
    # a batch stacks frames, so every clip needs the first clip's frame size
    h, w = scenes[0].frames.shape[2:]
    for s in scenes:
        if s.frames.shape[2:] != (h, w):
            raise ContractError(
                f"clip {_scene_id(s)} has {s.frames.shape[2]}x{s.frames.shape[3]} "
                f"(HxW) frames but clip {_scene_id(scenes[0])} has {h}x{w}; "
                "training needs one frame size")
    # per-scene arrays, the mel windows computed once for the whole run
    frames_np = [s.frames.data for s in scenes]
    masks_np = [s.masks.data for s in scenes]
    mels_np = [log_mel(s.waveform).windows.data for s in scenes]

    model = SegModel(cfg.model_config(), RngState(cfg.seed))
    frozen = model.audio_backbone_param_names() if cfg.freeze_audio_backbone else set()
    update_names = [n for n in model.params if n not in frozen]
    state = AdamWState()
    batch_rng = RngState(cfg.seed, counter=1_000_000)

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.txt").write_text(config_to_flat_text(cfg))

    log_lines = []
    log_f = open(out_dir / "log.jsonl", "w") if out_dir is not None else None
    order: list[int] = []

    def next_batch():
        nonlocal order
        while len(order) < cfg.batch_size:
            order.extend(batch_rng.permutation(len(scenes)).tolist())
        picked, order = order[:cfg.batch_size], order[cfg.batch_size:]
        return picked

    try:
        for step in range(1, cfg.steps + 1):
            idxs = next_batch()
            frames = Tensor(np.concatenate([frames_np[i] for i in idxs]))
            mel = Tensor(np.concatenate([mels_np[i] for i in idxs]))
            y = Tensor(np.concatenate([masks_np[i] for i in idxs]))

            for p in model.params.values():
                p.zero_grad()
            seg, _ = model.forward(frames, mel)
            rep = total_loss(seg.logits, seg.per_stage_features, seg.audio_states,
                             y, lam=cfg.lam, tau=cfg.tau, variant=cfg.loss_variant)
            backward(rep.loss)
            grads = {n: model.params[n].grad for n in update_names}
            adamw_step(model.params, grads, state, cfg, update_names=update_names)

            if step % cfg.log_every == 0 or step == cfg.steps:
                line = rep.to_json_dict(step)
                log_lines.append(line)
                if log_f is not None:
                    log_f.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        if log_f is not None:
            log_f.close()

    if out_dir is not None:
        save_checkpoint(out_dir / "ckpt_final.bin", cfg, model.params, state,
                        batch_rng, cfg.steps)
    return TrainResult(model=model, opt_state=state, log_lines=log_lines,
                       batch_rng=batch_rng)


def predict_foreground(logits: np.ndarray) -> np.ndarray:
    """A pixel is predicted foreground where its probability exceeds 0.5."""
    return _sigmoid_data(logits) > 0.5


def frame_alignment_maps(seg, frame_hw: tuple, tau: float) -> list:
    """Each scale's alignment scores of one forward, upsampled to ``frame_hw``.

    Deepest scale first, as ``alignment_maps`` orders them; call under
    ``no_grad``.
    """
    return [bilinear_upsample(s, *frame_hw).data
            for s in alignment_maps(seg.per_stage_features, seg.audio_states, tau)]


def evaluate(model: SegModel, scenes: list, mute_audio: bool = False,
             on_scene=None) -> dict:
    """Mean IoU / F-score over scenes; per-scene table included.

    Foreground is read out by ``predict_foreground``.

    ``mute_audio`` runs the muted forward (``mel=None``) without computing the
    log-mel at all.

    ``on_scene(i, scene, seg, enc)``, if given, is called inside ``no_grad``
    with each scene's forward output, so a caller can read more from the one
    forward instead of running the model again.
    """
    if not scenes:
        raise ContractError("evaluation set is empty")
    per_scene = []
    for i, scene in enumerate(scenes):
        mel = None if mute_audio else log_mel(scene.waveform).windows
        with no_grad():
            seg, enc = model.forward(scene.frames, mel)
            if on_scene is not None:
                on_scene(i, scene, seg, enc)
        pred = predict_foreground(seg.logits.data)
        gt = scene.masks.data > 0.5
        per_scene.append({
            "index": _scene_id(scene),
            "miou": miou(pred, gt),
            "fscore": fscore(pred, gt),
        })
    return {
        "miou": float(np.mean([r["miou"] for r in per_scene])),
        "fscore": float(np.mean([r["fscore"] for r in per_scene])),
        "per_scene": per_scene,
        "mute_audio": mute_audio,
    }


def alignment_separation(model: SegModel, scenes: list, tau: float = 0.1) -> dict:
    """Mean finest-scale alignment score over foreground vs background pixels."""
    fg_vals, bg_vals = [], []

    def collect(_, scene, seg, enc):
        # shallowest supervised scale
        finest = frame_alignment_maps(seg, scene.frames.shape[2:], tau)[-1]
        mask = foreground_mask(scene.masks).data > 0.5
        fg_vals.append(finest[mask])
        bg_vals.append(finest[~mask])

    evaluate(model, scenes, on_scene=collect)
    fg = float(np.concatenate(fg_vals).mean())
    bg = float(np.concatenate(bg_vals).mean())
    return {"fg_mean": fg, "bg_mean": bg, "separation": fg - bg}
