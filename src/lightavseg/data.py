"""Synthetic sounding-object scenes and the on-disk clip layout.

Scene construction makes audio indispensable by design: scenes come in pairs
(indices 2k and 2k+1) that render *pixel-identical* frames — two visually
identical shapes on a textured background — and differ only in which shape
emits the tone and therefore in the ground-truth mask. A predictor that
ignores audio cannot beat 0.5 IoU averaged over a pair.

Rasterization uses integer centers and extents only, so scenes are
bit-reproducible across platforms.

On-disk layout (one directory per clip):
    root/<video_id>/frames/%05d.png   8-bit RGB
    root/<video_id>/audio.wav         16-bit PCM mono
    root/<video_id>/masks/%05d.png    8-bit grayscale, 0/255 binary
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (  # noqa: F401  (log_mel stays reachable as data.log_mel)
    Waveform, log_mel, num_windows, read_wav, resample_to_16k, synth_tone, write_wav,
)
from .pngio import read_png, write_png
from .tensor import ContractError, RngState, Tensor

TONE_AMPLITUDE = 0.5  # peak of each scene's sine
# tone of shape 0 and of shape 1; distinct, so the tone names the sounding shape
TONE_HZ = (800.0, 2400.0)
# Smallest grid on which both shapes fit at every half-extent the layout can
# draw: each hw >= 26 fits them all, and each hw <= 25 has one that does not.
MIN_HW = 26


class LoadError(ContractError):
    """A clip directory failed structural validation."""


@dataclass
class DatasetSpec:
    n_scenes: int = 64
    hw: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_scenes", 1), ("hw", MIN_HW), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ContractError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class Scene:
    frames: Tensor      # (T, 3, H, W) in [0, 1]
    waveform: Waveform  # T seconds at 16 kHz
    masks: Tensor       # (T, 1, H, W) in {0, 1}
    meta: dict


def _layout_rng(seed: int, pair: int) -> RngState:
    # disjoint counter blocks give every pair its own deterministic stream
    return RngState(seed, counter=pair * 4096)


def _render_background(rng: RngState, hw: int) -> np.ndarray:
    coarse = rng.uniform((3, 8, 8), 0.0, 1.0)
    reps = math.ceil(hw / 8)
    coarse_up = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2)[:, :hw, :hw]
    fine = rng.uniform((3, hw, hw), 0.0, 1.0)
    return 0.2 + 0.15 * coarse_up + 0.05 * fine


def _shape_footprint(kind: int, cy: int, cx: int, half: int, hw: int) -> np.ndarray:
    ys, xs = np.mgrid[0:hw, 0:hw]
    if kind == 0:  # axis-aligned square
        return (np.abs(ys - cy) <= half) & (np.abs(xs - cx) <= half)
    return (ys - cy) ** 2 + (xs - cx) ** 2 <= half * half  # circle


def generate_scene(spec: DatasetSpec, index: int) -> Scene:
    """Deterministic one-frame scene for (spec.seed, index); pairs share frames."""
    if not 0 <= index < spec.n_scenes:
        raise ContractError(f"scene index {index} is outside [0, {spec.n_scenes})")
    pair, sounding = divmod(index, 2)
    rng = _layout_rng(spec.seed, pair)
    hw = spec.hw

    image = _render_background(rng, hw)
    kind = int(rng.integers(0, 2))
    color = rng.uniform((3,), 0.55, 0.95)
    half = int(rng.integers(max(4, hw // 10), max(6, hw // 5)))

    # split-axis placement guarantees the two footprints never touch
    margin = half + 1
    split_on_y = int(rng.integers(0, 2)) == 0
    lo_hi = hw // 2 - half - 1
    hi_lo = hw // 2 + half + 1
    footprints = []
    for side in (0, 1):
        split = int(rng.integers(margin, lo_hi)) if side == 0 else \
            int(rng.integers(hi_lo, hw - margin))
        free = int(rng.integers(margin, hw - margin))
        cy, cx = (split, free) if split_on_y else (free, split)
        footprints.append((_shape_footprint(kind, cy, cx, half, hw), (cy, cx)))

    for fp, _ in footprints:
        image[:, fp] = color[:, None]

    mask = footprints[sounding][0].astype(np.float64)
    freq = TONE_HZ[sounding]
    return Scene(
        frames=Tensor(np.clip(image[None], 0.0, 1.0)),
        waveform=synth_tone(freq, 1.0, TONE_AMPLITUDE),
        masks=Tensor(mask[None, None]),
        meta={"index": index, "pair": pair, "sounding_shape": sounding,
              "tone_hz": freq, "kind": "square" if kind == 0 else "circle",
              "centers": [c for _, c in footprints], "half_extent": half},
    )


def generate_dataset(spec: DatasetSpec) -> list:
    return [generate_scene(spec, i) for i in range(spec.n_scenes)]


# ---------------------------------------------------------------------------
# On-disk layout
# ---------------------------------------------------------------------------

def save_scene(scene: Scene, clip_dir):
    clip_dir = Path(clip_dir)
    (clip_dir / "frames").mkdir(parents=True, exist_ok=True)
    (clip_dir / "masks").mkdir(parents=True, exist_ok=True)
    frames = scene.frames.data
    masks = scene.masks.data
    for t in range(frames.shape[0]):
        rgb = np.round(frames[t].transpose(1, 2, 0) * 255.0).astype(np.uint8)
        write_png(clip_dir / "frames" / f"{t:05d}.png", rgb)
        write_png(clip_dir / "masks" / f"{t:05d}.png",
                  (masks[t, 0] * 255.0).astype(np.uint8))
    write_wav(clip_dir / "audio.wav", scene.waveform)


def materialize_dataset(spec: DatasetSpec, root) -> list:
    """Write every scene under root/scene_%05d/ and return the clip dirs."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    dirs = []
    for i in range(spec.n_scenes):
        d = root / f"scene_{i:05d}"
        save_scene(generate_scene(spec, i), d)
        dirs.append(d)
    return dirs


def _check_size(vid: str, what: str, path: Path, arr: np.ndarray, size: tuple):
    if arr.shape[:2] != size:
        raise LoadError(f"{vid}: {what} {path.name} is {arr.shape[0]}x{arr.shape[1]} "
                        f"(HxW) but the clip's first frame is {size[0]}x{size[1]}")


def load_avsbench_layout(root):
    """Lazily yield Scenes from the documented directory layout.

    A root that is not a directory raises LoadError on the first ``next``, as
    does a clip whose frames or masks differ in size from its first frame.
    """
    root = Path(root)
    if not root.is_dir():
        raise LoadError(f"{root}: data root is not a directory")
    for clip_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        vid = clip_dir.name
        frame_files = sorted((clip_dir / "frames").glob("*.png"))
        mask_files = sorted((clip_dir / "masks").glob("*.png"))
        wav_path = clip_dir / "audio.wav"
        if not frame_files:
            raise LoadError(f"{vid}: no frames found")
        if len(frame_files) != len(mask_files):
            raise LoadError(f"{vid}: {len(frame_files)} frames but "
                            f"{len(mask_files)} masks")
        if not wav_path.exists():
            raise LoadError(f"{vid}: missing audio.wav")

        frame_arrays, size = [], None
        for p in frame_files:
            f = read_png(p)
            if f.ndim != 3:
                raise LoadError(f"{vid}: frame {p.name} is not RGB")
            size = size or f.shape[:2]
            _check_size(vid, "frame", p, f, size)
            frame_arrays.append(f.astype(np.float64).transpose(2, 0, 1) / 255.0)
        frames = np.stack(frame_arrays)
        mask_arrays = []
        for p in mask_files:
            m = read_png(p)
            if m.ndim != 2:
                raise LoadError(f"{vid}: mask {p.name} is not grayscale")
            _check_size(vid, "mask", p, m, size)
            mask_arrays.append((m > 127).astype(np.float64))
        masks = np.stack(mask_arrays)[:, None]

        wave = resample_to_16k(read_wav(wav_path))
        windows = num_windows(wave)
        if windows != len(frame_files):
            raise LoadError(f"{vid}: {windows} audio windows for "
                            f"{len(frame_files)} frames")
        yield Scene(frames=Tensor(frames), waveform=wave, masks=Tensor(masks),
                    meta={"video_id": vid})
