"""Waveform handling and the log-mel frontend.

The frontend follows the 96x64 one-second-window convention: audio is
resampled to 16 kHz mono, split into one-second segments (one per visual
frame), and each segment becomes 96 Hann-windowed STFT frames (25 ms window,
10 ms hop, 512-point ``numpy.fft.rfft``) reduced by a 64-band triangular
mel filterbank spanning 125-7500 Hz, then log-compressed with a 1e-10 floor.
"""

from __future__ import annotations

import math
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, DimensionError, Tensor

SAMPLE_RATE = 16000
WIN_SAMPLES = 400      # 25 ms
HOP_SAMPLES = 160      # 10 ms
N_FFT = 512
N_MELS = 64
FRAMES_PER_WINDOW = 96
MEL_FMIN = 125.0
MEL_FMAX = 7500.0
LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    """Mono PCM samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DimensionError(f"waveform must be 1D, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise ContractError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.samples.size and np.abs(self.samples).max() > 1.0 + 1e-6:
            raise ContractError("waveform samples exceed [-1, 1]")


@dataclass
class Spectrogram:
    """Per-clip log-mel features: T one-second windows of 96 frames x 64 bins."""

    windows: Tensor            # (T, 96, 64)

    def __post_init__(self):
        if self.windows.ndim != 3 or self.windows.shape[1:] != (FRAMES_PER_WINDOW, N_MELS):
            raise DimensionError(
                f"spectrogram must be (T, {FRAMES_PER_WINDOW}, {N_MELS}), "
                f"got {self.windows.shape}")


def rfft_power(frames: np.ndarray, n_fft: int = N_FFT) -> np.ndarray:
    """Power spectrum |FFT|^2 of real frames zero-padded to n_fft, bins 0..n_fft/2."""
    if frames.shape[-1] > n_fft:
        raise ContractError(f"frame length {frames.shape[-1]} exceeds FFT size {n_fft}")
    spec = np.fft.rfft(frames, n=n_fft)
    # square the real and imaginary parts in place, so the only new array is
    # the result: fewer large temporaries for the allocator to return and re-fault
    parts = spec.view(np.float64)
    np.square(parts, out=parts)
    return parts[..., 0::2] + parts[..., 1::2]


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------

def _mel_edges_hz() -> np.ndarray:
    """The N_MELS + 2 filter edges (Hz), equally spaced in mel over MEL_FMIN..MEL_FMAX."""
    mel_lo = 2595.0 * np.log10(1.0 + MEL_FMIN / 700.0)
    mel_hi = 2595.0 * np.log10(1.0 + MEL_FMAX / 700.0)
    mels = np.linspace(mel_lo, mel_hi, N_MELS + 2)
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters (N_MELS, N_FFT//2+1), mel-spaced from MEL_FMIN to MEL_FMAX."""
    edges_hz = _mel_edges_hz()
    bin_hz = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, N_FFT // 2 + 1))
    for k in range(N_MELS):
        left, center, right = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        up = (bin_hz - left) / (center - left)
        down = (right - bin_hz) / (right - center)
        fb[k] = np.maximum(0.0, np.minimum(up, down))
    return fb


def mel_filter_centers() -> np.ndarray:
    """Center frequency (Hz) of each triangular filter."""
    return _mel_edges_hz()[1:-1]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def resample_to_16k(w: Waveform) -> Waveform:
    """Linear-interpolation resampling to 16 kHz."""
    if w.samples.size == 0:
        raise ContractError("cannot resample an empty waveform")
    if w.sample_rate_hz < 8000:
        raise ContractError(f"source rate must be >= 8000 Hz, got {w.sample_rate_hz}")
    if w.sample_rate_hz == SAMPLE_RATE:
        return Waveform(w.samples.copy(), SAMPLE_RATE)
    n_out = int(round(w.samples.size * SAMPLE_RATE / w.sample_rate_hz))
    src_pos = np.arange(n_out) * (w.sample_rate_hz / SAMPLE_RATE)
    out = np.interp(src_pos, np.arange(w.samples.size), w.samples)
    return Waveform(out, SAMPLE_RATE)


_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WIN_SAMPLES) / WIN_SAMPLES)
_MEL_FB = mel_filterbank()


def num_windows(w: Waveform) -> int:
    """One-second windows ``log_mel`` makes of ``w``; a partial tail counts as one."""
    if w.samples.size == 0:
        raise ContractError("cannot compute a spectrogram of an empty waveform")
    return max(1, math.ceil(w.samples.size / SAMPLE_RATE))


def log_mel(w: Waveform) -> Spectrogram:
    """Log-mel features, one 96x64 window per second of 16 kHz audio.

    Audio shorter than a whole number of seconds is zero-padded to the next
    second boundary.
    """
    if w.sample_rate_hz != SAMPLE_RATE:
        raise ContractError(
            f"log_mel expects {SAMPLE_RATE} Hz input, got {w.sample_rate_hz} "
            "(resample first)")
    n_windows = num_windows(w)
    needed = n_windows * SAMPLE_RATE
    samples = w.samples
    if needed > samples.size:
        samples = np.concatenate([samples, np.zeros(needed - samples.size)])

    segments = samples.reshape(n_windows, SAMPLE_RATE)
    # 96 frames of 400 samples at hop 160 cover the first 0.96 s of each second;
    # they are a strided view of the segments, copied once by the Hann product
    windows = np.lib.stride_tricks.sliding_window_view(segments, WIN_SAMPLES, axis=1)
    frames = windows[:, :FRAMES_PER_WINDOW * HOP_SAMPLES:HOP_SAMPLES] * _HANN  # (T, 96, 400)
    power = rfft_power(frames)                   # (T, 96, 257)
    mel = power @ _MEL_FB.T                      # (T, 96, 64)
    return Spectrogram(Tensor(np.log(mel + LOG_FLOOR)))


def synth_tone(freq_hz: float, duration_s: float, amplitude: float) -> Waveform:
    """Pure sine at 16 kHz."""
    if not 0.0 < freq_hz < 8000.0:
        raise ContractError(f"tone frequency must be in (0, 8000) Hz, got {freq_hz}")
    if amplitude > 1.0:
        raise ContractError(f"amplitude must be <= 1, got {amplitude}")
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq_hz * t), SAMPLE_RATE)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _check_chunk_sizes(f, path):
    """Refuse a RIFF chunk whose size runs past the end of the file.

    ``wave`` trusts these sizes: it seeks by them, and it asks ``read`` for
    the size the ``data`` chunk names. The walk stops at ``data``, the last
    chunk ``wave`` reads.
    """
    end = os.fstat(f.fileno()).st_size
    pos = 0
    while pos + 8 <= end:
        f.seek(pos)
        ident, size = struct.unpack("<4sI", f.read(8))
        if size > end - pos - 8:
            raise ContractError(f"{path}: WAV chunk {ident!r} is {size} bytes, "
                                f"but {end - pos - 8} follow it")
        if ident == b"data":
            break
        # the first chunk is the RIFF header, whose chunks follow its form type
        pos = pos + 8 + size + (size & 1) if pos else 12
    f.seek(0)


def read_wav(path) -> Waveform:
    """16-bit little-endian PCM WAV; stereo is averaged to mono.

    A truncated or malformed file is a ContractError, never zero-padded.
    """
    try:
        with open(path, "rb") as raw_file:
            _check_chunk_sizes(raw_file, path)
            with wave.open(raw_file, "rb") as f:
                sample_width = f.getsampwidth()
                n_channels = f.getnchannels()
                rate = f.getframerate()
                n_frames = f.getnframes()
                raw = f.readframes(n_frames)
    except (wave.Error, EOFError, RuntimeError) as e:
        # ``wave`` raises a bare RuntimeError when a chunk size sends it past
        # the end of the RIFF chunk
        raise ContractError(f"{path}: malformed WAV ({str(e) or 'truncated'})") from None
    if sample_width != 2:
        raise ContractError(f"{path}: only 16-bit PCM WAV supported, "
                            f"got sample width {sample_width}")
    if len(raw) != n_frames * n_channels * 2:
        raise ContractError(f"{path}: truncated WAV data ({len(raw)} bytes, "
                            f"header says {n_frames * n_channels * 2})")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return Waveform(data, rate)


def write_wav(path, w: Waveform):
    # symmetric 1/32768 quantization so read_wav inverts it exactly
    data = np.clip(w.samples, -1.0, 1.0)
    pcm = np.clip(np.round(data * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate_hz)
        f.writeframes(pcm.tobytes())
