"""Audio frontend: resampling, FFT vs DFT oracle, mel filterbank, log-mel, IO."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lightavseg import audio
from lightavseg.audio import (
    FRAMES_PER_WINDOW, HOP_SAMPLES, LOG_FLOOR, N_FFT, N_MELS, SAMPLE_RATE, WIN_SAMPLES,
    ContractError, Spectrogram, Waveform, log_mel, mel_filter_centers, mel_filterbank,
    read_wav, resample_to_16k, synth_tone, write_wav,
)
from lightavseg.tensor import RngState


def naive_dft(x):
    """Brute-force DFT oracle, O(n^2)."""
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w.T


class TestFFT:
    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_matches_naive_dft(self, n):
        x = RngState(n).uniform((3, n), -1, 1)
        got = audio.rfft_power(x, n_fft=n)
        want = np.abs(naive_dft(x)[..., :n // 2 + 1]) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-9)

    def test_short_frames_zero_padded(self):
        x = RngState(3).uniform((2, 5, 400), -1, 1)
        padded = np.concatenate([x, np.zeros((2, 5, 112))], axis=-1)
        want = np.abs(naive_dft(padded)[..., :257]) ** 2
        np.testing.assert_allclose(audio.rfft_power(x), want, rtol=1e-10, atol=1e-9)

    def test_rejects_frame_longer_than_fft(self):
        with pytest.raises(ContractError):
            audio.rfft_power(np.zeros((1, 513)))

    def test_parseval_sine_energy_concentrated(self):
        # >90% of a pure sine's power inside +-2 bins of the tone frequency
        tone = synth_tone(1000.0, 0.025, 0.5)
        frame = tone.samples[:400] * np.hanning(400)
        power = audio.rfft_power(frame[None, :])[0]
        bin_of_tone = round(1000.0 / (SAMPLE_RATE / audio.N_FFT))
        near = power[max(0, bin_of_tone - 2):bin_of_tone + 3].sum()
        assert near / power.sum() > 0.9


class TestResample:
    def test_16k_passthrough(self):
        w = Waveform(RngState(1).uniform((1600,), -1, 1), SAMPLE_RATE)
        out = resample_to_16k(w)
        np.testing.assert_array_equal(out.samples, w.samples)
        assert out.sample_rate_hz == SAMPLE_RATE

    def test_constant_signal_stays_constant(self):
        out = resample_to_16k(Waveform(np.full(3200, 0.5), 32000))
        assert out.samples.size == 1600
        np.testing.assert_allclose(out.samples, 0.5)

    def test_8k_ramp_midpoints_averaged(self):
        ramp = np.linspace(0.0, 1.0, 9)
        out = resample_to_16k(Waveform(ramp, 8000))
        assert out.samples.size == 18
        np.testing.assert_allclose(out.samples[::2], ramp)
        np.testing.assert_allclose(out.samples[1:16:2], (ramp[:-1] + ramp[1:]) / 2.0)

    def test_duration_preserved_within_one_sample(self):
        w = Waveform(np.zeros(44100), 44100)
        out = resample_to_16k(w)
        assert abs(out.samples.size / out.sample_rate_hz - 1.0) <= 1.0 / SAMPLE_RATE

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            resample_to_16k(Waveform(np.zeros(0), 16000))


class TestMelFilterbank:
    def test_rows_positive_and_cover_band(self):
        fb = mel_filterbank()
        sums = fb.sum(axis=1)
        assert np.all(sums > 0.0)
        covered = fb.sum(axis=0) > 0
        bin_hz = np.arange(fb.shape[1]) * SAMPLE_RATE / audio.N_FFT
        inside = (bin_hz > 200.0) & (bin_hz < 7400.0)
        assert covered[inside].all()

    def test_centers_monotone_within_range(self):
        centers = mel_filter_centers()
        assert centers.size == N_MELS
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 125.0 and centers[-1] < 7500.0


class TestLogMel:
    def test_silence_hits_log_floor(self):
        spec = log_mel(Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE))
        np.testing.assert_allclose(spec.windows.data, math.log(LOG_FLOOR))

    def test_shape_and_window_count(self):
        spec = log_mel(Waveform(np.zeros(3 * SAMPLE_RATE), SAMPLE_RATE))
        assert spec.windows.shape == (3, FRAMES_PER_WINDOW, N_MELS)

    def test_partial_second_is_zero_padded(self):
        tone = synth_tone(1000.0, 2.0, 0.5).samples[:SAMPLE_RATE + 100]
        spec = log_mel(Waveform(tone, SAMPLE_RATE))
        padded = np.concatenate([tone, np.zeros(SAMPLE_RATE - 100)])
        want = log_mel(Waveform(padded, SAMPLE_RATE)).windows.data
        assert spec.windows.shape[0] == 2
        np.testing.assert_array_equal(spec.windows.data, want)

    @pytest.mark.parametrize("n", [1, SAMPLE_RATE - 1, SAMPLE_RATE, SAMPLE_RATE + 1,
                                   3 * SAMPLE_RATE])
    def test_num_windows_matches_log_mel(self, n):
        w = Waveform(np.zeros(n), SAMPLE_RATE)
        assert audio.num_windows(w) == log_mel(w).windows.shape[0]

    def test_num_windows_rejects_empty_waveform(self):
        with pytest.raises(ContractError):
            audio.num_windows(Waveform(np.zeros(0), SAMPLE_RATE))

    def test_tone_argmax_matches_center_oracle(self):
        tone = synth_tone(1000.0, 1.0, 0.5)
        spec = log_mel(tone)
        centers = mel_filter_centers()
        oracle_bin = int(np.argmin(np.abs(centers - 1000.0)))
        per_frame_argmax = spec.windows.data[0].argmax(axis=1)
        assert np.all(per_frame_argmax == oracle_bin)

    def test_gain_doubling_shifts_by_log4(self):
        rng = RngState(5)
        base = 0.4 * np.sin(2 * np.pi * 700.0 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        a = log_mel(Waveform(base, SAMPLE_RATE)).windows.data
        b = log_mel(Waveform(2.0 * base, SAMPLE_RATE)).windows.data
        # energy must dominate the additive floor for the shift to be exact:
        # 16 nats above it bounds the floor-induced error near 1e-7
        above_floor = a > math.log(LOG_FLOOR) + 16.0
        assert above_floor.sum() > 100
        np.testing.assert_allclose((b - a)[above_floor], math.log(4.0), atol=1e-6)

    def test_gain_monotonicity(self):
        rng = RngState(6)
        sig = 0.3 * np.sin(2 * np.pi * 500.0 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        a = log_mel(Waveform(sig, SAMPLE_RATE)).windows.data
        b = log_mel(Waveform(1.5 * sig, SAMPLE_RATE)).windows.data
        assert np.all(b >= a - 1e-12)

    def test_requires_16k(self):
        with pytest.raises(ContractError):
            log_mel(Waveform(np.zeros(8000), 8000))

    @pytest.mark.parametrize("n", [SAMPLE_RATE, 3 * SAMPLE_RATE, SAMPLE_RATE + 100, 5],
                             ids=["1-window", "3-windows", "padded-tail", "5-samples"])
    def test_bit_identical_to_index_gather(self, n):
        samples = RngState(9).uniform((n,), -1, 1)
        spec = log_mel(Waveform(samples, SAMPLE_RATE))
        t = -(-n // SAMPLE_RATE)
        segments = np.concatenate([samples, np.zeros(t * SAMPLE_RATE - n)]).reshape(
            t, SAMPLE_RATE)
        idx = (np.arange(FRAMES_PER_WINDOW) * HOP_SAMPLES)[:, None] + np.arange(WIN_SAMPLES)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WIN_SAMPLES) / WIN_SAMPLES)
        spectrum = np.fft.rfft(segments[:, idx] * hann, n=N_FFT)
        power = spectrum.real ** 2 + spectrum.imag ** 2
        expect = np.log(power @ mel_filterbank().T + LOG_FLOOR)
        assert spec.windows.shape == (t, FRAMES_PER_WINDOW, N_MELS)
        assert spec.windows.data.tobytes() == expect.tobytes()


class TestSynthTone:
    def test_zero_amplitude_is_silence(self):
        w = synth_tone(440.0, 0.5, 0.0)
        np.testing.assert_array_equal(w.samples, 0.0)

    def test_440hz_definition(self):
        w = synth_tone(440.0, 1.0, 0.8)
        assert w.samples.size == SAMPLE_RATE
        assert w.samples[0] == 0.0
        k = np.arange(SAMPLE_RATE)
        np.testing.assert_allclose(w.samples, 0.8 * np.sin(2 * np.pi * 440.0 * k / SAMPLE_RATE),
                                   atol=1e-12)

    def test_frequency_bounds(self):
        with pytest.raises(ContractError):
            synth_tone(9000.0, 1.0, 0.5)


class TestIO:
    def test_wav_round_trip_mono(self, tmp_path):
        w = synth_tone(620.0, 0.3, 0.7)
        p = tmp_path / "t.wav"
        write_wav(p, w)
        back = read_wav(p)
        assert back.sample_rate_hz == SAMPLE_RATE
        np.testing.assert_allclose(back.samples, w.samples, atol=0.5 / 32768 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pcm=hnp.arrays(np.int16, st.integers(0, 300)),
           rate=st.sampled_from([8000, 16000, 44100]))
    def test_wav_round_trip_is_bit_identical(self, tmp_path_factory, pcm, rate):
        p = tmp_path_factory.mktemp("wav") / "t.wav"
        samples = pcm.astype(np.float64) / 32768.0
        write_wav(p, Waveform(samples, rate))
        import wave as wave_mod
        with wave_mod.open(str(p), "rb") as f:
            assert f.readframes(f.getnframes()) == pcm.astype("<i2").tobytes()
        back = read_wav(p)
        assert back.sample_rate_hz == rate
        assert back.samples.tobytes() == samples.tobytes()

    def test_wav_stereo_averaged(self, tmp_path):
        import wave as wave_mod
        left = np.round(np.array([0.5, -0.5]) * 32767).astype("<i2")
        right = np.round(np.array([0.1, 0.1]) * 32767).astype("<i2")
        inter = np.empty(4, dtype="<i2")
        inter[0::2], inter[1::2] = left, right
        p = tmp_path / "s.wav"
        with wave_mod.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(inter.tobytes())
        back = read_wav(p)
        np.testing.assert_allclose(back.samples, [(0.5 + 0.1) / 2, (-0.5 + 0.1) / 2],
                                   atol=1e-4)

    def test_wav_truncated_at_every_offset(self, tmp_path):
        p = tmp_path / "t.wav"
        write_wav(p, synth_tone(620.0, 0.01, 0.7))
        full = p.read_bytes()
        cut = tmp_path / "cut.wav"
        for n in range(len(full)):
            cut.write_bytes(full[:n])
            with pytest.raises(ContractError):
                read_wav(cut)

    @pytest.mark.parametrize("edits,message", [
        ({16: 0xFFFFFFF0}, "chunk b'fmt ' is 4294967280 bytes"),
        ({16: 100000}, "chunk b'fmt ' is 100000 bytes"),
        # a RIFF size that ends inside the renamed data chunk: ``wave`` seeks
        # past the RIFF chunk and raises a bare RuntimeError
        ({4: 0x155, 36: int.from_bytes(b"dat^", "little")}, "malformed WAV"),
    ], ids=["fmt-size-huge", "fmt-size-past-end", "riff-size-short"])
    def test_corrupt_chunk_size_is_a_contract_error(self, tmp_path, edits, message):
        p = tmp_path / "t.wav"
        write_wav(p, synth_tone(620.0, 0.01, 0.7))
        data = bytearray(p.read_bytes())
        assert data[12:16] == b"fmt " and data[36:40] == b"data"
        for offset, value in edits.items():
            data[offset:offset + 4] = struct.pack("<I", value)
        p.write_bytes(bytes(data))
        with pytest.raises(ContractError, match=message):
            read_wav(p)
