"""Synthetic scenes: audio-necessity pairing, determinism, disk round trips."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lightavseg.audio import log_mel, synth_tone
from lightavseg.data import (
    MIN_HW, TONE_AMPLITUDE, TONE_HZ, DatasetSpec, LoadError, Scene, generate_dataset,
    generate_scene, load_avsbench_layout, materialize_dataset, save_scene,
)
from lightavseg.pngio import _SIGNATURE, _chunk, read_png, write_png
from lightavseg.tensor import ContractError, RngState, Tensor


def save_clips(spec, root, frames):
    """Write each scene of ``spec`` as a clip of ``frames`` copies of its frame.

    The clip's audio is its tone held for ``frames`` seconds, one window per
    frame, as a multi-frame clip in the layout has.
    """
    for i in range(spec.n_scenes):
        s = generate_scene(spec, i)
        save_scene(Scene(frames=Tensor(np.repeat(s.frames.data, frames, axis=0)),
                         waveform=synth_tone(s.meta["tone_hz"], float(frames),
                                             TONE_AMPLITUDE),
                         masks=Tensor(np.repeat(s.masks.data, frames, axis=0)),
                         meta=s.meta), root / f"scene_{i:05d}")


class TestPng:
    def test_gray_round_trip(self, tmp_path):
        img = RngState(1)._next().integers(0, 256, size=(13, 17)).astype(np.uint8)
        p = tmp_path / "g.png"
        write_png(p, img)
        np.testing.assert_array_equal(read_png(p), img)

    def test_rgb_round_trip(self, tmp_path):
        img = RngState(2)._next().integers(0, 256, size=(9, 11, 3)).astype(np.uint8)
        p = tmp_path / "c.png"
        write_png(p, img)
        np.testing.assert_array_equal(read_png(p), img)

    @settings(max_examples=60, deadline=None)
    @given(img=hnp.arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))
                          | st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))))
    def test_round_trip_is_bit_identical(self, tmp_path_factory, img):
        p = tmp_path_factory.mktemp("png") / "x.png"
        write_png(p, img)
        back = read_png(p)
        assert back.dtype == np.uint8 and back.shape == img.shape
        assert back.tobytes() == img.tobytes()

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ContractError):
            write_png(tmp_path / "x.png", np.zeros((4, 4)))

    def test_rejects_non_png(self, tmp_path):
        p = tmp_path / "fake.png"
        p.write_bytes(b"not a png at all")
        with pytest.raises(ContractError):
            read_png(p)

    def test_truncated_at_every_offset(self, tmp_path):
        p = tmp_path / "c.png"
        write_png(p, RngState(3)._next().integers(0, 256, size=(5, 7, 3)).astype(np.uint8))
        full = p.read_bytes()
        cut = tmp_path / "cut.png"
        for n in range(len(full)):
            cut.write_bytes(full[:n])
            with pytest.raises(ContractError):
                read_png(cut)

    IHDR_3X2_GRAY = _chunk(b"IHDR", struct.pack(">IIBBBBB", 3, 2, 8, 0, 0, 0, 0))

    @pytest.mark.parametrize("chunks", [
        IHDR_3X2_GRAY + _chunk(b"IDAT", b"not zlib data"),
        IHDR_3X2_GRAY + _chunk(b"IDAT", zlib.compress(b"\x00" * 7)),
        _chunk(b"IHDR", b"\x00" * 12) + _chunk(b"IDAT", zlib.compress(b"\x00" * 8)),
    ], ids=["not-zlib", "wrong-size", "short-ihdr"])
    def test_corrupt_file(self, tmp_path, chunks):
        p = tmp_path / "bad.png"
        p.write_bytes(_SIGNATURE + chunks + _chunk(b"IEND", b""))
        with pytest.raises(ContractError):
            read_png(p)


class TestSceneGeneration:
    def test_pairs_share_frames_and_split_masks(self):
        spec = DatasetSpec(n_scenes=16, hw=64, seed=11)
        for k in range(0, 16, 2):
            a = generate_scene(spec, k)
            b = generate_scene(spec, k + 1)
            np.testing.assert_array_equal(a.frames.data, b.frames.data)
            assert not np.logical_and(a.masks.data > 0, b.masks.data > 0).any()
            assert a.masks.data.sum() > 0 and b.masks.data.sum() > 0
            assert a.meta["tone_hz"] != b.meta["tone_hz"]

    def test_mask_covers_exactly_the_sounding_shape(self):
        spec = DatasetSpec(n_scenes=4, hw=64, seed=3)
        s = generate_scene(spec, 0)
        # sounding shape pixels carry the shape color, identical across mask
        mask = s.masks.data[0, 0] > 0
        frame = s.frames.data[0]
        fg_colors = frame[:, mask]
        assert np.all(fg_colors.std(axis=1) < 1e-12)
        assert fg_colors[:, 0].min() >= 0.55

    def test_deterministic_per_seed_and_index(self):
        spec = DatasetSpec(n_scenes=4, hw=32, seed=9)
        a = generate_scene(spec, 2)
        b = generate_scene(spec, 2)
        np.testing.assert_array_equal(a.frames.data, b.frames.data)
        np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
        np.testing.assert_array_equal(a.masks.data, b.masks.data)

    def test_different_seeds_differ(self):
        a = generate_scene(DatasetSpec(n_scenes=2, hw=32, seed=0), 0)
        b = generate_scene(DatasetSpec(n_scenes=2, hw=32, seed=1), 0)
        assert not np.array_equal(a.frames.data, b.frames.data)

    def test_scene_sounds_the_tone_of_its_shape(self):
        # scene 2k+s sounds TONE_HZ[s]: only the tone tells the pair's masks apart
        spec = DatasetSpec(n_scenes=6, hw=32, seed=2)
        for k in range(3):
            pair = [generate_scene(spec, 2 * k + s) for s in (0, 1)]
            for s, scene in enumerate(pair):
                tone = synth_tone(TONE_HZ[s], 1.0, TONE_AMPLITUDE)
                assert scene.meta["tone_hz"] == TONE_HZ[s]
                np.testing.assert_array_equal(scene.waveform.samples, tone.samples)
            np.testing.assert_array_equal(pair[0].frames.data, pair[1].frames.data)
            assert not np.array_equal(pair[0].masks.data, pair[1].masks.data)

    def test_audio_lengths_match_frame_count(self, tmp_path):
        save_clips(DatasetSpec(n_scenes=2, hw=32, seed=4), tmp_path, frames=3)
        s = next(load_avsbench_layout(tmp_path))
        assert s.frames.shape[0] == 3
        assert s.waveform.samples.size == 3 * 16000
        assert log_mel(s.waveform).num_windows == 3

    def test_both_shapes_fit_at_min_hw(self):
        for seed in range(40):
            spec = DatasetSpec(n_scenes=2, hw=MIN_HW, seed=seed)
            a, b = generate_scene(spec, 0), generate_scene(spec, 1)
            # equal areas: neither footprint is cut by the border
            assert a.masks.data.sum() == b.masks.data.sum() > 0

    def test_index_out_of_range(self):
        with pytest.raises(ContractError):
            generate_scene(DatasetSpec(n_scenes=2), 2)

    @pytest.mark.parametrize("key,value", [
        ("n_scenes", 0), ("n_scenes", -1), ("hw", 0), ("hw", MIN_HW - 1), ("seed", -1),
    ])
    def test_out_of_range_field_rejected(self, key, value):
        with pytest.raises(ContractError, match=f"{key} must be >= "):
            DatasetSpec(**{key: value})


class TestLayout:
    def test_round_trip_bit_identical_after_quantization(self, tmp_path):
        spec = DatasetSpec(n_scenes=4, hw=32, seed=7)
        materialize_dataset(spec, tmp_path)
        loaded = list(load_avsbench_layout(tmp_path))
        assert len(loaded) == 4
        for i, scene in enumerate(loaded):
            orig = generate_scene(spec, i)
            quantized = np.round(orig.frames.data * 255.0) / 255.0
            np.testing.assert_array_equal(scene.frames.data, quantized)
            np.testing.assert_array_equal(scene.masks.data, orig.masks.data)

    def test_missing_root_raises_empty_root_yields_nothing(self, tmp_path):
        with pytest.raises(LoadError) as e:
            list(load_avsbench_layout(tmp_path / "missing"))
        assert "missing" in str(e.value)
        (tmp_path / "empty").mkdir()
        assert list(load_avsbench_layout(tmp_path / "empty")) == []

    def test_count_mismatch_names_video(self, tmp_path):
        spec = DatasetSpec(n_scenes=2, hw=32, seed=8)
        materialize_dataset(spec, tmp_path)
        victim = sorted(tmp_path.iterdir())[0]
        extra = victim / "masks" / "99999.png"
        write_png(extra, np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(LoadError) as e:
            list(load_avsbench_layout(tmp_path))
        assert victim.name in str(e.value)

    def test_missing_audio_named(self, tmp_path):
        spec = DatasetSpec(n_scenes=2, hw=32, seed=8)
        materialize_dataset(spec, tmp_path)
        victim = sorted(tmp_path.iterdir())[1]
        (victim / "audio.wav").unlink()
        with pytest.raises(LoadError) as e:
            list(load_avsbench_layout(tmp_path))
        assert victim.name in str(e.value)

    def test_grayscale_frame_names_video(self, tmp_path):
        spec = DatasetSpec(n_scenes=2, hw=32, seed=8)
        materialize_dataset(spec, tmp_path)
        victim = sorted(tmp_path.iterdir())[1]
        write_png(victim / "frames" / "00000.png", np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(LoadError, match="not RGB") as e:
            list(load_avsbench_layout(tmp_path))
        assert victim.name in str(e.value) and "00000.png" in str(e.value)

    def test_frame_size_mismatch_names_clip_and_file(self, tmp_path):
        save_clips(DatasetSpec(n_scenes=2, hw=32, seed=8), tmp_path, frames=2)
        victim = sorted(tmp_path.iterdir())[1]
        write_png(victim / "frames" / "00001.png", np.zeros((16, 16, 3), dtype=np.uint8))
        with pytest.raises(LoadError, match="16x16") as e:
            list(load_avsbench_layout(tmp_path))
        assert victim.name in str(e.value) and "00001.png" in str(e.value)

    def test_mask_size_mismatch_names_clip_and_file(self, tmp_path):
        spec = DatasetSpec(n_scenes=2, hw=32, seed=8)
        materialize_dataset(spec, tmp_path)
        victim = sorted(tmp_path.iterdir())[0]
        write_png(victim / "masks" / "00000.png", np.zeros((16, 16), dtype=np.uint8))
        with pytest.raises(LoadError, match="16x16") as e:
            list(load_avsbench_layout(tmp_path))
        assert victim.name in str(e.value) and "00000.png" in str(e.value)

    def test_window_count_matches_frames(self, tmp_path):
        save_clips(DatasetSpec(n_scenes=2, hw=32, seed=10), tmp_path, frames=2)
        for scene in load_avsbench_layout(tmp_path):
            assert log_mel(scene.waveform).num_windows == scene.frames.shape[0]
