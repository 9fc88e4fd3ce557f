"""Harness: AdamW closed forms, config surface, checkpoints, determinism."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lightavseg.data import MIN_HW, generate_dataset
from lightavseg.harness import (
    AdamWState, TrainConfig, adamw_step, alignment_separation, config_from_file,
    config_from_mapping, config_to_flat_text, evaluate, load_checkpoint,
    model_from_checkpoint, save_checkpoint, train,
)
from lightavseg.model import ModelConfig, SegModel
from lightavseg.tensor import ContractError, RngState, no_grad, parameter


def toy_config(**kw):
    base = dict(steps=4, batch_size=2, n_scenes=4, hw=32, seed=0, log_every=1,
                stage_channels=(4, 5, 6, 7), audio_channels=8, stem_channels=3)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        cfg = TrainConfig(weight_decay=0.0)
        p = {"w": parameter(np.array([1.0, -2.0]))}
        state = AdamWState()
        adamw_step(p, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_array_equal(p["w"].data, [1.0, -2.0])

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        cfg = TrainConfig(lr=1e-3, weight_decay=0.0)
        p = {"w": parameter(np.array([0.0]))}
        state = AdamWState()
        g = np.array([0.37])
        prev = p["w"].data.copy()
        for _ in range(300):
            prev = p["w"].data.copy()
            adamw_step(p, {"w": g}, state, cfg)
        step = abs(p["w"].data[0] - prev[0])
        assert step == pytest.approx(cfg.lr, rel=1e-2)

    def test_pure_decay_shrinks_multiplicatively(self):
        cfg = TrainConfig(lr=1e-2, weight_decay=0.1)
        p = {"w": parameter(np.array([2.0]))}
        state = AdamWState()
        adamw_step(p, {"w": np.zeros(1)}, state, cfg)
        assert p["w"].data[0] == pytest.approx(2.0 * (1 - cfg.lr * cfg.weight_decay))

    def test_nan_gradient_names_parameter(self):
        cfg = TrainConfig()
        p = {"bad_param": parameter(np.array([1.0]))}
        with pytest.raises(ContractError) as e:
            adamw_step(p, {"bad_param": np.array([np.nan])}, AdamWState(), cfg)
        assert "bad_param" in str(e.value)


class TestConfig:
    def test_defaults_match_stated_values(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4 and cfg.batch_size == 8
        assert cfg.lam == 0.5 and cfg.tau == 0.1
        assert cfg.weight_decay == 1e-2
        assert cfg.freeze_audio_backbone is True

    def test_file_round_trip(self, tmp_path):
        cfg = toy_config(lam=0.7, loss_variant="seg")
        p = tmp_path / "c.txt"
        p.write_text(config_to_flat_text(cfg))
        back = config_from_file(p)
        assert dataclasses.asdict(back) == dataclasses.asdict(cfg)

    # one strategy per TrainConfig field, within what __post_init__ accepts
    FIELD_VALUES = {
        "lr": st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        "lam": st.floats(min_value=0, allow_infinity=False),
        "tau": st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        "weight_decay": st.floats(allow_nan=False, allow_infinity=False),
        "loss_variant": st.sampled_from(["seg", "seg+msa"]),
        "stage_channels": st.tuples(*[st.integers(1, 512)] * 4),
        "freeze_audio_backbone": st.booleans(),
        **{name: st.integers(low, 2**40) for name, low in (
            ("batch_size", 1), ("steps", 0), ("seed", 0), ("n_scenes", 1),
            ("hw", MIN_HW), ("audio_channels", 1), ("stem_channels", 1),
            ("log_every", 1))},
    }

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries(FIELD_VALUES))
    def test_every_field_round_trips_through_text(self, tmp_path_factory, values):
        assert set(values) == {f.name for f in dataclasses.fields(TrainConfig)}
        cfg = TrainConfig(**values)
        p = tmp_path_factory.mktemp("cfg") / "c.txt"
        p.write_text(config_to_flat_text(cfg))
        assert dataclasses.asdict(config_from_file(p)) == dataclasses.asdict(cfg)

    def test_model_config_carries_every_model_field(self):
        values = dict(stage_channels=(3, 4, 5, 6), audio_channels=9, stem_channels=2)
        assert set(values) == {f.name for f in dataclasses.fields(ModelConfig)}
        assert all(getattr(ModelConfig(), k) != v for k, v in values.items())
        assert dataclasses.asdict(TrainConfig(**values).model_config()) == values

    def test_lambda_alias_and_overrides(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("lambda=0.25\nsteps=12\n")
        cfg = config_from_file(p, {"steps": "3"})
        assert cfg.lam == 0.25 and cfg.steps == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError):
            config_from_mapping({"warp_speed": "9"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ContractError):
            TrainConfig(lr=0.0)
        with pytest.raises(ContractError):
            TrainConfig(loss_variant="nope")
        with pytest.raises(ContractError, match="loss variant"):
            TrainConfig(loss_variant="seg+avm")

    @pytest.mark.parametrize("key,value", [
        ("batch_size", 0), ("steps", -1), ("n_scenes", 0), ("hw", 0),
        ("log_every", 0),
        ("lr", float("nan")), ("lr", float("inf")), ("lam", float("nan")),
        ("lam", float("inf")), ("tau", float("nan")), ("tau", float("inf")),
        ("tau", 0.0), ("seed", -1), ("weight_decay", float("nan")),
        ("weight_decay", float("-inf")), ("hw", MIN_HW - 1),
        ("audio_channels", 0), ("stem_channels", -1),
        ("stage_channels", (4, 5, 0, 7)),
    ])
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ContractError, match=key):
            TrainConfig(**{key: value})
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ContractError, match=key):
            config_from_mapping({key: raw})


@st.composite
def ckpt_entries(draw):
    """Named (param, adam m, adam v) triples of any finite float64 bits.

    Names are any UTF-8-encodable text without '/': lone surrogates have no
    UTF-8 form, so no checkpoint name can hold one.
    """
    names = draw(st.lists(st.text(st.characters(exclude_characters="/",
                                                exclude_categories=("Cs",)), max_size=12),
                          min_size=1, max_size=4, unique=True))
    out = {}
    for name in names:
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
        out[name] = tuple(draw(hnp.arrays(np.float64, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False))) for _ in range(3))
    return out


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        cfg = toy_config()
        scenes = generate_dataset(cfg.dataset_spec())
        result = train(cfg, scenes)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, result.model.params, result.opt_state,
                        result.batch_rng, cfg.steps)
        ckpt = load_checkpoint(path)
        model2, cfg2 = model_from_checkpoint(ckpt)
        frames = scenes[0].frames
        from lightavseg.audio import log_mel
        mel = log_mel(scenes[0].waveform).windows
        with no_grad():
            a, _ = result.model.forward(frames, mel)
            b, _ = model2.forward(frames, mel)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        assert ckpt.step == cfg.steps
        assert ckpt.adam_t == result.opt_state.t

    def test_moments_and_rng_restored(self, tmp_path):
        cfg = toy_config()
        result = train(cfg)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, result.model.params, result.opt_state,
                        result.batch_rng, cfg.steps)
        ckpt = load_checkpoint(path)
        for name, arr in result.opt_state.m.items():
            np.testing.assert_array_equal(ckpt.adam_m[name], arr)
        assert ckpt.rng.seed == result.batch_rng.seed
        assert ckpt.rng.counter == result.batch_rng.counter

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        cfg = toy_config(steps=0)
        result = train(cfg, out_dir=tmp_path)
        fresh = SegModel(cfg.model_config(), RngState(cfg.seed))
        ckpt = load_checkpoint(tmp_path / "ckpt_final.bin")
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(arr, fresh.params[name].data)

    def test_truncated_checkpoint_raises_contract_error(self, tmp_path):
        cfg = toy_config()
        model = SegModel(cfg.model_config(), RngState(0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, model.params, AdamWState(), RngState(0), 0)
        full = path.read_bytes()
        header = 12 + len(config_to_flat_text(cfg).encode()) + 36
        # every byte of the header and the first entry, then a stride through the rest
        offsets = sorted({*range(header + 64), *range(header, len(full), 97),
                          len(full) - 13, len(full) - 1})
        cut = tmp_path / "cut.bin"
        for n in offsets:
            cut.write_bytes(full[:n])
            with pytest.raises(ContractError):
                load_checkpoint(cut)

    def test_truncated_at_every_offset(self, tmp_path):
        # tiny arrays keep every offset cheap: header, config, names, moments
        rng = RngState(4)
        params = {"a.weight": parameter(rng.uniform((2, 3), -1, 1)),
                  "a.bias": parameter(rng.uniform((2,), -1, 1)),
                  "b": parameter(rng.uniform((), -1, 1))}
        state = AdamWState(m={n: p.data * 0.5 for n, p in params.items()},
                           v={n: p.data ** 2 for n, p in params.items()}, t=3)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, TrainConfig(), params, state, RngState(1, 2), 3)
        assert len(load_checkpoint(path).adam_v) == 3
        # shortening one file in place is far cheaper than writing each prefix
        for n in reversed(range(path.stat().st_size)):
            os.truncate(path, n)
            with pytest.raises(ContractError):
                load_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(values=st.fixed_dictionaries(TestConfig.FIELD_VALUES),
           entries=ckpt_entries(),
           seed=st.integers(-2**63, 2**63 - 1), counter=st.integers(0, 2**64 - 1),
           step=st.integers(0, 2**64 - 1), adam_t=st.integers(0, 2**64 - 1))
    def test_round_trip_is_bit_identical(self, tmp_path_factory, values, entries,
                                         seed, counter, step, adam_t):
        cfg = TrainConfig(**values)
        params = {n: parameter(p) for n, (p, _, _) in entries.items()}
        state = AdamWState(m={n: m for n, (_, m, _) in entries.items()},
                           v={n: v for n, (_, _, v) in entries.items()}, t=adam_t)
        path = tmp_path_factory.mktemp("ckpt") / "ck.bin"
        save_checkpoint(path, cfg, params, state, RngState(seed, counter), step)
        ckpt = load_checkpoint(path)

        def same_bits(got: dict, want: dict):
            assert got.keys() == want.keys()
            for n, arr in want.items():
                assert got[n].shape == arr.shape and got[n].tobytes() == arr.tobytes()

        same_bits(ckpt.params, {n: p.data for n, p in params.items()})
        same_bits(ckpt.adam_m, state.m)
        same_bits(ckpt.adam_v, state.v)
        assert (ckpt.step, ckpt.adam_t, ckpt.rng) == (step, adam_t, RngState(seed, counter))
        assert dataclasses.asdict(ckpt.config) == dataclasses.asdict(cfg)

    # the config text starts at byte 12, after magic, version and its length
    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:14] + b"\xff" + b[15:],
        lambda b: b[:12] + b"x" + b[13:],
        lambda b: (b[:8] + struct.pack("<I", 2) + b"[]"
                   + b[12 + struct.unpack("<I", b[8:12])[0]:]),
    ], ids=["not-utf8", "unknown-key", "not-key-value"])
    def test_corrupt_config_raises_contract_error(self, tmp_path, corrupt):
        cfg = toy_config()
        model = SegModel(cfg.model_config(), RngState(0))
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, model.params, AdamWState(), RngState(0), 0)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ContractError, match="config"):
            load_checkpoint(path)

    def test_version_1_is_refused(self, tmp_path):
        cfg = toy_config()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, {}, AdamWState(), RngState(0), 0)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(ContractError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_mismatched_config_rejected(self, tmp_path):
        cfg = toy_config()
        result = train(cfg)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, cfg, result.model.params, result.opt_state,
                        result.batch_rng, cfg.steps)
        ckpt = load_checkpoint(path)
        other = SegModel(toy_config(stage_channels=(5, 6, 7, 8)).model_config(),
                         RngState(0))
        with pytest.raises(ContractError):
            other.load_state(ckpt.params)


class TestTraining:
    def test_two_seeded_runs_bit_identical(self, tmp_path):
        cfg = toy_config(steps=5)
        r1 = train(cfg, out_dir=tmp_path / "a")
        r2 = train(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "log.jsonl").read_text() == \
               (tmp_path / "b" / "log.jsonl").read_text()
        for name, p in r1.model.params.items():
            np.testing.assert_array_equal(p.data, r2.model.params[name].data)

    def test_log_lines_satisfy_total_identity(self, tmp_path):
        cfg = toy_config(steps=4)
        train(cfg, out_dir=tmp_path)
        for line in (tmp_path / "log.jsonl").read_text().splitlines():
            d = json.loads(line)
            assert abs(d["total"] - (d["dice"] + d["bce"] + cfg.lam * d["msa"])) <= 1e-12

    def test_frozen_audio_backbone_params_unchanged(self):
        cfg = toy_config(steps=3, freeze_audio_backbone=True)
        fresh = SegModel(cfg.model_config(), RngState(cfg.seed))
        result = train(cfg)
        for name in result.model.audio_backbone_param_names():
            np.testing.assert_array_equal(result.model.params[name].data,
                                          fresh.params[name].data)

    def test_unfrozen_audio_backbone_trains(self):
        cfg = toy_config(steps=3, freeze_audio_backbone=False)
        fresh = SegModel(cfg.model_config(), RngState(cfg.seed))
        result = train(cfg)
        changed = any(
            not np.array_equal(result.model.params[n].data, fresh.params[n].data)
            for n in result.model.audio_backbone_param_names())
        assert changed

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            train(toy_config(), scenes=[])

    def test_loss_decreases_over_short_run(self):
        cfg = toy_config(steps=30, lr=1e-3, log_every=1)
        result = train(cfg)
        first = result.log_lines[0]["total"]
        last = result.log_lines[-1]["total"]
        assert last < first


class TestEvaluate:
    def test_perfect_prediction_from_gt(self):
        # metric path sanity: feed ground truth through the metric directly
        from lightavseg.losses import miou
        cfg = toy_config()
        scenes = generate_dataset(cfg.dataset_spec())
        gt = scenes[0].masks.data > 0.5
        assert miou(gt, gt) == 1.0

    def test_empty_prediction_on_nonempty_gt_scores_zero(self):
        from lightavseg.losses import miou, fscore
        cfg = toy_config()
        scenes = generate_dataset(cfg.dataset_spec())
        gt = scenes[0].masks.data > 0.5
        empty = np.zeros_like(gt)
        assert miou(empty, gt) == 0.0
        assert fscore(empty, gt) == 0.0

    def test_empty_scene_list_rejected(self):
        model = SegModel(toy_config().model_config(), RngState(0))
        with pytest.raises(ContractError):
            evaluate(model, [])

    def test_mute_audio_flag_zeroes_state(self):
        cfg = toy_config()
        scenes = generate_dataset(cfg.dataset_spec())
        model = SegModel(cfg.model_config(), RngState(cfg.seed))
        report = evaluate(model, scenes, mute_audio=True)
        assert report["mute_audio"] is True
        assert len(report["per_scene"]) == len(scenes)

    def test_alignment_separation_fields(self):
        cfg = toy_config()
        scenes = generate_dataset(cfg.dataset_spec())[:2]
        model = SegModel(cfg.model_config(), RngState(cfg.seed))
        sep = alignment_separation(model, scenes)
        assert set(sep) == {"fg_mean", "bg_mean", "separation"}
        assert sep["separation"] == pytest.approx(sep["fg_mean"] - sep["bg_mean"])
