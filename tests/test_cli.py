"""CLI surface: subcommand contracts, file outputs, exit codes."""

import argparse
import dataclasses
import json
import struct

import numpy as np
import pytest

from lightavseg.cli import _build_parser, _load_config, main
from lightavseg.harness import TrainConfig
from lightavseg.tensor import ContractError


# removed settings that older configs and checkpoints may still name
REMOVED_KEYS = ("interact_stages", "enable_har", "enable_agve", "enable_cmfd",
                "snr_db", "ckpt_every", "frames_per_scene")


def toy_train_args(out, extra=()):
    return ["train", "--out", str(out), "--steps", "3", "--scenes", "4",
            "--hw", "32", "--log-every", "1", *extra]


class TestTrainCli:
    def test_train_writes_run_outputs(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run")) == 0
        run = tmp_path / "run"
        assert (run / "config.txt").exists()
        assert (run / "log.jsonl").exists()
        assert (run / "ckpt_final.bin").exists()
        lines = (run / "log.jsonl").read_text().splitlines()
        assert len(lines) == 3
        json.loads(lines[0])

    def test_zero_steps_still_writes_checkpoint(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r0"), "--steps", "0",
                     "--scenes", "2", "--hw", "32"]) == 0
        assert (tmp_path / "r0" / "ckpt_final.bin").exists()

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps=99\nn_scenes=4\nhw=32\nlog_every=1\n")
        assert main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg),
                     "--steps", "2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["steps"] == 2

    def test_env_seed_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIGHTAVSEG_SEED", "41")
        assert main(toy_train_args(tmp_path / "r", ("--seed", "3"))) == 0
        lines = (tmp_path / "r" / "config.txt").read_text().splitlines()
        assert "seed=3" in lines

    @pytest.mark.parametrize("line,key", [
        ("steps=abc", "steps"),
        ("lr=none", "lr"),
        ("hw=none", "hw"),
        ("freeze_audio_backbone=maybe", "freeze_audio_backbone"),
        ("stage_channels=4,x,6,7", "stage_channels"),
        ("warp_speed=9", "warp_speed"),
        ("loss_variant=seg+avm", r"seg\+avm"),
        *[(f"{key}=1", f"unknown config key '{key}'") for key in REMOVED_KEYS],
        # in range for their type, out of range for the run
        ("audio_channels=-1", "audio_channels"),
        ("stem_channels=0", "stem_channels"),
        ("stage_channels=4,0,6,7", "stage_channels"),
        ("seed=-1", "seed"),
        ("tau=0", "tau"),
        ("weight_decay=nan", "weight_decay"),
        ("hw=25", "hw"),
    ])
    def test_bad_config_value_is_contract_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n")
        argv = ["train", "--out", str(tmp_path / "r"), "--config", str(cfg)]
        with pytest.raises(ContractError, match=key):
            _load_config(_build_parser().parse_args(argv))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "r").exists()

    def test_three_stage_channels_fail_before_run_dir(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("stage_channels=4,5,6\nn_scenes=2\nhw=32\nsteps=1\n")
        assert main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stage_channels" in err
        assert not (tmp_path / "r").exists()

    def test_non_utf8_config_file_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_bytes(b"steps=1\nlr=\xff\n")
        assert main(["train", "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not UTF-8")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--batch-size", "0"), ("--steps", "-3"), ("--log-every", "0"), ("--lr", "nan"),
        ("--hw", "16"), ("--seed", str(2 ** 63)),
    ])
    def test_out_of_range_flag_fails_cleanly(self, tmp_path, capsys, flag, value):
        assert main(toy_train_args(tmp_path / "r", (flag, value))) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "r").exists()

    def test_largest_seed_round_trips_through_checkpoint(self, tmp_path):
        # the checkpoint stores the seed as an i64; 2**63 is refused above
        argv = ["train", "--out", str(tmp_path / "r"), "--steps", "0", "--scenes", "2",
                "--hw", "32", "--seed", str(2 ** 63 - 1)]
        assert main(argv) == 0
        assert main(["eval", "--ckpt", str(tmp_path / "r" / "ckpt_final.bin")]) == 0

    def test_every_flag_sets_a_config_field(self):
        # _load_config reads only TrainConfig fields, so any other dest is ignored
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["train"]._actions if a.dest != "help"}
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert dests <= fields | {"config", "out", "data"}


class TestEvalCli:
    def test_eval_and_mute_audio(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run")) == 0
        ckpt = tmp_path / "run" / "ckpt_final.bin"
        assert main(["eval", "--ckpt", str(ckpt)]) == 0
        plain = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert main(["eval", "--ckpt", str(ckpt), "--mute-audio"]) == 0
        muted = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert plain["mute_audio"] is False and muted["mute_audio"] is True

    def test_eval_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "nope.bin")]) == 1
        assert "error" in capsys.readouterr().err

    def test_eval_missing_or_empty_data_root_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        ckpt = tmp_path / "run" / "ckpt_final.bin"
        (tmp_path / "empty").mkdir()
        for root in (tmp_path / "nonexistent", tmp_path / "empty"):
            capsys.readouterr()
            assert main(["eval", "--ckpt", str(ckpt), "--data", str(root)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""

    def test_eval_truncated_checkpoint_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        full = (tmp_path / "run" / "ckpt_final.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(full[:-13])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(cut)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_corrupt_checkpoint_config_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        data = bytearray((tmp_path / "run" / "ckpt_final.bin").read_bytes())
        data[14] = 0xFF  # inside the config text, which starts at byte 12
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_non_utf8_entry_name_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        data = bytearray((tmp_path / "run" / "ckpt_final.bin").read_bytes())
        (cfg_len,) = struct.unpack("<I", data[8:12])
        # the first name follows the config, the 36-byte header and its u32 length
        data[12 + cfg_len + 36 + 4] = 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: entry name is not UTF-8")
        assert captured.out == ""

    def test_eval_checkpoint_rank_above_four_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        data = bytearray((tmp_path / "run" / "ckpt_final.bin").read_bytes())
        (cfg_len,) = struct.unpack("<I", data[8:12])
        start = 12 + cfg_len + 36
        (nlen,) = struct.unpack("<I", data[start:start + 4])
        name = data[start + 4:start + 4 + nlen].decode()
        rank_at = start + 4 + nlen
        data[rank_at:rank_at + 4] = struct.pack("<I", 70)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: rank 70 of {name!r} is above 4")
        assert captured.out == ""

    def test_eval_checkpoint_with_a_nan_parameter_fails_cleanly(self, tmp_path, capsys):
        from lightavseg.harness import AdamWState, load_checkpoint, save_checkpoint
        from lightavseg.tensor import parameter
        assert main(toy_train_args(tmp_path / "run")) == 0
        ckpt = load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        params = {n: parameter(a) for n, a in ckpt.params.items()}
        params["decoder.head.bias"].data[0] = np.nan  # past parameter()'s finite check
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, ckpt.config, params,
                        AdamWState(ckpt.adam_m, ckpt.adam_v, ckpt.adam_t), ckpt.rng, ckpt.step)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: non-finite value in 'decoder.head.bias'")
        assert captured.out == ""

    @pytest.mark.parametrize("line,message", [
        ("warp_speed=9", "unknown config key 'warp_speed'"),
        ("loss_variant=seg+avm", "unknown loss variant 'seg+avm'"),
        ("lr=", "config key lr: bad float ''"),
        ("hw=[64]", "config key hw: bad int '[64]'"),
        ("lr=[1]", "config key lr: bad float '[1]'"),
        ("stage_channels=5", "stage_channels"),
        *[(f"{key}=1", f"unknown config key '{key}'") for key in REMOVED_KEYS],
    ], ids=["unknown-key", "removed-loss-variant", "empty-value", "hw-list", "lr-list",
            "stage-channels-int", *REMOVED_KEYS])
    def test_eval_checkpoint_with_bad_config_fails_cleanly(self, tmp_path, capsys,
                                                          line, message):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        data = (tmp_path / "run" / "ckpt_final.bin").read_bytes()
        (cfg_len,) = struct.unpack("<I", data[8:12])
        # a later line overrides the saved value of its key
        blob = data[12:12 + cfg_len] + line.encode() + b"\n"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                        + data[12 + cfg_len:])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_eval_data_with_truncated_frame_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                     "--hw", "32"]) == 0
        frame = tmp_path / "d" / "scene_00001" / "frames" / "00000.png"
        frame.write_bytes(frame.read_bytes()[:-40])  # cut inside IDAT
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--data", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_eval_data_with_corrupt_wav_chunk_size_fails_cleanly(self, tmp_path, capsys):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                     "--hw", "32"]) == 0
        wav = tmp_path / "d" / "scene_00001" / "audio.wav"
        data = bytearray(wav.read_bytes())
        data[16:20] = struct.pack("<I", 0xFFFFFFF0)  # the size of the fmt chunk
        wav.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--data", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "fmt" in captured.err
        assert captured.out == ""

    def test_eval_data_with_grayscale_frame_fails_cleanly(self, tmp_path, capsys):
        from lightavseg.pngio import write_png
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                     "--hw", "32"]) == 0
        write_png(tmp_path / "d" / "scene_00000" / "frames" / "00000.png",
                  np.zeros((32, 32), dtype=np.uint8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--data", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not RGB" in captured.err
        assert captured.out == ""

    def test_eval_data_with_mismatched_mask_size_fails_cleanly(self, tmp_path, capsys):
        from lightavseg.pngio import write_png
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                     "--hw", "32"]) == 0
        write_png(tmp_path / "d" / "scene_00001" / "masks" / "00000.png",
                  np.zeros((16, 16), dtype=np.uint8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--data", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "scene_00001" in captured.err
        assert "16x16" in captured.err and captured.out == ""

    def test_eval_bad_out_fails_before_any_forward(self, tmp_path, monkeypatch, capsys):
        from lightavseg.model import SegModel
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        (tmp_path / "dir").mkdir()
        calls = []
        forward = SegModel.forward
        monkeypatch.setattr(SegModel, "forward",
                            lambda self, *a, **k: calls.append(1) or forward(self, *a, **k))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--out", str(tmp_path / "dir")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert calls == []

    def test_eval_dump_alignment_writes_per_scene_maps(self, tmp_path):
        assert main(toy_train_args(tmp_path / "run")) == 0
        ckpt = tmp_path / "run" / "ckpt_final.bin"
        dump = tmp_path / "align"
        assert main(["eval", "--ckpt", str(ckpt), "--dump-alignment",
                     str(dump)]) == 0
        files = sorted(dump.glob("scene0000_scale*.npy"))
        assert len(files) == 3
        arr = np.load(files[0], allow_pickle=False)
        assert arr.shape == (1, 1, 32, 32)
        assert np.all(arr > 0.0) and np.all(arr < 1.0)

    @pytest.mark.parametrize("command,dump_flag,forwards", [
        ("eval", "--dump-alignment", 2), ("inspect", "--out", 1),
    ], ids=["eval", "inspect"])
    def test_dump_runs_one_forward_per_scene(self, tmp_path, monkeypatch, command,
                                             dump_flag, forwards):
        from lightavseg.model import SegModel
        assert main(["train", "--out", str(tmp_path / "run"), "--steps", "0",
                     "--scenes", "2", "--hw", "32"]) == 0
        calls = []
        forward = SegModel.forward

        def counting_forward(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(SegModel, "forward", counting_forward)
        assert main([command, "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     dump_flag, str(tmp_path / "dump")]) == 0
        assert len(calls) == forwards
        assert len(list((tmp_path / "dump").glob("*scale*.npy"))) == forwards * 3

    def test_inspect_alignment_equals_eval_dump(self, tmp_path):
        assert main(toy_train_args(tmp_path / "run")) == 0
        ckpt = str(tmp_path / "run" / "ckpt_final.bin")
        assert main(["eval", "--ckpt", ckpt, "--dump-alignment",
                     str(tmp_path / "align")]) == 0
        for k in range(4):
            assert main(["inspect", "--ckpt", ckpt, "--index", str(k),
                         "--out", str(tmp_path / f"ins{k}")]) == 0
            for s in range(3):
                inspected = (tmp_path / f"ins{k}" / f"alignment_scale{s}.npy").read_bytes()
                dumped = (tmp_path / "align" / f"scene{k:04d}_scale{s}.npy").read_bytes()
                assert inspected == dumped


class TestBenchCli:
    def test_bench_emits_csv_and_json(self, tmp_path):
        assert main(["bench", "--module", "fusion", "--grids", "28,56",
                     "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "bench.csv").read_text().splitlines()
        assert csv[0] == "module,N,flops,wall_ms"
        report = json.loads((tmp_path / "bench.json").read_text())
        assert abs(report["slope"] - 1.0) <= 0.01

    def test_bench_xattn(self, tmp_path):
        assert main(["bench", "--module", "xattn", "--grids", "14,28",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert abs(report["slope"] - 2.0) <= 0.01

    def test_bench_model_components(self, tmp_path):
        assert main(["bench", "--module", "model", "--grids", "64",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        names = {c["name"] for c in report["components"]}
        assert names == {"visual_backbone", "audio_embed", "encoder_fusion",
                         "decoder_fusion", "seg_head"}
        assert report["unattributed_ms"] >= 0
        assert report["total_wall_ms"] >= max(c["wall_ms"] for c in report["components"])

    POINT_KEYS = {"N", "flops", "wall_ms", "madds", "elems"}
    SWEEP_KEYS = {"module", "channels", "gated_scope", "slope", "points"}
    SECTIONS = ["visual_backbone", "audio_embed", "encoder_fusion", "decoder_fusion",
                "seg_head"]

    @pytest.mark.parametrize("module,grids,keys,item_keys,rows", [
        ("fusion", "28,56", SWEEP_KEYS | {"state_madds_last"}, POINT_KEYS,
         [("fusion", 784), ("fusion", 3136)]),
        ("xattn", "14,28", SWEEP_KEYS | {"d"}, POINT_KEYS, [("xattn", 196), ("xattn", 784)]),
        ("model", "32", {"hw", "components", "total_wall_ms", "unattributed_ms"},
         {"name", "madds", "elems", "wall_ms", "share"},
         [(f"model.{n}", 1024) for n in SECTIONS]),
    ], ids=["fusion", "xattn", "model"])
    def test_report_schema(self, tmp_path, module, grids, keys, item_keys, rows):
        assert main(["bench", "--module", module, "--grids", grids,
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert set(report) == keys
        items = report["components" if module == "model" else "points"]
        assert [set(item) for item in items] == [item_keys] * len(rows)
        csv = (tmp_path / "bench.csv").read_text().splitlines()
        assert [(m, int(n)) for m, n, _, _ in (line.split(",") for line in csv[1:])] == rows

    def test_sweep_stdout_is_only_csv(self, capsys):
        assert main(["bench", "--module", "fusion", "--grids", "28,56"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "module,N,flops,wall_ms"
        assert len(lines) == 3 and all(len(line.split(",")) == 4 for line in lines[1:])
        assert captured.err.startswith("fusion: fitted log-log slope vs N = ")

    @pytest.mark.parametrize("module,grids", [("xattn", "14"), ("fusion", "28")])
    def test_one_sweep_grid_is_an_error_line(self, tmp_path, capsys, module, grids):
        assert main(["bench", "--module", module, "--grids", grids,
                     "--out", str(tmp_path / "b")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "two grid sizes" in captured.err
        assert "slope" not in captured.out
        assert not (tmp_path / "b").exists()

    def test_model_bench_takes_one_grid(self, tmp_path):
        assert main(["bench", "--module", "model", "--grids", "14",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert report["hw"] == 14

    @pytest.mark.parametrize("module,grids", [
        ("model", "abc"), ("fusion", "28,x"), ("model", "-4"), ("model", "0"),
    ])
    def test_bad_grids_are_usage_errors(self, tmp_path, capsys, module, grids):
        assert main(["bench", "--module", module, "--grids", grids,
                     "--out", str(tmp_path / "b")]) == 2
        assert "--grids" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()


class TestOtherCommands:
    def test_gradcheck_quick_exits_zero(self, capsys):
        assert main(["gradcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") >= 20

    def test_unknown_flag_exits_2(self):
        assert main(["train", "--bogus-flag", "x"]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["undefined-command"]) == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "r", "--snr-db", "10"],
        ["train", "--out", "r", "--ckpt-every", "1"],
        ["synth-data", "--out", "d", "--snr-db", "10"],
        ["eval", "--ckpt", "c.bin", "--threshold", "0.3"],
        ["bench", "--module", "fusion", "--channels", "8"],
        ["gradcheck", "--tol", "1e-2"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,key", [
        ("--scenes", "0", "n_scenes"), ("--scenes", "-1", "n_scenes"),
        ("--seed", "-1", "seed"), ("--hw", "0", "hw"), ("--hw", "16", "hw"),
        ("--hw", "25", "hw"),
    ])
    def test_synth_data_out_of_range_fails_cleanly(self, tmp_path, capsys, flag, value,
                                                   key):
        argv = ["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2", "--hw", "32"]
        assert main([*argv, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key} must be") and captured.out == ""
        assert not (tmp_path / "d").exists()

    def test_synth_data_then_train_on_layout(self, tmp_path, capsys):
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                     "--hw", "32"]) == 0
        assert main(["train", "--out", str(tmp_path / "run"), "--steps", "1",
                     "--scenes", "2", "--hw", "32", "--data",
                     str(tmp_path / "d")]) == 0

    def test_train_on_clips_of_two_frame_sizes_fails_before_run_dir(self, tmp_path,
                                                                   capsys):
        for name, hw in (("d", "32"), ("e", "40")):
            assert main(["synth-data", "--out", str(tmp_path / name), "--scenes", "1",
                         "--hw", hw]) == 0
        (tmp_path / "e" / "scene_00000").rename(tmp_path / "d" / "scene_00001")
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "run"), "--steps", "1",
                     "--batch-size", "2", "--data", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: clip scene_00001 has 40x40")
        assert "scene_00000 has 32x32" in captured.err and captured.out == ""
        assert not (tmp_path / "run").exists()

    def test_inspect_dumps(self, tmp_path):
        assert main(toy_train_args(tmp_path / "run")) == 0
        ckpt = tmp_path / "run" / "ckpt_final.bin"
        assert main(["inspect", "--ckpt", str(ckpt), "--index", "1",
                     "--out", str(tmp_path / "ins")]) == 0
        dumped = np.load(tmp_path / "ins" / "logits.npy", allow_pickle=False)
        assert dumped.shape == (1, 1, 32, 32) and dumped.dtype == np.float64
        assert (tmp_path / "ins" / "pred_mask.png").exists()
        assert (tmp_path / "ins" / "alignment_scale0.npy").exists()

    def test_inspect_data_reads_only_its_clip(self, tmp_path, monkeypatch):
        from lightavseg import data
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "4",
                     "--hw", "32"]) == 0
        reads = []
        read_png = data.read_png
        monkeypatch.setattr(data, "read_png", lambda p: reads.append(p) or read_png(p))
        assert main(["inspect", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                     "--index", "2", "--data", str(tmp_path / "d"),
                     "--out", str(tmp_path / "ins")]) == 0
        assert [p.parent.parent.name for p in reads] == ["scene_00002"] * 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--ckpt", "{dir}"],
        ["eval", "--ckpt", "{ckpt}", "--out", "{dir}"],
        ["eval", "--ckpt", "{ckpt}", "--dump-alignment", "{file}"],
        ["train", "--steps", "0", "--scenes", "2", "--hw", "32", "--out", "{file}"],
        ["synth-data", "--scenes", "2", "--hw", "32", "--out", "{file}"],
    ], ids=["eval-ckpt-dir", "eval-out-dir", "eval-dump-file", "train-out-file",
            "synth-data-out-file"])
    def test_os_error_is_an_error_line(self, tmp_path, capsys, argv):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("not a directory")
        paths = {"dir": tmp_path / "dir", "file": tmp_path / "file",
                 "ckpt": tmp_path / "run" / "ckpt_final.bin"}
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("with_data,index", [(True, 5), (True, -1), (False, -1),
                                                 (False, 4)])
    def test_inspect_index_out_of_range_fails_cleanly(self, tmp_path, capsys,
                                                      with_data, index):
        assert main(toy_train_args(tmp_path / "run", ["--steps", "0"])) == 0
        argv = ["inspect", "--ckpt", str(tmp_path / "run" / "ckpt_final.bin"),
                "--index", str(index), "--out", str(tmp_path / "ins")]
        if with_data:
            assert main(["synth-data", "--out", str(tmp_path / "d"), "--scenes", "2",
                         "--hw", "32"]) == 0
            argv += ["--data", str(tmp_path / "d")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
