"""Command-line driver: train, eval, bench, gradcheck, synth-data, inspect.

Config comes from an optional flat key=value file with flag overrides on top.
Run outputs land in the --out directory: config.txt, log.jsonl,
ckpt_final.bin, bench.csv, bench.json. eval and inspect read each scene out of
harness.evaluate's one forward. Exit codes: 0 success, 1 contract/runtime
failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from .tensor import (
    ContractError, DimensionError, NumericalError, RngState, read_array, write_array,
)

TENSOR_MAGIC = b"TNSR"


def write_tensor_file(path, arr: np.ndarray):
    """Flat binary tensor: magic 'TNSR', u32 ndim, u32 dims, f64 LE data."""
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        write_array(f, arr)


def read_tensor_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.read(4) != TENSOR_MAGIC:
            raise ContractError(f"{path}: not a tensor dump")
        return read_array(f, "tensor")


def _grid_list(text: str) -> list[int]:
    """--grids: a comma list of positive integers."""
    try:
        grids = [int(g) for g in text.split(",")]
        if min(grids) >= 1:
            return grids
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"want positive integers like 28,56, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lightavseg",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--weight-decay", type=float, default=None)
        p.add_argument("--loss-variant", type=str, default=None,
                       choices=["seg", "seg+msa"])
        p.add_argument("--scenes", type=int, default=None, dest="n_scenes")
        p.add_argument("--hw", type=int, default=None)
        p.add_argument("--log-every", type=int, default=None)
        p.add_argument("--freeze-audio-backbone", dest="freeze_audio_backbone",
                       action="store_true", default=None)
        p.add_argument("--no-freeze-audio-backbone", dest="freeze_audio_backbone",
                       action="store_false")

    p_train = sub.add_parser("train", help="run the training loop")
    add_config_flags(p_train)
    p_train.add_argument("--out", type=str, required=True, help="run directory")
    p_train.add_argument("--data", type=str, default=None,
                         help="clip-layout root (default: synthetic scenes)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--ckpt", type=str, required=True)
    p_eval.add_argument("--data", type=str, default=None)
    p_eval.add_argument("--mute-audio", action="store_true",
                        help="zero the initial audio state at eval")
    p_eval.add_argument("--out", type=str, default=None, help="write report JSON here")
    p_eval.add_argument("--dump-alignment", type=str, default=None,
                        help="directory for per-scene alignment map dumps")

    p_bench = sub.add_parser("bench", help="FLOP/time scaling sweeps")
    p_bench.add_argument("--module", type=str, required=True,
                         choices=["fusion", "xattn", "model"])
    p_bench.add_argument("--grids", type=_grid_list, default=None,
                         help="comma list of square grid sizes (positive integers); "
                              "--module model uses the first as the input size")
    p_bench.add_argument("--out", type=str, default=None, help="output directory")

    p_grad = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p_grad.add_argument("--quick", action="store_true",
                        help="subsample end-to-end coordinates")

    p_synth = sub.add_parser("synth-data", help="materialize synthetic scenes to disk")
    p_synth.add_argument("--out", type=str, required=True)
    p_synth.add_argument("--scenes", type=int, default=64)
    p_synth.add_argument("--hw", type=int, default=64)
    p_synth.add_argument("--seed", type=int, default=0)

    p_inspect = sub.add_parser("inspect", help="dump activations and alignment maps")
    p_inspect.add_argument("--ckpt", type=str, required=True)
    p_inspect.add_argument("--index", type=int, default=0, help="synthetic scene index")
    p_inspect.add_argument("--data", type=str, default=None)
    p_inspect.add_argument("--out", type=str, required=True)
    return parser


def _load_config(args):
    """File values, then flags, parsed as one mapping."""
    from .harness import TrainConfig, config_from_file, config_from_mapping
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
                 if getattr(args, f.name, None) is not None}
    if args.config:
        return config_from_file(args.config, overrides)
    return config_from_mapping(overrides)


def _load_scenes(cfg, data_root):
    from .data import generate_dataset, load_avsbench_layout
    if data_root:
        return list(load_avsbench_layout(data_root))
    return generate_dataset(cfg.dataset_spec())


def _cmd_train(args) -> int:
    from .harness import train
    cfg = _load_config(args)
    scenes = _load_scenes(cfg, args.data)
    result = train(cfg, scenes, out_dir=args.out)
    final = result.log_lines[-1] if result.log_lines else {}
    print(json.dumps({"run_dir": str(args.out), "steps": cfg.steps,
                      "final": final}, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    from .harness import (
        evaluate, frame_alignment_maps, load_checkpoint, model_from_checkpoint,
    )

    ckpt = load_checkpoint(args.ckpt)
    model, cfg = model_from_checkpoint(ckpt)
    scenes = _load_scenes(cfg, args.data)
    dump_scene = None
    if args.dump_alignment:
        dump_dir = Path(args.dump_alignment)
        dump_dir.mkdir(parents=True, exist_ok=True)

        def dump_scene(i, scene, seg, enc):
            maps = frame_alignment_maps(seg, scene.frames.shape[2:], cfg.tau)
            for s_idx, m in enumerate(maps):
                write_tensor_file(dump_dir / f"scene{i:04d}_scale{s_idx}.tnsr", m)

    # --out is opened before the first forward, so a bad path fails at once
    with open(args.out, "w") if args.out else nullcontext() as out_f:
        report = evaluate(model, scenes, mute_audio=args.mute_audio,
                          on_scene=dump_scene)
        print(json.dumps({k: v for k, v in report.items() if k != "per_scene"},
                         sort_keys=True))
        if out_f is not None:
            out_f.write(json.dumps(report, sort_keys=True, indent=1))
    return 0


def _cmd_bench(args) -> int:
    from .attention import component_report, scaling_sweep
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.module == "model":
        from .model import ModelConfig, SegModel
        hw = args.grids[0] if args.grids else 224
        model = SegModel(ModelConfig(), RngState(0))
        report = component_report(model, hw=hw)
        csv_lines = ["module,N,flops,wall_ms"]
        for comp in report["components"]:
            csv_lines.append(f"model.{comp['name']},{hw * hw},"
                             f"{comp['madds'] + comp['elems']},{comp['wall_ms']:.4f}")
        csv_text = "\n".join(csv_lines) + "\n"
        json_text = json.dumps(report, sort_keys=True, indent=1)
    else:
        grids = args.grids or ([28, 56, 112, 224] if args.module == "fusion" else [14, 28, 56])
        report = scaling_sweep(args.module, grids)
        csv_text = report.to_csv()
        json_text = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
        print(f"{args.module}: fitted log-log slope vs N = {report.slope:.4f}")
    if out_dir:
        (out_dir / "bench.csv").write_text(csv_text)
        (out_dir / "bench.json").write_text(json_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradsuite import full_suite
    results = full_suite(quick=args.quick)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:<28} max_rel_err={r.max_rel_err:.3e} (n={r.n_checked})")
        ok = ok and r.passed
    print(f"gradcheck: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def _cmd_synth_data(args) -> int:
    from .data import DatasetSpec, materialize_dataset
    spec = DatasetSpec(n_scenes=args.scenes, hw=args.hw, seed=args.seed)
    dirs = materialize_dataset(spec, args.out)
    print(f"wrote {len(dirs)} scenes under {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    from .data import clip_dirs, generate_scene, load_clip
    from .harness import (
        evaluate, frame_alignment_maps, load_checkpoint, model_from_checkpoint,
        predict_foreground,
    )
    from .pngio import write_png

    ckpt = load_checkpoint(args.ckpt)
    model, cfg = model_from_checkpoint(ckpt)
    if args.data:
        clips = clip_dirs(args.data)
        if not 0 <= args.index < len(clips):
            raise ContractError(f"--index {args.index} is outside the {len(clips)} clips")
        scene = load_clip(clips[args.index])
    else:
        scene = generate_scene(cfg.dataset_spec(), args.index)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(_, scene, seg, enc):
        write_tensor_file(out_dir / "logits.tnsr", seg.logits.data)
        for k, (feat, state) in enumerate(zip(enc.enhanced, enc.audio_states), start=1):
            write_tensor_file(out_dir / f"enc_stage{k}_feat.tnsr", feat.data)
            write_tensor_file(out_dir / f"enc_stage{k}_audio.tnsr", state.value.data)
        maps = frame_alignment_maps(seg, scene.frames.shape[2:], cfg.tau)
        for k, m in enumerate(maps):
            write_tensor_file(out_dir / f"alignment_scale{k}.tnsr", m)
        pred = predict_foreground(seg.logits.data[0, 0]).astype(np.uint8) * 255
        write_png(out_dir / "pred_mask.png", pred)

    evaluate(model, [scene], on_scene=dump)
    print(f"wrote inspection dumps to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "gradcheck": _cmd_gradcheck,
        "synth-data": _cmd_synth_data,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except (ContractError, DimensionError, NumericalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
