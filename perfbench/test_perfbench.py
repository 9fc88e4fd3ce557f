"""The benchmark's own checks: it drives the shipped code, and its counts repeat.

    python3 -m pytest perfbench -q

These are not part of the package's test suite (``testpaths`` names only
``tests/``); they guard the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from lightavseg import data, harness, model, tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_train_loop_reproduces_harness_train_losses():
    cfg = W.train_config(64, seed=3, steps=4, log_every=1, n_scenes=16)
    logged = harness.train(cfg).log_lines
    loop = W.TrainLoop(cfg, *W.scene_arrays(data.generate_dataset(cfg.dataset_spec())))
    assert len(logged) == cfg.steps
    for line in logged:
        rep = loop.step()
        assert (rep.dice, rep.bce, rep.msa, rep.total) == \
            (line["dice"], line["bce"], line["msa"], line["total"])


def test_eval_loop_reproduces_evaluate(tmp_path):
    w = W.EvalDiskWorkload(seed=5, workdir=tmp_path)
    w.setup()
    try:
        for _ in range(W.N_SCENES + 3):  # one full pass, then wraps around
            assert w.iteration() == 0
        loaded = list(data.load_avsbench_layout(w.clips))
        direct = harness.evaluate(w.model, loaded)
        seed_model = model.SegModel(w.cfg.model_config(), tensor.RngState(5))
        assert harness.evaluate(seed_model, loaded)["per_scene"] == direct["per_scene"]
        assert w.check() == 0
    finally:
        w.teardown()
    expected = {r["index"]: (r["miou"], r["fscore"]) for r in direct["per_scene"]}
    assert len(expected) == W.N_SCENES
    assert {vid for vid, _, _ in w.scored} == set(expected)
    assert all(expected[vid] == (mi, fs) for vid, mi, fs in w.scored)


def _counts(name: str, seed: int, workdir: Path) -> dict:
    w = W.make(name, seed, workdir)
    w.setup()
    try:
        if name == "gradcheck-quick":
            assert w.iteration() == 0
        return w.count_layers()
    finally:
        w.teardown()


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_counts_repeat_across_runs_and_seeds(name, tmp_path):
    first = _counts(name, 1, tmp_path)
    assert first == _counts(name, 1, tmp_path)
    other = _counts(name, 2, tmp_path)
    if name == "eval-disk":  # PNG sizes depend on the scenes the seed draws
        other["data.bytes_written"] = first["data.bytes_written"]
    assert first == other
    assert first["tensor.flops.total.madds"] > 0
    if name.startswith("train") or name == "gradcheck-quick":
        assert first["tensor.graph_nodes"] > first["losses.graph_nodes"] > 0
    if name == "gradcheck-quick":
        assert first["gradsuite.coords_checked"] == W.GRADCHECK_COORDS


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == W.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-64", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
