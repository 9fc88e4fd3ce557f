"""Quadratic attention oracle: exact FLOP forms, softmax sanity, scaling sweeps."""

import numpy as np
import pytest

from lightavseg.attention import (
    AttentionParams, attention_flops_closed_form, bench_csv, dense_attention,
    fit_loglog_slope, scaling_sweep,
)
from lightavseg.backbones import AudioState
from lightavseg.tensor import (
    FLOPS, ContractError, RngState, Tensor, grad_check, mul, softmax, tsum,
)


class TestDenseAttention:
    def test_single_token_weight_is_one(self):
        rng = RngState(0)
        p = AttentionParams(4, 3, rng)
        v = Tensor(rng.uniform((1, 4, 1, 1), -1, 1))
        a = AudioState(Tensor(np.zeros((1, 4, 1, 1))))
        out = dense_attention(v, a, p)
        want = p.out(p.value(v))
        np.testing.assert_allclose(out.data, want.data, atol=1e-12)

    def test_identical_tokens_give_uniform_mixing(self):
        rng = RngState(1)
        p = AttentionParams(3, 2, rng)
        token = rng.uniform((1, 3, 1, 1), -1, 1)
        v = Tensor(np.tile(token, (1, 1, 2, 2)))
        a = AudioState(Tensor(rng.uniform((1, 3, 1, 1), -1, 1)))
        out = dense_attention(v, a, p).data
        # all output tokens equal (softmax of equal scores mixes equally)
        flat = out.reshape(1, 3, 4)
        for i in range(1, 4):
            np.testing.assert_allclose(flat[0, :, i], flat[0, :, 0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RngState(2).uniform((3, 5, 7), -4, 4))
        s = softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_flops_match_closed_form_at_n196(self):
        rng = RngState(3)
        p = AttentionParams(64, 64, rng)
        v = Tensor(rng.uniform((1, 64, 14, 14), -1, 1))
        a = AudioState(Tensor(rng.uniform((1, 64, 1, 1), -1, 1)))
        FLOPS.reset()
        dense_attention(v, a, p)
        affinity, proj = attention_flops_closed_form(196, 64, 64)
        assert affinity == 4 * 196 ** 2 * 64 == 9_834_496
        assert FLOPS.madds("xattn.affinity") == affinity
        assert FLOPS.madds("xattn") == affinity + proj

    def test_gradients_at_small_n(self):
        rng = RngState(4)
        p = AttentionParams(3, 2, rng)
        v = Tensor(rng.uniform((1, 3, 4, 4), -1, 1))  # N = 16
        a = AudioState(Tensor(rng.uniform((1, 3, 1, 1), -1, 1)))
        rep = grad_check(lambda t: tsum(mul(dense_attention(t, a, p),
                                            dense_attention(t, a, p))), v,
                         tol=1e-4, max_coords=32, rng=RngState(5))
        assert rep.passed, rep.failures[:3]


class TestScalingSweep:
    def test_fusion_slope_is_one(self):
        rep = scaling_sweep("fusion", [28, 56, 112, 224], reps=1)
        assert abs(rep["slope"] - 1.0) <= 0.01

    def test_xattn_slope_is_two(self):
        rep = scaling_sweep("xattn", [14, 28, 56], reps=1)
        assert abs(rep["slope"] - 2.0) <= 0.01

    def test_doubling_ratios(self):
        fusion = scaling_sweep("fusion", [56, 112], reps=1)
        ratio = fusion["points"][1]["flops"] / fusion["points"][0]["flops"]
        assert abs(ratio - 4.0) <= 0.08
        xattn = scaling_sweep("xattn", [14, 28], reps=1)
        ratio = xattn["points"][1]["flops"] / xattn["points"][0]["flops"]
        assert abs(ratio - 16.0) <= 0.32

    def test_fusion_state_madds_are_one_forward(self):
        # 512 encoder plus 1536 decoder madds at 16 channels, however many reps
        rep = scaling_sweep("fusion", [28, 56], reps=5)
        assert rep["state_madds_last"] == 2048

    def test_fusion_inputs_are_drawn_before_the_timed_reps(self, monkeypatch):
        from lightavseg import attention
        draws, timed = [], []
        uniform = RngState.uniform
        monkeypatch.setattr(RngState, "uniform",
                            lambda self, *a, **k: draws.append(1) or uniform(self, *a, **k))
        median = attention._median_wall_ms

        def counting_median(fn, reps):
            before = len(draws)
            wall = median(fn, reps)
            timed.append(len(draws) - before)
            return wall

        monkeypatch.setattr(attention, "_median_wall_ms", counting_median)
        scaling_sweep("fusion", [28, 56], reps=3)
        assert timed == [0, 0]

    def test_csv_format(self):
        rep = scaling_sweep("fusion", [28, 56], reps=1)
        rows = [("fusion", pt["N"], pt["flops"], pt["wall_ms"]) for pt in rep["points"]]
        lines = bench_csv(rows).strip().splitlines()
        assert lines[0] == "module,N,flops,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "fusion" and int(first[1]) == 784

    def test_json_has_slope_and_points(self):
        d = scaling_sweep("xattn", [14, 28], reps=1)
        assert "slope" in d and len(d["points"]) == 2
        assert d["points"][0]["N"] == 196

    def test_grids_must_increase(self):
        with pytest.raises(ContractError):
            scaling_sweep("fusion", [56, 28], reps=1)

    @pytest.mark.parametrize("grids", [[], [14]])
    def test_a_slope_needs_two_grids(self, grids):
        with pytest.raises(ContractError, match="at least two grid sizes"):
            scaling_sweep("xattn", grids, reps=1)

    def test_unknown_module_rejected(self):
        with pytest.raises(ContractError):
            scaling_sweep("conv", [14, 28], reps=1)

    def test_slope_fit_on_synthetic_data(self):
        ns = [100, 400, 1600]
        assert fit_loglog_slope(ns, [7 * n for n in ns]) == pytest.approx(1.0)
        assert fit_loglog_slope(ns, [3 * n * n for n in ns]) == pytest.approx(2.0)
