"""Losses and metrics: hand cases, closed forms, and pixel-count oracles."""

import math

import numpy as np
import pytest

from lightavseg.backbones import AudioState
from lightavseg import tensor as T
from lightavseg.losses import (
    PROB_EPS, alignment_maps, bce_loss, cosine_scores, dice_loss, mask_scores, msa_loss,
    total_loss,
)
from lightavseg.tensor import (
    FLOPS, ContractError, DimensionError, RngState, Tensor, backward, bilinear_upsample,
    grad_check, topo_order,
)

from chain_ops import ref_bce, ref_cosine_scores, ref_dice, ref_msa


def logits_for(p):
    """Map probabilities to saturated-but-finite logits."""
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return np.log(p / (1 - p))


class TestDiceLoss:
    def test_exact_match_near_zero(self):
        m = np.zeros((1, 1, 8, 8))
        m[0, 0, 2:6, 2:6] = 1.0
        loss = dice_loss(Tensor(logits_for(m) * 3), Tensor(m))
        assert loss.item() < 1e-3

    def test_total_miss_approaches_one(self):
        m = np.zeros((1, 1, 64, 64))
        m[0, 0, :32] = 1.0
        pred = 1.0 - m
        loss = dice_loss(Tensor(logits_for(pred) * 3), Tensor(m))
        assert loss.item() > 0.99

    def test_hand_2x2_case(self):
        # p = [1,0,0,0], M = [1,1,0,0]: 1 - (2*1+1)/(1+2+1) = 0.25
        p = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 2, 2)
        m = np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 2, 2)
        loss = dice_loss(Tensor(logits_for(p) * 50), Tensor(m))
        assert loss.item() == pytest.approx(0.25, abs=1e-9)


class TestBceLoss:
    def test_zero_logits_give_ln2(self):
        m = Tensor((RngState(1).uniform((2, 1, 4, 4), 0, 1) > 0.5).astype(float))
        loss = bce_loss(Tensor(np.zeros((2, 1, 4, 4))), m)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_huge_correct_logits_vanish(self):
        m = np.zeros((1, 1, 4, 4))
        m[0, 0, 0, 0] = 1.0
        loss = bce_loss(Tensor((2 * m - 1) * 50.0), Tensor(m))
        assert loss.item() < 1e-6

    def test_single_pixel_label_one(self):
        loss = bce_loss(Tensor(np.zeros((1, 1, 1, 1))), Tensor(np.ones((1, 1, 1, 1))))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Fused loss ops against the elementwise-op chains they replaced (chain_ops)
# ---------------------------------------------------------------------------

def msa_one(probs, mask):
    """msa_loss over one scale at the mask's size, where its upsample is the identity."""
    return msa_loss([probs], mask)[0]


def ref_msa_one(probs, mask):
    return ref_msa([probs], mask)[0]


FUSED_AND_REF = [(dice_loss, ref_dice), (bce_loss, ref_bce), (msa_one, ref_msa_one)]
FUSED = [fused for fused, _ in FUSED_AND_REF]
SHAPES = [(2, 1, 8, 8), (1, 1, 5, 7), (3, 1, 6, 9), (3, 2, 3, 1)]


def loss_inputs(fused, shape, seed):
    rng = RngState(seed)
    if fused is msa_one:
        x = rng.uniform(shape, 0.0, 1.0)
    else:
        x = rng.uniform(shape, -4.0, 4.0)
    return x, (rng.uniform(shape, 0, 1) > 0.5).astype(float)


def value_grad_flops(f, x, m):
    xt = Tensor(x.copy(), requires_grad=True)
    FLOPS.reset()
    loss = f(xt, Tensor(m))
    flops = FLOPS.report()
    backward(loss)
    return loss, xt.grad, flops


class TestFusedLossOps:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("fused,ref", FUSED_AND_REF)
    def test_value_gradient_and_flops_match_reference(self, fused, ref, shape):
        x, m = loss_inputs(fused, shape, seed=len(shape) + sum(shape))
        loss, grad, flops = value_grad_flops(fused, x, m)
        ref_loss, ref_grad, ref_flops = value_grad_flops(ref, x, m)
        assert loss.shape == ref_loss.shape == (1,)
        assert abs(loss.item() - ref_loss.item()) <= 1e-12
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
        assert flops == ref_flops

    def test_one_graph_node_over_the_input(self):
        x = Tensor(RngState(1).uniform((2, 1, 4, 4), 0.1, 0.9), requires_grad=True)
        m = Tensor(np.ones((2, 1, 4, 4)))
        for fused in FUSED:
            assert topo_order(fused(x, m))[:-1] == [x]

    def test_msa_clamped_probabilities_get_zero_gradient(self):
        lo, hi = PROB_EPS, 1.0 - PROB_EPS
        x = np.array([0.0, 1.0, lo, hi, 0.5, 1e-9, 1.0 - 1e-9, 0.3]).reshape(2, 1, 2, 2)
        m = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]).reshape(2, 1, 2, 2)
        loss, grad, _ = value_grad_flops(msa_one, x, m)
        ref_loss, ref_grad, _ = value_grad_flops(ref_msa_one, x, m)
        assert abs(loss.item() - ref_loss.item()) <= 1e-12
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
        clamped = (x <= lo) | (x >= hi)
        assert clamped.sum() == 6
        np.testing.assert_array_equal(grad[clamped], 0.0)
        assert np.all(grad[~clamped] != 0.0)

    @pytest.mark.parametrize("fused", FUSED)
    def test_grad_check(self, fused):
        x, m = loss_inputs(fused, (2, 1, 3, 5), seed=9)
        if fused is msa_one:
            x = 0.05 + 0.9 * x  # central differences stay clear of the clamp
        mask = Tensor(m)
        rep = grad_check(lambda t: fused(t, mask), Tensor(x, requires_grad=True))
        assert rep.passed and rep.n_checked == x.size, rep.failures[:3]

    @pytest.mark.parametrize("fused", FUSED)
    def test_mask_that_requires_grad_is_refused(self, fused):
        x = Tensor(np.full((1, 1, 2, 2), 0.5), requires_grad=True)
        with pytest.raises(ContractError, match="mask"):
            fused(x, Tensor(np.ones((1, 1, 2, 2)), requires_grad=True))

    @pytest.mark.parametrize("fused", FUSED)
    def test_shape_mismatch_rejected(self, fused):
        with pytest.raises(DimensionError):
            fused(Tensor(np.full((1, 1, 2, 3), 0.5)), Tensor(np.ones((1, 1, 2, 2))))


class TestAlignmentMaps:
    def _maps_for(self, vec_feat, vec_audio, tau=0.1):
        f = Tensor(np.array(vec_feat, dtype=float).reshape(1, -1, 1, 1))
        a = AudioState(Tensor(np.array(vec_audio, dtype=float).reshape(1, -1, 1, 1)))
        return alignment_maps([f], [a], tau)

    def test_parallel_vectors_give_sigmoid_10(self):
        maps = self._maps_for([3.0, 4.0], [6.0, 8.0], tau=0.1)
        assert maps[0].item() == pytest.approx(0.9999546021312976, abs=1e-7)

    def test_orthogonal_vectors_give_half(self):
        maps = self._maps_for([1.0, 0.0], [0.0, 1.0])
        assert maps[0].item() == pytest.approx(0.5, abs=1e-9)

    def test_antiparallel_vectors(self):
        maps = self._maps_for([1.0, 2.0], [-2.0, -4.0], tau=0.1)
        assert maps[0].item() == pytest.approx(4.5397868702434395e-05, rel=1e-4)

    def test_sim_bounded_and_scores_open_unit(self):
        rng = RngState(3)
        feats = [Tensor(rng.uniform((2, 6, 4, 4), -3, 3))]
        auds = [AudioState(Tensor(rng.uniform((2, 6, 1, 1), -3, 3)))]
        maps = alignment_maps(feats, auds, 0.1)
        up = bilinear_upsample(maps[0], 8, 8)
        assert np.all(maps[0].data > 0.0) and np.all(maps[0].data < 1.0)
        assert np.all(up.data > 0.0) and np.all(up.data < 1.0)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ContractError):
            self._maps_for([1.0, 0.0], [1.0, 0.0], tau=0.0)

    def test_audio_width_mismatch_is_dimension_error(self):
        with pytest.raises(DimensionError):
            self._maps_for([1.0, 0.0, 2.0], [1.0, 0.0])

    def test_scale_count_mismatch_rejected(self):
        f = Tensor(np.ones((1, 2, 1, 1)))
        a = AudioState(Tensor(np.ones((1, 2, 1, 1))))
        with pytest.raises(ContractError, match="scales"):
            alignment_maps([f, f], [a], 0.1)


class TestMsaLoss:
    def test_perfect_match_below_clamp_floor(self):
        m = (RngState(4).uniform((1, 1, 4, 4), 0, 1) > 0.5).astype(float)
        maps = [Tensor(m)] * 3
        loss, per = msa_loss(maps, Tensor(m))
        assert loss.item() < 2e-6
        assert len(per) == 3

    def test_uniform_half_gives_ln2(self):
        m = (RngState(5).uniform((1, 1, 4, 4), 0, 1) > 0.5).astype(float)
        maps = [Tensor(np.full((1, 1, 4, 4), 0.5))] * 3
        loss, _ = msa_loss(maps, Tensor(m))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_mean_over_scales(self):
        m = np.ones((1, 1, 2, 2))
        scales = [Tensor(np.full((1, 1, 2, 2), p)) for p in (0.9, 0.5, 0.2)]
        loss, per = msa_loss(scales, Tensor(m))
        assert loss.item() == pytest.approx(sum(p.item() for p in per) / 3, abs=1e-12)

    def test_constant_prediction_minimized_at_mask_mean(self):
        # brute force over constants on a 4x4 grid
        rng = RngState(6)
        m = (rng.uniform((1, 1, 4, 4), 0, 1) > 0.6).astype(float)
        mean = m.mean()
        grid = np.linspace(0.02, 0.98, 97)
        losses = []
        for c in grid:
            maps = [Tensor(np.full((1, 1, 4, 4), c))]
            losses.append(msa_loss(maps, Tensor(m))[0].item())
        best = grid[int(np.argmin(losses))]
        assert abs(best - mean) <= 0.011  # grid resolution


def alignment_inputs(seed, batch=2, grids=((6, 2, 2), (5, 4, 3), (4, 8, 8))):
    rng = RngState(seed)
    feats = [rng.uniform((batch, c, h, w), -1, 1) for c, h, w in grids]
    auds = [rng.uniform((batch, c, 1, 1), -1, 1) for c, _, _ in grids]
    return feats, auds


def cosine_value_grads(f, x, y, tau=0.1):
    """Value, (dL/dx, dL/dy) for L = sum(w * f(x, y)) with fixed weights w, and FLOPs."""
    xt, yt = Tensor(x.copy(), requires_grad=True), Tensor(y.copy(), requires_grad=True)
    FLOPS.reset()
    s = f(xt, yt, tau)
    flops = FLOPS.report()
    w = RngState(33).uniform(s.shape, -1, 1)
    backward(T.tsum(T.mul(s, w)))
    return s.data, (xt.grad, yt.grad), flops


def msa_value_grads(f, scores, m):
    ts = [Tensor(s.copy(), requires_grad=True) for s in scores]
    FLOPS.reset()
    loss, per_scale = f(ts, Tensor(m))
    flops = FLOPS.report()
    backward(loss)
    return loss.item(), [float(p.item()) for p in per_scale], [t.grad for t in ts], flops


class TestFusedAlignmentOps:
    """cosine_scores and msa_loss against the op chains they replaced."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cosine_scores_match_reference(self, seed):
        feats, auds = alignment_inputs(seed)
        for x, y in zip(feats, auds):
            val, grads, flops = cosine_value_grads(cosine_scores, x, y)
            ref_val, ref_grads, ref_flops = cosine_value_grads(ref_cosine_scores, x, y)
            assert val.tobytes() == ref_val.tobytes()
            for g, rg in zip(grads, ref_grads):
                np.testing.assert_allclose(g, rg, rtol=1e-12, atol=1e-12)
            assert flops == ref_flops

    def test_cosine_scores_zero_norm_feature_pixel_and_audio(self):
        feats, auds = alignment_inputs(4, grids=((3, 3, 4),))
        x, y = feats[0], auds[0]
        x[0, :, 1, 2] = 0.0      # exactly zero
        x[1, :, 0, 0] = 1e-170   # squares underflow, so the norm is 0 there too
        y[1] = 0.0               # a silent frame's audio state
        val, grads, _ = cosine_value_grads(cosine_scores, x, y)
        ref_val, ref_grads, _ = cosine_value_grads(ref_cosine_scores, x, y)
        assert val.tobytes() == ref_val.tobytes()
        assert val[0, 0, 1, 2] == 0.5
        for g, rg in zip(grads, ref_grads):
            assert np.all(np.isfinite(g))
            np.testing.assert_allclose(g, rg, rtol=1e-12, atol=1e-12)

    def test_cosine_scores_grad_check_every_coordinate(self):
        feats, auds = alignment_inputs(5, grids=((3, 2, 3),))
        x, y = Tensor(feats[0], requires_grad=True), Tensor(auds[0], requires_grad=True)
        w = Tensor(RngState(6).uniform((2, 1, 2, 3), -1, 1))
        rep = grad_check(lambda t: T.tsum(T.mul(cosine_scores(t, y, 0.5), w)), x)
        assert rep.passed and rep.n_checked == x.size, rep.failures[:3]
        rep = grad_check(lambda t: T.tsum(T.mul(cosine_scores(x, t, 0.5), w)), y)
        assert rep.passed and rep.n_checked == y.size, rep.failures[:3]

    def test_cosine_scores_rejects_audio_that_is_not_one_vector_per_frame(self):
        with pytest.raises(DimensionError):
            cosine_scores(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones((1, 3, 1, 1))), 0.1)

    @pytest.mark.parametrize("mask_hw", [(16, 16), (9, 12)])
    def test_msa_loss_matches_reference(self, mask_hw):
        rng = RngState(sum(mask_hw))
        scores = [rng.uniform((2, 1, h, w), 0.0, 1.0) for h, w in ((2, 2), (4, 3), (8, 8))]
        scores[0][0, 0, 0, 0] = 1.0 - 1e-9   # inside the clamp band
        m = (rng.uniform((2, 1) + mask_hw, 0, 1) > 0.5).astype(float)
        loss, per, grads, flops = msa_value_grads(msa_loss, scores, m)
        ref_loss, ref_per, ref_grads, ref_flops = msa_value_grads(ref_msa, scores, m)
        assert loss == ref_loss and per == ref_per
        for g, rg in zip(grads, ref_grads):
            np.testing.assert_allclose(g, rg, rtol=1e-12, atol=1e-12)
        assert flops == ref_flops

    def test_msa_loss_grad_check_every_coordinate(self):
        rng = RngState(7)
        fixed = Tensor(rng.uniform((2, 1, 2, 2), 0.1, 0.9))
        x = Tensor(rng.uniform((2, 1, 3, 4), 0.1, 0.9), requires_grad=True)
        mask = Tensor((rng.uniform((2, 1, 7, 8), 0, 1) > 0.5).astype(float))
        rep = grad_check(lambda t: msa_loss([fixed, t], mask)[0], x)
        assert rep.passed and rep.n_checked == x.size, rep.failures[:3]

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0])
    def test_msa_loss_refuses_non_binary_mask(self, bad):
        m = np.ones((1, 1, 4, 4))
        m[0, 0, 1, 1] = bad
        with pytest.raises(ContractError, match="binary"):
            msa_loss([Tensor(np.full((1, 1, 2, 2), 0.5))], Tensor(m))

    def test_msa_loss_rejects_scores_that_do_not_upsample_to_the_mask(self):
        m = Tensor(np.ones((2, 1, 4, 4)))
        for shape in ((1, 1, 2, 2), (2, 1, 5, 4), (2, 2, 2, 2)):
            with pytest.raises(DimensionError):
                msa_loss([Tensor(np.full(shape, 0.5))], m)
        with pytest.raises(ContractError):
            msa_loss([], m)

    def test_one_node_per_scale_and_no_full_resolution_node(self):
        rng = RngState(5)
        logits = Tensor(rng.uniform((2, 1, 16, 16), -2, 2), requires_grad=True)
        feats, auds = alignment_inputs(8)
        feats = [Tensor(f, requires_grad=True) for f in feats]
        auds = [AudioState(Tensor(a, requires_grad=True)) for a in auds]
        y = Tensor((rng.uniform((2, 1, 16, 16), 0, 1) > 0.7).astype(float))
        rep = total_loss(logits, feats, auds, y)
        order = topo_order(rep.loss)
        nodes = [t for t in order if t._parents]
        assert sorted(t.op for t in nodes) == sorted(
            ["dice_loss", "bce_loss", "add", "msa_loss", "mul", "add"] + ["cosine_scores"] * 3)
        scores = [t for t in nodes if t.op == "cosine_scores"]
        assert [t._parents for t in scores] == [(f, a.value) for f, a in zip(feats, auds)]
        assert [t for t in nodes if t.op == "msa_loss"][0]._parents == tuple(scores)
        full_res = [t for t in order if t.shape[2:] == (16, 16)]
        assert full_res == [logits]


class TestTotalLoss:
    def _inputs(self, seed):
        rng = RngState(seed)
        logits = Tensor(rng.uniform((2, 1, 8, 8), -2, 2))
        feats = [Tensor(rng.uniform((2, c, g, g), -1, 1))
                 for c, g in ((6, 2), (5, 4), (4, 8))]
        auds = [AudioState(Tensor(rng.uniform((2, c, 1, 1), -1, 1)))
                for c in (6, 5, 4)]
        y = Tensor((rng.uniform((2, 1, 8, 8), 0, 1) > 0.7).astype(float))
        return logits, feats, auds, y

    def test_lambda_zero_reduces_to_seg(self):
        logits, feats, auds, y = self._inputs(7)
        rep = total_loss(logits, feats, auds, y, lam=0.0)
        assert rep.total == pytest.approx(rep.dice + rep.bce, abs=1e-12)

    def test_identity_over_fifty_seeds(self):
        for seed in range(50):
            logits, feats, auds, y = self._inputs(seed)
            rep = total_loss(logits, feats, auds, y, lam=0.5)
            assert abs(rep.total - (rep.dice + rep.bce + 0.5 * rep.msa)) <= 1e-12

    def test_variant_seg_total_matches_seg(self):
        logits, feats, auds, y = self._inputs(3)
        rep = total_loss(logits, feats, auds, y, lam=0.5, variant="seg")
        assert rep.total == pytest.approx(rep.dice + rep.bce, abs=1e-12)

    def test_variant_seg_builds_no_alignment_graph(self):
        logits, feats, auds, y = self._inputs(3)
        logits = Tensor(logits.data, requires_grad=True)
        feats = [Tensor(f.data, requires_grad=True) for f in feats]
        rep = total_loss(logits, feats, auds, y, lam=0.5, variant="seg")
        order = topo_order(rep.loss)
        assert not {id(f) for f in feats} & {id(t) for t in order}
        assert {t.op for t in order}.isdisjoint(
            {"cosine_scores", "msa_loss"})
        backward(rep.loss)
        assert logits.grad is not None and all(f.grad is None for f in feats)
        # the logged alignment term is the one seg+msa trains on
        ref = total_loss(logits, feats, auds, y, lam=0.5, variant="seg+msa")
        assert rep.msa == ref.msa

    @pytest.mark.parametrize("variant", ["seg", "seg+msa"])
    def test_non_binary_mask_rejected(self, variant):
        logits, feats, auds, y = self._inputs(4)
        y.data[0, 0, 0, 0] = 0.5
        with pytest.raises(ContractError, match="mask must be strictly binary"):
            total_loss(logits, feats, auds, y, variant=variant)

    def test_mask_that_requires_grad_is_refused(self):
        logits, feats, auds, y = self._inputs(4)
        with pytest.raises(ContractError, match="mask"):
            total_loss(logits, feats, auds, Tensor(y.data, requires_grad=True))

    @pytest.mark.parametrize("key,value", [
        ("lam", math.nan), ("lam", math.inf), ("lam", -1.0),
        ("tau", math.nan), ("tau", math.inf), ("tau", 0.0), ("variant", "seg+avm"),
    ])
    def test_bad_setting_is_refused_by_name(self, key, value):
        logits, feats, auds, y = self._inputs(4)
        with pytest.raises(ContractError, match=key):
            total_loss(logits, feats, auds, y, **{key: value})

    def test_gradients_pass(self):
        logits, feats, auds, y = self._inputs(9)

        def f(t):
            rep = total_loss(t, feats, auds, y, lam=0.5)
            return rep.loss

        rep = grad_check(f, logits, tol=1e-4, max_coords=48, rng=RngState(10))
        assert rep.passed, rep.failures[:3]

    def test_msa_gradient_through_features(self):
        logits, feats, auds, y = self._inputs(11)

        def f(t):
            rep = total_loss(logits, [t, feats[1], feats[2]], auds, y, lam=0.5)
            return rep.loss

        rep = grad_check(f, feats[0], tol=1e-4, max_coords=32, rng=RngState(12))
        assert rep.passed, rep.failures[:3]


def oracle_iou(p, g):
    inter = sum(1 for a, b in zip(p.flat, g.flat) if a and b)
    union = sum(1 for a, b in zip(p.flat, g.flat) if a or b)
    return 1.0 if union == 0 else inter / union


def oracle_fbeta(p, g, beta_sq=0.3):
    tp = sum(1 for a, b in zip(p.flat, g.flat) if a and b)
    np_, ng = int(p.sum()), int(g.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    prec = tp / np_ if np_ else 0.0
    rec = tp / ng if ng else 0.0
    if beta_sq * prec + rec == 0:
        return 0.0
    return (1 + beta_sq) * prec * rec / (beta_sq * prec + rec)


class TestMetrics:
    def test_identical_masks(self):
        m = (RngState(1).uniform((3, 1, 8, 8), 0, 1) > 0.5)
        assert mask_scores(m, m) == (1.0, 1.0)

    def test_disjoint_masks(self):
        a = np.zeros((1, 1, 4, 4), dtype=bool)
        b = np.zeros((1, 1, 4, 4), dtype=bool)
        a[0, 0, 0, 0] = True
        b[0, 0, 3, 3] = True
        assert mask_scores(a, b) == (0.0, 0.0)

    def test_half_cover_hand_case(self):
        # P covers exactly half of G and nothing else
        g = np.zeros((1, 1, 4, 4), dtype=bool)
        g[0, 0, :2] = True          # 8 pixels
        p = np.zeros_like(g)
        p[0, 0, 0] = True           # 4 pixels, all inside G
        assert mask_scores(p, g) == pytest.approx((0.5, 0.8125))

    def test_empty_union_counts_as_one(self):
        z = np.zeros((2, 1, 4, 4), dtype=bool)
        assert mask_scores(z, z) == (1.0, 1.0)

    def test_matches_pixel_count_oracle_on_100_seeded_pairs(self):
        rng = RngState(42)
        for _ in range(100):
            p = rng.uniform((8, 8), 0, 1) > 0.5
            g = rng.uniform((8, 8), 0, 1) > 0.5
            iou, f = mask_scores(p, g)
            assert iou == pytest.approx(oracle_iou(p, g), abs=0)
            assert f == pytest.approx(oracle_fbeta(p, g), abs=1e-15)

    def test_frames_average_their_oracle_scores(self):
        # 2-D, 3-D and 4-D masks, 0/1 floats, and frames with an empty side
        rng = RngState(43)
        p = rng.uniform((6, 1, 8, 8), 0, 1) > 0.6
        g = rng.uniform((6, 1, 8, 8), 0, 1) > 0.4
        p[1] = False
        g[2] = False
        p[3] = g[3] = False
        want = (np.mean([oracle_iou(a, b) for a, b in zip(p, g)]),
                np.mean([oracle_fbeta(a, b) for a, b in zip(p, g)]))
        for pp, gg in ((p, g), (p[:, 0], g[:, 0]), (p.astype(float), g.astype(float))):
            assert mask_scores(pp, gg) == pytest.approx(want, abs=1e-15)
        assert mask_scores(p[0, 0], g[0, 0]) == mask_scores(p[:1], g[:1])

    def test_shape_mismatch_rejected(self):
        from lightavseg.tensor import DimensionError
        with pytest.raises(DimensionError):
            mask_scores(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 5)))