"""Tensor core: op semantics, gradients vs central differences, FLOP counters."""

import contextlib
import gc
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lightavseg import gradsuite, tensor as T
from lightavseg.losses import total_loss
from lightavseg.tensor import (
    FLOPS, ContractError, DimensionError, NumericalError, RngState, Tensor,
    backward, grad_check, no_grad, parameter, topo_order,
)

import chain_ops as C


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return Tensor(RngState(seed).uniform(shape, lo, hi))


# ---------------------------------------------------------------------------
# pointwise_linear
# ---------------------------------------------------------------------------

class TestPointwiseLinear:
    def test_identity_weight_is_noop(self):
        x = rand((2, 3, 4, 5), seed=1)
        y = T.pointwise_linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_zero_input_gives_bias_everywhere(self):
        b = np.array([0.5, -1.0])
        y = T.pointwise_linear(Tensor(np.zeros((1, 3, 2, 2))),
                               Tensor(np.zeros((2, 3))), Tensor(b))
        assert np.all(y.data[0, 0] == 0.5) and np.all(y.data[0, 1] == -1.0)

    def test_hand_matrix_vector(self):
        # [1,2] through rows [1,1] and [2,0] -> [3,2]
        x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        y = T.pointwise_linear(x, Tensor([[1.0, 1.0], [2.0, 0.0]]), Tensor(np.zeros(2)))
        np.testing.assert_allclose(y.data.ravel(), [3.0, 2.0])

    def test_shape_mismatch_message_names_both_shapes(self):
        with pytest.raises(DimensionError) as e:
            T.pointwise_linear(rand((1, 3, 2, 2)), Tensor(np.zeros((4, 5))),
                               Tensor(np.zeros(4)))
        assert "(4, 5)" in str(e.value) and "(1, 3, 2, 2)" in str(e.value)

    def test_flop_count_exact(self):
        FLOPS.reset()
        with FLOPS.scope("pw"):
            T.pointwise_linear(rand((2, 3, 4, 5)), Tensor(np.zeros((7, 3))),
                               Tensor(np.zeros(7)))
        assert FLOPS.madds("pw") == 2 * 7 * 3 * 4 * 5


# ---------------------------------------------------------------------------
# global_max_pool
# ---------------------------------------------------------------------------

class TestGlobalMaxPool:
    def test_constant_map(self):
        y = T.global_max_pool(Tensor(np.full((2, 3, 4, 4), 2.5)))
        assert y.shape == (2, 3, 1, 1)
        assert np.all(y.data == 2.5)

    def test_spatial_permutation_invariance(self):
        rng = RngState(7)
        x = rng.uniform((2, 3, 4, 5))
        perm = rng._next().permutation(20)
        xp = x.reshape(2, 3, 20)[:, :, perm].reshape(2, 3, 4, 5)
        a = T.global_max_pool(Tensor(x)).data
        b = T.global_max_pool(Tensor(xp)).data
        np.testing.assert_array_equal(a, b)

    def test_direct_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]).reshape(1, 1, 2, 2))
        assert T.global_max_pool(x).item() == 5.0

    def test_gradient_routes_to_first_argmax(self):
        # two tied maxima: gradient must land on the earlier row-major position
        x = parameter(np.array([[3.0, 1.0], [3.0, 0.0]]).reshape(1, 1, 2, 2))
        backward(T.tsum(T.global_max_pool(x)))
        np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_gradient_scatter_per_map_matches_put_along_axis(self):
        rng = RngState(8)
        x = parameter(np.round(rng.uniform((2, 3, 4, 5), 0, 4)))  # rounding makes ties
        w = Tensor(rng.uniform((2, 3, 1, 1), -1, 1))
        backward(T.tsum(T.mul(T.global_max_pool(x), w)))
        first = x.data.reshape(2, 3, 20).argmax(axis=2)
        expect = np.zeros((2, 3, 20))
        np.put_along_axis(expect, first[:, :, None], w.data.reshape(2, 3, 1), axis=2)
        np.testing.assert_array_equal(x.grad, expect.reshape(2, 3, 4, 5))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

class TestActivations:
    @pytest.mark.parametrize("x,expect", [(0.0, 0.5), (3.0, 1.0), (-3.0, 0.0), (1.5, 0.75)])
    def test_hsigmoid_values(self, x, expect):
        assert T.hsigmoid(Tensor([x])).item() == pytest.approx(expect, abs=1e-15)

    def test_hsigmoid_range(self):
        y = T.hsigmoid(rand((100,), seed=3, lo=-10, hi=10))
        assert np.all(y.data >= 0.0) and np.all(y.data <= 1.0)

    def test_hsigmoid_subgradient_zero_at_kinks(self):
        x = parameter(np.array([-3.0, 3.0, 0.0]))
        backward(T.tsum(T.hsigmoid(x)))
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0 / 6.0])

    def test_sigmoid_values(self):
        y = T._sigmoid_data(np.array([0.0, 10.0, -10.0]))
        assert y[0] == 0.5
        assert y[1] == pytest.approx(0.9999546021312976, rel=1e-12)
        assert y[2] == pytest.approx(4.5397868702434395e-05, rel=1e-12)

    def test_sigmoid_stable_for_large_negatives(self):
        y = T._sigmoid_data(np.array([-1000.0, 1000.0]))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-300)

    def test_sigmoid_data_bit_equal_to_two_branch_form(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        edge = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 1e308, -1e308])
        rng = RngState(17)
        for x in (edge, rng.uniform((8, 1, 9, 7), -40, 40), rng.normal((4, 3, 5, 5), 3.0)):
            got = T._sigmoid_data(x)
            ref = two_branch(x)
            assert got.tobytes() == ref.tobytes()

    def test_softplus_matches_log1pexp(self):
        x = np.array([-40.0, -1.0, 0.0, 1.0, 40.0])
        np.testing.assert_allclose(C.softplus(Tensor(x)).data, np.logaddexp(0, x))


# ---------------------------------------------------------------------------
# broadcast_add / concat / normalize
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_broadcast_add_zero_bias(self):
        x = rand((2, 3, 4, 4), seed=5)
        y = T.broadcast_add(x, Tensor(np.zeros((2, 3, 1, 1))))
        np.testing.assert_array_equal(y.data, x.data)

    def test_broadcast_add_preserves_spatial_contrasts(self):
        x = rand((1, 2, 3, 3), seed=6)
        g = rand((1, 2, 1, 1), seed=7)
        y = T.broadcast_add(x, g).data
        d_out = y[0, 1, 0, 0] - y[0, 1, 2, 2]
        d_in = x.data[0, 1, 0, 0] - x.data[0, 1, 2, 2]
        assert d_out == pytest.approx(d_in, abs=1e-15)

    def test_broadcast_add_shape_errors(self):
        with pytest.raises(DimensionError):
            T.broadcast_add(rand((1, 2, 3, 3)), Tensor(np.zeros((1, 3, 1, 1))))

    def test_l2_normalize_345_triangle(self):
        y = C.l2_normalize(Tensor(np.array([3.0, 4.0])), axis=0, eps=0.0)
        np.testing.assert_allclose(y.data, [0.6, 0.8], atol=1e-12)

    def test_l2_normalize_norm_at_most_one(self):
        x = rand((2, 5, 3, 3), seed=9, lo=-4, hi=4)
        y = C.l2_normalize(x, axis=1)
        norms = np.linalg.norm(y.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)
        assert np.all(norms > 0.99)  # inputs well above eps

    def test_concat_channels_preserves_order(self):
        a = rand((1, 2, 2, 2), seed=10)
        b = rand((1, 3, 2, 2), seed=11)
        y = T.concat_channels(a, b)
        assert y.shape == (1, 5, 2, 2)
        np.testing.assert_array_equal(y.data[:, :2], a.data)
        np.testing.assert_array_equal(y.data[:, 2:], b.data)

    @pytest.mark.parametrize("b_shape", [(1, 3, 2, 3), (2, 3, 2, 2), (1, 3, 2)])
    def test_concat_channels_shape_errors(self, b_shape):
        with pytest.raises(DimensionError):
            T.concat_channels(rand((1, 2, 2, 2)), rand(b_shape))


# ---------------------------------------------------------------------------
# bilinear upsample
# ---------------------------------------------------------------------------

class TestBilinearUpsample:
    def test_constant_maps_to_constant(self):
        y = T.bilinear_upsample(Tensor(np.full((1, 2, 3, 3), 0.7)), 8, 5)
        np.testing.assert_allclose(y.data, 0.7, atol=1e-15)

    def test_degenerate_single_pixel(self):
        y = T.bilinear_upsample(Tensor(np.full((1, 1, 1, 1), 4.2)), 6, 6)
        np.testing.assert_allclose(y.data, 4.2)

    def test_2x2_to_4x4_hand_values(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        y = T.bilinear_upsample(x, 4, 4).data[0, 0]
        # corners keep the source values under half-pixel centers
        assert (y[0, 0], y[0, 3], y[3, 0], y[3, 3]) == (0.0, 1.0, 2.0, 3.0)
        # interior from src = (dst+0.5)/2 - 0.5: dst 1 -> 0.25, dst 2 -> 0.75
        assert y[1, 1] == pytest.approx(0.75)
        assert y[2, 2] == pytest.approx(2.25)
        assert y[1, 2] == pytest.approx(0.5 + 0.25 + 0.5)  # row mix 0.25, col mix 0.75

    def test_zero_target_extent_rejected(self):
        with pytest.raises(DimensionError):
            T.bilinear_upsample(rand((1, 1, 2, 2)), 0, 4)

    def test_downscale_rejected(self):
        with pytest.raises(DimensionError):
            T.bilinear_upsample(rand((1, 1, 4, 4)), 2, 4)


# ---------------------------------------------------------------------------
# backward / graph
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = parameter(RngState(1).uniform((3, 4)))
        backward(T.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = parameter(RngState(2).uniform((5,)))
        backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(parameter(np.ones((2, 2))))

    def test_topological_order_property(self):
        x = parameter(np.ones((2, 2)))
        y = T.mul(x, x)
        z = T.tsum(T.add(y, x))
        order = topo_order(z)
        pos = {id(t): i for i, t in enumerate(order)}
        for t in order:
            for p in t._parents:
                assert pos[id(p)] < pos[id(t)]

    def test_grad_accumulates_over_reuse(self):
        x = parameter(np.array([2.0]))
        backward(T.tsum(T.add(T.mul(x, x), x)))  # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_allclose(x.grad, [5.0])

    def test_nan_raises_with_op_name(self):
        # inf - inf from finite inputs: (1e200 * 1e200) + (1e200 * -1e200)
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as e:
            T.matmul(Tensor([[1e200, 1e200]]), Tensor([[1e200], [-1e200]]))
        assert "matmul" in str(e.value)


class TestFiniteCheck:
    def test_values_whose_squares_overflow_are_accepted(self):
        big = np.full((4, 8), 1e300)
        big[::2] *= -1.0                 # the sum of squares overflows to inf
        assert np.array_equal(Tensor(big).data, big)
        assert np.array_equal(T.mul(Tensor(big), Tensor(np.ones((4, 8)))).data, big)

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [1e300, np.nan, 1.0]],
                             ids=["nan", "inf", "-inf", "inf,-inf", "huge,nan"])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    def test_non_finite_result_names_its_op(self, bad, grad):
        parent = parameter(np.zeros(len(bad)))
        with (contextlib.nullcontext() if grad else no_grad()):
            with pytest.raises(NumericalError, match="op 'probe'"):
                T._result(np.array(bad), "probe", (parent,), None)
        with pytest.raises(NumericalError, match="op 'leaf'"):
            Tensor(np.array(bad))


class TestGraphConsumption:
    """``backward`` frees the graph as it walks it; leaves keep their grad."""

    def test_non_leaf_nodes_keep_no_grad_and_no_parents(self):
        x, w = parameter(RngState(1).uniform((2, 3))), parameter(RngState(2).uniform((3,)))
        loss = T.tsum(T.hsigmoid(T.mul(T.add(x, w), T.softmax(x))))
        order = topo_order(loss)
        inner = [t for t in order if t._parents]
        assert len(inner) == 5
        backward(loss)
        for t in inner:
            assert t.grad is None and t._parents == ()
        assert x.grad.shape == (2, 3) and w.grad.shape == (3,)

    def test_intermediate_arrays_freed_during_the_walk(self):
        x = parameter(RngState(3).uniform((4, 4), 0.5, 1.5))
        seen = []

        def probe(t):
            def bw(g):
                seen.append(mid_data())
                T._accum(t, g)

            return T._result(t.data.copy(), "probe", (t,), bw)

        mid = T.hsigmoid(probe(x))  # after ``del mid`` only its user, the mul node, holds it
        mid_data = weakref.ref(mid.data)
        loss = T.tsum(T.mul(mid, 2.0))
        del mid
        assert mid_data() is not None
        backward(loss)
        # the users of ``mid`` were consumed before the bottom op ran
        assert seen == [None] and mid_data() is None
        np.testing.assert_array_equal(x.grad, np.full((4, 4), 2.0 / 6.0))

    def test_second_backward_of_the_same_loss_raises(self):
        x = parameter(np.array([1.0, 2.0]))
        loss = T.tsum(T.mul(x, x))
        backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_graph_on_top_of_a_consumed_node_raises_before_any_grad(self):
        x, w = parameter(np.array([1.0, 2.0])), parameter(np.array([3.0]))
        h = T.mul(x, x)
        backward(T.tsum(h))
        x_grad = x.grad.copy()
        with pytest.raises(ContractError, match="consumed"):
            backward(T.tsum(T.mul(h, w)))
        np.testing.assert_array_equal(x.grad, x_grad)
        assert w.grad is None
        # leaves are never consumed: a new forward from them walks again
        x.zero_grad()
        backward(T.tsum(T.mul(x, w)))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_accum_stores_an_owned_array_and_copies_otherwise(self):
        owned, shared = np.ones(3), np.ones(3)
        a, b = parameter(np.zeros(3)), parameter(np.zeros(3))
        T._accum(a, owned, own=True)
        T._accum(b, shared)
        assert a.grad is owned and b.grad is not shared
        T._accum(a, shared)
        np.testing.assert_array_equal(owned, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(shared, [1.0, 1.0, 1.0])


def _fan_out(case):
    """(loss, leaves, expected leaf grads) for an op that hands on its gradient."""
    rng = RngState(11)
    w = rng.uniform((2, 5, 3, 3), -1, 1)
    a = parameter(rng.uniform((2, 5, 3, 3)))
    if case == "add-self":
        return T.tsum(T.mul(T.add(a, a), Tensor(w))), [a], [2 * w]
    if case == "concat":
        a, b = parameter(rng.uniform((2, 2, 3, 3))), parameter(rng.uniform((2, 3, 3, 3)))
        loss = T.tsum(T.mul(T.concat_channels(a, b), Tensor(w)))
        return loss, [a, b], [w[:, :2], w[:, 2:]]
    if case == "reshape":
        flat = parameter(rng.uniform((90,)))
        y = T.add(T.reshape(flat, (2, 5, 3, 3)), a)
        return T.tsum(T.mul(y, Tensor(w))), [flat, a], [w.reshape(-1), w]
    if case == "broadcast_add":
        g = parameter(rng.uniform((2, 5, 1, 1)))
        y = T.add(T.broadcast_add(a, g), a)
        return (T.tsum(T.mul(y, Tensor(w))), [a, g],
                [2 * w, w.sum(axis=(2, 3), keepdims=True)])
    b = parameter(rng.uniform((2, 5, 3, 3)))
    return T.tsum(T.mul(T.add(a, b), Tensor(w))), [a, b], [w, w]


@pytest.mark.parametrize("case", ["add-self", "add", "broadcast_add", "reshape", "concat"])
def test_fan_out_leaf_grads_are_correct_and_not_aliased(case):
    loss, leaves, want = _fan_out(case)
    backward(loss)
    for leaf, expected in zip(leaves, want):
        np.testing.assert_allclose(leaf.grad, expected, rtol=1e-15, atol=0)
        assert leaf.grad.flags.writeable
    for i, p in enumerate(leaves):
        for q in leaves[i + 1:]:
            assert p.grad is not q.grad and not np.may_share_memory(p.grad, q.grad)
            before = q.grad.copy()
            p.grad += 1.0
            np.testing.assert_array_equal(q.grad, before)


# ---------------------------------------------------------------------------
# grad_check on every differentiable op
# ---------------------------------------------------------------------------

def _scalarize(y):
    return T.tsum(T.mul(y, y))


class TestGradCheckSuite:
    def test_sum_is_exact(self):
        r = grad_check(T.tsum, rand((7,), seed=20))
        assert r.max_rel_err < 1e-10

    def test_hsigmoid_away_from_kinks(self):
        x = Tensor(np.array([-2.5, -0.4, 0.0, 1.1, 2.9, 3.5, -4.0]))
        r = grad_check(lambda t: T.tsum(T.hsigmoid(t)), x)
        assert r.passed, r.failures

    @pytest.mark.parametrize("name,fn,shape", [
        ("relu", lambda t: _scalarize(C.relu(t)), (9,)),
        ("sigmoid", lambda t: _scalarize(C.sigmoid(t)), (9,)),
        ("softplus", lambda t: _scalarize(C.softplus(t)), (9,)),
        ("log", lambda t: _scalarize(C.tlog(T.add(T.mul(t, t), 0.5))), (9,)),
        ("sqrt", lambda t: _scalarize(C.tsqrt(T.add(T.mul(t, t), 0.5))), (9,)),
        ("clamp", lambda t: _scalarize(C.clamp(t, -0.5, 0.5)), (9,)),
        ("softmax", lambda t: _scalarize(T.softmax(t.reshape((3, 3)), axis=-1)), (9,)),
        ("mean", lambda t: _scalarize(T.tmean(t, axis=0)), (6,)),
        ("div", lambda t: _scalarize(C.div(t, T.add(T.mul(t, t), 2.0))), (6,)),
        ("l2norm", lambda t: _scalarize(C.l2_normalize(t.reshape((1, 3, 2, 1)), axis=1)), (6,)),
        ("upsample", lambda t: _scalarize(T.bilinear_upsample(t.reshape((1, 1, 2, 3)), 5, 7)), (6,)),
        ("transpose", lambda t: _scalarize(T.transpose(t.reshape((2, 3)), (1, 0))), (6,)),
        ("concat", lambda t: _scalarize(T.concat_channels(t.reshape((1, 2, 1, 3)),
                                                          t.reshape((1, 2, 1, 3)))), (6,)),
        ("broadcast_add", lambda t: _scalarize(
            T.broadcast_add(t.reshape((1, 2, 1, 3)),
                            Tensor(np.array([0.3, 0.7]).reshape(1, 2, 1, 1)))), (6,)),
    ])
    def test_op_gradients(self, name, fn, shape):
        # avoid relu/clamp kinks by nudging coordinates off the breakpoints
        x = rand(shape, seed=hash(name) % 1000, lo=-0.9, hi=0.9)
        x = Tensor(x.data + 0.013)
        r = grad_check(fn, x)
        assert r.passed, (name, r.max_rel_err, r.failures[:3])

    def test_pointwise_linear_param_grads(self):
        rng = RngState(33)
        x = Tensor(rng.uniform((2, 3, 2, 2)))
        w = parameter(rng.uniform((4, 3), -0.5, 0.5))
        b = parameter(np.zeros(4))
        r = grad_check(lambda t: _scalarize(T.pointwise_linear(t, w, b)), x)
        assert r.passed
        rw = grad_check(lambda t: _scalarize(
            T.pointwise_linear(x, t, b)), Tensor(w.data))
        assert rw.passed

    def test_conv2d_gradients(self):
        rng = RngState(34)
        x = Tensor(rng.uniform((1, 2, 6, 6)))
        w = parameter(rng.uniform((3, 2, 3, 3), -0.5, 0.5))
        b = parameter(np.zeros(3))
        r = grad_check(lambda t: _scalarize(T.conv2d(t, w, b, stride=2, padding=1)), x)
        assert r.passed, r.max_rel_err

    def test_max_pool_gradient_without_ties(self):
        rng = RngState(35)
        x = Tensor(rng.uniform((2, 3, 3, 3)))  # continuous draws: ties have measure zero
        r = grad_check(lambda t: _scalarize(T.global_max_pool(t)), x)
        assert r.passed

    def test_matmul_gradients(self):
        rng = RngState(36)
        a = Tensor(rng.uniform((2, 3, 4)))
        r = grad_check(lambda t: _scalarize(T.matmul(t, T.transpose(t, (0, 2, 1)))), a)
        assert r.passed


# ---------------------------------------------------------------------------
# kernels against einsum references
# ---------------------------------------------------------------------------

def _ref_pointwise_linear(x, w, b, g):
    """Forward and (dx, dw, db) of a 1x1 conv written as plain einsums."""
    out = np.einsum("oc,bchw->bohw", w, x) + b[None, :, None, None]
    return out, (np.einsum("oc,bohw->bchw", w, g), np.einsum("bohw,bchw->oc", g, x),
                 g.sum(axis=(0, 2, 3)))


def _ref_conv2d(x, w, b, g, stride, padding):
    """Forward and (dx, dw, db) over explicit sliding windows."""
    K = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (K, K), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    Ho, Wo = win.shape[2], win.shape[3]
    out = np.einsum("bchwkl,ockl->bohw", win, w) + b[None, :, None, None]
    gxp = np.zeros_like(xp)
    for ki in range(K):
        for kj in range(K):
            gxp[:, :, ki:ki + stride * Ho:stride, kj:kj + stride * Wo:stride] += \
                np.einsum("bohw,oc->bchw", g, w[:, :, ki, kj])
    gx = gxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return out, (gx, np.einsum("bohw,bchwkl->ockl", g, win), g.sum(axis=(0, 2, 3)))


def _ref_bilinear(x, H, W, g):
    my, mx = T._interp_matrix(H, x.shape[2]), T._interp_matrix(W, x.shape[3])
    out = np.einsum("Ww,bcHw->bcHW", mx, np.einsum("Hh,bchw->bcHw", my, x))
    return out, (np.einsum("Hh,bcHw->bchw", my, np.einsum("Ww,bcHW->bcHw", mx, g)),)


def _ref_upsample_merge(x, w, b, skip, g):
    """Forward and (dx, dw, db, dskip) of the resize, channel map and add."""
    H, W = skip.shape[2:]
    up = _ref_bilinear(x, H, W, np.zeros(x.shape[:2] + (H, W)))[0]
    out, (gup, gw, gb) = _ref_pointwise_linear(up, w, b, g)
    return out + skip, (_ref_bilinear(x, H, W, gup)[1][0], gw, gb, g)


def _at_least_two(shape):
    """``shape`` with a batch of two or more, so that per-sample blocks are several."""
    return (max(2, shape[0]),) + tuple(shape[1:])


def _run_kernel(op, arrays):
    """Forward of ``op`` on parameter leaves, then backward of sum(out * g)."""
    leaves = [parameter(a) for a in arrays]
    out = op(*leaves)
    g = RngState(99).uniform(out.shape, -1, 1)
    backward(T.tsum(T.mul(out, Tensor(g))))
    return out.data, g, [t.grad for t in leaves]


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestKernelsMatchEinsumReference:
    @pytest.mark.parametrize("shape", [(3, 5, 7, 4), (2, 4, 1, 1), (1, 3, 5, 5)])
    def test_pointwise_linear(self, shape):
        rng = RngState(50)
        x = rng.uniform(shape, -1, 1)
        w, b = rng.uniform((6, shape[1]), -1, 1), rng.uniform((6,), -1, 1)
        out, g, grads = _run_kernel(T.pointwise_linear, (x, w, b))
        ref_out, ref_grads = _ref_pointwise_linear(x, w, b, g)
        _assert_close(out, ref_out)
        for got, want in zip(grads, ref_grads):
            _assert_close(got, want)

    CONV_SHAPES = [((3, 2, 7, 5), 3), ((1, 3, 6, 6), 3), ((2, 3, 5, 8), 2)]
    # (x shape, skip shape) of upsample_merge, like TestUpsampleMerge.SHAPES
    MERGE_SHAPES = [((2, 3, 4, 5), (2, 4, 8, 10)), ((1, 2, 3, 3), (1, 3, 7, 5)),
                    ((3, 3, 4, 4), (3, 2, 4, 4))]

    @staticmethod
    def check_conv2d(stride, padding, shape, K):
        rng = RngState(51)
        x = rng.uniform(shape, -1, 1)
        w, b = rng.uniform((4, shape[1], K, K), -1, 1), rng.uniform((4,), -1, 1)
        out, g, grads = _run_kernel(
            lambda *t: T.conv2d(*t, stride=stride, padding=padding), (x, w, b))
        ref_out, ref_grads = _ref_conv2d(x, w, b, g, stride, padding)
        _assert_close(out, ref_out)
        for got, want in zip(grads, ref_grads):
            _assert_close(got, want)

    @staticmethod
    def check_upsample_merge(x_shape, skip_shape):
        rng = RngState(53)
        arrays = (rng.uniform(x_shape, -1, 1), rng.uniform((skip_shape[1], x_shape[1]), -1, 1),
                  rng.uniform((skip_shape[1],), -1, 1), rng.uniform(skip_shape, -1, 1))
        out, g, grads = _run_kernel(T.upsample_merge, arrays)
        ref_out, ref_grads = _ref_upsample_merge(*arrays, g)
        _assert_close(out, ref_out)
        for got, want in zip(grads, ref_grads):
            _assert_close(got, want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("shape,K", CONV_SHAPES)
    def test_conv2d(self, stride, padding, shape, K):
        self.check_conv2d(stride, padding, shape, K)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("shape,K", CONV_SHAPES)
    def test_conv2d_per_sample_blocks(self, per_sample_blocks, stride, padding, shape, K):
        self.check_conv2d(stride, padding, _at_least_two(shape), K)

    @pytest.mark.parametrize("x_shape,skip_shape", MERGE_SHAPES)
    def test_upsample_merge(self, x_shape, skip_shape):
        self.check_upsample_merge(x_shape, skip_shape)

    @pytest.mark.parametrize("x_shape,skip_shape", MERGE_SHAPES)
    def test_upsample_merge_per_sample_blocks(self, per_sample_blocks, x_shape, skip_shape):
        self.check_upsample_merge(_at_least_two(x_shape), _at_least_two(skip_shape))

    @pytest.mark.parametrize("shape,H,W", [((3, 2, 3, 5), 7, 11), ((1, 1, 1, 1), 4, 3),
                                           ((2, 3, 4, 4), 4, 9)])
    def test_bilinear_upsample(self, shape, H, W):
        x = RngState(52).uniform(shape, -1, 1)
        out, g, grads = _run_kernel(lambda t: T.bilinear_upsample(t, H, W), (x,))
        ref_out, ref_grads = _ref_bilinear(x, H, W, g)
        _assert_close(out, ref_out)
        _assert_close(grads[0], ref_grads[0])

    def test_interp_matrices_are_cached_read_only(self):
        m = T._interp_matrix(9, 4)
        assert m is T._interp_matrix(9, 4)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def _padded_im2col(x, K, stride, padding, Ho, Wo):
    """The patch matrix read from a zero-padded copy of ``x``."""
    B, C = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((C, K, K, B, Ho, Wo))
    for ki in range(K):
        for kj in range(K):
            cols[:, ki, kj] = xp[:, :, ki:ki + stride * Ho:stride,
                                 kj:kj + stride * Wo:stride].transpose(1, 0, 2, 3)
    return cols.reshape(C * K * K, B * Ho * Wo)


def _padded_input_grad(gcols, shape, K, stride, padding):
    """The taps of ``gcols`` added in (ki, kj) order into a padded buffer, cropped."""
    B, C, H, W = shape
    Ho, Wo = gcols.shape[-2:]
    gxp = np.zeros((C, B, H + 2 * padding, W + 2 * padding))
    for ki in range(K):
        for kj in range(K):
            gxp[:, :, ki:ki + stride * Ho:stride, kj:kj + stride * Wo:stride] += \
                gcols[:, ki, kj]
    return np.ascontiguousarray(
        gxp[:, :, padding:padding + H, padding:padding + W].transpose(1, 0, 2, 3))


# strides 1-3, paddings 0-2, odd and even extents, and taps wholly in the padding
CONV_CASES = [(stride, padding, shape, K)
              for stride in (1, 2, 3) for padding in (0, 1, 2)
              for shape, K in (((2, 3, 7, 6), 3), ((1, 2, 8, 5), 3), ((2, 2, 6, 7), 2),
                               ((1, 3, 3, 4), 1), ((1, 1, 2, 2), 3))
              if min(shape[2:]) + 2 * padding >= K]


class TestConvWithoutPaddedCopy:
    """The patch matrix and the input gradient equal the padded-buffer forms to the byte."""

    @pytest.mark.parametrize("stride,padding,shape,K", CONV_CASES)
    def test_matches_padded_reference(self, stride, padding, shape, K):
        self.check_padded_reference(stride, padding, shape, K)

    @pytest.mark.parametrize("stride,padding,shape,K", CONV_CASES)
    def test_matches_padded_reference_per_sample_blocks(self, per_sample_blocks, stride,
                                                        padding, shape, K):
        self.check_padded_reference(stride, padding, _at_least_two(shape), K)

    @staticmethod
    def check_padded_reference(stride, padding, shape, K):
        B, C, H, W = shape
        Ho = (H + 2 * padding - K) // stride + 1
        Wo = (W + 2 * padding - K) // stride + 1
        rng = RngState(55)
        x = rng.uniform(shape, -1, 1)
        w = rng.uniform((4, C, K, K), -1, 1)
        cols = T._im2col(x, K, stride, padding, Ho, Wo)
        assert cols.tobytes() == _padded_im2col(x, K, stride, padding, Ho, Wo).tobytes()

        out, g, grads = _run_kernel(
            lambda *t: T.conv2d(*t, stride=stride, padding=padding),
            (x, w, np.zeros(4)))
        gm = T._channel_major(g)
        gcols = (w.reshape(4, -1).T @ gm).reshape(C, K, K, B, Ho, Wo)
        want = _padded_input_grad(gcols, shape, K, stride, padding)
        assert grads[0].tobytes() == want.tobytes()


    def test_conv_over_conv_gradient_equals_conv_mul_conv_to_the_byte(self):
        # a conv2d parent and any other parent (here a mul between the two)
        # receive the same input gradient
        rng = RngState(68)
        arrays = (rng.uniform((2, 3, 9, 8), -1, 1), rng.uniform((4, 3, 3, 3), -1, 1),
                  rng.uniform((4,), -1, 1), rng.uniform((5, 4, 3, 3), -1, 1), np.zeros(5))
        runs = []
        for between in (lambda t: t, lambda t: T.mul(t, 1.0)):
            leaves = [parameter(a) for a in arrays]
            low = _conv_layer(*leaves[:3], relu=True)
            backward(T.tsum(T.mul(_conv_layer(between(low), *leaves[3:]), 0.5)))
            runs.append([t.grad.tobytes() for t in leaves])
        assert runs[0] == runs[1]

    def test_blocked_backward_peaks_below_one_batch_patch_matrix(self, monkeypatch):
        B, C, H, W, K = 4, 8, 16, 16, 3
        patch_bytes = 8 * C * K * K * B * H * W  # stride 1, padding 1: Ho, Wo = H, W
        rng = RngState(72)
        arrays = (rng.uniform((B, C, H, W), -1, 1), rng.uniform((2, C, K, K), -1, 1),
                  np.zeros(2))

        def backward_peak():
            leaves = [parameter(a) for a in arrays]
            loss = T.tsum(T.mul(T.conv2d(*leaves, stride=1, padding=1), 0.5))
            tracemalloc.start()
            try:
                backward(loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one block: the whole batch's patch matrix is rebuilt, so the probe sees it
        assert backward_peak() >= patch_bytes
        monkeypatch.setattr(T, "BLOCK_BYTES", 1)
        assert backward_peak() < patch_bytes


def _conv_layer(*t, relu=False):
    return T.conv2d(*t, stride=2, padding=1, relu=relu)


class TestFusedRelu:
    @pytest.mark.parametrize("layer,w_shape", [(_conv_layer, (4, 3, 3, 3)),
                                               (T.pointwise_linear, (4, 3))],
                             ids=["conv2d", "pointwise_linear"])
    def test_equals_the_two_node_chain_to_the_byte(self, layer, w_shape):
        rng = RngState(56)
        arrays = (rng.uniform((2, 3, 7, 6), -1, 1), rng.uniform(w_shape, -1, 1),
                  rng.uniform((4,), -0.5, 0.5))
        runs = []
        for fused in (False, True):
            leaves = [parameter(a.copy()) for a in arrays]
            FLOPS.reset()
            with FLOPS.scope("layer"):
                out = layer(*leaves, relu=True) if fused else C.relu(layer(*leaves))
            flops = FLOPS.report()
            nodes = len(topo_order(out))
            # a gradient of both signs, so masked entries include -0.0
            g = RngState(57).uniform(out.shape, -1, 1)
            backward(T.tsum(T.mul(out, Tensor(g))))
            runs.append((out.data.tobytes(), flops, [t.grad.tobytes() for t in leaves],
                         nodes))
        assert runs[0][:3] == runs[1][:3]
        assert runs[1][3] == runs[0][3] - 1
        assert (np.frombuffer(runs[1][0]) == 0.0).any()

    def test_negative_overflow_raises_before_the_relu(self):
        # a -inf pre-activation would read as 0 after the ReLU
        x = Tensor(np.full((1, 1, 1, 1), 1e308))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="'pointwise_linear'"):
            T.pointwise_linear(x, Tensor(np.array([[-10.0]])), Tensor(np.zeros(1)), relu=True)

    def test_node_is_freed_without_the_cycle_collector(self):
        # a closure that held its own node would keep node and activation alive
        leaves = [parameter(a) for a in (RngState(58).uniform((1, 2, 5, 5), -1, 1),
                                         RngState(59).uniform((3, 2, 3, 3), -1, 1),
                                         np.zeros(3))]
        gc.disable()
        try:
            out = _conv_layer(*leaves, relu=True)
            activation = weakref.ref(out.data)
            del out
            assert activation() is None
        finally:
            gc.enable()

    def test_activation_is_freed_before_the_op_backward(self, monkeypatch):
        # once the mask is read, nothing holds an activation whose node is gone
        seen = []
        real = T._im2col
        leaves = [parameter(a) for a in (RngState(69).uniform((1, 2, 5, 5), -1, 1),
                                         RngState(70).uniform((3, 2, 3, 3), -1, 1),
                                         np.zeros(3))]
        gc.disable()
        try:
            out = _conv_layer(*leaves, relu=True)
            activation = weakref.ref(out.data)
            loss = T.tsum(T.mul(out, 2.0))
            del out
            monkeypatch.setattr(T, "_im2col",
                                lambda *a: (seen.append(activation()), real(*a))[1])
            backward(loss)
        finally:
            gc.enable()
        assert seen == [None]  # the weight gradient's rebuilt patch matrix

    def test_default_model_step_has_no_relu_node(self):
        ops = _default_model_step_ops()
        assert "relu" not in ops
        # the stem, a conv and a mix per visual stage, audio fc1, three decoder fuses
        assert sum(op.endswith("_relu") for op in ops) == 13


def _default_model_step_ops() -> list:
    """The op of every node in one default-model training step's loss graph."""
    from lightavseg.harness import TrainConfig
    from lightavseg.model import SegModel
    model = SegModel(TrainConfig().model_config(), RngState(0))
    rng = RngState(60)
    seg, _ = model.forward(Tensor(rng.uniform((2, 3, 64, 64), 0, 1)),
                           Tensor(rng.uniform((2, 96, 64), -20, 0)))
    y = Tensor((rng.uniform((2, 1, 64, 64), 0, 1) > 0.7).astype(np.float64))
    rep = total_loss(seg.logits, seg.per_stage_features, seg.audio_states, y,
                     lam=0.5, tau=0.1)
    return [t.op for t in topo_order(rep.loss)]


def test_gradient_suite_checks_every_op_of_a_default_model_step(monkeypatch):
    # record the op of every node op_checks() builds, its gradient probes' nodes too;
    # ``losses`` imports ``_result`` by name, so the constructor is the one hook
    checked = set()
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        checked.add(kwargs.get("op", "leaf"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    gradsuite.op_checks()
    monkeypatch.undo()
    run = set(_default_model_step_ops()) - {"leaf", "parameter"}
    assert sorted(run - checked) == []


class _Tracked(np.ndarray):
    """An array subclass that notes the size of, and a weak reference to, every array made from it."""

    made: list = []

    def __array_finalize__(self, obj):
        _Tracked.made.append((self.size, weakref.ref(self)))


class TestUpsampleMerge:
    # (x shape, skip shape): x2 as in the decoder, uneven ratios, and no resize
    SHAPES = [((2, 3, 4, 5), (2, 4, 8, 10)), ((1, 2, 3, 3), (1, 3, 7, 5)),
              ((2, 3, 4, 4), (2, 2, 4, 4))]

    @pytest.mark.parametrize("x_shape,skip_shape", SHAPES)
    def test_equals_the_three_node_chain_to_the_byte(self, x_shape, skip_shape):
        rng = RngState(61)
        arrays = (rng.uniform(x_shape, -1, 1),
                  rng.uniform((skip_shape[1], x_shape[1]), -1, 1),
                  rng.uniform((skip_shape[1],), -0.5, 0.5), rng.uniform(skip_shape, -1, 1))
        g_out, g_skip, g_x = (RngState(62).uniform(skip_shape, -1, 1),
                              RngState(63).uniform(skip_shape, -1, 1),
                              RngState(64).uniform(x_shape, -1, 1))
        runs = []
        for merge in (C.merge_chain, T.upsample_merge):
            leaves = [parameter(a.copy()) for a in arrays]
            # x and skip are graph nodes that a second consumer also reads, as
            # the decoder's injected features are read again by the alignment loss
            x, skip = T.mul(leaves[0], 1.5), T.mul(leaves[3], 0.5)
            FLOPS.reset()
            with FLOPS.scope("merge"):
                out = merge(x, leaves[1], leaves[2], skip)
            flops = FLOPS.report()
            nodes = len(topo_order(out))
            loss = T.tsum(T.mul(out, Tensor(g_out)))
            for t, g in ((skip, g_skip), (x, g_x)):
                loss = T.add(loss, T.tsum(T.mul(t, Tensor(g))))
            backward(loss)
            runs.append((out.data.tobytes(), flops, [t.grad.tobytes() for t in leaves],
                         nodes))
        assert runs[0][:3] == runs[1][:3]
        assert runs[1][3] == runs[0][3] - 2

    def test_gradients_are_owned_and_not_aliased(self):
        rng = RngState(71)
        leaves = [parameter(rng.uniform(s, -1, 1)) for s in ((2, 3, 4, 4), (2, 3), (2,),
                                                             (2, 2, 8, 8))]
        backward(T.tsum(T.upsample_merge(*leaves)))
        np.testing.assert_array_equal(leaves[3].grad, 1.0)
        for i, p in enumerate(leaves):
            assert p.grad.flags.writeable
            for q in leaves[i + 1:]:
                assert not np.may_share_memory(p.grad, q.grad)

    def test_shapes_are_checked(self):
        x, w, b = rand((1, 3, 4, 4)), rand((2, 3)), rand((2,))
        for args in ((x, w, b, rand((1, 3, 8, 8))),    # skip width is not the map's
                     (x, w, b, rand((2, 2, 8, 8))),    # batch differs
                     (x, w, b, rand((1, 2, 2, 8))),    # a downscale
                     (x, rand((2, 4)), b, rand((1, 2, 8, 8))),
                     (x, w, rand((3,)), rand((1, 2, 8, 8)))):
            with pytest.raises(DimensionError):
                T.upsample_merge(*args)

    def test_no_upsampled_map_outlives_forward_or_backward(self):
        # arrays computed from x's data are _Tracked, the upsampled map among them
        leaves = [parameter(a) for a in (RngState(65).uniform((2, 3, 4, 5), -1, 1),
                                         RngState(66).uniform((4, 3), -1, 1), np.zeros(4),
                                         RngState(67).uniform((2, 4, 8, 10), -1, 1))]
        leaves[0].data = leaves[0].data.view(_Tracked)
        map_size = 2 * 3 * 8 * 10

        def maps_made(step):
            _Tracked.made.clear()
            step()
            maps = [ref for size, ref in _Tracked.made if size == map_size]
            assert maps and all(ref() is None for ref in maps)

        gc.disable()
        try:
            out = []
            maps_made(lambda: out.append(T.upsample_merge(*leaves)))
            output = weakref.ref(out[0].data)
            maps_made(lambda: backward(T.tsum(out.pop())))
            assert output() is None
        finally:
            gc.enable()

    def test_default_model_step_merges_in_three_nodes(self):
        ops = _default_model_step_ops()
        assert ops.count("upsample_merge") == 3
        assert ops.count("bilinear_upsample") == 1  # the logits resize only
        assert len(ops) == 170


# FLOPS.report() of one tiny-model forward, recorded from the einsum kernels:
# counts are written explicitly by each op, so they must not follow the kernel
TINY_FORWARD_FLOPS = {
    "audio_embed": {"elems": 6232, "madds": 576},
    "decoder_fusion": {"elems": 366, "madds": 671},
    "encoder_fusion": {"elems": 844, "madds": 376},
    "fusion.interaction": {"elems": 956, "madds": 0},
    "fusion.state": {"elems": 232, "madds": 923},
    "seg_head": {"elems": 6656, "madds": 2184},
    "total": {"elems": 17102, "madds": 37410},
    "visual_backbone": {"elems": 3004, "madds": 33603},
}


class TestTinyModelReplay:
    def test_flops_unchanged_and_seeded_steps_bit_identical(self):
        runs = []
        for _ in range(2):
            model = gradsuite.tiny_model(0)
            rng = RngState(100)
            frames = Tensor(rng.uniform((2, 3, 32, 32), 0.05, 0.95))
            mel = Tensor(rng.uniform((2, 96, 64), -20.0, 0.0))
            y = Tensor((rng.uniform((2, 1, 32, 32), 0, 1) > 0.7).astype(np.float64))
            FLOPS.reset()
            seg, _ = model.forward(Tensor(frames.data[:1]), Tensor(mel.data[:1]))
            flops = FLOPS.report()
            step_losses = []
            for _step in range(2):
                seg, _ = model.forward(frames, mel)
                rep = total_loss(seg.logits, seg.per_stage_features, seg.audio_states,
                                 y, lam=0.5, tau=0.1)
                backward(rep.loss)
                step_losses.append(rep.total)
                for p in model.params.values():
                    p.data -= 0.01 * p.grad
                    p.zero_grad()
            runs.append((flops, step_losses))
        assert runs[0][0] == TINY_FORWARD_FLOPS
        assert runs[0][1] == runs[1][1]
        assert runs[0][1][0] != runs[0][1][1]


# ---------------------------------------------------------------------------
# FLOP counter behaviour
# ---------------------------------------------------------------------------

class TestFlopCounter:
    def test_additive_and_order_independent(self):
        def run(order):
            FLOPS.reset()
            ops = {
                "a": lambda: T.pointwise_linear(rand((1, 2, 3, 3)), Tensor(np.zeros((4, 2))),
                                                Tensor(np.zeros(4))),
                "b": lambda: T.global_max_pool(rand((1, 2, 5, 5))),
            }
            with FLOPS.scope("s"):
                for k in order:
                    ops[k]()
            return FLOPS.madds("s"), FLOPS.elems("s")

        assert run("ab") == run("ba")

    def test_scopes_accumulate_independently(self):
        FLOPS.reset()
        with FLOPS.scope("outer"):
            with FLOPS.scope("inner"):
                T.pointwise_linear(rand((1, 2, 2, 2)), Tensor(np.zeros((2, 2))),
                                   Tensor(np.zeros(2)))
        assert FLOPS.madds("outer") == FLOPS.madds("inner") == 2 * 2 * 2 * 2
        assert FLOPS.madds() == FLOPS.madds("outer")

    def test_scope_cannot_open_inside_itself(self):
        c = T.FlopCounter()
        with c.scope("a"):
            for name in ("a", c.TOTAL):
                with pytest.raises(ContractError, match="already open"):
                    with c.scope(name):
                        pass
            c.add(elems=10)              # the outer "a" is still open, once
            with c.scope("b"):
                c.add(madds=100)
        c.add(elems=1000)
        assert c.report() == {"a": {"madds": 100, "elems": 10},
                              "b": {"madds": 100, "elems": 0},
                              "total": {"madds": 100, "elems": 1010}}

    def test_scope_closes_and_keeps_its_time_when_the_body_raises(self):
        c = T.FlopCounter()
        with pytest.raises(NumericalError):
            with c.scope("a") as counter:
                assert counter is c
                time.sleep(0.002)
                raise NumericalError("body failed")
        assert c.seconds("a") >= 0.002
        with c.scope("a"):              # closed again, so it can reopen
            c.add(elems=3)
        assert c.elems("a") == 3 and c.elems() == 3

    def test_section_wall_time_lands_in_seconds_and_reset_clears_it(self):
        FLOPS.reset()
        t0 = time.perf_counter()
        for _ in range(2):
            with T.section("seg_head"):
                time.sleep(0.002)
        outer = time.perf_counter() - t0
        assert 0.004 <= FLOPS.seconds("seg_head") <= outer
        assert FLOPS.seconds("decoder_fusion") == 0.0
        FLOPS.reset()
        assert FLOPS.seconds("seg_head") == 0.0

    def test_reset_clears_all(self):
        with FLOPS.scope("x"):
            T.hsigmoid(rand((4,)))
        FLOPS.reset()
        assert FLOPS.ops() == 0 and FLOPS.ops("x") == 0

    def test_matmul_counts_two_per_mac(self):
        FLOPS.reset()
        with FLOPS.scope("mm"):
            T.matmul(rand((2, 3, 4)), rand((2, 4, 5), seed=1))
        assert FLOPS.madds("mm") == 2 * 2 * 3 * 5 * 4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestGradCheckNegativeControl:
    def test_wrong_gradient_fails_both_probe_steps(self):
        # the two-step fallback must not mask a genuinely wrong backward rule
        def bad_square(t):
            out = t.data * t.data

            def bw(g):
                T._accum(t, g * 1.9 * t.data)  # wrong factor: should be 2x

            return T._result(out, "bad_square", (t,), bw)

        x = rand((6,), seed=77, lo=0.5, hi=1.5)
        r = grad_check(lambda t: T.tsum(bad_square(t)), x)
        assert not r.passed
        assert len(r.failures) == 6

    def test_each_evaluation_moves_one_coordinate_by_h(self):
        # tol=0 fails every coordinate, so each one is probed at both steps
        x = rand((4, 9), seed=78, lo=-3.0, hi=3.0)
        x0 = x.data.copy()
        seen = []

        def f(t):
            seen.append(t.data.copy())
            return T.tsum(T.mul(t, t))

        grad_check(f, x, tol=0.0)
        np.testing.assert_array_equal(x.data, x0)
        np.testing.assert_array_equal(seen[0], x0)  # the analytic pass
        probes = seen[1:]
        assert len(probes) == 4 * x0.size
        for k, arr in enumerate(probes):
            (i,) = np.flatnonzero(arr != x0)
            assert i == k // 4
            xi = x0.flat[i]
            h = (1e-3, 1e-4)[k % 4 // 2] * max(1.0, abs(xi))
            assert arr.flat[i] == (xi + h if k % 2 == 0 else xi - h)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = RngState(123).uniform((64,), -1, 1)
        b = RngState(123).uniform((64,), -1, 1)
        np.testing.assert_array_equal(a, b)

    def test_cross_process_bit_identical(self):
        import subprocess
        import sys
        code = ("from lightavseg.tensor import RngState; import hashlib; "
                "r = RngState(123); "
                "d = r.uniform((64,), -1, 1).tobytes() + r.normal((64,)).tobytes(); "
                "print(hashlib.sha256(d).hexdigest())")
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1] and len(runs[0].strip()) == 64

    def test_call_sequence_matters_but_is_reproducible(self):
        r1 = RngState(5)
        seq1 = [r1.uniform((3,)), r1.normal((3,))]
        r2 = RngState(5)
        seq2 = [r2.uniform((3,)), r2.normal((3,))]
        for x, y in zip(seq1, seq2):
            np.testing.assert_array_equal(x, y)
        assert r1.counter == r2.counter == 2

    def test_no_grad_blocks_graph(self):
        x = parameter(np.ones(3))
        with no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._backward is None


class TestArrayRecord:
    """``write_array``/``read_array`` on a plain file, the record checkpoints hold."""

    @staticmethod
    def write(path, arr):
        with open(path, "wb") as f:
            T.write_array(f, arr)

    @staticmethod
    def read(path):
        with open(path, "rb") as f:
            return T.read_array(f, "array")

    def test_round_trip(self, tmp_path):
        arr = RngState(1).uniform((2, 3, 4), -5, 5)
        self.write(tmp_path / "a.bin", arr)
        np.testing.assert_array_equal(self.read(tmp_path / "a.bin"), arr)

    def test_layout(self, tmp_path):
        self.write(tmp_path / "a.bin", np.array([[1.0, -2.5, 3.0]]))
        assert (tmp_path / "a.bin").read_bytes() == (
            struct.pack("<III", 2, 1, 3) + struct.pack("<3d", 1.0, -2.5, 3.0))

    def test_rank_above_four_is_refused_by_name(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(struct.pack("<71I", 70, *[1] * 70) + b"\0" * 8)
        with open(p, "rb") as f, pytest.raises(ContractError, match="rank 70 of 'w'"):
            T.read_array(f, "'w'")

    def test_corrupt_dims_fail_cleanly(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(struct.pack("<4I", 3, *[0xFFFFFFFF] * 3) + b"\0" * 16)
        with pytest.raises(ContractError, match="truncated data"):
            self.read(p)

    @settings(max_examples=60, deadline=None)
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, max_side=4),
                          elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_round_trip_is_bit_identical(self, tmp_path_factory, arr):
        p = tmp_path_factory.mktemp("record") / "a.bin"
        self.write(p, arr)
        back = self.read(p)
        assert back.shape == arr.shape and back.tobytes() == arr.tobytes()

    def test_truncated_at_every_offset(self, tmp_path):
        p = tmp_path / "a.bin"
        self.write(p, RngState(2).uniform((2, 3), -1, 1))
        full = p.read_bytes()
        for n in range(len(full)):
            p.write_bytes(full[:n])
            with pytest.raises(ContractError):
                self.read(p)
