"""Dense float64 tensors with reverse-mode autodiff and FLOP accounting.

Every tensor stores a contiguous row-major float64 array. Operations build an
eager computation graph (each result links to its parents and carries a
backward closure); ``backward`` walks the graph in reverse topological order
and consumes it as it goes: once a node's closure has run, the node drops its
gradient, its closure and its parent links, so intermediate gradients and the
activations only the graph holds are freed mid-walk. Leaves keep their grad.
A consumed graph cannot be walked again. A backward closure passes each
gradient to ``_accum``, which stores an array the op has just created as is
and copies anything that may be a view or may be handed to a second parent.
Non-finite values raise immediately, so NaN/Inf never propagate silently.

FLOP accounting convention (forward pass only):
  * ``madds``  -- multiply-accumulate counts. Channel maps (``pointwise_linear``)
    and convolutions record one madd per MAC. General ``matmul`` records two
    (multiply and add counted separately), the usual dense-attention bookkeeping.
  * ``elems``  -- one op per element for everything elementwise: additions,
    Hadamard products, activations, comparisons (max pooling), interpolation.
Counts accumulate into every named scope currently open via ``FLOPS.scope``.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class TensorError(Exception):
    """Base class for tensor-level failures."""


class DimensionError(TensorError):
    """Shapes do not satisfy an operation's contract."""


class ContractError(TensorError):
    """An operation precondition was violated."""


class NumericalError(TensorError):
    """A NaN or Inf appeared in an operation result."""


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of a binary file; a short read is a ContractError.

    At most the bytes left in the file are requested, so a corrupt length
    field never makes ``read`` allocate the size it names.
    """
    data = f.read(min(n, os.fstat(f.fileno()).st_size - f.tell()))
    if len(data) != n:
        name = getattr(f, "name", "input")
        raise ContractError(f"{name}: truncated {what} (wanted {n} bytes, got {len(data)})")
    return data


def write_array(f, arr: np.ndarray):
    """One array record: u32 rank, u32 dims, then the data as f64 little-endian."""
    arr = np.asarray(arr, dtype="<f8")
    f.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
    f.write(arr.tobytes())


def read_array(f, what: str) -> np.ndarray:
    """Read one ``write_array`` record; ``what`` names it in a truncation error."""
    (ndim,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {what}"))
    shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, f"shape of {what}"))
    data = _read_exact(f, 8 * math.prod(shape), f"data of {what}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


# ---------------------------------------------------------------------------
# FLOP counter
# ---------------------------------------------------------------------------

class FlopCounter:
    """Additive, resettable multiply-add / elementwise-op counter.

    Scopes are plain string labels opened with ``scope``; an op's cost is added
    to every open scope plus the grand total. Scope totals are order-independent
    and additive, so nested and repeated scopes simply accumulate.
    """

    TOTAL = "total"

    def __init__(self):
        self._stack: list[str] = []
        self._open: tuple[str, ...] = (self.TOTAL,)  # distinct open scopes and TOTAL
        self._madds: dict[str, int] = defaultdict(int)
        self._elems: dict[str, int] = defaultdict(int)

    @contextmanager
    def scope(self, name: str):
        self._stack.append(name)
        if name not in self._open:
            self._open += (name,)
        try:
            yield self
        finally:
            self._stack.pop()
            if name != self.TOTAL and name not in self._stack:
                self._open = tuple(n for n in self._open if n != name)

    def add(self, madds: int = 0, elems: int = 0):
        if madds:
            for n in self._open:
                self._madds[n] += madds
        if elems:
            for n in self._open:
                self._elems[n] += elems

    def madds(self, scope: str = TOTAL) -> int:
        return self._madds.get(scope, 0)

    def elems(self, scope: str = TOTAL) -> int:
        return self._elems.get(scope, 0)

    def ops(self, scope: str = TOTAL) -> int:
        """Combined count: madds plus elementwise ops."""
        return self.madds(scope) + self.elems(scope)

    def reset(self):
        self._madds.clear()
        self._elems.clear()

    def report(self) -> dict:
        scopes = sorted(set(self._madds) | set(self._elems))
        return {
            s: {"madds": self._madds.get(s, 0), "elems": self._elems.get(s, 0)}
            for s in scopes
        }


FLOPS = FlopCounter()


class ScopeTimer:
    """Wall-clock accumulator keyed by scope name (perf_counter based)."""

    def __init__(self):
        self._seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def scope(self, name: str):
        import time
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._seconds[name] += time.perf_counter() - t0

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def reset(self):
        self._seconds.clear()


TIMER = ScopeTimer()


@contextmanager
def section(name: str):
    """FLOP scope and wall-time scope under one name."""
    with FLOPS.scope(name), TIMER.scope(name):
        yield


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

@dataclass
class RngState:
    """Counter-based deterministic RNG.

    Each draw derives a fresh PCG64 stream from (seed, counter), so identical
    seed plus call sequence gives bit-identical values on every platform, and
    the state serializes as two integers.
    """

    seed: int
    counter: int = 0

    def _next(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.counter,))
        self.counter += 1
        return np.random.Generator(np.random.PCG64(ss))

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._next().uniform(low, high, size=shape)

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._next().standard_normal(size=shape) * std

    def integers(self, low: int, high: int, shape=None):
        return self._next().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._next().permutation(n)


def glorot_uniform(rng: RngState, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Symmetric uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(shape, -limit, limit)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------

_GRAD_ENABLED = [True]


@contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward evaluation)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Tensor:
    """N-dimensional float64 array with optional gradient slot.

    ``op`` names the producing operation and ``_parents`` link the computation
    graph; leaves have no parents and no backward closure, and only leaves keep
    ``grad`` after ``backward``, which consumes every other node it walks.
    All values are validated finite on creation.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 _parents=(), _backward=None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if 0 in arr.shape:
            raise DimensionError(f"tensor extents must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericalError(f"non-finite values in result of op '{op}'")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def reshape(self, shape):
        return reshape(self, shape)


def parameter(data) -> Tensor:
    """Leaf tensor participating in gradient computation."""
    return Tensor(data, requires_grad=True, op="parameter")


def _coerce(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(np.asarray(v, dtype=np.float64))


def _result(data, op: str, parents, backward) -> Tensor:
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op,
                      _parents=tuple(parents), _backward=backward)
    return Tensor(data, op=op)


def _accum(t: Tensor, g: np.ndarray, own: bool = False):
    """Add ``g`` into ``t.grad``.

    ``own=True`` hands over an array the op has just created and nothing else
    holds, which then becomes ``t.grad`` as is. Anything else (a view, the
    incoming gradient itself, an array also given to another parent) is copied
    before it is stored, because ``t.grad`` is accumulated in place.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Graph walking
# ---------------------------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the graph below ``root`` (inputs precede users)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if idx == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if idx < len(node._parents):
            stack.append((node, idx + 1))
            child = node._parents[idx]
            if id(child) not in visited:
                stack.append((child, 0))
        else:
            order.append(node)
    return order


def _consumed(g):
    """The backward closure of a node that an earlier ``backward`` consumed."""
    raise ContractError("backward through a graph that an earlier backward consumed; "
                        "run the forward again to build a new graph")


def backward(loss: Tensor):
    """Reverse-mode accumulation of d(loss)/d(leaf) into every leaf's grad.

    The walk consumes the graph: each non-leaf node is taken off the order list
    and, once its closure has run, keeps no grad, no parents and a closure that
    raises ContractError. A second backward through any consumed node (the same
    loss, or a new graph built on top of it) raises before any grad is written.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = topo_order(loss)
    if any(t._backward is _consumed for t in order):
        _consumed(None)
    loss.grad = np.ones_like(loss.data)
    while order:
        t = order.pop()
        bw = t._backward
        if bw is None:
            continue  # a leaf keeps its grad
        g = t.grad
        t.grad, t._backward, t._parents = None, _consumed, ()
        if g is not None:
            bw(g)


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data + b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(out, "add", (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data - b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape), own=True)

    return _result(out, "sub", (a, b), bw)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product."""
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape), own=True)
        _accum(b, _unbroadcast(g * a.data, b.data.shape), own=True)

    return _result(out, "mul", (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = a.data / b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape), own=True)
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape), own=True)

    return _result(out, "div", (a, b), bw)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    out = np.asarray(out)
    if out.ndim == 0:
        out = out.reshape(1)
    FLOPS.add(elems=x.size)

    def bw(g):
        if axis is None:
            kshape = [1] * x.ndim if x.ndim else [1]
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            kshape = list(x.data.shape)
            for ax in axes:
                kshape[ax % x.ndim] = 1
        _accum(x, np.broadcast_to(g.reshape(kshape), x.data.shape))

    return _result(out, "sum", (x,), bw)


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _coerce(x)
    if axis is None:
        n = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([x.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x) -> Tensor:
    x = _coerce(x)
    out = np.maximum(x.data, 0.0)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * (x.data > 0.0), own=True)

    return _result(out, "relu", (x,), bw)


def hsigmoid(x) -> Tensor:
    """Hard sigmoid clamp((x+3)/6, 0, 1); subgradient 0 at the kinks."""
    x = _coerce(x)
    out = np.clip((x.data + 3.0) / 6.0, 0.0, 1.0)
    FLOPS.add(elems=out.size)

    def bw(g):
        mask = (x.data > -3.0) & (x.data < 3.0)
        _accum(x, g * mask / 6.0, own=True)

    return _result(out, "hsigmoid", (x,), bw)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without branches.

    exp(min(x, 0)) / (1 + exp(-|x|)): the numerator is exactly 1 for x >= 0
    and exp(x) below, and exp(-|x|) is exactly exp(-x) or exp(x), so this
    matches the two-branch form bit for bit and never overflows. A masked
    ufunc (``where=``) would cost several times more on mixed-sign input.
    """
    d = np.abs(x)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= d
    return out


def sigmoid(x) -> Tensor:
    x = _coerce(x)
    out = _sigmoid_data(x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * out * (1.0 - out), own=True)

    return _result(out, "sigmoid", (x,), bw)


def softplus(x) -> Tensor:
    """log(1+exp(x)) in the overflow-stable branch form."""
    x = _coerce(x)
    out = np.logaddexp(0.0, x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * _sigmoid_data(x.data), own=True)

    return _result(out, "softplus", (x,), bw)


def tlog(x) -> Tensor:
    x = _coerce(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)  # log(<=0) trips the finite check with a clear op name
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g / x.data, own=True)

    return _result(out, "log", (x,), bw)


def tsqrt(x) -> Tensor:
    x = _coerce(x)
    out = np.sqrt(x.data)
    FLOPS.add(elems=out.size)

    def bw(g):
        safe = np.where(out > 0.0, out, 1.0)
        _accum(x, np.where(out > 0.0, g / (2.0 * safe), 0.0), own=True)

    return _result(out, "sqrt", (x,), bw)


def clamp(x, lo: float, hi: float) -> Tensor:
    x = _coerce(x)
    out = np.clip(x.data, lo, hi)
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(x, g * ((x.data > lo) & (x.data < hi)), own=True)

    return _result(out, "clamp", (x,), bw)


def softmax(x, axis: int = -1) -> Tensor:
    x = _coerce(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    FLOPS.add(elems=3 * out.size)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - dot), own=True)

    return _result(out, "softmax", (x,), bw)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = _coerce(x)
    out = x.data.reshape(shape).copy()

    def bw(g):
        _accum(x, g.reshape(x.data.shape))

    return _result(out, "reshape", (x,), bw)


def transpose(x, axes) -> Tensor:
    x = _coerce(x)
    out = np.ascontiguousarray(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def bw(g):
        _accum(x, np.ascontiguousarray(np.transpose(g, inv)))

    return _result(out, "transpose", (x,), bw)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    base = tensors[0]
    for t in tensors[1:]:
        if t.ndim != base.ndim or any(
                i != axis and t.shape[i] != base.shape[i] for i in range(t.ndim)):
            raise DimensionError(
                f"concat shapes incompatible on axis {axis}: "
                f"{[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _result(out, "concat", tuple(tensors), bw)


def concat_channels(a, b) -> Tensor:
    """Channel-wise concatenation of two NCHW tensors."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 4 or b.ndim != 4:
        raise DimensionError(
            f"concat_channels needs 4D inputs, got {a.shape} and {b.shape}")
    return concat([a, b], axis=1)


# ---------------------------------------------------------------------------
# Linear maps and convolution
# ---------------------------------------------------------------------------

def pointwise_linear(x, weight, bias) -> Tensor:
    """Per-position channel map (a 1x1 convolution).

    out[b,o,h,w] = sum_c weight[o,c] * x[b,c,h,w] + bias[o].
    Records B*C_out*C_in*H*W madds.
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if x.ndim != 4:
        raise DimensionError(f"pointwise_linear input must be 4D, got {x.shape}")
    if weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise DimensionError(
            f"pointwise_linear weight {weight.shape} does not match input {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"pointwise_linear bias {bias.shape} does not match weight {weight.shape}")
    B, C, H, W = x.shape
    Co = weight.shape[0]
    xf = x.data.reshape(B, C, H * W)
    out = weight.data @ xf
    out += bias.data[:, None]
    FLOPS.add(madds=B * Co * C * H * W, elems=B * Co * H * W)

    def bw(g):
        gf = g.reshape(B, Co, H * W)
        if x.requires_grad:
            _accum(x, (weight.data.T @ gf).reshape(B, C, H, W), own=True)
        if weight.requires_grad:
            # channel-major (C, B*H*W) views turn the batch sum into one GEMM
            _accum(weight, _channel_major(gf) @ _channel_major(xf).T, own=True)
        _accum(bias, gf.sum(axis=(0, 2)), own=True)

    return _result(out.reshape(B, Co, H, W), "pointwise_linear", (x, weight, bias), bw)


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(B, C, ...) -> (C, B*...): the batch folded into the column axis."""
    return a.reshape(a.shape[0], a.shape[1], -1).transpose(1, 0, 2).reshape(a.shape[1], -1)


def _im2col(x: np.ndarray, K: int, stride: int, padding: int,
            Ho: int, Wo: int) -> np.ndarray:
    """(C*K*K, B*Ho*Wo) patch matrix of ``x`` zero-padded by ``padding``.

    Row (c, ki, kj) holds input channel c at kernel tap (ki, kj) for every
    output position, batch-major, so a convolution is one GEMM against the
    (C_out, C*K*K) weight matrix.
    """
    B, C, H, W = x.shape
    if padding:
        xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding:padding + H, padding:padding + W] = x
    else:
        xp = x
    cols = np.empty((C, K, K, B, Ho, Wo))
    for ki in range(K):
        for kj in range(K):
            cols[:, ki, kj] = xp[:, :, ki:ki + stride * Ho:stride,
                                 kj:kj + stride * Wo:stride].transpose(1, 0, 2, 3)
    return cols.reshape(C * K * K, B * Ho * Wo)


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution with square kernel; records one madd per MAC."""
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d needs 4D input/weight, got {x.shape}, {weight.shape}")
    B, C, H, W = x.shape
    Co, Ci, K, K2 = weight.shape
    if Ci != C or K != K2:
        raise DimensionError(f"conv2d weight {weight.shape} does not match input {x.shape}")
    if bias.shape != (Co,):
        raise DimensionError(f"conv2d bias {bias.shape} does not match weight {weight.shape}")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    Ho = (Hp - K) // stride + 1
    Wo = (Wp - K) // stride + 1
    if Ho < 1 or Wo < 1:
        raise DimensionError(f"conv2d output empty for input {x.shape}, kernel {K}, stride {stride}")
    wm = weight.data.reshape(Co, C * K * K)
    out = wm @ _im2col(x.data, K, stride, padding, Ho, Wo)   # (Co, B*Ho*Wo)
    out += bias.data[:, None]
    FLOPS.add(madds=B * Co * C * K * K * Ho * Wo, elems=B * Co * Ho * Wo)

    def bw(g):
        gm = _channel_major(g)                                # (Co, B*Ho*Wo)
        if weight.requires_grad:
            # rebuilt, not kept from forward: no patch matrix outlives its op's forward
            cols = _im2col(x.data, K, stride, padding, Ho, Wo)
            _accum(weight, (gm @ cols.T).reshape(weight.data.shape), own=True)
        _accum(bias, gm.sum(axis=1), own=True)
        if x.requires_grad:
            gcols = (wm.T @ gm).reshape(C, K, K, B, Ho, Wo)
            gxp = np.zeros((C, B, Hp, Wp))
            for ki in range(K):
                for kj in range(K):
                    gxp[:, :, ki:ki + stride * Ho:stride,
                        kj:kj + stride * Wo:stride] += gcols[:, ki, kj]
            _accum(x, gxp[:, :, padding:padding + H, padding:padding + W]
                   .transpose(1, 0, 2, 3))

    out = out.reshape(Co, B, Ho, Wo).transpose(1, 0, 2, 3)
    return _result(out, "conv2d", (x, weight, bias), bw)


def matmul(a, b) -> Tensor:
    """Batched matrix product; records 2*m*n*k flops per batch element."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    FLOPS.add(madds=2 * batch * m * n * k)

    def bw(g):
        _accum(a, g @ np.swapaxes(b.data, -1, -2), own=True)
        _accum(b, np.swapaxes(a.data, -1, -2) @ g, own=True)

    return _result(out, "matmul", (a, b), bw)


# ---------------------------------------------------------------------------
# Spatial ops
# ---------------------------------------------------------------------------

def global_max_pool(x) -> Tensor:
    """Spatial max over HxW; gradient routes to the first row-major argmax."""
    x = _coerce(x)
    if x.ndim != 4:
        raise DimensionError(f"global_max_pool needs a 4D input, got {x.shape}")
    B, C, H, W = x.shape
    if H < 1 or W < 1:
        raise DimensionError(f"global_max_pool on empty spatial extent {x.shape}")
    flat = x.data.reshape(B, C, H * W)
    idx = flat.argmax(axis=2)  # first max in row-major order
    out = np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(B, C, 1, 1)
    FLOPS.add(elems=B * C * H * W)

    def bw(g):
        gx = np.zeros((B, C, H * W))
        np.put_along_axis(gx, idx[:, :, None], g.reshape(B, C, 1), axis=2)
        _accum(x, gx.reshape(B, C, H, W), own=True)

    return _result(out, "global_max_pool", (x,), bw)


def broadcast_add(x, g) -> Tensor:
    """Add a per-channel (B,C,1,1) bias over every spatial position of x."""
    x, g = _coerce(x), _coerce(g)
    if x.ndim != 4 or g.ndim != 4:
        raise DimensionError(f"broadcast_add needs 4D inputs, got {x.shape}, {g.shape}")
    if g.shape[2:] != (1, 1) or g.shape[:2] != x.shape[:2]:
        raise DimensionError(
            f"broadcast_add bias {g.shape} does not match input {x.shape}")
    out = x.data + g.data
    FLOPS.add(elems=x.size)

    def bw(grad):
        _accum(x, grad)
        _accum(g, grad.sum(axis=(2, 3), keepdims=True), own=True)

    return _result(out, "broadcast_add", (x, g), bw)


def l2_normalize(x, axis: int, eps: float = 1e-6) -> Tensor:
    """x / (||x||_2 + eps) with the norm taken along ``axis``."""
    x = _coerce(x)
    sq = mul(x, x)
    norm = tsqrt(tsum(sq, axis=axis, keepdims=True))
    return div(x, add(norm, eps))


@functools.lru_cache(maxsize=64)
def _interp_matrix(dst: int, src: int) -> np.ndarray:
    """Row-stochastic bilinear weight matrix, half-pixel-center convention.

    Cached by (dst, src) and read-only, since every caller shares one copy.
    """
    m = np.zeros((dst, src))
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    pos = np.clip(pos, 0.0, src - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, src - 1)
    frac = pos - lo
    m[np.arange(dst), lo] += 1.0 - frac
    m[np.arange(dst), hi] += frac
    m.flags.writeable = False
    return m


def bilinear_upsample(x, H: int, W: int) -> Tensor:
    """Bilinear resize to (H, W) >= source extents, half-pixel centers."""
    x = _coerce(x)
    if x.ndim != 4:
        raise DimensionError(f"bilinear_upsample needs a 4D input, got {x.shape}")
    B, C, h, w = x.shape
    if H < 1 or W < 1:
        raise DimensionError(f"bilinear_upsample target extent must be positive, got {H}x{W}")
    if H < h or W < w:
        raise DimensionError(
            f"bilinear_upsample target {H}x{W} smaller than source {h}x{w}")
    my = _interp_matrix(H, h)
    mx = _interp_matrix(W, w)
    out = (my @ x.data) @ mx.T
    FLOPS.add(elems=4 * B * C * H * W)

    def bw(g):
        _accum(x, my.T @ (g @ mx), own=True)

    return _result(out, "bilinear_upsample", (x,), bw)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-coordinate comparison of analytic and central-difference gradients."""

    max_rel_err: float
    tol: float
    n_checked: int
    failures: list = field(default_factory=list)  # (flat_index, analytic, numeric, rel)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


# central-difference steps, each times max(1, |x_i|)
FD_STEP_INPUT = 1e-3     # grad_check
FD_STEP_PARAM = 1e-5     # grad_check_params
FD_STEP_FALLBACK = 1e-4  # re-probe of a coordinate that fails at its step


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def _probe(f, flat: np.ndarray, grad, max_coords, rng: RngState, tol: float,
           fd_step: float) -> GradCheckReport:
    """Central differences of the scalar ``f()`` against ``grad`` over ``flat``.

    ``flat`` is a flat view of what ``f`` reads; more than ``max_coords``
    coordinates are subsampled from ``rng``. Each probed coordinate is set to
    x_i + h, then x_i - h, and restored by assignment, so every evaluation
    differs from x in exactly one coordinate.
    """
    a_flat = grad.reshape(-1) if grad is not None else np.zeros(flat.size)
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        coords = rng._next().choice(flat.size, size=max_coords, replace=False)

    def numeric_at(i, step):
        orig = flat[i]
        h = step * max(1.0, abs(orig))
        with no_grad():
            try:
                flat[i] = orig + h
                hi = f().item()
                flat[i] = orig - h
                lo = f().item()
            finally:
                flat[i] = orig
        return (hi - lo) / (2 * h)

    max_err = 0.0
    failures = []
    for i in coords:
        numeric = numeric_at(i, fd_step)
        err = _rel_err(a_flat[i], numeric)
        if err >= tol:
            numeric2 = numeric_at(i, FD_STEP_FALLBACK)
            err2 = _rel_err(a_flat[i], numeric2)
            if err2 < err:
                numeric, err = numeric2, err2
        max_err = max(max_err, err)
        if err >= tol:
            failures.append((int(i), float(a_flat[i]), float(numeric), float(err)))
    return GradCheckReport(max_rel_err=max_err, tol=tol,
                           n_checked=len(coords), failures=failures)


def grad_check(f, x: Tensor, tol: float = 1e-4, max_coords=None,
               rng: RngState | None = None) -> GradCheckReport:
    """Compare analytic d f/d x against central differences per coordinate.

    A coordinate failing at ``FD_STEP_INPUT`` is re-probed at
    ``FD_STEP_FALLBACK`` and its error is the smaller of the two: the large
    step can straddle a ReLU/hard-sigmoid/max breakpoint and the small step
    can drown low-sensitivity coordinates in float64 roundoff, and each probe
    is immune to the other's artifact. A wrong gradient fails both.
    ``max_coords`` optionally subsamples the coordinates checked (seeded via
    ``rng``).
    """
    leaf = Tensor(x.data.copy(), requires_grad=True, op="gradcheck_leaf")
    backward(f(leaf))
    base = x.data.copy()
    return _probe(lambda: f(Tensor(base)), base.reshape(-1), leaf.grad, max_coords,
                  rng or RngState(0), tol, FD_STEP_INPUT)


def grad_check_params(f, params: dict, tol: float = 1e-4,
                      max_coords_per_param: int = 4,
                      rng: RngState | None = None) -> dict:
    """Check d f()/d p for every named parameter, sampling coordinates.

    ``f`` is a zero-argument closure over ``params`` returning a scalar Tensor;
    parameter data is perturbed in place for the finite differences. The
    step ``FD_STEP_PARAM`` is smaller than ``grad_check``'s because parameter
    perturbations shift every downstream activation and must stay inside one
    linear piece of the ReLU/hard-sigmoid/max-pool breakpoints; failing
    coordinates are re-probed at the fallback step as in ``grad_check``.
    """
    rng = rng or RngState(0)
    for p in params.values():
        p.zero_grad()
    backward(f())
    return {name: _probe(f, p.data.reshape(-1), p.grad, max_coords_per_param, rng,
                         tol, FD_STEP_PARAM)
            for name, p in params.items()}
