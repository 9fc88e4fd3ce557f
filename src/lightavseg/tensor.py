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

The module holds the ops the model runs, and ``gradsuite`` checks each of
them. ``conv2d`` and ``pointwise_linear`` take ``relu=True`` to apply a ReLU
within their own node, which then holds one activation array instead of two
nodes' two; values, gradients and FLOP counts equal the two-node chain bit for
bit. ``upsample_merge`` is likewise one node for a resize, channel map and
add, and the losses are one node each. The op chains these fused ops replaced
are kept in ``tests/chain_ops.py`` as the tests' references.
``conv2d`` builds its patch matrix and scatters its input gradient without a
zero-padded copy of the input: only the border strips that read padding are
zeroed.

Memory rule for backward closures: keep only what backward reads, and free
each full-size temporary before the next one is allocated. ``backward`` holds
no node while its closure runs, a fused ReLU lets go of its activation once
the mask is read, and each closure drops an array (``del``) or computes a
gradient before it allocates the next large one.

The memory rule's block rule: a working array that grows with the batch
(``conv2d``'s patch matrix, ``upsample_merge``'s upsampled map, the
full-resolution planes of the losses) is built for one contiguous block of
samples at a time, forward and backward, with as many samples per block as
fit in ``BLOCK_BYTES`` (a loss counts the four planes a frame it works on at
once). Only an op's output and its input gradient are full size. A batch
that fits is one block and runs the whole-batch expressions; over several
blocks only the order of the sums across samples changes (weight and bias
gradients, loss totals), since every per-sample product is the one the whole
batch computes.

FLOP accounting convention (forward pass only):
  * ``madds``  -- multiply-accumulate counts. Channel maps (``pointwise_linear``)
    and convolutions record one madd per MAC. General ``matmul`` records two
    (multiply and add counted separately), the usual dense-attention bookkeeping.
  * ``elems``  -- one op per element for everything elementwise: additions,
    Hadamard products, activations, comparisons (max pooling), interpolation.
Counts accumulate into every named scope currently open via ``FLOPS.scope``,
which also times each scope.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import time
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


MAX_RANK = 4  # the largest rank of any array the program writes


def write_array(f, arr: np.ndarray):
    """One array record: u32 rank, u32 dims, then the data as f64 little-endian."""
    arr = np.asarray(arr, dtype="<f8")
    f.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
    f.write(arr.tobytes())


def read_array(f, what: str) -> np.ndarray:
    """Read one ``write_array`` record; ``what`` names it in a ContractError."""
    (ndim,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {what}"))
    if ndim > MAX_RANK:
        name = getattr(f, "name", "input")
        raise ContractError(f"{name}: rank {ndim} of {what} is above {MAX_RANK}")
    shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, f"shape of {what}"))
    data = _read_exact(f, 8 * math.prod(shape), f"data of {what}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


# ---------------------------------------------------------------------------
# FLOP counter
# ---------------------------------------------------------------------------

class FlopCounter:
    """Additive, resettable multiply-add / elementwise-op counter and scope timer.

    Scopes are plain string labels opened with ``scope``; an op's cost is added
    to every open scope plus the grand total, and ``seconds`` gives the wall
    time spent inside a scope. Totals are order-independent and additive, so
    nested and repeated scopes simply accumulate. A scope cannot be opened
    inside itself.
    """

    TOTAL = "total"

    def __init__(self):
        self._open: list[str] = [self.TOTAL]
        self._madds: dict[str, int] = defaultdict(int)
        self._elems: dict[str, int] = defaultdict(int)
        self._seconds: dict[str, float] = defaultdict(float)

    def scope(self, name: str) -> _Scope:
        return _Scope(self, name)

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

    def seconds(self, scope: str) -> float:
        return self._seconds.get(scope, 0.0)

    def reset(self):
        self._madds.clear()
        self._elems.clear()
        self._seconds.clear()

    def report(self) -> dict:
        scopes = sorted(set(self._madds) | set(self._elems))
        return {
            s: {"madds": self._madds.get(s, 0), "elems": self._elems.get(s, 0)}
            for s in scopes
        }


class _Scope:
    """One ``FlopCounter.scope`` block.

    Entering opens the name; leaving closes it and adds the body's wall time,
    also when the body raises. A plain class costs half what a generator-based
    context manager does, and a forward opens dozens of scopes.
    """

    __slots__ = ("counter", "name", "t0")

    def __init__(self, counter: FlopCounter, name: str):
        self.counter = counter
        self.name = name

    def __enter__(self) -> FlopCounter:
        counter = self.counter
        if self.name in counter._open:
            raise ContractError(f"scope {self.name!r} is already open")
        counter._open.append(self.name)
        self.t0 = time.perf_counter()
        return counter

    def __exit__(self, *exc):
        counter = self.counter
        counter._seconds[self.name] += time.perf_counter() - self.t0
        counter._open.pop()


FLOPS = FlopCounter()
section = FLOPS.scope  # the model's five named sections


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
        _check_finite(arr, op)
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


def all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN and no Inf, in one pass when it holds none."""
    # the sum of squares is finite only if every element is, unless the
    # squares overflow; np.vdot, unlike ``@``, warns of no such overflow
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def _check_finite(arr: np.ndarray, op: str):
    """Raise NumericalError, naming ``op``, if ``arr`` holds a NaN or an Inf."""
    if not all_finite(arr):
        raise NumericalError(f"non-finite values in result of op '{op}'")


def parameter(data) -> Tensor:
    """Leaf tensor participating in gradient computation."""
    return Tensor(data, requires_grad=True, op="parameter")


def _coerce(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(np.asarray(v, dtype=np.float64))


def _result(data, op: str, parents, backward) -> Tensor:
    if _GRAD_ENABLED[-1]:
        for p in parents:
            if p.requires_grad:
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
    The walk lets go of each node before calling its closure, so a node that
    nothing else holds is freed first, with any array only the node held.
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
        del t  # a node nothing else holds goes before its closure allocates
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


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product."""
    a, b = _coerce(a), _coerce(b)
    out = a.data * b.data
    FLOPS.add(elems=out.size)

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape), own=True)
        _accum(b, _unbroadcast(g * a.data, b.data.shape), own=True)

    return _result(out, "mul", (a, b), bw)


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

def _relu_result(out: np.ndarray, op: str, parents, bw) -> Tensor:
    """Producer ``op``'s node with a ReLU applied in place to its fresh ``out``.

    The producer and its ReLU are one graph node that holds one array, and
    ``bw`` runs after the ReLU's gradient mask. Values, gradients and FLOP
    counts equal those of a separate ReLU node on the producer's node bit for
    bit (``tests/chain_ops.py`` keeps that two-node chain as the reference):
    the mask is read from the activation, positive exactly where the
    pre-activation was, and multiplies the gradient in place, because the
    gradient ``backward`` hands a closure is the node's own array.
    """
    _check_finite(out, op)  # after the ReLU, a -inf would read as 0
    np.maximum(out, 0.0, out=out)
    FLOPS.add(elems=out.size)
    held = [out]  # popped once the mask is read, ahead of the op's own backward

    def relu_bw(g):
        np.multiply(g, held.pop() > 0.0, out=g)
        bw(g)

    return _result(out, op + "_relu", parents, relu_bw)


def hsigmoid(x) -> Tensor:
    """Hard sigmoid clamp((x+3)/6, 0, 1); subgradient 0 at the kinks."""
    x = _coerce(x)
    out = np.clip((x.data + 3.0) / 6.0, 0.0, 1.0)
    FLOPS.add(elems=out.size)

    def bw(g):
        mask = (x.data > -3.0) & (x.data < 3.0)
        _accum(x, g * mask / 6.0, own=True)

    return _result(out, "hsigmoid", (x,), bw)


def _sigmoid_data(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, without branches.

    exp(min(x, 0)) / (1 + exp(-|x|)): the numerator is exactly 1 for x >= 0
    and exp(x) below, and exp(-|x|) is exactly exp(-x) or exp(x), so this
    matches the two-branch form bit for bit and never overflows. A masked
    ufunc (``where=``) would cost several times more on mixed-sign input.
    The result goes to ``out`` when one is given.
    """
    d = np.abs(x)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    out = np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out /= d
    return out


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


def concat_channels(a, b) -> Tensor:
    """Channel-wise concatenation of two NCHW tensors."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 4 or b.ndim != 4 or a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(
            f"concat_channels needs 4D inputs that differ only in channels, "
            f"got {a.shape} and {b.shape}")
    out = np.concatenate((a.data, b.data), axis=1)
    C = a.shape[1]

    def bw(g):
        _accum(a, g[:, :C])
        _accum(b, g[:, C:])

    return _result(out, "concat_channels", (a, b), bw)


# ---------------------------------------------------------------------------
# Sample blocks
# ---------------------------------------------------------------------------

BLOCK_BYTES = 2 << 20  # one block's working array: a per-core L2 cache of 2 MiB


def _blocks(batch: int, sample_bytes: int) -> tuple:
    """Contiguous sample blocks of a batch whose working array takes ``sample_bytes`` a sample.

    A block holds as many samples as fit in ``BLOCK_BYTES``, and at least
    one; a batch that fits is the one block ``slice(0, batch)``.
    """
    return _block_slices(batch, max(1, min(batch, BLOCK_BYTES // sample_bytes)))


@functools.lru_cache(maxsize=64)
def _block_slices(batch: int, per_block: int) -> tuple:
    return tuple(slice(i, min(i + per_block, batch)) for i in range(0, batch, per_block))


def _block_total(total, part):
    """``part`` added into ``total``, the running sum of the earlier blocks (None before)."""
    if total is None:
        return part
    total += part
    return total


# ---------------------------------------------------------------------------
# Linear maps and convolution
# ---------------------------------------------------------------------------

def pointwise_linear(x, weight, bias, relu: bool = False) -> Tensor:
    """Per-position channel map (a 1x1 convolution).

    out[b,o,h,w] = sum_c weight[o,c] * x[b,c,h,w] + bias[o].
    Records B*C_out*C_in*H*W madds. ``relu=True`` applies a ReLU within the
    same node (see ``_relu_result``).
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    _check_channel_map("pointwise_linear", x, weight, bias)
    B, C, H, W = x.shape
    Co = weight.shape[0]
    xf = x.data.reshape(B, C, H * W)
    out = weight.data @ xf
    out += bias.data[:, None]
    FLOPS.add(madds=B * Co * C * H * W, elems=B * Co * H * W)

    def bw(g):
        gf = g.reshape(B, Co, H * W)
        _channel_map_grads(weight, bias, gf, (slice(0, B),), lambda bs: _channel_major(xf[bs]))
        if x.requires_grad:
            _accum(x, (weight.data.T @ gf).reshape(B, C, H, W), own=True)

    out = out.reshape(B, Co, H, W)
    return (_relu_result if relu else _result)(out, "pointwise_linear", (x, weight, bias), bw)


def _check_channel_map(op: str, x: Tensor, weight: Tensor, bias: Tensor):
    """Shapes of a per-position channel map of the 4D ``x``."""
    if x.ndim != 4:
        raise DimensionError(f"{op} input must be 4D, got {x.shape}")
    if weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise DimensionError(f"{op} weight {weight.shape} does not match input {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(f"{op} bias {bias.shape} does not match weight {weight.shape}")


def _channel_map_grads(weight: Tensor, bias: Tensor, gf: np.ndarray, blocks, input_cm):
    """Weight and bias gradients of a channel map whose output gradient is ``gf``.

    ``gf`` is (B, C_out, N); ``input_cm(bs)`` gives the map's input for the
    sample block ``bs`` of ``blocks`` as a channel-major (C_in, b*N) array,
    built only if the weight needs it, and each is freed before the next one
    and before this returns, ahead of the caller's input gradient.
    """
    if weight.requires_grad:
        # channel-major (C, b*N) arrays turn a block's sum into one GEMM
        gw = None
        for bs in blocks:
            gw = _block_total(gw, _channel_major(gf[bs]) @ input_cm(bs).T)
        _accum(weight, gw, own=True)
    _accum(bias, gf.sum(axis=(0, 2)), own=True)


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(B, C, ...) -> (C, B*...): the batch folded into the column axis."""
    return a.reshape(a.shape[0], a.shape[1], -1).transpose(1, 0, 2).reshape(a.shape[1], -1)


def _tap_span(k: int, stride: int, padding: int, n_in: int, n_out: int):
    """Where kernel tap ``k`` reads inside an unpadded axis of ``n_in``.

    Returns ``(lo, hi, first)``: output positions ``lo <= o < hi`` read input
    index ``o * stride + k - padding``, which lies in ``[0, n_in)``, and
    ``first`` is the index read at ``lo``. Outside ``[lo, hi)`` the tap reads
    padding.
    """
    lo = min(n_out, max(0, -((k - padding) // stride)))
    hi = max(lo, min(n_out, (n_in - 1 + padding - k) // stride + 1))
    return lo, hi, lo * stride + k - padding


@functools.lru_cache(maxsize=64)
def _conv_taps(K: int, stride: int, padding: int, H: int, W: int, Ho: int, Wo: int):
    """Index plan of a convolution's taps over an unpadded (H, W) input.

    Returns ``(strips, taps)`` for a (C, K, K, B, Ho, Wo) patch array and a
    (C, B, H, W) view of the input. ``strips`` index the patch entries that
    read padding. ``taps`` pairs, in (ki, kj) order, the patch entries of each
    tap that read inside the input with the input window they read. Cached
    by shape, since a model runs few convolution shapes.
    """
    rows = [_tap_span(k, stride, padding, H, Ho) for k in range(K)]
    cols = [_tap_span(k, stride, padding, W, Wo) for k in range(K)]
    strips = [np.s_[:, k, :, :, a:b] for k, (lo, hi, _) in enumerate(rows)
              for a, b in ((0, lo), (hi, Ho)) if a < b]
    strips += [np.s_[:, :, k, ..., a:b] for k, (lo, hi, _) in enumerate(cols)
               for a, b in ((0, lo), (hi, Wo)) if a < b]
    taps = tuple((np.s_[:, ki, kj, :, r0:r1, c0:c1],
                  np.s_[:, :, i0:i0 + stride * (r1 - r0):stride,
                        j0:j0 + stride * (c1 - c0):stride])
                 for ki, (r0, r1, i0) in enumerate(rows)
                 for kj, (c0, c1, j0) in enumerate(cols) if r0 < r1 and c0 < c1)
    return tuple(strips), taps


def _im2col(x: np.ndarray, K: int, stride: int, padding: int,
            Ho: int, Wo: int) -> np.ndarray:
    """(C*K*K, B*Ho*Wo) patch matrix of ``x`` zero-padded by ``padding``.

    Row (c, ki, kj) holds input channel c at kernel tap (ki, kj) for every
    output position, batch-major, so a convolution of the samples in ``x``
    is one GEMM against the (C_out, C*K*K) weight matrix. Each tap copies
    its in-bounds window straight from ``x`` and only the strips that read
    padding are zeroed, so no padded copy of ``x`` is made.
    """
    B, C, H, W = x.shape
    strips, taps = _conv_taps(K, stride, padding, H, W, Ho, Wo)
    cols = np.empty((C, K, K, B, Ho, Wo))
    for strip in strips:
        cols[strip] = 0.0
    xc = x.transpose(1, 0, 2, 3)
    for patch, window in taps:
        cols[patch] = xc[window]
    return cols.reshape(C * K * K, B * Ho * Wo)


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0,
           relu: bool = False) -> Tensor:
    """2D convolution with square kernel; records one madd per MAC.

    The patch matrix is built per sample block (see the block rule), in the
    forward GEMM and again for the weight gradient, and the input gradient
    is scattered from one block's patch gradient at a time. ``relu=True``
    applies a ReLU within the same node (see ``_relu_result``).
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d needs 4D input/weight, got {x.shape}, {weight.shape}")
    B, C, H, W = x.shape
    Co, Ci, K, K2 = weight.shape
    if Ci != C or K != K2:
        raise DimensionError(f"conv2d weight {weight.shape} does not match input {x.shape}")
    if bias.shape != (Co,):
        raise DimensionError(f"conv2d bias {bias.shape} does not match weight {weight.shape}")
    Ho = (H + 2 * padding - K) // stride + 1
    Wo = (W + 2 * padding - K) // stride + 1
    if Ho < 1 or Wo < 1:
        raise DimensionError(f"conv2d output empty for input {x.shape}, kernel {K}, stride {stride}")
    wm = weight.data.reshape(Co, C * K * K)
    blocks = _blocks(B, 8 * C * K * K * Ho * Wo)  # a patch matrix per sample
    out = np.empty((B, Co, Ho, Wo))
    for bs in blocks:
        ob = wm @ _im2col(x.data[bs], K, stride, padding, Ho, Wo)   # (Co, b*Ho*Wo)
        ob += bias.data[:, None]
        out[bs] = ob.reshape(Co, -1, Ho, Wo).transpose(1, 0, 2, 3)
    FLOPS.add(madds=B * Co * C * K * K * Ho * Wo, elems=B * Co * Ho * Wo)

    def bw(g):
        taps = _conv_taps(K, stride, padding, H, W, Ho, Wo)[1]
        gx = np.zeros((B, C, H, W)) if x.requires_grad else None
        gw = gb = None
        for bs in blocks:
            gm = _channel_major(g[bs])                        # (Co, b*Ho*Wo)
            if weight.requires_grad:
                # rebuilt, not kept from forward: no patch matrix outlives its op's forward
                cols = _im2col(x.data[bs], K, stride, padding, Ho, Wo)
                gw = _block_total(gw, gm @ cols.T)
                del cols  # before the input gradient's array of the same size
            gb = _block_total(gb, gm.sum(axis=1))
            if gx is not None:
                gcols = (wm.T @ gm).reshape(C, K, K, -1, Ho, Wo)
                gxc = gx[bs].transpose(1, 0, 2, 3)
                # each tap's in-bounds part, added in (ki, kj) order; what falls
                # on the padding is not a gradient of x
                for patch, window in taps:
                    gxc[window] += gcols[patch]
        if gw is not None:
            _accum(weight, gw.reshape(weight.data.shape), own=True)
        _accum(bias, gb, own=True)
        if gx is not None:
            _accum(x, gx, own=True)

    return (_relu_result if relu else _result)(out, "conv2d", (x, weight, bias), bw)


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
    flat = x.data.reshape(B * C, H * W)
    out = flat.max(axis=1).reshape(B, C, 1, 1)
    FLOPS.add(elems=B * C * H * W)

    def bw(g):
        gx = np.zeros(B * C * H * W)
        # the first max in row-major order of each (b, c) map, as a flat index
        gx[np.arange(0, B * C * H * W, H * W) + flat.argmax(axis=1)] = g.reshape(B * C)
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


def _resize_matrices(op: str, x: Tensor, H: int, W: int):
    """Row and column interpolation matrices of a bilinear resize of ``x`` to (H, W)."""
    if x.ndim != 4:
        raise DimensionError(f"{op} needs a 4D input, got {x.shape}")
    h, w = x.shape[2:]
    if H < 1 or W < 1:
        raise DimensionError(f"{op} target extent must be positive, got {H}x{W}")
    if H < h or W < w:
        raise DimensionError(f"{op} target {H}x{W} smaller than source {h}x{w}")
    return _interp_matrix(H, h), _interp_matrix(W, w)


def _resize(my: np.ndarray, mx: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Every trailing (h, w) plane of ``a`` resized by ``_resize_matrices``' pair."""
    return (my @ a) @ mx.T


def _resize_adjoint(my: np.ndarray, mx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_resize``'s adjoint: the gradient of a resized map taken back to its source."""
    g = g @ mx  # frees a full-size temporary the caller passed in
    return my.T @ g


def bilinear_upsample(x, H: int, W: int) -> Tensor:
    """Bilinear resize to (H, W) >= source extents, half-pixel centers."""
    x = _coerce(x)
    my, mx = _resize_matrices("bilinear_upsample", x, H, W)
    out = _resize(my, mx, x.data)
    FLOPS.add(elems=4 * out.size)

    def bw(g):
        _accum(x, _resize_adjoint(my, mx, g), own=True)

    return _result(out, "bilinear_upsample", (x,), bw)


def upsample_merge(x, weight, bias, skip) -> Tensor:
    """One top-down merge: resize ``x`` to ``skip``'s extents, map its channels, add ``skip``.

    Equals the chain ``add(pointwise_linear(bilinear_upsample(x, H, W), weight,
    bias), skip)`` (``tests/chain_ops.py``) in value, in every gradient and in
    the FLOPs it records, as one node that keeps no upsampled map; bit for
    bit when the batch is one block. The map is made per sample block (see
    the block rule). Backward rebuilds it, channel-major, for the weight
    gradient, then makes the input gradient block by block; the node's own
    gradient goes to ``skip`` last.
    """
    x, weight, bias, skip = _coerce(x), _coerce(weight), _coerce(bias), _coerce(skip)
    _check_channel_map("upsample_merge", x, weight, bias)
    B, C = x.shape[:2]
    Co = weight.shape[0]
    if skip.ndim != 4 or skip.shape[:2] != (B, Co):
        raise DimensionError(
            f"upsample_merge skip {skip.shape} does not match input {x.shape} "
            f"mapped to {Co} channels")
    H, W = skip.shape[2:]
    my, mx = _resize_matrices("upsample_merge", x, H, W)
    blocks = _blocks(B, 8 * C * H * W)  # an upsampled map per sample
    out = np.empty((B, Co, H * W))
    for bs in blocks:
        np.matmul(weight.data, _resize(my, mx, x.data[bs]).reshape(-1, C, H * W),
                  out=out[bs])
    out += bias.data[:, None]
    out = out.reshape(B, Co, H, W)
    out += skip.data
    # the resize, the channel map and the add
    FLOPS.add(madds=B * Co * C * H * W, elems=4 * B * C * H * W + 2 * out.size)

    def bw(g):
        gf = g.reshape(B, Co, H * W)
        # the forward's map, resized per channel-major (c, b) plane of a block
        _channel_map_grads(weight, bias, gf, blocks, lambda bs: _resize(
            my, mx, x.data[bs].transpose(1, 0, 2, 3)).reshape(C, -1))
        if x.requires_grad:
            gx = np.empty(x.shape)
            for bs in blocks:
                gx[bs] = _resize_adjoint(my, mx, (weight.data.T @ gf[bs]).reshape(-1, C, H, W))
            _accum(x, gx, own=True)
        _accum(skip, g, own=True)

    return _result(out, "upsample_merge", (x, weight, bias, skip), bw)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-coordinate comparison of analytic and central-difference gradients."""

    max_rel_err: float
    tol: float
    n_checked: int
    # (flat_index, analytic, numeric, rel) per failing coordinate;
    # grad_check_params gives the index as f"{param}[{flat_index}]"
    failures: list = field(default_factory=list)
    name: str = ""   # what was checked, as the gradient suite reports it

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
                      rng: RngState | None = None) -> GradCheckReport:
    """Check d f()/d p for every named parameter, sampling coordinates.

    ``f`` is a zero-argument closure over ``params`` returning a scalar Tensor;
    parameter data is perturbed in place for the finite differences. The
    step ``FD_STEP_PARAM`` is smaller than ``grad_check``'s because parameter
    perturbations shift every downstream activation and must stay inside one
    linear piece of the ReLU/hard-sigmoid/max-pool breakpoints; failing
    coordinates are re-probed at the fallback step as in ``grad_check``.
    Returns one report over every parameter: the worst error, the summed
    coordinate count, and each failure at ``f"{name}[{flat_index}]"``.
    """
    rng = rng or RngState(0)
    for p in params.values():
        p.zero_grad()
    backward(f())
    reports = {name: _probe(f, p.data.reshape(-1), p.grad, max_coords_per_param, rng,
                            tol, FD_STEP_PARAM)
               for name, p in params.items()}
    return GradCheckReport(
        max_rel_err=max(r.max_rel_err for r in reports.values()), tol=tol,
        n_checked=sum(r.n_checked for r in reports.values()),
        failures=[(f"{name}[{i}]", *rest)
                  for name, r in reports.items() for i, *rest in r.failures])
