"""Dense tensors with reverse-mode automatic differentiation.

The substrate for all model math in this package: a small set of primitive
ops recorded on a dynamic tape, an Adam optimizer, and a double-precision SVD
wrapper used by the representation-space alignment solver.

`requires_grad` is the one switch for differentiation: ops record tape nodes,
and Adam updates parameters, only where it is on. A frozen parameter has it
off, so its part of the graph costs no tape node, backward work or update.

Conventions:
  * no implicit broadcasting -- elementwise ops require identical shapes,
    row-wise bias addition goes through `affine`, replication through `tile`
  * training arithmetic defaults to float32; gradient checks and SVD run in
    float64
  * any primitive producing a non-finite value raises `NonFiniteError`

`ArrayOps` holds the forward kernels of the primitives the model uses, on
plain arrays: the tape primitives compute their outputs with them, and the
model's inference path (`model.Seq2SeqModel` with `tape=False`) calls them
directly, with no `Tensor` objects and no tape. That path skips the per-op
finiteness check and runs `check_finite` once on each call's output instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeError(TensorError):
    """Operand shapes incompatible for the requested op."""


class NonFiniteError(TensorError):
    """A forward or backward pass produced NaN or Inf."""


class Tensor:
    """Dense row-major array, optionally participating in the gradient tape.

    A tensor is a leaf (parameter or constant) or the result of a primitive
    op. Results carry closures that push gradients to their parents; calling
    `backward` on a scalar runs them in reverse topological order and then
    clears the tape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_used")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32 if dtype is None else dtype)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None
        self._used = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is not None:
            self.grad += g
        elif g.dtype == self.data.dtype and g.base is None:
            self.grad = g  # freshly allocated by the caller; safe to own
        else:
            self.grad = g.astype(self.data.dtype, copy=True)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def check_finite(op: str, data: np.ndarray) -> np.ndarray:
    """`data`, unless it holds a NaN or Inf: then raise `NonFiniteError`."""
    # single-pass check: any NaN/Inf entry makes the sum non-finite
    if not math.isfinite(float(np.add.reduce(data, axis=None))):
        raise NonFiniteError(f"{op}: non-finite values in output")
    return data


def _result(op: str, data: np.ndarray, parents, backward) -> Tensor:
    """Wrap an op output, validating finiteness and recording on the tape."""
    check_finite(op, data)
    needs = any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = needs
    out.grad = None
    out._used = False
    if needs:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _require_same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def backward(loss: Tensor):
    """Accumulate gradients of `loss` into every requires_grad tensor on the tape.

    The tape is cleared afterwards; a second backward through the same graph
    raises.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss._used:
        raise TensorError("backward() called twice on the same graph (tape cleared)")
    if not loss.requires_grad:
        return
    # reverse topological order by iterative DFS
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._used = True
        node._backward = None
        node._parents = ()
    if loss.grad is not None and not np.all(np.isfinite(loss.grad)):
        raise NonFiniteError("backward: non-finite gradient")


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def _layer_norm_parts(x, gain, bias, eps):
    """Layer norm output with the normalized input and inverse std its backward needs."""
    # add.reduce / d rounds like ndarray.mean (a float64 quotient rounded to
    # float32 is the float32 quotient), without mean's Python-level overhead
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


class ArrayOps:
    """Forward kernels of the primitives, on plain arrays.

    The same names and arguments as the tape primitives, so model code runs
    on either op set. No tape, no shape checks and no finiteness check: the
    caller checks its final output once with `check_finite`.
    """

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def scale(a, c):
        return a * float(c)

    @staticmethod
    def matmul(a, b):
        return a @ b

    @staticmethod
    def affine(x, w, b=None):
        y = x @ w
        return y if b is None else y + b

    @staticmethod
    def relu(a):
        return np.maximum(a, 0)

    @staticmethod
    def softmax(a):
        # ufunc reductions are what ndarray.max/sum run, minus their Python wrappers
        e = np.exp(a - np.maximum.reduce(a, axis=-1, keepdims=True))
        return e / np.add.reduce(e, axis=-1, keepdims=True)

    @staticmethod
    def layer_norm(x, gain, bias, eps: float = 1e-5):
        return _layer_norm_parts(x, gain, bias, eps)[0]

    @staticmethod
    def embedding(table, ids):
        return table[ids]

    @staticmethod
    def masked_fill(x, mask, value):
        return np.where(mask, np.asarray(value, dtype=x.dtype), x)

    @staticmethod
    def reshape(x, shape):
        return x.reshape(shape)

    @staticmethod
    def transpose(x, axes=None):
        # a contiguous copy: the products downstream see the same layout on both paths
        return np.ascontiguousarray(x.transpose(axes))


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)
    return _result("add", ArrayOps.add(a.data, b.data), (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)
    return _result("sub", a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)
    return _result("mul", ArrayOps.mul(a.data, b.data), (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)
    return _result("scale", ArrayOps.scale(a.data, c), (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes.

    Rank-2 x rank-2 is the plain product. Higher ranks are batched products
    and require identical leading dimensions (no broadcasting).
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: need rank >= 2, got {a.shape} @ {b.shape}")
    if a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ for {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ g)
    return _result("matmul", ArrayOps.matmul(a.data, b.data), (a, b), bwd)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b added to every row); x is 2-D, w 2-D, b 1-D."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine: x and w must be 2-D, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: inner dims differ for {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias shape {b.shape} != ({w.shape[1]},)")
    y = ArrayOps.affine(x.data, w.data, None if b is None else b.data)

    parents = (x, w) if b is None else (x, w, b)
    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
    return _result("affine", y, parents, bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0))
    return _result("relu", ArrayOps.relu(a.data), (a,), bwd)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    out = ArrayOps.softmax(a.data)

    def bwd(g):
        if a.requires_grad:
            inner = (g * out).sum(axis=-1, keepdims=True)
            a.accumulate_grad(out * (g - inner))
    return _result("softmax", out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale/shift by 1-D gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape}, {bias.shape}"
        )
    out, xhat, inv = _layer_norm_parts(x.data, gain.data, bias.data, eps)

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gx - m1 - xhat * m2))
    return _result("layer_norm", out, (x, gain, bias), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape index the first axis of a 2-D table."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.shape}")
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.shape[0]}) in lookup"
        )
    out = ArrayOps.embedding(table.data, ids)

    def bwd(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.ravel(), g.reshape(-1, table.shape[1]))
            table.accumulate_grad(gt)
    return _result("embedding", out, (table,), bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    ranks = {t.data.ndim for t in tensors}
    if len(ranks) != 1:
        raise ShapeError(f"concat: mixed ranks {sorted(ranks)}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(sl)])
    return _result(
        "concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd
    )


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where `mask` is True by `value` (mask is a plain bool array)."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"masked_fill: mask shape {mask.shape} != {x.shape}")
    out = ArrayOps.masked_fill(x.data, mask, value)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(mask, 0, g))
    return _result("masked_fill", out, (x,), bwd)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        out = ArrayOps.reshape(x.data, shape)
    except ValueError as e:
        raise ShapeError(f"reshape: {x.shape} -> {shape}: {e}") from None

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))
    return _result("reshape", out, (x,), bwd)


def transpose(x: Tensor, axes: tuple | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    inv = np.argsort(axes)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.ascontiguousarray(g.transpose(inv)))
    return _result("transpose", ArrayOps.transpose(x.data, axes), (x,), bwd)


def tile(x: Tensor, reps: int) -> Tensor:
    """Stack `reps` copies of x along a new leading axis."""
    if reps < 1:
        raise ShapeError(f"tile: reps must be >= 1, got {reps}")
    out = np.broadcast_to(x.data, (reps,) + x.shape).copy()

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.sum(axis=0))
    return _result("tile", out, (x,), bwd)


def tsum(x: Tensor) -> Tensor:
    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, g.reshape(())))
    return _result("sum", np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, g.reshape(()) / n))
    return _result("mean", np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), bwd)


def cross_entropy_logits(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Weighted mean cross-entropy between rows of logits and integer targets.

    `weights` (defaults to all ones) scales each row's contribution; rows with
    weight 0 are masked out entirely. With label smoothing eps the target
    distribution is (1-eps) * onehot + eps / V.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    n, v = logits.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} != ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"cross_entropy: target id out of range [0, {v})")
    if weights is None:
        weights = np.ones(n, dtype=logits.data.dtype)
    else:
        weights = np.asarray(weights, dtype=logits.data.dtype)
        if weights.shape != (n,):
            raise ShapeError(f"cross_entropy: weights shape {weights.shape} != ({n},)")
    wsum = weights.sum()
    if wsum <= 0:
        raise ShapeError("cross_entropy: all rows have zero weight")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z - lse[:, None]
    eps = float(label_smoothing)
    nll = -logp[np.arange(n), targets]
    if eps > 0.0:
        loss_rows = (1.0 - eps) * nll - eps * logp.mean(axis=1)
    else:
        loss_rows = nll
    value = np.asarray((loss_rows * weights).sum() / wsum, dtype=logits.data.dtype)

    def bwd(g):
        if logits.requires_grad:
            p = np.exp(logp)
            q = np.full((n, v), eps / v, dtype=logits.data.dtype)
            q[np.arange(n), targets] += 1.0 - eps
            gl = (p - q) * (weights / wsum)[:, None]
            logits.accumulate_grad(gl * g.reshape(()))
    return _result("cross_entropy", value, (logits,), bwd)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moment buffers and hyperparameters for the Adam update."""

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState):
    """One in-place Adam update with bias correction over named parameters.

    A parameter whose `requires_grad` is off is skipped entirely: its value
    and moment buffers stay untouched. A trainable one with no gradient is
    updated as if its gradient were zero.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        if not p.requires_grad:
            continue
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name}"
            )
        m = state.first_moment.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.first_moment[name] = m
            state.second_moment[name] = np.zeros_like(p.data)
        nu = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        nu *= b2
        nu += (1.0 - b2) * (g * g)
        update = np.sqrt(nu / c2)
        update += state.epsilon
        np.divide(m, update, out=update)
        update *= state.learning_rate / c1
        p.data -= update.astype(p.data.dtype, copy=False)


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

@dataclass
class SvdResult:
    """Thin SVD factors: a = u @ diag(sigma) @ vt, sigma non-increasing."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def svd(a: np.ndarray) -> SvdResult:
    """Thin SVD in double precision with validated factors."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"svd: need a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("svd: non-finite input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = s.shape[0]
    ortho_u = np.abs(u.T @ u - np.eye(k)).max()
    ortho_v = np.abs(vt @ vt.T - np.eye(k)).max()
    recon = np.linalg.norm(u @ np.diag(s) @ vt - a)
    bound = 1e-8 * max(1.0, np.linalg.norm(a))
    if ortho_u > 1e-8 or ortho_v > 1e-8 or recon > bound:
        raise TensorError(
            f"svd: factor validation failed (ortho {max(ortho_u, ortho_v):.2e}, "
            f"residual {recon:.2e})"
        )
    return SvdResult(u=u, sigma=s, vt=vt)
