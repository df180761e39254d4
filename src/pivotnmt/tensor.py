"""Dense tensors with reverse-mode automatic differentiation.

The substrate for all model math in this package: primitive ops recorded on
a dynamic tape, an Adam optimizer, and a double-precision SVD wrapper used by
the representation-space alignment solver.

`requires_grad` is the one switch for differentiation: ops record tape nodes,
and Adam updates parameters, only where it is on. A frozen parameter has it
off, so its part of the graph costs no tape node, backward work or update.

Conventions:
  * no implicit broadcasting -- elementwise ops require identical shapes,
    row-wise bias addition goes through `affine`, replication through `tile`
  * training arithmetic defaults to float32; gradient checks and SVD run in
    float64
  * any primitive producing a non-finite value raises `NonFiniteError`, and
    so does `backward` when a parameter's gradient is non-finite

The transformer's layers run on fused primitives, each one tape node with a
hand-written backward: `heads` (projection split into attention heads),
`attention` (scores to merged context), `feed_forward`, `residual` (dropout
keep-mask and add) and `embed` (token plus position, scale, dropout). Their
values and gradients equal those of the chains of elementary primitives they
replace bit for bit: the same kernels run in the same order, and the
gradients reach each tensor in the same order. Each checks its output, and
also the intermediate whose non-finite value it would otherwise hide:
`attention` the scaled scores before masking (a -inf score at a key that is
not masked becomes weight 0) and `feed_forward` its pre-activation
(`relu(-inf)` is 0).

`ArrayOps` holds the forward kernels of the primitives the model uses, on
plain arrays: the tape primitives compute their outputs with them, and the
model's array path (inference, and a frozen encoder in training) calls them
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
    if not np.isfinite(data).all():
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

    Raises `NonFiniteError` when a leaf (parameter) gradient holds a NaN or
    Inf, so that no optimizer step writes it into the parameters. The tape
    is cleared afterwards; a second backward through the same graph raises.
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
    leaves = [node for node in order if node._backward is None]
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._used = True
        node._backward = None
        node._parents = ()
    for leaf in leaves:
        if leaf.grad is not None:
            check_finite("backward", leaf.grad)


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def row_max(a: np.ndarray) -> np.ndarray:
    """`np.maximum.reduce(a, axis=-1, keepdims=True)`, the same values (NaN included).

    It serves the attention softmax only. A reduction along a short last
    axis pays a per-row cost; on a copy with the axes reversed the same
    maxima come from one pass along the first axis, many times faster for
    attention scores. The copy pays off only for short rows: on
    vocabulary-length rows it is several times slower than the direct
    reduction (`log_softmax` uses that), and the scores of a single query
    reduce in place.
    """
    if a.ndim < 2 or a.shape[-2] == 1:
        return np.maximum.reduce(a, axis=-1, keepdims=True)
    return np.maximum.reduce(np.ascontiguousarray(a.T), axis=0).T[..., None]


def _softmax(a):
    e = np.exp(a - row_max(a))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def log_softmax(a: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by each row's maximum: the
    log-probabilities of the training loss, of scoring and of beam search."""
    z = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def _layer_norm_parts(x, gain, bias, eps):
    """Layer norm output with the normalized input and inverse std its backward needs."""
    # add.reduce / d rounds like ndarray.mean (a float64 quotient rounded to
    # float32 is the float32 quotient), without mean's Python-level overhead
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv  # now xhat
    out = xc * gain
    out += bias
    return out, xc, inv


def _scatter_rows(table, ids, g):
    """Gradient of the row lookup `table[ids]`: the rows of g summed into a
    zero table at the rows ids name, in order, as `np.add.at(out, ids, g)`
    sums them, through a 1-D scatter on flat indices."""
    d = table.shape[1]
    out = np.zeros_like(table)
    flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    np.add.at(out.reshape(-1), flat, g.reshape(-1))
    return out


def _split_heads(y, rows, heads, keys=False):
    """(rows * length, d) -> (rows, heads, length, d/heads), or for keys
    (rows, heads, d/heads, length), as a contiguous array. At one position
    both layouts keep the memory order of y, so y is only reshaped (a view,
    contiguous when y is)."""
    dh = y.shape[1] // heads
    if y.shape[0] == rows:
        return y.reshape((rows, heads, dh, 1) if keys else (rows, heads, 1, dh))
    y = y.reshape(rows, -1, heads, dh)
    return np.ascontiguousarray(y.transpose((0, 2, 3, 1) if keys else (0, 2, 1, 3)))


def _merge_heads(a, keys=False):
    """The inverse of `_split_heads`: back to (rows * length, d)."""
    if a.shape[3 if keys else 2] == 1:
        return a.reshape(a.shape[0], -1)
    a = np.ascontiguousarray(a.transpose((0, 3, 1, 2) if keys else (0, 2, 1, 3)))
    return a.reshape(a.shape[0] * a.shape[1], -1)


def _attention_parts(q, k_t, v, mask):
    """Merged context rows with the scaled scores and the attention weights."""
    scores = q @ k_t
    scores *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        weights = _softmax(np.where(mask, np.asarray(-1e9, dtype=scores.dtype), scores))
    else:
        weights = _softmax(scores)
    return _merge_heads(weights @ v), scores, weights


def _feed_forward_parts(x, w1, b1, w2, b2):
    """Feed-forward output with the pre-activation and hidden activation."""
    pre = x @ w1
    pre += b1
    hidden = np.maximum(pre, 0)
    out = hidden @ w2
    out += b2
    return out, pre, hidden


class ArrayOps:
    """Forward kernels of the primitives the model uses, on plain arrays.

    The same names and arguments as the tape primitives, so model code runs
    on either op set. No tape, no shape checks and no finiteness check: the
    caller checks its final output once with `check_finite`.
    """

    @staticmethod
    def matmul(a, b):
        return a @ b

    @staticmethod
    def affine(x, w, b=None):
        y = x @ w
        if b is not None:
            y += b
        return y

    @staticmethod
    def layer_norm(x, gain, bias, eps: float = 1e-5):
        return _layer_norm_parts(x, gain, bias, eps)[0]

    @staticmethod
    def transpose(x, axes=None):
        # a contiguous copy: the products downstream see the same layout on both paths
        return np.ascontiguousarray(x.transpose(axes))

    @staticmethod
    def heads(x, w, b, rows, n_heads, keys=False):
        y = x @ w
        y += b
        return _split_heads(y, rows, n_heads, keys)

    @staticmethod
    def attention(q, k_t, v, mask=None):
        return _attention_parts(q, k_t, v, mask)[0]

    @staticmethod
    def feed_forward(x, w1, b1, w2, b2):
        return _feed_forward_parts(x, w1, b1, w2, b2)[0]

    @staticmethod
    def residual(x, y, keep=None):
        return x + (y if keep is None else y * keep)

    @staticmethod
    def embed(tok, pos, ids, start, scale, keep=None):
        rows, length = ids.shape
        x = tok[ids]
        x += pos[start:start + length]
        x *= scale
        x = x.reshape(rows * length, -1)
        if keep is not None:
            x *= keep
        return x


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
    return _result("add", a.data + b.data, (a, b), bwd)


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
    return _result("mul", a.data * b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)
    return _result("scale", a.data * c, (a,), bwd)


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


def _check_linear(op: str, x: Tensor, w: Tensor, b: Tensor | None):
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"{op}: x and w must be 2-D, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op}: inner dims differ for {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"{op}: bias shape {b.shape} != ({w.shape[1]},)")


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b added to every row); x is 2-D, w 2-D, b 1-D."""
    _check_linear("affine", x, w, b)
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
    return _result("relu", np.maximum(a.data, 0), (a,), bwd)


def _softmax_grad(g, out):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    out = _softmax(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_softmax_grad(g, out))
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
            # inv * (gx - m1 - xhat * m2), evaluated in place in that order
            gx = g * gain.data
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / d
            t = gx * xhat
            m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
            gx -= m1
            gx -= np.multiply(xhat, m2, out=t)
            gx *= inv
            x.accumulate_grad(gx)
    return _result("layer_norm", out, (x, gain, bias), bwd)


def _check_ids(op: str, table: Tensor, ids: np.ndarray) -> np.ndarray:
    if table.data.ndim != 2:
        raise ShapeError(f"{op}: table must be 2-D, got {table.shape}")
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"{op}: id out of range [0, {table.shape[0]}) in lookup")
    return ids


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape index the first axis of a 2-D table."""
    ids = _check_ids("embedding", table, ids)

    def bwd(g):
        if table.requires_grad:
            table.accumulate_grad(_scatter_rows(table.data, ids, g))
    return _result("embedding", table.data[ids], (table,), bwd)


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
    out = np.where(mask, np.asarray(value, dtype=x.data.dtype), x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(mask, 0, g))
    return _result("masked_fill", out, (x,), bwd)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        out = x.data.reshape(shape)
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

    logp = log_softmax(logits.data)
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
# fused layer primitives
# ---------------------------------------------------------------------------

def heads(x: Tensor, w: Tensor, b: Tensor, rows: int, n_heads: int, keys: bool = False) -> Tensor:
    """Projection `x @ w + b` of (rows * length, d_in) rows, split into heads:
    (rows, heads, length, d/heads), or with `keys` the transposed layout the
    score product takes, (rows, heads, d/heads, length)."""
    _check_linear("heads", x, w, b)
    if x.shape[0] % rows or w.shape[1] % n_heads:
        raise ShapeError(f"heads: {x.shape} @ {w.shape} does not split into {rows} rows x {n_heads} heads")
    out = ArrayOps.heads(x.data, w.data, b.data, rows, n_heads, keys)

    def bwd(g):
        g = _merge_heads(g, keys)
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
    return _result("heads", out, (x, w, b), bwd)


def attention(q: Tensor, k_t: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention, heads merged: (rows * lq, d).

    q is (rows, heads, lq, dh), k_t (rows, heads, dh, lk) and v (rows, heads,
    lk, dh). `mask` is a bool array broadcasting to the (rows, heads, lq, lk)
    scores, True where a key is blocked, or None. Checks the scaled scores
    before masking as well as the output.
    """
    if q.data.ndim != 4 or k_t.data.ndim != 4 or v.data.ndim != 4:
        raise ShapeError(f"attention: need rank 4, got {q.shape}, {k_t.shape}, {v.shape}")
    rows, h, lq, dh = q.shape
    lk = k_t.shape[3]
    if k_t.shape != (rows, h, dh, lk) or v.shape != (rows, h, lk, dh):
        raise ShapeError(f"attention: q {q.shape}, keys {k_t.shape}, values {v.shape} disagree")
    if mask is not None:
        try:
            np.broadcast_to(mask, (rows, h, lq, lk))
        except ValueError:
            raise ShapeError(f"attention: mask {mask.shape} does not broadcast to {(rows, h, lq, lk)}") from None
    out, scores, weights = _attention_parts(q.data, k_t.data, v.data, mask)
    check_finite("attention scores", scores)
    c = 1.0 / math.sqrt(dh)

    def bwd(g):
        g = _split_heads(g, rows, h)
        if q.requires_grad or k_t.requires_grad:
            gs = _softmax_grad(g @ np.swapaxes(v.data, -1, -2), weights)
            if mask is not None:
                gs = np.where(mask, 0, gs)
            gs *= c
            if q.requires_grad:
                q.accumulate_grad(gs @ np.swapaxes(k_t.data, -1, -2))
            if k_t.requires_grad:
                k_t.accumulate_grad(np.swapaxes(q.data, -1, -2) @ gs)
        if v.requires_grad:
            v.accumulate_grad(np.swapaxes(weights, -1, -2) @ g)
    return _result("attention", out, (q, k_t, v), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`relu(x @ w1 + b1) @ w2 + b2` on 2-D x; checks the pre-activation as
    well as the output."""
    _check_linear("feed_forward", x, w1, b1)
    if w2.data.ndim != 2 or w2.shape[0] != w1.shape[1] or b2.shape != (w2.shape[1],):
        raise ShapeError(f"feed_forward: second layer {w2.shape}, {b2.shape} does not follow {w1.shape}")
    out, pre, hidden = _feed_forward_parts(x.data, w1.data, b1.data, w2.data, b2.data)
    check_finite("feed_forward pre-activation", pre)

    def bwd(g):
        if w2.requires_grad:
            w2.accumulate_grad(hidden.T @ g)
        if b2.requires_grad:
            b2.accumulate_grad(g.sum(axis=0))
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gpre = (g @ w2.data.T) * (pre > 0)
            if x.requires_grad:
                x.accumulate_grad(gpre @ w1.data.T)
            if w1.requires_grad:
                w1.accumulate_grad(x.data.T @ gpre)
            if b1.requires_grad:
                b1.accumulate_grad(gpre.sum(axis=0))
    return _result("feed_forward", out, (x, w1, b1, w2, b2), bwd)


def residual(x: Tensor, y: Tensor, keep: np.ndarray | None = None) -> Tensor:
    """`x + y * keep`: a sublayer output y after its dropout keep-mask (None
    for no dropout), added to the residual stream x of the same shape."""
    _require_same_shape("residual", x, y)
    if keep is not None and keep.shape != y.shape:
        raise ShapeError(f"residual: keep-mask shape {keep.shape} != {y.shape}")

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if y.requires_grad:
            y.accumulate_grad(g if keep is None else g * keep)
    return _result("residual", ArrayOps.residual(x.data, y.data, keep), (x, y), bwd)


def embed(
    tok: Tensor, pos: Tensor, ids: np.ndarray, start: int, scale: float, keep: np.ndarray | None = None
) -> Tensor:
    """Token plus position embeddings of ids (rows, length) at positions
    start, start + 1, ...; times `scale`, then the dropout keep-mask (None
    for no dropout). Output rows are (rows * length, d)."""
    ids = _check_ids("embed", tok, ids)
    if ids.ndim != 2:
        raise ShapeError(f"embed: ids must be (rows, length), got {ids.shape}")
    rows, length = ids.shape
    if pos.data.ndim != 2 or pos.shape[1] != tok.shape[1] or start < 0 or start + length > pos.shape[0]:
        raise ShapeError(f"embed: positions {start}..{start + length} do not fit table {pos.shape}")
    if keep is not None and keep.shape != (rows * length, tok.shape[1]):
        raise ShapeError(f"embed: keep-mask shape {keep.shape} != {(rows * length, tok.shape[1])}")
    scale = float(scale)
    out = ArrayOps.embed(tok.data, pos.data, ids, start, scale, keep)

    def bwd(g):
        if keep is not None:
            g = g * keep
        g = g * scale
        if tok.requires_grad:
            tok.accumulate_grad(_scatter_rows(tok.data, ids, g))
        if pos.requires_grad:
            # positions repeat across rows: a sequential sum over the rows,
            # in the order np.add.at would add them
            gp = np.zeros_like(pos.data)
            np.add.reduce(g.reshape(rows, length, -1), axis=0, out=gp[start:start + length])
            pos.accumulate_grad(gp)
    return _result("embed", out, (tok, pos), bwd)


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
