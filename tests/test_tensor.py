"""Tensor core: forward ops, tape gradients vs finite differences, Adam, SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt import tensor as T


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. every entry of x (float64)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def check_grad(make_loss, params, rtol=1e-6):
    """Compare tape gradients of a scalar loss against finite differences."""
    loss = make_loss()
    T.backward(loss)
    for p in params:
        num = fd_grad(lambda: make_loss().item(), p.data)
        ana = p.grad
        assert ana is not None
        denom = np.maximum(np.abs(num), 1e-3)
        assert np.max(np.abs(ana - num) / denom) < rtol, f"grad mismatch: {ana} vs {num}"
        p.zero_grad()


def rand_param(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
    np.testing.assert_allclose(out.data, a, rtol=1e-6)


def test_cross_entropy_hand_value():
    # -log(e^2 / (e^2 + 1))
    loss = T.cross_entropy_logits(
        T.Tensor([[2.0, 0.0]], dtype=np.float64), np.array([0])
    )
    assert abs(loss.item() - 0.126928) < 1e-5


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(T.ShapeError) as e:
        T.add(T.Tensor([1.0, 2.0]), T.Tensor([[1.0], [2.0]]))
    msg = str(e.value)
    assert "add" in msg and "(2,)" in msg and "(2, 1)" in msg


def test_non_finite_output_raises():
    big = T.Tensor(np.full((2, 2), 3e38, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.add(big, big)


def test_check_finite_passes_huge_finite_values_and_rejects_each_non_finite():
    huge = np.full(4, 3e38, np.float32)  # finite, but the sum overflows
    assert T.check_finite("op", huge) is huge
    T.check_finite("op", np.array([3e38, 3e38, -3e38, -3e38], np.float32))
    for bad in (np.nan, np.inf, -np.inf):
        data = huge.copy()
        data[2] = bad
        with pytest.raises(T.NonFiniteError, match="op"):
            T.check_finite("op", data)


def test_masked_fill_and_concat():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    m = np.array([[True, False, False], [False, False, True]])
    out = T.masked_fill(x, m, -1.0)
    assert out.data[0, 0] == -1.0 and out.data[1, 2] == -1.0 and out.data[0, 1] == 1.0
    c = T.concat([x, x], axis=1)
    assert c.shape == (2, 6)


def test_out_of_range_embedding_id():
    table = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(T.ShapeError):
        T.embedding(table, np.array([0, 4]))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_analytic_square_sum():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(T.mul(x, x))


def test_double_backward_rejected():
    x = T.Tensor([1.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    with pytest.raises(T.TensorError):
        T.backward(loss)


def test_detached_leaf_gets_no_grad():
    x = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
    y = T.Tensor([3.0, 4.0], requires_grad=True, dtype=np.float64)
    loss = T.tsum(T.mul(y, y))
    T.backward(loss)
    assert x.grad is None
    assert y.grad is not None


@pytest.mark.parametrize("seed", range(10))
def test_fd_matmul_affine(seed):
    rng = np.random.default_rng(seed)
    a = rand_param(rng, 3, 4)
    b = rand_param(rng, 4, 2)
    bias = rand_param(rng, 2)
    check_grad(lambda: T.tsum(T.mul(y := T.affine(a, b, bias), y)), [a, b, bias])


@pytest.mark.parametrize("seed", range(10))
def test_fd_batched_matmul(seed):
    rng = np.random.default_rng(seed)
    a = rand_param(rng, 2, 3, 4)
    b = rand_param(rng, 2, 4, 3)
    check_grad(lambda: T.tsum(T.mul(y := T.matmul(a, b), y)), [a, b])


@pytest.mark.parametrize("seed", range(10))
def test_fd_softmax_relu_norm(seed):
    rng = np.random.default_rng(seed)
    x = rand_param(rng, 3, 5)
    gain = rand_param(rng, 5)
    bias = rand_param(rng, 5)
    w = T.Tensor(rng.standard_normal((3, 5)), dtype=np.float64)

    def loss():
        h = T.layer_norm(x, gain, bias)
        h = T.relu(h)
        s = T.softmax(h)
        return T.tsum(T.mul(s, T.Tensor(w.data, dtype=np.float64)))

    check_grad(loss, [x, gain, bias], rtol=2e-5)


@pytest.mark.parametrize("seed", range(10))
def test_fd_cross_entropy_embedding(seed):
    rng = np.random.default_rng(seed)
    table = rand_param(rng, 6, 4)
    proj = rand_param(rng, 4, 6)
    ids = rng.integers(0, 6, size=5)
    targets = rng.integers(0, 6, size=5)
    weights = rng.random(5) + 0.1

    def loss():
        h = T.embedding(table, ids)
        logits = T.matmul(h, proj)
        return T.cross_entropy_logits(logits, targets, weights, label_smoothing=0.1)

    check_grad(loss, [table, proj], rtol=1e-5)


@pytest.mark.parametrize("seed", range(6))
def test_fd_reshape_transpose_concat_tile_mask(seed):
    rng = np.random.default_rng(seed)
    x = rand_param(rng, 2, 6)
    y = rand_param(rng, 2, 6)
    mask = rng.random((4, 3)) < 0.3

    def loss():
        c = T.concat([x, y], axis=0)
        r = T.reshape(c, (4, 3, 2))
        t = T.transpose(r, (0, 2, 1))
        m = T.masked_fill(T.reshape(t, (4, 6)), np.repeat(mask, 2, axis=1), 0.5)
        tl = T.tile(T.tmean(m), 3)
        return T.tsum(T.mul(tl, tl))

    check_grad(loss, [x, y])


def test_forward_deterministic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8)).astype(np.float32)
    r1 = T.softmax(T.matmul(T.Tensor(a), T.Tensor(a))).data
    r2 = T.softmax(T.matmul(T.Tensor(a), T.Tensor(a))).data
    assert np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_grad_keeps_params():
    p = T.Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    state = T.AdamState(learning_rate=0.1)
    for _ in range(5):
        p.grad = np.zeros_like(p.data)
        T.adam_step({"p": p}, state)
    assert np.array_equal(p.data, before)
    assert state.step_count == 5


def test_adam_single_step_hand_value():
    p = T.Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([1.0])
    state = T.AdamState(learning_rate=0.1)
    T.adam_step({"p": p}, state)
    assert abs(p.data[0] - (-0.1)) < 1e-8


def test_adam_frozen_param_bitwise_unchanged():
    # requires_grad off is what freezes: a stray gradient and existing
    # moments are ignored, while the trainable neighbour moves
    p = T.Tensor(np.array([0.5, -0.5], dtype=np.float32), requires_grad=True)
    q = T.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    state = T.AdamState(learning_rate=0.1)
    p.grad = q.grad = np.ones(2, dtype=np.float32)
    T.adam_step({"p": p, "q": q}, state)
    p.requires_grad = False
    before = [a.tobytes() for a in (p.data, state.first_moment["p"], state.second_moment["p"])]
    q_before = q.data.copy()
    for _ in range(3):
        p.grad = q.grad = np.ones(2, dtype=np.float32)
        T.adam_step({"p": p, "q": q}, state)
    after = [a.tobytes() for a in (p.data, state.first_moment["p"], state.second_moment["p"])]
    assert after == before
    assert not np.array_equal(q.data, q_before)
    fresh = T.Tensor(np.array([0.5], dtype=np.float32))  # never trainable
    fresh.grad = np.ones(1, dtype=np.float32)
    T.adam_step({"fresh": fresh}, state)
    assert fresh.data[0] == np.float32(0.5)
    assert "fresh" not in state.first_moment


def test_adam_trainable_param_without_grad_takes_zero_grad_update():
    p = T.Tensor(np.array([0.5, -0.5]), requires_grad=True)
    q = T.Tensor(np.array([0.5, -0.5]), requires_grad=True)
    sp, sq = T.AdamState(learning_rate=0.1), T.AdamState(learning_rate=0.1)
    p.grad = q.grad = np.array([1.0, -1.0])
    T.adam_step({"p": p}, sp)
    T.adam_step({"q": q}, sq)
    p.grad, q.grad = None, np.zeros(2)
    T.adam_step({"p": p}, sp)
    T.adam_step({"q": q}, sq)
    assert p.data.tobytes() == q.data.tobytes()
    assert sp.first_moment["p"].tobytes() == sq.first_moment["q"].tobytes()


def test_adam_shape_mismatch():
    p = T.Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.zeros(2)
    with pytest.raises(T.ShapeError):
        T.adam_step({"p": p}, T.AdamState())


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

def test_svd_diag():
    r = T.svd(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(r.sigma, [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(r.u), np.eye(2), atol=1e-12)


def test_svd_permutation_sigma():
    r = T.svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(r.sigma, [1.0, 1.0], atol=1e-12)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 5))
    r = T.svd(a)
    assert np.linalg.norm(r.u @ np.diag(r.sigma) @ r.vt - a) <= 1e-10
    assert np.all(np.diff(r.sigma) <= 0) and np.all(r.sigma >= 0)


def test_svd_rejects_non_finite():
    with pytest.raises(T.NonFiniteError):
        T.svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
def test_svd_invariants_property(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    r = T.svd(a)
    k = min(m, n)
    assert np.abs(r.u.T @ r.u - np.eye(k)).max() <= 1e-8
    assert np.abs(r.vt @ r.vt.T - np.eye(k)).max() <= 1e-8
    assert np.linalg.norm(r.u @ np.diag(r.sigma) @ r.vt - a) <= 1e-8 * max(
        1.0, np.linalg.norm(a)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((4, 7)) * 3, dtype=np.float64)
    s = T.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)
    assert np.all(s >= 0)


# ---------------------------------------------------------------------------
# fused layer primitives
# ---------------------------------------------------------------------------

def weighted_sum(y, rng):
    """A scalar loss with a non-uniform gradient on every entry of y."""
    return T.tsum(T.mul(y, T.Tensor(rng.standard_normal(y.shape), dtype=np.float64)))


@pytest.mark.parametrize("keys", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_fd_heads(seed, keys):
    rng = np.random.default_rng(seed)
    x = rand_param(rng, 6, 4)  # 2 rows of length 3
    w = rand_param(rng, 4, 6)
    b = rand_param(rng, 6)
    out = T.heads(x, w, b, 2, 3, keys=keys)
    assert out.shape == ((2, 3, 2, 3) if keys else (2, 3, 3, 2))
    check_grad(lambda: weighted_sum(T.heads(x, w, b, 2, 3, keys=keys), np.random.default_rng(9)), [x, w, b])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_fd_attention(seed, masked):
    rng = np.random.default_rng(seed)
    q = rand_param(rng, 2, 2, 3, 4)
    k_t = rand_param(rng, 2, 2, 4, 5)
    v = rand_param(rng, 2, 2, 5, 4)
    mask = None
    if masked:
        mask = rng.random((2, 1, 1, 5)) < 0.4
        mask[..., 0] = False  # every query keeps a key
    out = T.attention(q, k_t, v, mask)
    assert out.shape == (6, 8)
    check_grad(lambda: weighted_sum(T.attention(q, k_t, v, mask), np.random.default_rng(9)), [q, k_t, v])


@pytest.mark.parametrize("seed", range(6))
def test_fd_feed_forward(seed):
    rng = np.random.default_rng(seed)
    x = rand_param(rng, 5, 4)
    w1 = rand_param(rng, 4, 6)
    b1 = rand_param(rng, 6)
    w2 = rand_param(rng, 6, 3)
    b2 = rand_param(rng, 3)
    make_loss = lambda: weighted_sum(T.feed_forward(x, w1, b1, w2, b2), np.random.default_rng(9))
    check_grad(make_loss, [x, w1, b1, w2, b2])


@pytest.mark.parametrize("seed", range(4))
def test_fd_residual_with_keep_mask(seed):
    rng = np.random.default_rng(seed)
    x = rand_param(rng, 4, 3)
    y = rand_param(rng, 4, 3)
    keep = (rng.random((4, 3)) >= 0.3) / 0.7
    check_grad(lambda: weighted_sum(T.residual(x, y, keep), np.random.default_rng(9)), [x, y])


@pytest.mark.parametrize("seed", range(4))
def test_fd_embed_repeated_ids_from_a_later_start(seed):
    rng = np.random.default_rng(seed)
    tok = rand_param(rng, 7, 4)
    pos = rand_param(rng, 6, 4)
    ids = np.array([[1, 3, 1], [3, 3, 0]])
    keep = (rng.random((6, 4)) >= 0.3) / 0.7
    make_loss = lambda: weighted_sum(T.embed(tok, pos, ids, 2, 1.7, keep), np.random.default_rng(9))
    check_grad(make_loss, [tok, pos])


def test_fused_primitives_reject_shapes_they_cannot_take():
    rng = np.random.default_rng(0)
    x, w, b = rand_param(rng, 6, 4), rand_param(rng, 4, 6), rand_param(rng, 6)
    with pytest.raises(T.ShapeError):
        T.heads(x, w, b, 4, 3)  # 6 rows do not split into 4 sentences
    q, k_t, v = rand_param(rng, 1, 2, 3, 4), rand_param(rng, 1, 2, 4, 5), rand_param(rng, 1, 2, 5, 4)
    with pytest.raises(T.ShapeError):
        T.attention(q, k_t, v, np.zeros((2, 5), dtype=bool))
    with pytest.raises(T.ShapeError):
        T.attention(q, v, k_t)
    with pytest.raises(T.ShapeError):
        T.embed(rand_param(rng, 7, 4), rand_param(rng, 6, 4), np.array([[1, 2, 3]]), 4, 1.0)
    with pytest.raises(T.ShapeError):
        T.embed(rand_param(rng, 7, 4), rand_param(rng, 6, 4), np.array([[1, 7]]), 0, 1.0)
    with pytest.raises(T.ShapeError):
        T.residual(x, rand_param(rng, 6, 4), np.ones((6, 3)))


def test_attention_raises_on_a_minus_inf_score_at_an_unmasked_key():
    q = T.Tensor(np.array([1.0, 0.0], np.float32).reshape(1, 1, 1, 2))
    k_t = T.Tensor(np.array([[-np.inf, 1.0], [0.0, 0.0]], np.float32).reshape(1, 1, 2, 2))
    v = T.Tensor(np.ones((1, 1, 2, 2), np.float32))
    # the key's weight is 0, so the output alone is finite
    assert np.isfinite(T.ArrayOps.attention(q.data, k_t.data, v.data)).all()
    with pytest.raises(T.NonFiniteError, match="scores"):
        T.attention(q, k_t, v)


def test_feed_forward_raises_on_a_minus_inf_pre_activation():
    x = T.Tensor(np.array([[1.0, 0.0]], np.float32))
    w1 = T.Tensor(np.array([[-np.inf], [0.0]], np.float32))
    b1 = T.Tensor(np.zeros(1, np.float32))
    w2 = T.Tensor(np.ones((1, 2), np.float32))
    b2 = T.Tensor(np.zeros(2, np.float32))
    # relu(-inf) is 0, so the output alone is finite
    assert np.isfinite(T.ArrayOps.feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)).all()
    with pytest.raises(T.NonFiniteError, match="pre-activation"):
        T.feed_forward(x, w1, b1, w2, b2)


def test_backward_raises_on_an_overflowing_fused_gradient_before_any_update():
    # the forward pass is finite; the input gradient is about 1e30 * 1e30
    f32 = np.float32
    x = T.Tensor(np.full((2, 3), 1e-30, f32), requires_grad=True)
    w1 = T.Tensor(np.full((3, 4), 1e30, f32), requires_grad=True)
    b1 = T.Tensor(np.zeros(4, f32), requires_grad=True)
    w2 = T.Tensor(np.full((4, 2), 1e30, f32), requires_grad=True)
    b2 = T.Tensor(np.zeros(2, f32), requires_grad=True)
    params = {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}
    before = {n: p.data.tobytes() for n, p in params.items()}
    loss = T.tsum(T.feed_forward(x, w1, b1, w2, b2))
    assert np.isfinite(loss.item())
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="backward"):
        T.backward(loss)
        T.adam_step(params, T.AdamState())
    assert {n: p.data.tobytes() for n, p in params.items()} == before


# ---------------------------------------------------------------------------
# exact replacements of slow reductions
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.sampled_from([np.float32, np.float64]),
)
def test_row_max_equals_maximum_reduce_including_nan_rows(seed, shape, dtype):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape).astype(dtype)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=dtype)
    hit = rng.random(shape) < 0.15
    a[hit] = rng.choice(specials, size=int(hit.sum()))
    got = T.row_max(a)
    want = np.maximum.reduce(a, axis=-1, keepdims=True)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 5),
    st.integers(0, 3),
    st.booleans(),
)
def test_embed_table_gradients_equal_the_two_dimensional_scatter(seed, rows, length, start, dropout):
    rng = np.random.default_rng(seed)
    v, n_pos, d = 5, 8, 3
    tok = T.Tensor(rng.standard_normal((v, d)), requires_grad=True, dtype=np.float32)
    pos = T.Tensor(rng.standard_normal((n_pos, d)), requires_grad=True, dtype=np.float32)
    ids = rng.integers(0, v, size=(rows, length))  # small vocabulary: ids repeat
    keep = ((rng.random((rows * length, d)) >= 0.5) * 2.0).astype(np.float32) if dropout else None
    g = rng.standard_normal((rows * length, d)).astype(np.float32)
    g[rng.random(g.shape) < 0.2] = -0.0
    T.backward(T.tsum(T.mul(T.embed(tok, pos, ids, start, 1.3, keep), T.Tensor(g))))

    # the gradient the chain embedding(tok) + embedding(pos) -> scale -> dropout pushes
    gx = (g if keep is None else g * keep) * 1.3
    want_tok = np.zeros_like(tok.data)
    np.add.at(want_tok, ids.ravel(), gx)
    want_pos = np.zeros_like(pos.data)
    np.add.at(want_pos, np.broadcast_to(np.arange(start, start + length), (rows, length)).ravel(), gx)
    assert tok.grad.tobytes() == want_tok.tobytes()
    assert pos.grad.tobytes() == want_pos.tobytes()
