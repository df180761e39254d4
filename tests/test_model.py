"""Model invariants: gradients, causal masking, padding invariance, adapter hook."""

import math

import numpy as np
import pytest

from pivotnmt import bpe
from pivotnmt import tensor as T
from pivotnmt.adapter import collect_pairs, make_baseline_adapter
from pivotnmt.data import Batch, ParallelCorpus
from pivotnmt.decoding import BeamConfig, beam_search_batch
from pivotnmt.model import DecodeState, ModelConfig, ModelError, Seq2SeqModel, init_params


def tiny_vocab(prefix, n):
    return bpe.build_vocab([[[f"{prefix}{i}"] for i in range(n)]])


def tiny_model(seed=0, dtype="float64", dropout=0.0, **kw) -> Seq2SeqModel:
    sizes = dict(layers=1, model_dim=8, ff_dim=16, heads=2, max_len=16)
    cfg = ModelConfig(dropout=dropout, dtype=dtype, **{**sizes, **kw})
    return init_params(cfg, tiny_vocab("s", 7), tiny_vocab("t", 9), seed)


def random_batch(model, rng, b=3, ls=5, lt=6) -> Batch:
    sv, tv = model.src_vocab, model.tgt_vocab
    src = rng.integers(sv.n_special, len(sv), size=(b, ls))
    tgt = rng.integers(tv.n_special, len(tv), size=(b, lt))
    # right-pad a ragged tail
    src[0, -1] = sv.pad_id
    tgt[1, -2:] = tv.pad_id
    return Batch(src=src, tgt=tgt, n_pairs=b)


def test_config_head_divisibility():
    with pytest.raises(ModelError):
        ModelConfig(model_dim=10, heads=4)


def test_init_deterministic_and_seed_sensitive():
    a = tiny_model(seed=1)
    b = tiny_model(seed=1)
    c = tiny_model(seed=2)
    for n in a.params:
        assert np.array_equal(a.params[n].data, b.params[n].data)
    assert any(
        not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
    )


def test_desk_scale_parameter_count_pinned():
    cfg = ModelConfig()  # desk-scale default: 2 layers, d=128, ff=256, heads=4
    model = init_params(cfg, tiny_vocab("s", 100), tiny_vocab("t", 100), 0)
    assert model.parameter_count() == 706_048
    assert model.parameter_count() == init_params(
        ModelConfig(), tiny_vocab("s", 100), tiny_vocab("t", 100), 3
    ).parameter_count()


def test_every_param_in_exactly_one_group():
    model = tiny_model()
    groups = model.group_names()
    assert set(groups) <= {"src_embed", "encoder", "tgt_embed", "decoder", "output_proj"}
    total = sum(len(model.param_names(g)) for g in groups)
    assert total == len(model.params)


def test_untied_output_projection_group():
    model = tiny_model(tied_output_embedding=False)
    assert model.param_names("output_proj") == ["output_proj/w"]
    tied = tiny_model()
    assert tied.param_names("output_proj") == []


def test_encode_shape_and_oov():
    model = tiny_model()
    out = model.encode(np.array([[4, 5, 6]]))
    assert out.shape == (1, 3, 8)
    with pytest.raises(ModelError):
        model.encode(np.array([[99]]))


def test_adapter_identity_matches_plain_encode():
    model = tiny_model()
    ids = np.array([[4, 5, 6, 2]])
    ident = make_baseline_adapter("identity", 8)
    a = model.encode(ids).data
    b = model.encode(ids, adapter=ident).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_adapter_linearity_exact():
    model = tiny_model()
    ids = np.array([[4, 5, 6], [5, 6, 4]])
    adapter = make_baseline_adapter("random", 8, seed=3)
    plain = model.encode(ids).data
    mapped = model.encode(ids, adapter=adapter).data
    direct = plain.reshape(-1, 8) @ adapter.m.T
    np.testing.assert_array_equal(mapped.reshape(-1, 8), direct)


def test_untrained_loss_close_to_log_vocab():
    v = 50
    cfg = ModelConfig(layers=1, model_dim=16, ff_dim=32, heads=2, dropout=0.0,
                      label_smoothing=0.0, dtype="float64")
    model = init_params(cfg, tiny_vocab("s", v), tiny_vocab("t", v), 0)
    rng = np.random.default_rng(0)
    b = 16
    src = rng.integers(4, v + 4, size=(b, 6))
    tgt = rng.integers(4, v + 4, size=(b, 6))
    loss = model.forward_loss(Batch(src=src, tgt=tgt, n_pairs=b)).item()
    expected = math.log(v + 4)
    assert abs(loss - expected) / expected < 0.10


def test_all_padding_target_rejected():
    model = tiny_model()
    src = np.array([[4, 5]])
    tgt = np.full((1, 3), model.tgt_vocab.pad_id)
    with pytest.raises(ModelError):
        model.forward_loss(Batch(src=src, tgt=tgt, n_pairs=1))


def test_causal_masking_by_perturbation():
    model = tiny_model()
    rng = np.random.default_rng(1)
    src = np.array([[4, 5, 6]])
    tgt_in = np.array([[1, 5, 6, 7]])  # bos + tokens
    memory = model.encode(src)
    base = model.decode_states(tgt_in, memory, src).data
    for t in range(1, 4):
        perturbed = tgt_in.copy()
        perturbed[0, t:] = rng.integers(4, 9, size=4 - t)
        out = model.decode_states(perturbed, model.encode(src), src).data
        np.testing.assert_allclose(out[0, :t], base[0, :t], atol=1e-10)


def test_padding_invariance_per_sentence_loss():
    model = tiny_model()
    rng = np.random.default_rng(2)
    batch = random_batch(model, rng)
    losses = model.per_sentence_loss(batch)
    wider = Batch(
        src=np.pad(batch.src, ((0, 0), (0, 3)), constant_values=model.src_vocab.pad_id),
        tgt=np.pad(batch.tgt, ((0, 0), (0, 2)), constant_values=model.tgt_vocab.pad_id),
        n_pairs=batch.n_pairs,
    )
    np.testing.assert_allclose(model.per_sentence_loss(wider), losses, atol=1e-6)


def test_dropout_seeded_and_train_only():
    model = tiny_model(dtype="float32", dropout=0.5)
    ids = np.array([[4, 5, 6]])
    e1 = model.encode(ids).data
    e2 = model.encode(ids).data
    assert np.array_equal(e1, e2)  # eval mode: no dropout
    model.set_train(True, np.random.default_rng(7))
    d1 = model.encode(ids).data
    model.set_train(True, np.random.default_rng(7))
    d2 = model.encode(ids).data
    assert np.array_equal(d1, d2)
    model.set_train(False)


def full_model_grad_check(model, batch, n_coords=24, h=1e-5, tol=1e-4):
    """Spot-check analytic grads of the full loss on random parameter coords."""
    model.zero_grad()
    loss = model.forward_loss(batch)
    T.backward(loss)
    rng = np.random.default_rng(0)
    names = [n for n in model.param_names() if model.params[n].grad is not None]
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        p = model.params[name]
        flat_idx = int(rng.integers(p.data.size))
        idx = np.unravel_index(flat_idx, p.data.shape)
        orig = p.data[idx]
        p.data[idx] = orig + h
        up = model.forward_loss(batch).item()
        p.data[idx] = orig - h
        down = model.forward_loss(batch).item()
        p.data[idx] = orig
        num = (up - down) / (2 * h)
        ana = p.grad[idx]
        rel = abs(ana - num) / max(abs(ana), abs(num), 1e-3)
        worst = max(worst, rel)
        assert rel < tol, f"{name}[{idx}]: analytic {ana} vs numeric {num}"
    return worst


def test_full_loss_gradient_matches_finite_differences():
    model = tiny_model(dtype="float64")
    rng = np.random.default_rng(3)
    batch = random_batch(model, rng)
    full_model_grad_check(model, batch)


def freeze(model, groups) -> set:
    names = model.frozen_param_names(groups)
    for n in names:
        model.params[n].requires_grad = False
    return names


def test_frozen_group_receives_no_update():
    model = tiny_model(dtype="float32")
    rng = np.random.default_rng(4)
    batch = random_batch(model, rng)
    state = T.AdamState(learning_rate=1e-2)
    # one step with every group trainable, so the encoder has moment buffers
    T.backward(model.forward_loss(batch))
    T.adam_step(model.params, state)
    frozen = freeze(model, {"encoder", "src_embed"})

    def snapshot(n):
        return [a.tobytes() for a in (model.params[n].data, state.first_moment[n], state.second_moment[n])]

    before = {n: snapshot(n) for n in frozen}
    decoder_before = {n: model.params[n].data.copy() for n in model.param_names("decoder")}
    for _ in range(3):
        model.zero_grad()
        T.backward(model.forward_loss(batch))
        T.adam_step(model.params, state)
    for n in frozen:
        assert snapshot(n) == before[n]
        assert model.params[n].grad is None
    assert all(model.params[n].grad is not None for n in decoder_before)
    assert all(not np.array_equal(model.params[n].data, a) for n, a in decoder_before.items())


def test_frozen_encoder_leaves_the_tape():
    model = tiny_model(dtype="float32")
    batch = random_batch(model, np.random.default_rng(5))
    frozen = freeze(model, {"encoder", "src_embed"})
    memory = model.encode(batch.src)
    assert not memory.requires_grad and memory._backward is None
    loss = model.forward_loss(batch)
    T.backward(loss)
    assert all(model.params[n].grad is None for n in frozen)
    trainable = set(model.params) - frozen
    # the output projection is tied to tgt_embed/tok by default, so every
    # trainable parameter takes part in the loss
    assert all(model.params[n].grad is not None for n in trainable)


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------

# float32 incremental vs full-prefix decoding: only the BLAS summation order differs
STEP_RTOL, STEP_ATOL = 1e-4, 1e-5


def full_prefix_logits(model, prefix, memory, src):
    """Logits of each row's last position, re-running the decoder over the whole prefix."""
    states = model.decode_states(prefix, T.Tensor(memory), src)
    logits = model.output_logits(states).data
    return logits.reshape(prefix.shape[0], prefix.shape[1], -1)[:, -1, :]


def test_step_logits_match_decode_states_with_reorder_and_adapter():
    model = tiny_model(dtype="float32", layers=2)
    rng = np.random.default_rng(7)
    sv, tv = model.src_vocab, model.tgt_vocab
    src = rng.integers(sv.n_special, len(sv), size=(2, 5))
    src[0, 3:] = sv.pad_id  # padded source
    adapter = make_baseline_adapter("random", 8, seed=3)
    memory = model.encode(src, adapter=adapter)
    state = model.start_decode(memory, src)

    sentence = np.arange(2)  # source sentence of each state row
    prefix = np.full((2, 1), tv.bos_id)
    # each step's reorder: keep, duplicate and drop rows as a beam search does
    reorders = [[0, 0, 1], [2, 0, 1, 1], [3, 0], [1, 0, 0]]
    for parents in [None] + reorders:
        if parents is not None:
            state.reorder(parents)
            sentence = sentence[parents]
            new = rng.integers(tv.n_special, len(tv), size=(len(parents), 1))
            prefix = np.concatenate([prefix[parents], new], axis=1)
        step = model.step_logits(prefix[:, -1:], state)
        full = full_prefix_logits(model, prefix, memory.data[sentence], src[sentence])
        assert step.shape == (len(sentence), len(tv))
        np.testing.assert_allclose(step, full, rtol=STEP_RTOL, atol=STEP_ATOL)
    assert state.length == prefix.shape[1]


def test_step_logits_rejects_bad_ids_and_positions_past_max_len():
    model = tiny_model(max_len=4)
    src = np.array([[4, 5, 6]])
    state = model.start_decode(model.encode(src), src)
    bos = np.array([[model.tgt_vocab.bos_id]])
    with pytest.raises(ModelError):
        model.step_logits(np.array([[99]]), state)
    with pytest.raises(ModelError):
        model.step_logits(np.array([bos[0, 0]]), state)  # not (rows, 1)
    for _ in range(4):
        model.step_logits(bos, state)
    with pytest.raises(ModelError):
        model.step_logits(bos, state)
    assert state.length == 4


# ---------------------------------------------------------------------------
# tape-free inference against the tape path
# ---------------------------------------------------------------------------

def padded_source(model, rng, rows=3, length=6):
    sv = model.src_vocab
    src = rng.integers(sv.n_special, len(sv), size=(rows, length))
    src[0, 4:] = sv.pad_id
    src[2, 5:] = sv.pad_id
    return src


def tape_heads(model, name, x2d, rows, length):
    h = model.config.heads
    y = T.affine(x2d, model.params[f"{name}/w"], model.params[f"{name}/b"])
    return T.transpose(T.reshape(y, (rows, length, h, model.config.model_dim // h)), (0, 2, 1, 3))


def tape_norm(model, name, x):
    return T.layer_norm(x, model.params[f"{name}/gain"], model.params[f"{name}/bias"])


def tape_attend(model, prefix, q, k_t, v, mask):
    rows, _, lq, dh = q.shape
    scores = T.scale(T.matmul(q, k_t), 1.0 / math.sqrt(dh))
    scores = T.masked_fill(scores, mask, -1e9)
    ctx = T.matmul(T.softmax(scores), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (rows * lq, model.config.model_dim))
    return T.affine(ctx, model.params[f"{prefix}/wo/w"], model.params[f"{prefix}/wo/b"])


def reference_start_decode(model, memory, src):
    """The tape path's decode state: cross keys/values projected with tape primitives."""
    b, ls, d = memory.shape
    h, layers = model.config.heads, model.config.layers
    mem2d = T.reshape(T.Tensor(memory), (b * ls, d))
    cross_k = [
        T.transpose(tape_heads(model, f"decoder/l{i}/cross_attn/wk", mem2d, b, ls), (0, 1, 3, 2)).data
        for i in range(layers)
    ]
    cross_v = [tape_heads(model, f"decoder/l{i}/cross_attn/wv", mem2d, b, ls).data for i in range(layers)]
    return DecodeState(
        self_k=[np.zeros((b, h, d // h, 0), dtype=memory.dtype)] * layers,
        self_v=[np.zeros((b, h, 0, d // h), dtype=memory.dtype)] * layers,
        cross_k=cross_k,
        cross_v=cross_v,
        src_pad=src == model.src_vocab.pad_id,
    )


def reference_step_logits(model, ids, state):
    """One decoder position per row through the tape primitives: the step
    that the array path replaces, kept as its oracle."""
    rows, t = state.rows, state.length
    d, h = model.config.model_dim, model.config.heads
    ls = state.src_pad.shape[1]
    cross_mask = np.broadcast_to(state.src_pad[:, None, None, :], (rows, h, 1, ls))
    no_mask = np.zeros((rows, h, 1, t + 1), dtype=bool)
    tok = T.embedding(model.params["tgt_embed/tok"], ids[:, 0])
    pos = T.embedding(model.params["tgt_embed/pos"], np.full(rows, t))
    x = T.scale(T.add(tok, pos), math.sqrt(d))
    for i in range(model.config.layers):
        p = f"decoder/l{i}"
        y = tape_norm(model, f"{p}/self_norm", x)
        q = tape_heads(model, f"{p}/self_attn/wq", y, rows, 1)
        k = T.transpose(tape_heads(model, f"{p}/self_attn/wk", y, rows, 1), (0, 1, 3, 2))
        v = tape_heads(model, f"{p}/self_attn/wv", y, rows, 1)
        state.self_k[i] = np.concatenate((state.self_k[i], k.data), axis=3)
        state.self_v[i] = np.concatenate((state.self_v[i], v.data), axis=2)
        a = tape_attend(model, f"{p}/self_attn", q, T.Tensor(state.self_k[i]),
                        T.Tensor(state.self_v[i]), no_mask)
        x = T.add(x, a)
        y = tape_norm(model, f"{p}/cross_norm", x)
        q = tape_heads(model, f"{p}/cross_attn/wq", y, rows, 1)
        a = tape_attend(model, f"{p}/cross_attn", q, T.Tensor(state.cross_k[i]),
                        T.Tensor(state.cross_v[i]), cross_mask)
        x = T.add(x, a)
        y = tape_norm(model, f"{p}/ff_norm", x)
        w1 = T.relu(T.affine(y, model.params[f"{p}/ff/w1/w"], model.params[f"{p}/ff/w1/b"]))
        x = T.add(x, T.affine(w1, model.params[f"{p}/ff/w2/w"], model.params[f"{p}/ff/w2/b"]))
    logits = model.output_logits(tape_norm(model, "decoder/final_norm", x)).data
    state.length = t + 1
    return logits


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("with_adapter", [False, True])
def test_array_path_equals_tape_path_bitwise(dtype, with_adapter):
    model = tiny_model(dtype=dtype, layers=2)
    rng = np.random.default_rng(11)
    tv = model.tgt_vocab
    src = padded_source(model, rng)
    tgt = rng.integers(tv.n_special, len(tv), size=(3, 5))
    tgt[1, -2:] = tv.pad_id
    adapter = make_baseline_adapter("random", 8, seed=5) if with_adapter else None
    dec_in = model.decoder_input(tgt)

    memory = model.encode(src, adapter=adapter)
    states = model.decode_states(dec_in, memory, src)
    logits = model.output_logits(states).data
    arr_memory = model.encode(src, adapter=adapter, tape=False)
    arr_states = model.decode_states(dec_in, arr_memory, src, tape=False)
    arr_logits = model.output_logits(arr_states, tape=False)
    assert type(arr_memory) is type(arr_states) is type(arr_logits) is np.ndarray
    assert np.array_equal(arr_memory, memory.data)
    assert np.array_equal(arr_states, states.data)
    assert np.array_equal(arr_logits, logits)

    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = logp[np.arange(tgt.size), tgt.ravel()].reshape(tgt.shape)
    got, mask = model.token_logprobs(Batch(src=src, tgt=tgt, n_pairs=3), adapter=adapter)
    assert np.array_equal(got, want)
    assert np.array_equal(mask, tgt != tv.pad_id)

    # incremental decoding: keep, duplicate and drop rows between steps
    state = model.start_decode(arr_memory, src)
    ref = reference_start_decode(model, memory.data, src)
    for a, b in zip(state.cross_k + state.cross_v, ref.cross_k + ref.cross_v):
        assert np.array_equal(a, b)
    ids = np.full((3, 1), tv.bos_id)
    for parents in [None, [0, 0, 2], [2, 0, 1, 1], [3, 1], [1, 0, 0]]:
        if parents is not None:
            state.reorder(parents)
            ref.reorder(parents)
            ids = rng.integers(tv.n_special, len(tv), size=(len(parents), 1))
        assert np.array_equal(model.step_logits(ids, state), reference_step_logits(model, ids, ref))
        for a, b in zip(state.self_k + state.self_v, ref.self_k + ref.self_v):
            assert np.array_equal(a, b)
    assert state.length == ref.length == 5


@pytest.mark.parametrize(
    "name, index, pooling_reads_it",
    [
        ("encoder/l0/ff/w1/w", (0, 0), True),
        ("src_embed/tok", (0, 0), True),  # row 0 is padding: only padding positions go bad first
        ("decoder/l0/ff/w1/w", (0, 0), False),
        ("decoder/l0/cross_attn/wk/w", (1, 2), False),
    ],
)
def test_non_finite_parameter_raises_on_every_inference_path(name, index, pooling_reads_it):
    model = tiny_model(dtype="float32")
    assert model.src_vocab.pad_id == 0
    rng = np.random.default_rng(12)
    src = padded_source(model, rng)
    tgt = rng.integers(model.tgt_vocab.n_special, len(model.tgt_vocab), size=(3, 4))
    sentences = [model.src_vocab.decode(row[row != model.src_vocab.pad_id]) for row in src]
    corpus = ParallelCorpus(pairs=[(s, s) for s in sentences], src_lang="src", tgt_lang="piv")
    model.params[name].data[index] = np.nan

    with pytest.raises(T.NonFiniteError):
        beam_search_batch(model, [list(row[row != model.src_vocab.pad_id]) for row in src], BeamConfig())
    with pytest.raises(T.NonFiniteError):
        model.token_logprobs(Batch(src=src, tgt=tgt, n_pairs=3))
    if pooling_reads_it:
        with pytest.raises(T.NonFiniteError):
            collect_pairs(corpus, model, model)
    else:  # pooling runs the encoder only
        assert np.isfinite(collect_pairs(corpus, model, model).s).all()
