"""Model invariants: gradients, causal masking, padding invariance, adapter hook."""

import math

import numpy as np
import pytest

from pivotnmt import bpe
from pivotnmt import tensor as T
from pivotnmt.adapter import make_baseline_adapter
from pivotnmt.data import Batch
from pivotnmt.model import ModelConfig, ModelError, Seq2SeqModel, init_params


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


def test_frozen_group_receives_no_update():
    model = tiny_model(dtype="float32")
    rng = np.random.default_rng(4)
    batch = random_batch(model, rng)
    frozen = model.frozen_param_names({"encoder", "src_embed"})
    before = {n: model.params[n].data.tobytes() for n in frozen}
    state = T.AdamState(learning_rate=1e-2)
    for _ in range(3):
        model.zero_grad()
        T.backward(model.forward_loss(batch))
        T.adam_step(model.params, state, frozen=frozen)
    for n in frozen:
        assert model.params[n].data.tobytes() == before[n]
    moved = [
        n for n in model.param_names("decoder") if model.params[n].grad is not None
    ]
    assert moved


# ---------------------------------------------------------------------------
# incremental decoding
# ---------------------------------------------------------------------------

# float32 incremental vs full-prefix decoding: only the BLAS summation order differs
STEP_RTOL, STEP_ATOL = 1e-4, 1e-5


def full_prefix_logits(model, prefix, memory, src):
    """Logits of each row's last position, re-running the decoder over the whole prefix."""
    with T.no_grad():
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
