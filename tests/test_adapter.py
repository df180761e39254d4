"""Adapter fitting: pooling, Procrustes exactness and optimality, the
adapter checkpoint, and the pool-then-SVD path it replaced as the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt.adapter import AdapterError, fit_adapter, pool_sentence, procrustes
from pivotnmt.checkpoint import Checkpoint
from pivotnmt.data import ParallelCorpus, pad_rows
from tests.test_model import baseline_adapter, tiny_model


def orthogonality_error(m):
    return np.abs(m.T @ m - np.eye(m.shape[0])).max()


def random_orthogonal_givens(d: int, seed: int, sweeps: int = 3) -> np.ndarray:
    """Orthogonal matrix from seeded Givens rotations (independent of SVD)."""
    rng = np.random.default_rng(seed)
    r = np.eye(d)
    for _ in range(sweeps * d):
        i, j = rng.choice(d, size=2, replace=False)
        theta = rng.uniform(0, 2 * np.pi)
        g = np.eye(d)
        g[i, i] = g[j, j] = np.cos(theta)
        g[i, j] = -np.sin(theta)
        g[j, i] = np.sin(theta)
        r = g @ r
    return r


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_average_pool():
    np.testing.assert_allclose(
        pool_sentence(np.array([[1.0, 2.0], [3.0, 4.0]]), "average"), [2.0, 3.0]
    )


def test_max_pool():
    np.testing.assert_allclose(
        pool_sentence(np.array([[1.0, 4.0], [3.0, 2.0]]), "max"), [3.0, 4.0]
    )


def test_single_position_pool_both_modes():
    row = np.array([[5.0, -1.0]])
    np.testing.assert_allclose(pool_sentence(row, "average"), row[0])
    np.testing.assert_allclose(pool_sentence(row, "max"), row[0])


def test_pool_excludes_padding_and_rejects_all_pad():
    states = np.array([[1.0, 1.0], [9.0, 9.0]])
    np.testing.assert_allclose(
        pool_sentence(states, "average", pad_mask=np.array([False, True])), [1.0, 1.0]
    )
    with pytest.raises(AdapterError):
        pool_sentence(states, "average", pad_mask=np.array([True, True]))


# ---------------------------------------------------------------------------
# Procrustes fit
# ---------------------------------------------------------------------------

def test_identity_recovery_when_sides_equal():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((16, 200))
    m = procrustes(s, s.copy())
    assert np.abs(m - np.eye(16)).max() <= 1e-8
    assert orthogonality_error(m) <= 1e-8


def test_exact_recovery_of_orthogonal_map():
    d, n = 64, 500
    rng = np.random.default_rng(1)
    s = rng.standard_normal((d, n))
    r = random_orthogonal_givens(d, seed=42)
    m = procrustes(s, r @ s)
    assert np.linalg.norm(m - r) <= 1e-6
    assert orthogonality_error(m) <= 1e-8
    assert np.linalg.norm(m @ s - r @ s) <= 1e-6 * np.linalg.norm(s)


def test_monte_carlo_optimality():
    d, n = 12, 60
    rng = np.random.default_rng(2)
    s = rng.standard_normal((d, n))
    p = rng.standard_normal((d, n))
    best = np.linalg.norm(procrustes(s, p) @ s - p)
    for k in range(1000):
        q = random_orthogonal_givens(d, seed=1000 + k, sweeps=2)
        assert best <= np.linalg.norm(q @ s - p) + 1e-9


def test_scale_invariance():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((8, 40))
    p = rng.standard_normal((8, 40))
    np.testing.assert_allclose(procrustes(s, p), procrustes(2.5 * s, 2.5 * p), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_column_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((6, 30))
    p = rng.standard_normal((6, 30))
    perm = rng.permutation(30)
    np.testing.assert_allclose(procrustes(s, p), procrustes(s[:, perm], p[:, perm]), atol=1e-9)


def test_non_finite_pooled_values_rejected():
    s = np.ones((4, 5))
    p = np.ones((4, 5))
    p[2, 2] = np.inf
    with pytest.raises(AdapterError, match="non-finite"):
        procrustes(s, p)
    with pytest.raises(AdapterError):
        procrustes(s, p[:, :4])


# ---------------------------------------------------------------------------
# the baselines the tests use
# ---------------------------------------------------------------------------

def test_identity_baseline_exact():
    assert np.array_equal(baseline_adapter("identity", 6), np.eye(6))


def test_random_baseline_seeded_and_non_orthogonal():
    a = baseline_adapter("random", 16, seed=5)
    b = baseline_adapter("random", 16, seed=5)
    c = baseline_adapter("random", 16, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert orthogonality_error(a) > 1e-4


# ---------------------------------------------------------------------------
# fitting through encoders
# ---------------------------------------------------------------------------

def toy_src_piv_corpus(model, n=10):
    sv = model.src_vocab
    words = [t for t in sv.tokens[sv.n_special :]]
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(n):
        ln = int(rng.integers(1, 5))
        s = [words[int(rng.integers(len(words)))] for _ in range(ln)]
        pairs.append((s, list(reversed(s))))
    return ParallelCorpus(pairs=pairs, src_lang="src", tgt_lang="piv")


def reference_pooled(model, sentences, mode, batch_size=64):
    """Pooled encoder states (d, n), one column per sentence, as the pairs
    collection before `fit_adapter` pooled each side."""
    vocab = model.src_vocab
    cols = []
    for lo in range(0, len(sentences), batch_size):
        ids = [vocab.encode(s) + [vocab.eos_id] for s in sentences[lo : lo + batch_size]]
        mat = pad_rows(ids, vocab.pad_id)
        for states, row in zip(model.encode(mat), mat):
            cols.append(pool_sentence(states, mode, pad_mask=row == vocab.pad_id))
    return np.stack(cols, axis=1).astype(np.float64)


def reference_fit(corpus, src_encoder, piv_encoder, mode, max_pairs=None, seed=0):
    """The path `fit_adapter` replaced: pool each side of the (sub)corpus
    through its encoder, then the SVD of P S^T. Returns (m, s, p)."""
    work = corpus.subset(max_pairs, seed) if max_pairs is not None else corpus
    s = reference_pooled(src_encoder, [a for a, _ in work.pairs], mode)
    p = reference_pooled(piv_encoder, [b for _, b in work.pairs], mode)
    u, _, vt = np.linalg.svd(p @ s.T)
    return u @ vt, s, p


@pytest.mark.parametrize("mode", ["average", "max"])
def test_fit_adapter_equals_the_pool_then_svd_reference_bitwise(mode):
    src, piv = tiny_model(dtype="float32"), tiny_model(seed=1, dtype="float32")
    corpus = toy_src_piv_corpus(src, n=8)
    corpus.pairs.append(corpus.pairs[0])
    want, s, p = reference_fit(corpus, src, piv, mode)
    assert s.shape == (8, 9) and p.shape == (8, 9)
    np.testing.assert_allclose(s[:, 0], s[:, 8], atol=1e-7)  # a duplicate pools alike

    ck = fit_adapter(corpus, src, piv, mode=mode)
    assert set(ck.params) == {"adapter/m"} and ck.config == {}
    m = ck.params["adapter/m"]
    assert m.dtype == np.float64 and m.tobytes() == want.tobytes()
    assert ck.src_vocab_hash == src.src_vocab.content_hash()
    assert ck.tgt_vocab_hash == piv.src_vocab.content_hash()
    assert ck.provenance == {
        "recipe": "fit_adapter", "provenance": "procrustes", "pooling": mode,
        "orthogonality_error": orthogonality_error(want),
        "fit_residual": np.linalg.norm(want @ s - p),
    }


def test_fit_adapter_seeded_subset_deterministic():
    model = tiny_model(dtype="float32")
    corpus = toy_src_piv_corpus(model, n=12)
    a = fit_adapter(corpus, model, model, mode="average", max_pairs=5, seed=3)
    b = fit_adapter(corpus, model, model, mode="average", max_pairs=5, seed=3)
    assert a.content_hash() == b.content_hash()
    want, s, _ = reference_fit(corpus, model, model, "average", max_pairs=5, seed=3)
    assert s.shape[1] == 5
    assert a.params["adapter/m"].tobytes() == want.tobytes()


def test_fit_adapter_dim_mismatch():
    a = tiny_model(dtype="float32")
    big = tiny_model(dtype="float32")
    big.config.model_dim = 16
    with pytest.raises(AdapterError):
        fit_adapter(toy_src_piv_corpus(a), a, big)
    with pytest.raises(AdapterError, match="empty"):
        fit_adapter(ParallelCorpus(pairs=[], src_lang="src", tgt_lang="piv"), a, a)


def test_adapter_file_round_trip(tmp_path):
    model = tiny_model(dtype="float32")
    fit = fit_adapter(toy_src_piv_corpus(model), model, model, mode="max")
    fit.save(tmp_path / "a.ckpt")
    loaded = Checkpoint.load(tmp_path / "a.ckpt")
    assert loaded.params["adapter/m"].tobytes() == fit.params["adapter/m"].tobytes()
    assert loaded.provenance == fit.provenance
    assert (loaded.src_vocab_hash, loaded.tgt_vocab_hash) == (fit.src_vocab_hash, fit.tgt_vocab_hash)
    loaded.save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
