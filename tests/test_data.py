"""Corpus handling: toy world, batching, noise statistics, mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt import bpe
from pivotnmt.data import (
    CorpusError,
    NoiseConfig,
    ParallelCorpus,
    apply_noise,
    autoencoding_corpus,
    make_batches,
    mix_corpora,
)
from pivotnmt.toyworld import ToyWorld, ToyWorldSpec, generate_toy_corpora, write_toy_corpora


def small_spec(**kw):
    defaults = dict(
        base_vocab_size=12,
        n_src_piv=50,
        n_piv_tgt=50,
        n_src_tgt=20,
        n_mono_piv=30,
        n_val=10,
        n_test=10,
        shared_token_fraction=0.0,
        seed=5,
    )
    defaults.update(kw)
    return ToyWorldSpec(**defaults)


def word_vocab(corpora_tokens):
    return bpe.build_vocab([corpora_tokens])


# ---------------------------------------------------------------------------
# toy world
# ---------------------------------------------------------------------------

def test_bijection_identity_order_to_pivot():
    world = ToyWorld(small_spec())
    assert world.translate(["s3", "s9"], "src", "piv") == ["p3", "p9"]


def test_adjacent_swap_to_target():
    world = ToyWorld(small_spec())
    assert world.translate(["s3", "s9", "s1", "s4"], "src", "tgt") == [
        "t9",
        "t3",
        "t4",
        "t1",
    ]


def test_odd_length_swap_keeps_tail():
    world = ToyWorld(small_spec())
    assert world.translate(["p2", "p5", "p7"], "piv", "tgt") == ["t5", "t2", "t7"]


def test_same_seed_bit_identical():
    a = generate_toy_corpora(small_spec())
    b = generate_toy_corpora(small_spec())
    assert a["src-piv"].pairs == b["src-piv"].pairs
    assert a["mono-piv"] == b["mono-piv"]
    c = generate_toy_corpora(small_spec(seed=6))
    assert c["src-piv"].pairs != a["src-piv"].pairs


def test_composition_equals_direct_reference():
    world = ToyWorld(small_spec(shared_token_fraction=0.4))
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = world.sample_sentence("src", rng)
        via_pivot = world.translate(world.translate(s, "src", "piv"), "piv", "tgt")
        assert via_pivot == world.translate(s, "src", "tgt")


def test_shared_tokens_surface_in_both_languages():
    world = ToyWorld(small_spec(shared_token_fraction=0.5))
    src_forms = {world.token("src", i) for i in range(12)}
    piv_forms = {world.token("piv", i) for i in range(12)}
    shared = src_forms & piv_forms
    assert len(shared) == 6
    assert all(f.startswith("x") for f in shared)
    tgt_forms = {world.token("tgt", i) for i in range(12)}
    assert not (tgt_forms & src_forms)


def test_invalid_spec_rejected():
    with pytest.raises(CorpusError):
        ToyWorldSpec(sentence_length_range=(5, 3))


def test_write_round_trip(tmp_path):
    # the second spec is given lists, as a JSON config gives them
    lists = small_spec(languages=["src", "piv", "tgt"], sentence_length_range=[2, 6])
    for i, spec in enumerate([small_spec(), lists]):
        out = tmp_path / str(i)
        corpora = write_toy_corpora(spec, out)
        loaded = ParallelCorpus.load(out / "src-piv.src", out / "src-piv.piv", "src", "piv")
        assert loaded.pairs == [
            (list(s), list(t)) for s, t in corpora["src-piv"].pairs
        ]
        assert (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_identity_config():
    cfg = NoiseConfig(p_del=0.0, p_rep=0.0, d_per=0)
    assert apply_noise(list("abcdef"), cfg, np.random.default_rng(1)) == list("abcdef")


def test_noise_full_deletion_keeps_one_original():
    cfg = NoiseConfig(p_del=1.0, p_rep=0.0, d_per=0)
    for seed in range(20):
        out = apply_noise(["a", "b", "c"], cfg, np.random.default_rng(seed))
        assert len(out) == 1 and out[0] in {"a", "b", "c"}


def test_noise_rates_and_displacement_bound():
    cfg = NoiseConfig(p_del=0.1, p_rep=0.1, d_per=3)
    rng = np.random.default_rng(11)
    total = deleted = blanked = 0
    max_disp = 0
    while total < 100_000:
        n = int(rng.integers(5, 30))
        tokens = [f"w{i}" for i in range(n)]  # unique names track positions
        out = apply_noise(tokens, cfg, rng)
        total += n
        deleted += n - len(out)
        blanked += sum(1 for t in out if t == bpe.BLANK)
        # displacement measured on the post-deletion sequence
        survivors = [t for t in out if t != bpe.BLANK]
        kept_original_order = [t for t in tokens if t in set(survivors)]
        pos_before = {t: i for i, t in enumerate(kept_original_order)}
        pos_after = {
            t: i for i, t in enumerate([t for t in out if t != bpe.BLANK])
        }
        for t in survivors:
            max_disp = max(max_disp, abs(pos_after[t] - pos_before[t]))
    assert abs(deleted / total - 0.1) <= 0.01
    assert abs(blanked / total - 0.1) <= 0.01
    assert max_disp <= 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 40), st.integers(0, 4))
def test_noise_displacement_property(seed, n, d_per):
    cfg = NoiseConfig(p_del=0.0, p_rep=0.0, d_per=d_per)
    tokens = [f"w{i}" for i in range(n)]
    out = apply_noise(tokens, cfg, np.random.default_rng(seed))
    assert sorted(out) == sorted(tokens)
    for new_i, t in enumerate(out):
        old_i = int(t[1:])
        assert abs(new_i - old_i) <= d_per


def test_noise_never_empty_property():
    cfg = NoiseConfig(p_del=0.9, p_rep=0.1, d_per=2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert apply_noise(["a", "b"], cfg, rng)


def test_invalid_noise_config():
    with pytest.raises(CorpusError):
        NoiseConfig(p_del=0.7, p_rep=0.5)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def toks(*words):
    return [list(w) for w in words]


def make_word_corpus(n_pairs, length, weight=1.0):
    pairs = [
        ([f"a{i}_{j}" for j in range(length)], [f"b{i}_{j}" for j in range(length)])
        for i in range(n_pairs)
    ]
    return ParallelCorpus(pairs=pairs, src_lang="src", tgt_lang="tgt", weight=weight)


def vocab_for(corpus):
    src_tokens = [s for s, _ in corpus.pairs]
    tgt_tokens = [t for _, t in corpus.pairs]
    return word_vocab(src_tokens), word_vocab(tgt_tokens)


def test_batch_budget_respected():
    corpus = make_word_corpus(10, 5)
    sv, tv = vocab_for(corpus)
    stream = make_batches(corpus, sv, tv, max_tokens=25, seed=0)
    for b in stream.batches:
        assert b.tgt.size <= 25
    assert sum(b.src.shape[0] for b in stream.batches) == 10


def test_weighted_corpus_epoch_counts():
    corpus = make_word_corpus(3, 4, weight=4.0)
    sv, tv = vocab_for(corpus)
    stream = make_batches(corpus, sv, tv, max_tokens=64, seed=1)
    assert sum(b.src.shape[0] for b in stream.batches) == 12


def test_over_length_pairs_skipped_and_counted():
    corpus = make_word_corpus(4, 3)
    corpus.pairs.append(([f"a{i}" for i in range(30)], [f"b{i}" for i in range(30)]))
    sv, tv = vocab_for(corpus)
    stream = make_batches(corpus, sv, tv, max_tokens=12, seed=0)
    assert stream.skipped_over_length == 1
    assert sum(b.src.shape[0] for b in stream.batches) == 4


def test_batches_deterministic_per_seed_and_epoch():
    corpus = make_word_corpus(20, 4)
    sv, tv = vocab_for(corpus)
    a = make_batches(corpus, sv, tv, 32, seed=3, epoch=1)
    b = make_batches(corpus, sv, tv, 32, seed=3, epoch=1)
    assert all(np.array_equal(x.src, y.src) for x, y in zip(a.batches, b.batches))
    c = make_batches(corpus, sv, tv, 32, seed=3, epoch=2)
    assert not all(
        np.array_equal(x.src, y.src) for x, y in zip(a.batches, c.batches)
    )


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def test_mix_equal_weights_equal_counts():
    trans = make_word_corpus(10, 3)
    ae = autoencoding_corpus([[f"p{i}", f"p{i+1}"] for i in range(10)], "tgt")
    # share the output language label so mixing is legal
    ae_pairs = [(s, t) for s, t in ae.pairs]
    ae = ParallelCorpus(pairs=ae_pairs, src_lang="tgt", tgt_lang="tgt")
    mixed = mix_corpora([(trans, None), (ae, None)])
    pairs = mixed.epoch_pairs(np.random.default_rng(0))
    assert len(pairs) == 20


def test_mix_rejects_output_vocab_mismatch():
    a = make_word_corpus(3, 3)
    b = ParallelCorpus(pairs=[(["x"], ["y"])], src_lang="src", tgt_lang="piv")
    with pytest.raises(CorpusError):
        mix_corpora([(a, None), (b, None)])


def test_autoencoding_two_inputs_one_output():
    # the same pivot sentence appears with a translation input and a noised copy input
    world = ToyWorld(small_spec())
    src_piv = world.sample_pairs("src", "piv", 5, stream=77)
    ae = autoencoding_corpus([t for _, t in src_piv.pairs], "piv")
    noise = NoiseConfig(p_del=0.5, p_rep=0.2, d_per=2)
    mixed = mix_corpora([(src_piv, None), (ae, noise)])
    pairs = mixed.epoch_pairs(np.random.default_rng(1))
    outputs = {}
    for s, t in pairs:
        outputs.setdefault(tuple(t), []).append(tuple(s))
    for t, inputs in outputs.items():
        assert len(inputs) == 2
        assert len(set(inputs)) >= 1  # translation input differs from noised copy
    # clean variant: noise disabled reproduces the output sentence as input
    clean = mix_corpora([(ae, None)])
    for s, t in clean.epoch_pairs(np.random.default_rng(2)):
        assert s == t


def test_real_synthetic_one_to_two_ratio():
    real = make_word_corpus(5, 3, weight=4.0)
    synth_pairs = [
        ([f"c{i}"], [f"d{i}"]) for i in range(40)
    ]
    synth = ParallelCorpus(pairs=synth_pairs, src_lang="src", tgt_lang="tgt")
    mixed = mix_corpora([(real, None), (synth, None)])
    pairs = mixed.epoch_pairs(np.random.default_rng(0))
    n_real = sum(1 for s, _ in pairs if s[0].startswith("a"))
    n_synth = sum(1 for s, _ in pairs if s[0].startswith("c"))
    assert n_real * 2 == n_synth
