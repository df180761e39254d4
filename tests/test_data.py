"""Corpus handling: toy world, batching, noise statistics, mixtures."""

from dataclasses import replace

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
    make_batches,
    pad_rows,
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
    lists = small_spec(sentence_length_range=[2, 6])
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
    stream = make_batches([corpus], sv, tv, max_tokens=25, seed=0)
    for b in stream.batches:
        assert b.tgt.size <= 25
    assert sum(b.src.shape[0] for b in stream.batches) == 10


def test_weighted_corpus_epoch_counts():
    corpus = make_word_corpus(3, 4, weight=4.0)
    sv, tv = vocab_for(corpus)
    stream = make_batches([corpus], sv, tv, max_tokens=64, seed=1)
    assert sum(b.src.shape[0] for b in stream.batches) == 12


def test_over_length_pairs_skipped_and_counted():
    corpus = make_word_corpus(4, 3)
    corpus.pairs.append(([f"a{i}" for i in range(30)], [f"b{i}" for i in range(30)]))
    sv, tv = vocab_for(corpus)
    stream = make_batches([corpus], sv, tv, max_tokens=12, seed=0)
    assert stream.skipped_over_length == 1
    assert sum(b.src.shape[0] for b in stream.batches) == 4


def test_batches_deterministic_per_seed_and_epoch():
    corpus = make_word_corpus(20, 4)
    sv, tv = vocab_for(corpus)
    a = make_batches([corpus], sv, tv, 32, seed=3, epoch=1)
    b = make_batches([corpus], sv, tv, 32, seed=3, epoch=1)
    assert all(np.array_equal(x.src, y.src) for x, y in zip(a.batches, b.batches))
    c = make_batches([corpus], sv, tv, 32, seed=3, epoch=2)
    assert not all(
        np.array_equal(x.src, y.src) for x, y in zip(a.batches, c.batches)
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 50), max_size=9), min_size=1, max_size=8),
       st.integers(0, 3))
def test_pad_rows_equals_the_fill_loop_it_replaced(rows, pad_id):
    # the loop make_batches, beam search and adapter pooling each had
    want = np.full((len(rows), max(len(r) for r in rows)), pad_id, dtype=np.int64)
    for r, row in enumerate(rows):
        want[r, : len(row)] = row
    got = pad_rows(rows, pad_id)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# mixtures: a training set is a list of corpora
# ---------------------------------------------------------------------------

class ReferenceMixture:
    """The mixture type the corpus list replaced, kept as its oracle:
    `components` is a list of (ParallelCorpus, NoiseConfig | None)."""

    def __init__(self, components):
        self.components = components

    def epoch_pairs(self, rng: np.random.Generator) -> list:
        out = []
        for corpus, noise in self.components:
            pairs = corpus.epoch_pairs(rng)
            if noise is not None:
                pairs = [(apply_noise(s, noise, rng), t) for s, t in pairs]
            out.extend(pairs)
        return out


def copy_corpus(lines, lang, **kw):
    return ParallelCorpus(pairs=[(list(l), list(l)) for l in lines], src_lang=lang,
                          tgt_lang=lang, **kw)


def test_corpus_list_equals_the_reference_mixture_over_three_epochs():
    world = ToyWorld(small_spec())
    src_piv = world.sample_pairs("src", "piv", 12, stream=77)
    pivots = [t for _, t in src_piv.pairs]
    noise = NoiseConfig(p_del=0.2, p_rep=0.2, d_per=2)
    corpora = [
        ParallelCorpus(pairs=src_piv.pairs, src_lang="src", tgt_lang="piv", weight=3.0),
        copy_corpus(pivots, "piv", weight=2.0, noise=noise),
        copy_corpus(pivots[:5], "piv"),
    ]
    reference = ReferenceMixture([(replace(c, noise=None), c.noise) for c in corpora])
    sv = word_vocab([s for s, _ in src_piv.pairs] + pivots + [[bpe.BLANK]])
    tv = word_vocab(pivots)
    for epoch in range(3):
        draws = [np.random.default_rng([4, epoch, 0x9E3779B9]) for _ in range(2)]
        got = [pair for c in corpora for pair in c.epoch_pairs(draws[0])]
        assert got == reference.epoch_pairs(draws[1])
        assert len(got) == 3 * 12 + 2 * 12 + 5
        new = make_batches(corpora, sv, tv, 40, seed=4, epoch=epoch)
        old = make_batches([reference], sv, tv, 40, seed=4, epoch=epoch)
        assert len(new.batches) == len(old.batches)
        for a, b in zip(new.batches, old.batches):
            assert a.src.tobytes() == b.src.tobytes() and a.src.shape == b.src.shape
            assert a.tgt.tobytes() == b.tgt.tobytes() and a.tgt.shape == b.tgt.shape


def test_mix_equal_weights_equal_counts():
    trans = make_word_corpus(10, 3)
    ae = copy_corpus([[f"p{i}", f"p{i+1}"] for i in range(10)], "tgt")
    corpora = [trans, ae]
    sv, tv = vocab_for(trans)
    stream = make_batches(corpora, sv, tv, max_tokens=64, seed=0)
    assert sum(b.src.shape[0] for b in stream.batches) == 20


def test_autoencoding_two_inputs_one_output():
    # the same pivot sentence appears with a translation input and a noised copy input
    world = ToyWorld(small_spec())
    src_piv = world.sample_pairs("src", "piv", 5, stream=77)
    pivots = [t for _, t in src_piv.pairs]
    noise = NoiseConfig(p_del=0.5, p_rep=0.2, d_per=2)
    rng = np.random.default_rng(1)
    pairs = src_piv.epoch_pairs(rng) + copy_corpus(pivots, "piv", noise=noise).epoch_pairs(rng)
    outputs = {}
    for s, t in pairs:
        outputs.setdefault(tuple(t), []).append(tuple(s))
    for t, inputs in outputs.items():
        assert len(inputs) == 2
    # clean variant: noise disabled reproduces the output sentence as input
    for s, t in copy_corpus(pivots, "piv").epoch_pairs(np.random.default_rng(2)):
        assert s == t


def test_real_synthetic_one_to_two_ratio():
    real = make_word_corpus(5, 3, weight=4.0)
    synth_pairs = [
        ([f"c{i}"], [f"d{i}"]) for i in range(40)
    ]
    synth = ParallelCorpus(pairs=synth_pairs, src_lang="src", tgt_lang="tgt")
    rng = np.random.default_rng(0)
    pairs = [pair for c in (real, synth) for pair in c.epoch_pairs(rng)]
    n_real = sum(1 for s, _ in pairs if s[0].startswith("a"))
    n_synth = sum(1 for s, _ in pairs if s[0].startswith("c"))
    assert n_real * 2 == n_synth
