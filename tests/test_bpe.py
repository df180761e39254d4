"""BPE learning/application and vocabulary construction."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt import bpe


def test_learn_single_merge_tie_break():
    # pairs (l,o) and (o,w) both occur 3 times; lexicographic tie-break
    model = bpe.learn_bpe(["low low lower"], merge_count=1)
    assert model.merges == [("l", "o")]


def test_zero_merges_char_level():
    model = bpe.learn_bpe(["low"], merge_count=0)
    assert model.merges == []
    assert bpe.apply_bpe(model, "low") == ["l", "o", "w</w>"]


def test_apply_after_one_merge():
    model = bpe.learn_bpe(["low low lower"], merge_count=1)
    assert bpe.apply_bpe(model, "low") == ["lo", "w</w>"]


def test_apply_full_merges():
    model = bpe.learn_bpe(["low low lower"], merge_count=10)
    assert bpe.apply_bpe(model, "low") == ["low</w>"]


def test_empty_line_and_empty_corpus():
    model = bpe.learn_bpe(["ab"], merge_count=2)
    assert bpe.apply_bpe(model, "") == []
    with pytest.raises(bpe.BpeError):
        bpe.learn_bpe(["", "   "], merge_count=1)


def test_unseen_characters_pass_through():
    model = bpe.learn_bpe(["aa bb"], merge_count=4)
    toks = bpe.apply_bpe(model, "xy")
    assert toks == ["x", "y</w>"]


def test_joint_regime_shared_table():
    src = ["s1 s2 s1", "s3 s1"]
    piv = ["p1 p2", "p3 p1 p1"]
    model = bpe.learn_bpe(src + piv, merge_count=50)
    seg_one = bpe.apply_bpe(model, "p1 p2")
    seg_two = bpe.apply_bpe(model, "p1 p2")
    assert seg_one == seg_two
    # tokens from both languages segment through the same table
    assert bpe.apply_bpe(model, "s1") and bpe.apply_bpe(model, "p1")


def test_bpe_file_round_trip(tmp_path):
    model = bpe.learn_bpe(["low low lower", "new newer"], merge_count=8)
    p = tmp_path / "model.bpe"
    model.save(p)
    loaded = bpe.BpeModel.load(p)
    assert loaded.merges == model.merges
    assert loaded.merge_count == model.merge_count
    assert bpe.apply_bpe(loaded, "lower new") == bpe.apply_bpe(model, "lower new")
    model.save(tmp_path / "again.bpe")
    assert (tmp_path / "model.bpe").read_bytes() == (tmp_path / "again.bpe").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcde", min_size=1, max_size=8), min_size=1, max_size=12
    ),
    st.integers(0, 20),
)
def test_segmentation_idempotent_on_resegmentation(words, merges):
    line = " ".join(words)
    model = bpe.learn_bpe([line], merge_count=merges)
    once = bpe.apply_bpe(model, line)
    again = bpe.apply_bpe(model, bpe.detokenize(once))
    assert once == again
    assert bpe.detokenize(once) == " ".join(words)


def test_vocab_frequency_order_after_specials():
    vocab = bpe.build_vocab([[["a", "a", "a", "b"]]])
    assert vocab.tokens[: vocab.n_special] == list(bpe.CORE_SPECIALS)
    assert vocab.tokens[vocab.n_special :] == ["a", "b"]


def test_joint_vocab_covers_both_languages():
    model = bpe.learn_bpe(["s1 s2", "p1 p2"], merge_count=20)
    seg = [bpe.apply_bpe(model, l) for l in ["s1 s2", "p1 p2"]]
    vocab = bpe.build_vocab([seg])
    assert set(bpe.apply_bpe(model, "s1")) <= set(vocab.tokens)
    assert set(bpe.apply_bpe(model, "p1")) <= set(vocab.tokens)


def test_separate_vocabs_independent():
    va = bpe.build_vocab([[["x", "y", "y"]]])
    vb = bpe.build_vocab([[["y", "x", "x"]]])
    assert va.encode(["x"]) != vb.encode(["x"])


def test_blank_and_tags():
    vocab = bpe.build_vocab([[["a"]]], include_blank=True, language_tags=("tgt", "piv"))
    assert vocab.blank_id is not None
    assert vocab.tag_id("tgt") != vocab.tag_id("piv")
    assert not bpe.build_vocab([[["a"]]]).has_tag("tgt")
    with pytest.raises(bpe.BpeError):
        bpe.build_vocab([[["a"]]]).tag_id("tgt")


def test_tagged_prefixes_each_non_empty_sentence():
    vocab = bpe.build_vocab([[["a", "b"]]], language_tags=("tgt",))
    tagged = vocab.tagged([["a", "b"], [], ["b"]], "tgt")
    assert tagged == [[bpe.language_tag("tgt"), "a", "b"], [], [bpe.language_tag("tgt"), "b"]]
    assert vocab.encode(tagged[0])[0] == vocab.tag_id("tgt")
    with pytest.raises(bpe.BpeError):
        vocab.tagged([["a"]], "piv")


def test_vocab_round_trip_bit_exact(tmp_path):
    vocab = bpe.build_vocab(
        [[["tok1", "tok2", "tok2"]]], include_blank=True, language_tags=("tgt",)
    )
    p1, p2 = tmp_path / "v1.vocab", tmp_path / "v2.vocab"
    vocab.save(p1)
    loaded = bpe.Vocabulary.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.tokens == vocab.tokens
    assert loaded.content_hash() == vocab.content_hash()
    assert loaded.pad_id == vocab.pad_id == 0


def test_vocab_hash_is_stored_and_equals_a_fresh_sha256(tmp_path):
    vocab = bpe.build_vocab([[["tok1", "é", "tok2"]]], language_tags=("tgt",))

    def fresh(v):
        return hashlib.sha256("".join(t + "\n" for t in v.tokens).encode("utf-8")).hexdigest()

    assert vocab.content_hash() == fresh(vocab)
    assert vocab.content_hash() is vocab.content_hash()  # computed once, not per call
    vocab.save(tmp_path / "v.vocab")
    loaded = bpe.Vocabulary.load(tmp_path / "v.vocab")
    assert loaded.content_hash() == fresh(loaded) == vocab.content_hash()
    other = bpe.build_vocab([[["tok1", "tok3"]]], language_tags=("tgt",))
    assert other.content_hash() == fresh(other) != vocab.content_hash()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aab"]), min_size=1, max_size=10))
def test_encode_decode_round_trip(tokens):
    vocab = bpe.build_vocab([[["a", "b", "ab", "ba", "aab"]]])
    ids = vocab.encode(tokens)
    assert vocab.decode(ids) == tokens
    assert vocab.encode(vocab.decode(ids)) == ids


def test_unknown_token_maps_to_unk():
    vocab = bpe.build_vocab([[["a"]]])
    assert vocab.encode(["zzz"]) == [vocab.unk_id]
