"""BLEU scoring and beam decoding behaviors, including toy-convergence oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt import bpe, decoding
from pivotnmt import tensor as T
from pivotnmt.bleu import BleuError, bleu, sentence_bleu
from pivotnmt.data import ParallelCorpus
from pivotnmt.decoding import (
    BeamConfig,
    DecodeError,
    Hypothesis,
    beam_search_batch,
    pivot_translate,
    translate_side,
    translate_tokens,
)
from pivotnmt.model import DecodeState, ModelConfig, Seq2SeqModel, init_params
from pivotnmt.training import TrainSchedule, model_of, train


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_identity_is_100():
    corpus = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
    assert bleu(corpus, corpus).score == pytest.approx(100.0)


def test_bleu_hand_derived_brevity_case():
    rep = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert rep.precisions == (1.0, 1.0, 1.0, 1.0)
    assert rep.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4))
    assert rep.score == pytest.approx(77.88, abs=0.01)


def test_bleu_no_fourgram_match_is_zero():
    rep = bleu([["a", "b", "c", "x"]], [["a", "b", "c", "d"]])
    assert rep.precisions[3] == 0.0
    assert rep.score == 0.0


def test_bleu_ignores_orders_the_corpus_lacks():
    # 3-token sentences have no 4-grams: BLEU is the mean over orders 1-3
    rep = bleu([["1", "2", "3"]] * 5, [["1", "2", "3"]] * 5)
    assert rep.score == pytest.approx(100.0)
    rep = bleu([["a", "b", "c"], ["x", "y"]], [["a", "b", "c"], ["x", "z"]])
    assert rep.score == pytest.approx(100.0 * (4 / 5 * 2 / 3 * 1.0) ** (1 / 3))
    assert bleu([["a", "x"]], [["a", "b"]]).score == 0.0  # present order, no match


def test_bleu_errors():
    with pytest.raises(BleuError):
        bleu([], [])
    with pytest.raises(BleuError):
        bleu([["a"]], [["a"], ["b"]])


def test_bleu_accepts_string_sentences():
    assert bleu(["a b c d"], [["a", "b", "c", "d"]]).score == pytest.approx(100.0)


def test_bleu_report_fields_stable():
    text = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]]).format()
    for key in ("score=", "p1=", "p2=", "p3=", "p4=", "bp=", "hyp_len=", "ref_len="):
        assert key in text


def test_sentence_bleu_smoothed_nonzero():
    assert sentence_bleu(["a", "b"], ["a", "c"]) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_bleu_order_free_and_identity(seed):
    rng = np.random.default_rng(seed)
    corpus = [
        [str(rng.integers(0, 9)) for _ in range(int(rng.integers(1, 9)))]
        for _ in range(5)
    ]
    hyps = [list(s) for s in corpus]
    assert bleu(hyps, corpus).score == pytest.approx(100.0)
    perm = rng.permutation(5)
    shuffled = bleu([hyps[i] for i in perm], [corpus[i] for i in perm])
    assert shuffled.score == pytest.approx(bleu(hyps, corpus).score)


# ---------------------------------------------------------------------------
# toy seq2seq task for decode oracles: copy-reverse over a small vocab
# ---------------------------------------------------------------------------

WORDS_A = [f"a{i}" for i in range(8)]
WORDS_B = [f"b{i}" for i in range(8)]


def make_task(words_in, words_out, n, seed, reverse=False, src_lang="src", tgt_lang="piv"):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        ln = int(rng.integers(2, 5))
        idx = rng.integers(0, len(words_in), size=ln)
        src = [words_in[i] for i in idx]
        tgt = [words_out[i] for i in (idx[::-1] if reverse else idx)]
        pairs.append((src, tgt))
    return ParallelCorpus(pairs=pairs, src_lang=src_lang, tgt_lang=tgt_lang)


def word_list_vocab(words):
    return bpe.build_vocab([[[w] for w in words]])


def converged_model(words_in, words_out, seed=0, reverse=False, n=220):
    corpus = make_task(words_in, words_out, n, seed=seed, reverse=reverse)
    val = make_task(words_in, words_out, 24, seed=seed + 1, reverse=reverse)
    # vocabularies built from the word inventories so models over the same
    # language share them bit-exactly (as the recipes do)
    sv = word_list_vocab(words_in)
    tv = word_list_vocab(words_out)
    cfg = ModelConfig(layers=1, model_dim=32, ff_dim=64, heads=2, dropout=0.0, max_len=16)
    model = init_params(cfg, sv, tv, seed=seed)
    schedule = TrainSchedule(
        initial_lr=3e-3, checkpoint_interval=50, max_updates=700, max_tokens=256
    )
    ck = train(model, corpus, val, schedule, seed=seed)
    return model_of(ck, sv, tv), corpus


@pytest.fixture(scope="module")
def copy_model():
    return converged_model(WORDS_A, WORDS_B, seed=0)


def test_beam_one_equals_greedy(copy_model):
    model, corpus = copy_model
    sents = [s for s, _ in corpus.pairs[:12]]
    greedy = translate_tokens(model, sents, BeamConfig(beam_size=1))
    # manual greedy: argmax continuation must match beam_size=1
    again = translate_tokens(model, sents, BeamConfig(beam_size=1))
    assert greedy == again
    beams = translate_tokens(model, sents, BeamConfig(beam_size=4))
    assert len(beams) == len(greedy)


def test_converged_model_reproduces_training_references(copy_model):
    model, corpus = copy_model
    sents = [s for s, _ in corpus.pairs[:40]]
    refs = [t for _, t in corpus.pairs[:40]]
    hyps = translate_tokens(model, sents, BeamConfig(beam_size=4))
    assert bleu(hyps, refs).score > 95.0


def test_larger_beam_never_lowers_model_score(copy_model):
    model, corpus = copy_model
    sents = [s for s, _ in corpus.pairs[:16]]

    def scores(k):
        sv = model.src_vocab
        ids = [sv.encode(s) + [sv.eos_id] for s in sents]
        return [h.logprob for h in beam_search_batch(model, ids, BeamConfig(beam_size=k))]

    s1, s2, s4 = scores(1), scores(2), scores(4)
    for a, b in zip(s1, s2):
        assert b >= a - 1e-9
    for a, b in zip(s2, s4):
        assert b >= a - 1e-9


def test_empty_input_empty_output(copy_model):
    model, _ = copy_model
    assert translate_tokens(model, [[]], BeamConfig()) == [[]]


def test_partial_hypothesis_flag_under_tiny_cap(copy_model):
    model, corpus = copy_model
    sv = model.src_vocab
    sent = corpus.pairs[0][0]
    ids = [sv.encode(sent) + [sv.eos_id]]
    cfg = BeamConfig(beam_size=2, max_length_factor=0.0, max_length_constant=1)
    (hyp,) = beam_search_batch(model, ids, cfg)
    assert len(hyp.ids) == 1
    assert not hyp.completed


def test_decode_deterministic(copy_model):
    model, corpus = copy_model
    sents = [s for s, _ in corpus.pairs[:10]]
    a = translate_tokens(model, sents, BeamConfig(beam_size=4))
    b = translate_tokens(model, sents, BeamConfig(beam_size=4))
    assert a == b


# ---------------------------------------------------------------------------
# incremental beam search against the full-recompute reference
# ---------------------------------------------------------------------------

def reference_beam_search(model, src_id_lists, cfg, adapter=None, steps=None):
    """Beam search that re-runs the decoder over every whole prefix at every
    step and never stops a sentence early: the reference for
    `beam_search_batch`. Appends its step count to `steps` if given."""
    sv, tv = model.src_vocab, model.tgt_vocab
    n = len(src_id_lists)
    results = [None] * n
    live_idx = [i for i, ids in enumerate(src_id_lists) if ids]
    for i in range(n):
        if not src_id_lists[i]:
            results[i] = Hypothesis(ids=(), logprob=0.0, completed=True)
    if not live_idx:
        return results

    width = max(len(src_id_lists[i]) for i in live_idx)
    src = np.full((len(live_idx), width), sv.pad_id, dtype=np.int64)
    for r, i in enumerate(live_idx):
        src[r, : len(src_id_lists[i])] = src_id_lists[i]
    model.set_train(False)
    memory = model.encode(src, adapter=adapter).data

    k = cfg.beam_size
    alpha = cfg.length_normalization_alpha
    beams = {r: [Hypothesis(ids=(), logprob=0.0, completed=False)] for r in range(len(live_idx))}
    finished = {r: [] for r in range(len(live_idx))}
    hard_cap = model.config.max_len - 1
    caps = {
        r: max(1, min(cfg.cap(len(src_id_lists[i])), hard_cap))
        for r, i in enumerate(live_idx)
    }

    step = 0
    while True:
        rows = [(r, h) for r in beams for h in beams[r] if not h.completed]
        if not rows:
            break
        prefix = np.empty((len(rows), step + 1), dtype=np.int64)
        for j, (r, h) in enumerate(rows):
            prefix[j, 0] = tv.bos_id
            if step:
                prefix[j, 1:] = h.ids
        mem_rows = T.Tensor(memory[[r for r, _ in rows]])
        src_rows = src[[r for r, _ in rows]]
        states = model.decode_states(prefix, mem_rows, src_rows)
        logits = model.output_logits(states).data.reshape(len(rows), step + 1, -1)[:, -1, :]
        logp = decoding._log_softmax(logits.astype(np.float64))

        by_sentence = {}
        for j, (r, h) in enumerate(rows):
            by_sentence.setdefault(r, []).append((h, logp[j]))
        next_beams = {}
        for r, items in by_sentence.items():
            candidates = []
            for h, lp in items:
                top = np.argpartition(-lp, min(k, lp.size - 1))[:k]
                for t in top:
                    candidates.append((h.logprob + lp[t], int(t), h))
            candidates.sort(key=lambda c: -c[0])
            new_hyps = []
            for score, tok, h in candidates[:k]:
                ids = h.ids + (tok,)
                if tok == tv.eos_id:
                    finished[r].append(Hypothesis(ids=ids[:-1], logprob=score, completed=True))
                elif len(ids) >= caps[r]:
                    finished[r].append(Hypothesis(ids=ids, logprob=score, completed=False))
                else:
                    new_hyps.append(Hypothesis(ids=ids, logprob=score, completed=False))
            next_beams[r] = new_hyps
        beams = {r: hs for r, hs in next_beams.items() if hs}
        step += 1

    for r, i in enumerate(live_idx):
        pool = finished[r]
        complete = [h for h in pool if h.completed]
        results[i] = max(complete if complete else pool, key=lambda h: h.normalized(alpha))
    if steps is not None:
        steps.append(step)
    return results


def assert_same_hypotheses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.ids == w.ids
        assert g.completed == w.completed
        assert g.logprob == pytest.approx(w.logprob, abs=1e-6)


def source_ids(model, sents):
    sv = model.src_vocab
    return [sv.encode(s) + [sv.eos_id] if s else [] for s in sents]


@pytest.mark.parametrize("beam", [1, 2, 4])
@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_beam_search_matches_full_recompute_reference(copy_model, beam, alpha):
    model, corpus = copy_model
    # a padded batch of mixed lengths, an empty input and a tight length cap
    ids = source_ids(model, [s for s, _ in corpus.pairs[:12]] + [[]])
    for cfg in (
        BeamConfig(beam_size=beam, length_normalization_alpha=alpha),
        BeamConfig(beam_size=beam, length_normalization_alpha=alpha,
                   max_length_factor=0.5, max_length_constant=0),
    ):
        assert_same_hypotheses(
            beam_search_batch(model, ids, cfg), reference_beam_search(model, ids, cfg)
        )


def test_pivot_translate_matches_full_recompute_reference(pivot_chain, monkeypatch):
    m1, m2, corpus1 = pivot_chain
    sents = [s for s, _ in corpus1.pairs[:16]]
    passes = []
    search = decoding.beam_search_batch

    def with_reference(*args, **kwargs):
        hyps = search(*args, **kwargs)
        passes.append((hyps, reference_beam_search(*args, **kwargs)))
        return hyps

    monkeypatch.setattr(decoding, "beam_search_batch", with_reference)
    pivot_translate(m1, m2, sents, BeamConfig(beam_size=4))
    assert len(passes) == 2  # src->piv, then piv->tgt on the pivot hypotheses
    for got, want in passes:
        assert_same_hypotheses(got, want)


def count_step_calls(monkeypatch) -> list:
    calls = []
    step = Seq2SeqModel.step_logits

    def counting(self, ids, state):
        calls.append(ids.shape[0])
        return step(self, ids, state)

    monkeypatch.setattr(Seq2SeqModel, "step_logits", counting)
    return calls


@pytest.mark.parametrize("batch", [1, 6])
def test_early_stop_bounds_steps_when_alpha_is_zero(copy_model, monkeypatch, batch):
    model, corpus = copy_model
    calls = count_step_calls(monkeypatch)
    ids = source_ids(model, [s for s, _ in corpus.pairs[:24]])
    cfg = BeamConfig(beam_size=4)
    for lo in range(0, len(ids), batch):
        chunk = ids[lo : lo + batch]
        calls.clear()
        steps = []
        hyps = beam_search_batch(model, chunk, cfg)
        assert_same_hypotheses(hyps, reference_beam_search(model, chunk, cfg, steps=steps))
        assert len(calls) <= max(len(h.ids) for h in hyps) + 1
        assert len(calls) <= steps[0]


def test_no_pruning_when_alpha_is_positive(copy_model, monkeypatch):
    model, corpus = copy_model
    calls = count_step_calls(monkeypatch)
    ids = source_ids(model, [s for s, _ in corpus.pairs[:8]])
    cfg = BeamConfig(beam_size=4, length_normalization_alpha=0.6)
    for one in ids:
        calls.clear()
        steps = []
        hyps = beam_search_batch(model, [one], cfg)
        assert_same_hypotheses(hyps, reference_beam_search(model, [one], cfg, steps=steps))
        assert len(calls) == steps[0]


@pytest.mark.parametrize("beam", [2, 4])
def test_a_sentence_never_keeps_more_than_beam_rows(copy_model, monkeypatch, beam):
    model, corpus = copy_model
    calls = count_step_calls(monkeypatch)
    cfg = BeamConfig(beam_size=beam, length_normalization_alpha=0.6)
    widest = []
    for one in source_ids(model, [s for s, _ in corpus.pairs[:8]]):
        calls.clear()
        beam_search_batch(model, [one], cfg)
        widest.append(max(calls))
    assert max(widest) == beam


def test_tiny_max_len_decodes_to_hard_cap():
    vocab_s, vocab_t = word_list_vocab(WORDS_A), word_list_vocab(WORDS_B)
    cfg = ModelConfig(layers=1, model_dim=8, ff_dim=16, heads=2, dropout=0.0, max_len=4)
    model = init_params(cfg, vocab_s, vocab_t, seed=0)
    # every decoder state becomes the final-norm bias, and end-of-sentence
    # (tied output embedding) the lowest logit: no hypothesis ever ends
    model.params["decoder/final_norm/gain"].data[:] = 0.0
    model.params["decoder/final_norm/bias"].data[:] = 1.0
    model.params["tgt_embed/tok"].data[vocab_t.eos_id] = -1.0
    ids = [vocab_s.encode(["a1", "a2", "a3"]) + [vocab_s.eos_id], vocab_s.encode(["a4"])]
    for beam in (1, 4):
        hyps = beam_search_batch(model, ids, BeamConfig(beam_size=beam))
        assert [len(h.ids) for h in hyps] == [cfg.max_len - 1] * 2
        assert not any(h.completed for h in hyps)


# ---------------------------------------------------------------------------
# pivot translation and synthetic data
# ---------------------------------------------------------------------------

WORDS_C = [f"c{i}" for i in range(8)]


@pytest.fixture(scope="module")
def pivot_chain():
    # a->b identity rename; b->c reversal: direct a->c reference is reversal
    m1, corpus1 = converged_model(WORDS_A, WORDS_B, seed=3)
    m2, _ = converged_model(WORDS_B, WORDS_C, seed=4, reverse=True)
    return m1, m2, corpus1


def test_pivot_compose_matches_direct_reference(pivot_chain):
    m1, m2, corpus1 = pivot_chain
    sents = [s for s, _ in corpus1.pairs[:30]]
    # reference: rename a->b (identity order), then rename+reverse b->c
    refs = []
    for s in sents:
        mid = [f"b{w[1:]}" for w in s]
        refs.append([f"c{w[1:]}" for w in mid[::-1]])
    hyps = pivot_translate(m1, m2, sents, BeamConfig(beam_size=4))
    assert bleu(hyps, refs).score > 90.0


def test_pivot_requires_matching_pivot_vocab(pivot_chain):
    m1, _, corpus1 = pivot_chain
    other, _ = converged_model(WORDS_C, WORDS_A, seed=5)
    with pytest.raises(DecodeError):
        pivot_translate(m1, other, [corpus1.pairs[0][0]], BeamConfig())


def test_pivot_two_pass_cost(pivot_chain):
    m1, m2, corpus1 = pivot_chain
    sents = [s for s, _ in corpus1.pairs[:20]]
    t0 = time.perf_counter()
    translate_tokens(m1, sents, BeamConfig())
    single = time.perf_counter() - t0
    t0 = time.perf_counter()
    pivot_translate(m1, m2, sents, BeamConfig())
    double = time.perf_counter() - t0
    assert double >= 0.5 * single  # two passes cannot be cheaper than one


def test_distillation_emits_teacher_hypotheses(pivot_chain):
    m1, m2, corpus1 = pivot_chain
    src_piv = ParallelCorpus(
        pairs=corpus1.pairs[:25], src_lang="src", tgt_lang="piv"
    )
    synth, dropped = translate_side(src_piv, m2, BeamConfig(beam_size=4), "piv", "tgt")
    assert dropped == 0
    assert len(synth) == 25
    refs = []
    for s, p in src_piv.pairs:
        refs.append([f"c{w[1:]}" for w in p[::-1]])
    assert bleu([t for _, t in synth.pairs], refs).score > 90.0
    # sources preserved verbatim
    for (s, _), (s2, _) in zip(src_piv.pairs, synth.pairs):
        assert s == s2
    assert (synth.src_lang, synth.tgt_lang) == ("src", "tgt")


def test_backtranslation_synthesizes_sources(pivot_chain):
    m1, m2, corpus1 = pivot_chain
    # piv->src model: b words to a words, identity order
    back_model, back_corpus = converged_model(WORDS_B, WORDS_A, seed=6)
    piv_tgt = ParallelCorpus(
        pairs=[(p, [f"t{i}" for i in range(len(p))]) for _, p in corpus1.pairs[:20]],
        src_lang="piv",
        tgt_lang="tgt",
    )
    synth, dropped = translate_side(piv_tgt, back_model, BeamConfig(beam_size=4), "piv", "src")
    assert dropped == 0
    assert len(synth) == 20
    refs = [[f"a{w[1:]}" for w in p] for p, _ in piv_tgt.pairs]
    assert bleu([s for s, _ in synth.pairs], refs).score > 90.0
    # targets preserved verbatim
    assert [t for _, t in synth.pairs] == [t for _, t in piv_tgt.pairs]
    assert (synth.src_lang, synth.tgt_lang) == ("src", "tgt")


@pytest.mark.parametrize("langs", [("src", "tgt"), ("piv", "piv")])
def test_translate_side_needs_the_language_on_one_side(pivot_chain, langs):
    _, m2, corpus1 = pivot_chain
    corpus = ParallelCorpus(pairs=corpus1.pairs[:2], src_lang=langs[0], tgt_lang=langs[1])
    with pytest.raises(DecodeError):
        translate_side(corpus, m2, BeamConfig(), "piv", "tgt")


def test_greedy_decode_of_one_sentence_never_reorders(copy_model, monkeypatch):
    model, corpus = copy_model
    reorders = []
    reorder = DecodeState.reorder

    def counting(self, parents):
        reorders.append(list(parents))
        reorder(self, parents)

    monkeypatch.setattr(DecodeState, "reorder", counting)
    cfg = BeamConfig(beam_size=1)
    for one in source_ids(model, [s for s, _ in corpus.pairs[:12]]):
        hyps = beam_search_batch(model, [one], cfg)
        assert reorders == []  # every surviving parent is its own row
        assert_same_hypotheses(hyps, reference_beam_search(model, [one], cfg))
    # in a batch, a greedy step reorders only when a sentence ends
    ids = source_ids(model, [s for s, _ in corpus.pairs[:12]])
    hyps = beam_search_batch(model, ids, cfg)
    assert_same_hypotheses(hyps, reference_beam_search(model, ids, cfg))
    assert 0 < len(reorders) < len(ids)
