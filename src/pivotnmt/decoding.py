"""Beam decoding, two-step pivot translation, and synthetic-data generation.

Beam search runs batched over sentences: at every step all live hypotheses
across the batch share one decoder call. Hypotheses are ranked by
length-normalized score (logprob / len^alpha; alpha=0 means raw logprob),
and beam size 1 reduces exactly to greedy decoding.

Decoding is incremental (see `model.DecodeState`) and runs on plain arrays,
with no tape: the encoder memory is projected for cross-attention once per
sentence, and each step feeds only the newest token of every live
hypothesis. Each state row belongs to one live hypothesis, and the search
keeps its bookkeeping in arrays with one entry per row: the sentence, the
token ids so far and the log-probability. After a step it picks each row's k
best tokens with `argpartition`, sorts each sentence's candidates by score
(stably, so ties keep row order and then argpartition order) and keeps the
k best; at beam size 1 each sentence has one row, so each row keeps its
best token with no sort. The rows of the hypotheses that survive, a parent
row once per child, are gathered with one `DecodeState.reorder` and one take
of the id array, skipped when the parents are the rows in order (every
greedy step on which no sentence ends). `Hypothesis` objects are made only
for finished hypotheses.

A sentence stops early, when alpha == 0, as soon as its best completed
hypothesis scores at least as high as its best live one. That is exact:
token log-probabilities are never positive, so no extension of a live
hypothesis can outscore it, and a later completion with an equal score loses
the tie to the earlier one. With alpha > 0 dividing by len^alpha can raise a
longer hypothesis above a shorter one, so the search runs every sentence
until all its hypotheses end or reach the length cap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import bpe
from .data import ParallelCorpus
from .model import Seq2SeqModel

log = logging.getLogger(__name__)


class DecodeError(Exception):
    pass


class PivotVocabMismatch(DecodeError, bpe.HashMismatchError):
    pass


@dataclass
class BeamConfig:
    beam_size: int = 4
    max_length_factor: float = 2.0
    max_length_constant: int = 10
    length_normalization_alpha: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise DecodeError("beam_size must be >= 1")

    def cap(self, input_len: int) -> int:
        return int(self.max_length_factor * input_len) + self.max_length_constant


@dataclass
class Hypothesis:
    ids: tuple
    logprob: float
    completed: bool

    def normalized(self, alpha: float) -> float:
        if alpha == 0.0 or not self.ids:
            return self.logprob
        return self.logprob / (len(self.ids) ** alpha)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def beam_search_batch(
    model: Seq2SeqModel,
    src_id_lists: list,
    cfg: BeamConfig,
    adapter=None,
) -> list:
    """Decode a batch of id sequences; returns one Hypothesis per input, in order.

    Empty inputs yield empty hypotheses. If no hypothesis completes within the
    length cap, the best partial one is returned with completed=False.
    """
    sv, tv = model.src_vocab, model.tgt_vocab
    n = len(src_id_lists)
    results: list = [None] * n
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
    memory = model.encode(src, adapter=adapter, tape=False)
    state = model.start_decode(memory, src)

    k = cfg.beam_size
    alpha = cfg.length_normalization_alpha
    n_live = len(live_idx)
    finished: list = [[] for _ in live_idx]
    best_done = np.full(n_live, -np.inf)  # highest completed logprob per sentence
    any_done = False
    # decoder prefixes (bos + ids) cannot outgrow the positional table
    hard_cap = model.config.max_len - 1
    caps = np.array([max(1, min(cfg.cap(len(src_id_lists[i])), hard_cap)) for i in live_idx])

    # state row j is one live hypothesis: its sentence, tokens and logprob;
    # rows stay grouped by sentence, in input order
    sent = np.arange(n_live)
    hyp = np.empty((n_live, 0), dtype=np.int64)
    score = np.zeros(n_live)
    tokens = np.full((n_live, 1), tv.bos_id, dtype=np.int64)
    while sent.size:
        logp = _log_softmax(model.step_logits(tokens, state).astype(np.float64))
        # each row's k best tokens, then each sentence's k best candidates: the
        # sort is stable, so ties keep row order, then argpartition order
        top = (-logp).argpartition(min(k, logp.shape[1] - 1), axis=1)[:, :k]
        rows = np.arange(sent.size)
        cand = (score[:, None] + logp[rows[:, None], top]).ravel()
        if k == 1:
            # one row per sentence, already in order: each row keeps its token
            parent, s, tok, new_score = rows, sent, top.ravel(), cand
        else:
            width = top.shape[1]
            cand_sent = sent.repeat(width)
            order = np.lexsort((-cand, cand_sent))
            s = cand_sent[order]
            keep = np.arange(s.size) - s.searchsorted(s) < k
            order, s = order[keep], s[keep]
            parent, tok, new_score = order // width, top.ravel()[order], cand[order]

        eos = tok == tv.eos_id
        ended = eos | (hyp.shape[1] + 1 >= caps[s])
        for j in ended.nonzero()[0]:
            r, lp, ids = s[j], float(new_score[j]), hyp[parent[j]].tolist()
            if eos[j]:
                best_done[r] = max(best_done[r], lp)
                any_done = True
            else:
                ids.append(int(tok[j]))
            finished[r].append(Hypothesis(ids=tuple(ids), logprob=lp, completed=bool(eos[j])))
        live = (~ended).nonzero()[0]
        if alpha == 0.0 and live.size and any_done:
            # a sentence's first live candidate is its best one
            live_sent = s[live]
            first = np.ones(live.size, dtype=bool)
            first[1:] = live_sent[1:] != live_sent[:-1]
            stop = np.zeros(n_live, dtype=bool)
            stop[live_sent[first]] = best_done[live_sent[first]] >= new_score[live[first]]
            live = live[~stop[live_sent]]
        sent, score, tokens = s[live], new_score[live], tok[live, None]
        parent = parent[live]
        if not (parent.size == rows.size and (parent == rows).all()):
            hyp = hyp.take(parent, axis=0)
            if sent.size:
                state.reorder(parent)
        hyp = np.concatenate((hyp, tokens), axis=1)

    for r, i in enumerate(live_idx):
        pool = finished[r]
        complete = [h for h in pool if h.completed]
        chosen_pool = complete if complete else pool
        results[i] = max(chosen_pool, key=lambda h: h.normalized(alpha))
    return results


def translate_tokens(
    model: Seq2SeqModel,
    sentences: list,
    cfg: BeamConfig,
    adapter=None,
    src_prefix: tuple = (),
    batch_size: int = 64,
) -> list:
    """Translate token-list sentences; output token lists in input order."""
    sv, tv = model.src_vocab, model.tgt_vocab
    out = []
    for lo in range(0, len(sentences), batch_size):
        chunk = sentences[lo : lo + batch_size]
        ids = [
            list(src_prefix) + sv.encode(s) + [sv.eos_id] if s else []
            for s in chunk
        ]
        hyps = beam_search_batch(model, ids, cfg, adapter=adapter)
        out.extend(tv.decode(h.ids) for h in hyps)
    return out


def pivot_translate(
    src_piv_model: Seq2SeqModel,
    piv_tgt_model: Seq2SeqModel,
    sentences: list,
    cfg: BeamConfig,
    adapter=None,
) -> list:
    """Two-step decoding via the pivot language, 1-best at the joint.

    The first model's target vocabulary must equal (by content hash) the
    second model's source vocabulary so hypotheses feed through directly.
    """
    if (
        src_piv_model.tgt_vocab.content_hash()
        != piv_tgt_model.src_vocab.content_hash()
    ):
        raise PivotVocabMismatch("pivot vocabulary hash mismatch between the two models")
    pivot_hyps = translate_tokens(src_piv_model, sentences, cfg, adapter=adapter)
    return translate_tokens(piv_tgt_model, pivot_hyps, cfg)


def translate_side(
    corpus: ParallelCorpus,
    model: Seq2SeqModel,
    cfg: BeamConfig,
    from_lang: str,
    to_lang: str,
    side_bpe: bpe.BpeModel | None = None,
) -> tuple:
    """Synthetic parallel data: translate the `from_lang` side of every pair
    into `to_lang` and keep the other side; returns (corpus, dropped).

    Teacher-student distillation translates the pivot side of src-piv pairs
    with a piv->tgt teacher; pivot-based back-translation translates the pivot
    side of piv-tgt pairs with a piv->src model. With `side_bpe` the sides are
    word lists, segmented with it before decoding and detokenized after;
    without it they are the model's subword tokens. Pairs whose decode comes
    back empty are dropped and counted.
    """
    if (corpus.src_lang == from_lang) == (corpus.tgt_lang == from_lang):
        raise DecodeError(
            f"{from_lang} must be exactly one side of a {corpus.src_lang}-{corpus.tgt_lang} corpus"
        )
    side = 0 if corpus.src_lang == from_lang else 1
    inputs = [pair[side] for pair in corpus.pairs]
    if side_bpe is not None:
        inputs = [bpe.apply_bpe(side_bpe, " ".join(x)) for x in inputs]
    hyps = translate_tokens(model, inputs, cfg)
    synthetic = []
    for pair, hyp in zip(corpus.pairs, hyps):
        words = bpe.detokenize(hyp).split() if side_bpe is not None else hyp
        if words:
            new = [list(pair[0]), list(pair[1])]
            new[side] = list(words)
            synthetic.append(tuple(new))
    dropped = len(corpus.pairs) - len(synthetic)
    if dropped:
        log.warning("dropped %d synthetic pairs with empty decodes", dropped)
    langs = [corpus.src_lang, corpus.tgt_lang]
    langs[side] = to_lang
    return ParallelCorpus(pairs=synthetic, src_lang=langs[0], tgt_lang=langs[1]), dropped
