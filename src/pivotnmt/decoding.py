"""Beam decoding, two-step pivot translation, and synthetic-data generation.

Beam search runs batched over sentences: at every step all live hypotheses
across the batch share one decoder call. Hypotheses are ranked by
length-normalized score (logprob / len^alpha; alpha=0 means raw logprob),
and beam size 1 reduces exactly to greedy decoding.

Decoding is incremental (see `model.DecodeState`): the encoder memory is
projected for cross-attention once per sentence, and each step feeds only the
newest token of every live hypothesis. Each state row belongs to one live
hypothesis; after a step the search gathers the rows of the hypotheses that
survive, a parent row once per child, with one `DecodeState.reorder`.

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
from . import tensor as T
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
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


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
    with T.no_grad():
        memory = model.encode(src, adapter=adapter)
    state = model.start_decode(memory, src)

    k = cfg.beam_size
    alpha = cfg.length_normalization_alpha
    finished: dict = {r: [] for r in range(len(live_idx))}
    best_done: dict = {}  # sentence -> highest logprob among its completed hypotheses
    # decoder prefixes (bos + ids) cannot outgrow the positional table
    hard_cap = model.config.max_len - 1
    caps = {
        r: max(1, min(cfg.cap(len(src_id_lists[i])), hard_cap))
        for r, i in enumerate(live_idx)
    }

    # one (sentence, live hypothesis) per decode-state row
    rows = [(r, Hypothesis(ids=(), logprob=0.0, completed=False)) for r in range(len(live_idx))]
    tokens = np.full((len(rows), 1), tv.bos_id, dtype=np.int64)
    while rows:
        logits = model.step_logits(tokens, state)
        logp = _log_softmax(logits.astype(np.float64))

        by_sentence: dict = {}
        for j, (r, h) in enumerate(rows):
            by_sentence.setdefault(r, []).append((j, h, logp[j]))
        next_rows, parents = [], []
        for r, items in by_sentence.items():
            candidates = []
            for j, h, lp in items:
                top = np.argpartition(-lp, min(k, lp.size - 1))[:k]
                for t in top:
                    candidates.append((h.logprob + lp[t], int(t), j, h))
            candidates.sort(key=lambda c: -c[0])
            live = []
            for score, tok, j, h in candidates[:k]:
                ids = h.ids + (tok,)
                if tok == tv.eos_id:
                    finished[r].append(Hypothesis(ids=ids[:-1], logprob=score, completed=True))
                    best_done[r] = max(best_done.get(r, score), score)
                elif len(ids) >= caps[r]:
                    finished[r].append(Hypothesis(ids=ids, logprob=score, completed=False))
                else:
                    live.append((j, Hypothesis(ids=ids, logprob=score, completed=False)))
            if alpha == 0.0 and r in best_done and live and best_done[r] >= live[0][1].logprob:
                live = []  # candidates are sorted: live[0] is the best live hypothesis
            for j, h in live:
                next_rows.append((r, h))
                parents.append(j)
        rows = next_rows
        if rows:
            state.reorder(parents)
            tokens = np.array([[h.ids[-1]] for _, h in rows], dtype=np.int64)

    for r, i in enumerate(live_idx):
        pool = finished[r]
        complete = [h for h in pool if h.completed]
        chosen_pool = complete if complete else pool
        best = max(chosen_pool, key=lambda h: h.normalized(alpha))
        results[i] = best
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
