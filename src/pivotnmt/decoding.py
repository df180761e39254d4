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

from . import tensor as T
from .data import ParallelCorpus
from .model import Seq2SeqModel

log = logging.getLogger(__name__)


class DecodeError(Exception):
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
        raise DecodeError("pivot vocabulary hash mismatch between the two models")
    pivot_hyps = translate_tokens(src_piv_model, sentences, cfg, adapter=adapter)
    return translate_tokens(piv_tgt_model, pivot_hyps, cfg)


def distill_teacher_student(
    src_piv: ParallelCorpus,
    teacher: Seq2SeqModel,
    cfg: BeamConfig,
    out_lang: str = "tgt",
    segment=None,
    detokenize=None,
) -> tuple:
    """Teacher-student synthetic data: (source, teacher(pivot)) for every pair.

    `segment` maps a word-token list to the teacher's subword tokens;
    `detokenize` maps subword tokens back to a word-token list. Pairs whose
    decode comes back empty are dropped and counted.
    """
    synthetic = []
    dropped = 0
    pivot_sides = [p for _, p in src_piv.pairs]
    seg = [segment(p) if segment else p for p in pivot_sides]
    hyps = translate_tokens(teacher, seg, cfg)
    for (s, _), hyp in zip(src_piv.pairs, hyps):
        words = detokenize(hyp) if detokenize else hyp
        if not words:
            dropped += 1
            continue
        synthetic.append((list(s), list(words)))
    if dropped:
        log.warning("distillation dropped %d pairs with empty decodes", dropped)
    return (
        ParallelCorpus(pairs=synthetic, src_lang=src_piv.src_lang, tgt_lang=out_lang),
        dropped,
    )


def backtranslate(
    piv_tgt: ParallelCorpus,
    piv_src_model: Seq2SeqModel,
    cfg: BeamConfig,
    out_lang: str = "src",
    segment=None,
    detokenize=None,
) -> tuple:
    """Pivot-based back-translation: synthesize source sides for pivot-target data."""
    synthetic = []
    dropped = 0
    pivot_sides = [p for p, _ in piv_tgt.pairs]
    seg = [segment(p) if segment else p for p in pivot_sides]
    hyps = translate_tokens(piv_src_model, seg, cfg)
    for (_, t), hyp in zip(piv_tgt.pairs, hyps):
        words = detokenize(hyp) if detokenize else hyp
        if not words:
            dropped += 1
            continue
        synthetic.append((list(words), list(t)))
    if dropped:
        log.warning("back-translation dropped %d pairs with empty decodes", dropped)
    return (
        ParallelCorpus(pairs=synthetic, src_lang=out_lang, tgt_lang=piv_tgt.tgt_lang),
        dropped,
    )
