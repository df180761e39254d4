"""Parallel corpora, token-bucketed batching, mixing, and input noising.

Corpora hold whitespace-level token lists (post-BPE tokens at training time).
Batching works per epoch: each pair appears exactly round(weight) times,
sentences are shuffled with a seeded RNG, bucketed by length, and padded so
that a batch's padded target tokens never exceed the token budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .bpe import BLANK, Vocabulary
from .fileio import write_atomic

log = logging.getLogger(__name__)


class CorpusError(Exception):
    pass


@dataclass
class ParallelCorpus:
    """Aligned sentence pairs with language labels and an oversampling weight."""

    pairs: list
    src_lang: str
    tgt_lang: str
    weight: float = 1.0

    def __post_init__(self):
        if self.weight < 1.0:
            raise CorpusError(f"corpus weight must be >= 1, got {self.weight}")
        for i, (s, t) in enumerate(self.pairs):
            if not s or not t:
                raise CorpusError(f"empty side in pair {i}")

    def __len__(self):
        return len(self.pairs)

    def epoch_pairs(self, rng: np.random.Generator) -> list:
        reps = int(round(self.weight))
        return list(self.pairs) * reps

    def subset(self, n: int, seed: int) -> "ParallelCorpus":
        """Seeded sample without replacement of up to n pairs."""
        rng = np.random.default_rng(seed)
        idx = rng.permutation(len(self.pairs))[: min(n, len(self.pairs))]
        return ParallelCorpus(
            pairs=[self.pairs[i] for i in sorted(idx)],
            src_lang=self.src_lang,
            tgt_lang=self.tgt_lang,
        )

    def flipped(self) -> "ParallelCorpus":
        """The same pairs in the opposite direction."""
        return ParallelCorpus(
            pairs=[(t, s) for s, t in self.pairs],
            src_lang=self.tgt_lang,
            tgt_lang=self.src_lang,
            weight=self.weight,
        )

    def save(self, src_path, tgt_path):
        write_atomic(src_path, "".join(" ".join(s) + "\n" for s, _ in self.pairs))
        write_atomic(tgt_path, "".join(" ".join(t) + "\n" for _, t in self.pairs))

    @classmethod
    def load(cls, src_path, tgt_path, src_lang: str, tgt_lang: str, weight: float = 1.0):
        with open(src_path, encoding="utf-8") as fs:
            src_lines = [l.split() for l in fs.read().splitlines()]
        with open(tgt_path, encoding="utf-8") as ft:
            tgt_lines = [l.split() for l in ft.read().splitlines()]
        if len(src_lines) != len(tgt_lines):
            raise CorpusError(
                f"unaligned corpus files: {len(src_lines)} vs {len(tgt_lines)} lines"
            )
        return cls(
            pairs=list(zip(src_lines, tgt_lines)),
            src_lang=src_lang,
            tgt_lang=tgt_lang,
            weight=weight,
        )


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass
class NoiseConfig:
    """Token-level corruption: deletion, blanking, bounded local permutation."""

    p_del: float = 0.1
    p_rep: float = 0.1
    d_per: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_del <= 1.0 and 0.0 <= self.p_rep <= 1.0):
            raise CorpusError("noise probabilities must lie in [0, 1]")
        if self.p_del + self.p_rep > 1.0:
            raise CorpusError("p_del + p_rep must not exceed 1")
        if self.d_per < 0:
            raise CorpusError("d_per must be >= 0")


def apply_noise(tokens, cfg: NoiseConfig, rng: np.random.Generator | None = None) -> list:
    """Corrupt a token list: drop, blank, then locally permute.

    Deletion is sampled first at rate p_del; survivors are blanked at rate
    p_rep / (1 - p_del) so the marginal blank rate over all tokens equals
    p_rep. Permutation sorts by position + uniform(0, d_per + 1), which keeps
    every displacement within d_per. The result is never empty: if deletion
    removes everything, one uniformly chosen original token is kept.
    """
    if not tokens:
        raise CorpusError("cannot noise an empty token list")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = len(tokens)
    keep = rng.random(n) >= cfg.p_del
    if not keep.any():
        return [tokens[int(rng.integers(n))]]
    survivors = [t for t, k in zip(tokens, keep) if k]
    if cfg.p_rep > 0.0 and cfg.p_del < 1.0:
        p_blank = cfg.p_rep / (1.0 - cfg.p_del)
        blank = rng.random(len(survivors)) < p_blank
        survivors = [BLANK if b else t for t, b in zip(survivors, blank)]
    if cfg.d_per > 0 and len(survivors) > 1:
        keys = np.arange(len(survivors)) + rng.uniform(0, cfg.d_per + 1, len(survivors))
        order = np.argsort(keys, kind="stable")
        survivors = [survivors[i] for i in order]
    return survivors


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

@dataclass
class MixedCorpus:
    """Example-level interleaving of weighted components.

    A component whose `noise` is set is a denoising-autoencoding view: each
    epoch its input side is re-noised while the output side stays clean.
    """

    components: list  # of (ParallelCorpus, NoiseConfig | None)
    src_lang: str = ""
    tgt_lang: str = ""

    def __len__(self):
        return sum(len(c) for c, _ in self.components)

    def epoch_pairs(self, rng: np.random.Generator) -> list:
        out = []
        for corpus, noise in self.components:
            pairs = corpus.epoch_pairs(rng)
            if noise is not None:
                pairs = [(apply_noise(s, noise, rng), t) for s, t in pairs]
            out.extend(pairs)
        return out


def autoencoding_corpus(lines, lang: str, weight: float = 1.0) -> ParallelCorpus:
    """Pivot-to-pivot copy corpus; pair inputs get noised at mixing time."""
    return ParallelCorpus(
        pairs=[(list(l), list(l)) for l in lines if l],
        src_lang=lang,
        tgt_lang=lang,
        weight=weight,
    )


def mix_corpora(components) -> MixedCorpus:
    """Combine weighted corpora that share an output-side language."""
    if not components:
        raise CorpusError("nothing to mix")
    tgt_langs = {c.tgt_lang for c, _ in components}
    if len(tgt_langs) != 1:
        raise CorpusError(f"output-side vocabulary mismatch across components: {sorted(tgt_langs)}")
    return MixedCorpus(
        components=list(components),
        src_lang="+".join(sorted({c.src_lang for c, _ in components})),
        tgt_lang=tgt_langs.pop(),
    )


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Padded id matrices for one update step."""

    src: np.ndarray  # (B, Ls) int64, padded
    tgt: np.ndarray  # (B, Lt) int64, padded; includes eos, excludes bos
    n_pairs: int

    @property
    def target_tokens(self) -> int:
        return int(self.tgt.size)


@dataclass
class BatchStream:
    batches: list
    skipped_over_length: int = 0


def make_batches(
    corpus,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_tokens: int,
    seed: int,
    epoch: int = 0,
    src_prefix: tuple = (),
    max_len: int | None = None,
) -> BatchStream:
    """One epoch of token-bucketed batches.

    Source sequences become `src_prefix + tokens + eos`; targets become
    `tokens + eos` (the training loop prepends bos for the decoder input).
    Pairs whose encoded source or target exceeds max_tokens, or the model's
    `max_len` when given, are skipped and counted.
    """
    rng = np.random.default_rng([seed, epoch, 0x9E3779B9])
    pairs = corpus.epoch_pairs(rng)
    if not pairs:
        raise CorpusError("empty corpus")
    prefix_ids = list(src_prefix)
    limit = max_tokens if max_len is None else min(max_tokens, max_len)
    encoded = []
    skipped = 0
    for s, t in pairs:
        sid = prefix_ids + src_vocab.encode(s) + [src_vocab.eos_id]
        tid = tgt_vocab.encode(t) + [tgt_vocab.eos_id]
        if len(tid) > limit or len(sid) > limit:
            skipped += 1
            continue
        encoded.append((sid, tid))
    if skipped:
        log.warning("skipped %d over-length pairs", skipped)
    if not encoded:
        raise CorpusError("all pairs exceeded the token budget")

    order = rng.permutation(len(encoded))
    by_len = sorted(order, key=lambda i: (len(encoded[i][1]), len(encoded[i][0])))

    groups = []
    cur: list[int] = []
    cur_max_t = 0
    for i in by_len:
        tlen = len(encoded[i][1])
        new_max = max(cur_max_t, tlen)
        if cur and new_max * (len(cur) + 1) > max_tokens:
            groups.append(cur)
            cur = [i]
            cur_max_t = tlen
        else:
            cur.append(i)
            cur_max_t = new_max
    if cur:
        groups.append(cur)

    batch_order = rng.permutation(len(groups))
    batches = []
    for gi in batch_order:
        idx = groups[gi]
        smax = max(len(encoded[i][0]) for i in idx)
        tmax = max(len(encoded[i][1]) for i in idx)
        src = np.full((len(idx), smax), src_vocab.pad_id, dtype=np.int64)
        tgt = np.full((len(idx), tmax), tgt_vocab.pad_id, dtype=np.int64)
        for r, i in enumerate(idx):
            sid, tid = encoded[i]
            src[r, : len(sid)] = sid
            tgt[r, : len(tid)] = tid
        batches.append(Batch(src=src, tgt=tgt, n_pairs=len(idx)))
    return BatchStream(batches=batches, skipped_over_length=skipped)
