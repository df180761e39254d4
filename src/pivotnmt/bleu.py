"""Corpus-level BLEU-4 with clipped n-gram counts and brevity penalty.

The score is unsmoothed, at corpus level only: any zero n-gram precision
zeroes it. An order of which the hypotheses hold no n-grams at all (every
sentence shorter than n) carries no evidence and is left out of the
geometric mean, so a corpus of identical 3-token sentences scores 100; its
precision is reported as 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

MAX_N = 4


class BleuError(Exception):
    pass


@dataclass
class BleuReport:
    score: float
    precisions: tuple
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def format(self) -> str:
        p = " ".join(f"p{i + 1}={v * 100:.2f}" for i, v in enumerate(self.precisions))
        return (
            f"score={self.score:.2f} {p} bp={self.brevity_penalty:.4f} "
            f"hyp_len={self.hyp_length} ref_len={self.ref_length}"
        )


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references) -> BleuReport:
    """Corpus BLEU over tokenized sentences (lists of tokens or whitespace text)."""
    if len(hypotheses) != len(references):
        raise BleuError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise BleuError("empty corpus")
    matched = [0] * MAX_N
    total = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = hyp.split() if isinstance(hyp, str) else list(hyp)
        r = ref.split() if isinstance(ref, str) else list(ref)
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, MAX_N + 1):
            hc = _ngrams(h, n)
            rc = _ngrams(r, n)
            total[n - 1] += max(len(h) - n + 1, 0)
            matched[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())

    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matched, total)]

    if hyp_len == 0:
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    used = [p for p, t in zip(precisions, total) if t > 0]
    if used and all(p > 0 for p in used):
        score = bp * math.exp(sum(math.log(p) for p in used) / len(used)) * 100.0
    else:
        score = 0.0
    return BleuReport(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )
