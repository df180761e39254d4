"""Encoder-output adapter: pooling and the closed-form orthogonal fit.

The adapter is a d x d matrix carrying pooled source-encoder sentence
representations into the pivot-encoder representation space. Fitting solves
min over orthogonal M of ||M S - P||_F in closed form: with U S V^T the SVD
of P S^T, the minimizer is M = U V^T (`procrustes`). `fit_adapter` returns
the fit as a checkpoint holding the one parameter `adapter/m` in double
precision, with the vocabularies of the two encoders it was fit on; a model
that uses it holds a copy in its own dtype (`Seq2SeqModel.attach_adapter`).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint
from .data import ParallelCorpus, pad_rows


class AdapterError(Exception):
    pass


def pool_sentence(states: np.ndarray, mode: str, pad_mask: np.ndarray | None = None) -> np.ndarray:
    """Compress (L, d) encoder states to a d-vector; padding positions excluded."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[0] < 1:
        raise AdapterError(f"states must be (L, d) with L >= 1, got {states.shape}")
    if pad_mask is not None:
        keep = ~np.asarray(pad_mask, dtype=bool)
        if not keep.any():
            raise AdapterError("cannot pool an all-padding sentence")
        states = states[keep]
    if mode == "average":
        return states.mean(axis=0)
    if mode == "max":
        return states.max(axis=0)
    raise AdapterError(f"unknown pooling mode {mode!r}")


def _encode_pooled(model, sentences, mode: str, batch_size: int = 64) -> np.ndarray:
    """Pool encoder states of token-list sentences through a model's encoder."""
    vocab = model.src_vocab
    cols = []
    for lo in range(0, len(sentences), batch_size):
        chunk = sentences[lo : lo + batch_size]
        ids = [vocab.encode(s) + [vocab.eos_id] for s in chunk]
        mat = pad_rows(ids, vocab.pad_id)
        for states, row in zip(model.encode(mat), mat):
            cols.append(pool_sentence(states, mode, pad_mask=row == vocab.pad_id))
    return np.stack(cols, axis=1).astype(np.float64)


def procrustes(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The orthogonal M minimizing ||M s - p||_F for column-aligned (d, n)
    pooled representations, in double precision."""
    s = np.asarray(s, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if s.shape != p.shape or s.ndim != 2 or s.shape[1] < 1:
        raise AdapterError(f"need two (d, n >= 1) pooled sides, got {s.shape} and {p.shape}")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
        raise AdapterError("non-finite pooled representations")
    r = T.svd(p @ s.T)
    return r.u @ r.vt


def fit_adapter(
    corpus: ParallelCorpus,
    src_encoder,
    piv_encoder,
    mode: str = "average",
    max_pairs: int | None = None,
    seed: int = 0,
) -> Checkpoint:
    """Pool both sides of a source-pivot corpus through their encoders and
    fit the orthogonal adapter between them.

    With a shared cross-lingual encoder, pass the same model for both sides.
    The fitting subset (when max_pairs is set) is a seeded deterministic
    sample.
    """
    if len(corpus) == 0:
        raise AdapterError("empty corpus for adapter fitting")
    if src_encoder.config.model_dim != piv_encoder.config.model_dim:
        raise AdapterError(
            f"encoder dims differ: {src_encoder.config.model_dim} vs "
            f"{piv_encoder.config.model_dim}"
        )
    work = corpus.subset(max_pairs, seed) if max_pairs is not None else corpus
    s = _encode_pooled(src_encoder, [p[0] for p in work.pairs], mode)
    p = _encode_pooled(piv_encoder, [p[1] for p in work.pairs], mode)
    m = procrustes(s, p)
    return Checkpoint(
        params={"adapter/m": m},
        config={},
        src_vocab_hash=src_encoder.src_vocab.content_hash(),
        tgt_vocab_hash=piv_encoder.src_vocab.content_hash(),
        provenance={
            "recipe": "fit_adapter",
            "provenance": "procrustes",
            "pooling": mode,
            "orthogonality_error": float(np.abs(m.T @ m - np.eye(m.shape[0])).max()),
            "fit_residual": float(np.linalg.norm(m @ s - p)),
        },
    )
