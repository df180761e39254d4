"""Encoder-output adapter: pooling, closed-form orthogonal fit, packaging.

The adapter is a d x d matrix carrying pooled source-encoder sentence
representations into the pivot-encoder representation space. Fitting solves
min over orthogonal M of ||M S - P||_F in closed form: with U S V^T the SVD
of P S^T, the minimizer is M = U V^T. The fit runs in double precision; a
model that uses the matrix holds a copy in its own dtype
(`Seq2SeqModel.attach_adapter`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import ParallelCorpus, pad_rows
from .fileio import write_atomic

MAGIC = b"PVADPT01"
_POOLING_CODE = {"average": 0, "max": 1, "none": 2}
_PROVENANCE_CODE = {"procrustes": 0, "random": 1, "identity": 2}


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


@dataclass
class PooledPairs:
    """Column-aligned pooled representations of a source-pivot corpus."""

    s: np.ndarray  # (d, n)
    p: np.ndarray  # (d, n)
    pooling: str
    n: int = field(init=False)

    def __post_init__(self):
        if self.s.shape != self.p.shape or self.s.ndim != 2:
            raise AdapterError(
                f"pooled sides disagree: {self.s.shape} vs {self.p.shape}"
            )
        self.n = self.s.shape[1]


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


def collect_pairs(
    corpus: ParallelCorpus,
    src_encoder,
    piv_encoder,
    mode: str = "average",
    max_pairs: int | None = None,
    seed: int = 0,
) -> PooledPairs:
    """Pool both sides of a source-pivot corpus through their encoders.

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
    return PooledPairs(s=s, p=p, pooling=mode)


@dataclass
class AdapterMatrix:
    """Fitted or baseline d x d mapping with its fit metadata."""

    m: np.ndarray  # float64 master copy
    pooling: str
    provenance: str
    orthogonality_error: float
    fit_residual: float

    @property
    def d(self) -> int:
        return self.m.shape[0]

    def save(self, path):
        header = struct.pack(
            "<IBBHdd",
            self.d,
            _POOLING_CODE[self.pooling],
            _PROVENANCE_CODE[self.provenance],
            0,
            self.orthogonality_error,
            self.fit_residual,
        )
        write_atomic(path, MAGIC + header + np.ascontiguousarray(self.m, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "AdapterMatrix":
        with open(path, "rb") as f:
            if f.read(8) != MAGIC:
                raise AdapterError(f"{path} is not an adapter file")
            d, pool_c, prov_c, _, orth, res = struct.unpack("<IBBHdd", f.read(24))
            payload = f.read(8 * d * d)
        m = np.frombuffer(payload, dtype="<f8").reshape(d, d).copy()
        pooling = {v: k for k, v in _POOLING_CODE.items()}[pool_c]
        provenance = {v: k for k, v in _PROVENANCE_CODE.items()}[prov_c]
        return cls(
            m=m,
            pooling=pooling,
            provenance=provenance,
            orthogonality_error=orth,
            fit_residual=res,
        )


def fit_adapter(pairs: PooledPairs) -> AdapterMatrix:
    """Closed-form orthogonal Procrustes fit of pooled pairs."""
    s = np.asarray(pairs.s, dtype=np.float64)
    p = np.asarray(pairs.p, dtype=np.float64)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
        raise AdapterError("non-finite pooled representations")
    if pairs.n < 1:
        raise AdapterError("need at least one pooled pair")
    r = T.svd(p @ s.T)
    m = r.u @ r.vt
    d = m.shape[0]
    orth = float(np.abs(m.T @ m - np.eye(d)).max())
    residual = float(np.linalg.norm(m @ s - p))
    return AdapterMatrix(
        m=m,
        pooling=pairs.pooling,
        provenance="procrustes",
        orthogonality_error=orth,
        fit_residual=residual,
    )


def make_baseline_adapter(kind: str, d: int, seed: int = 0) -> AdapterMatrix:
    """Identity or seeded random (non-orthogonal) baseline mapping."""
    if d < 1:
        raise AdapterError("d must be >= 1")
    if kind == "identity":
        m = np.eye(d, dtype=np.float64)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        a = np.sqrt(3.0 / d)
        m = rng.uniform(-a, a, size=(d, d)).astype(np.float64)
    else:
        raise AdapterError(f"unknown baseline adapter kind {kind!r}")
    orth = float(np.abs(m.T @ m - np.eye(d)).max())
    return AdapterMatrix(
        m=m,
        pooling="none",
        provenance=kind,
        orthogonality_error=orth,
        fit_residual=-1.0,  # no fit happened
    )
