"""Transformer encoder-decoder with named parameter groups.

Parameters are keyed "group/..." where group is one of src_embed, encoder,
tgt_embed, decoder, output_proj; transfer surgery and freezing operate on
those groups. The variant is pre-norm (final norm after each stack) with
learned positional embeddings, which puts encoder-side positional parameters
inside the src_embed group where freezing expects them.

An optional d x d adapter matrix can be applied position-wise to the encoder
output, after the final encoder norm, as the last step before cross-attention.

Training and scoring run the decoder over whole target prefixes
(`decode_states`). Decoding runs it one position at a time:
`start_decode` projects every sentence's encoder memory into each layer's
cross-attention keys and values once, and each `step_logits` call feeds one
token per row, appends that position's self-attention key and value per
layer to the `DecodeState` and returns the logits of that position only.
A beam search that keeps, drops or duplicates rows between steps reorders
the whole state with `DecodeState.reorder`, one gather per cached array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .bpe import Vocabulary
from .data import Batch


class ModelError(Exception):
    pass


@dataclass
class DecodeState:
    """Per-row decoder cache of an incremental decode.

    Row j is one hypothesis. Per decoder layer i:
      self_k[i]  (rows, heads, dh, length)  self-attention keys of every fed
                 position, stored transposed for the score product
      self_v[i]  (rows, heads, length, dh)  self-attention values
      cross_k[i] (rows, heads, dh, Ls)      projected encoder memory, transposed
      cross_v[i] (rows, heads, Ls, dh)
    src_pad (rows, Ls) is True at source padding; length counts fed positions.
    """

    self_k: list
    self_v: list
    cross_k: list
    cross_v: list
    src_pad: np.ndarray
    length: int = 0

    @property
    def rows(self) -> int:
        return self.src_pad.shape[0]

    def reorder(self, parents) -> None:
        """Row j becomes a copy of row parents[j]; rows not named are dropped."""
        idx = np.asarray(parents, dtype=np.intp)
        self.self_k = [a[idx] for a in self.self_k]
        self.self_v = [a[idx] for a in self.self_v]
        self.cross_k = [a[idx] for a in self.cross_k]
        self.cross_v = [a[idx] for a in self.cross_v]
        self.src_pad = self.src_pad[idx]


@dataclass
class ModelConfig:
    layers: int = 2
    model_dim: int = 128
    ff_dim: int = 256
    heads: int = 4
    dropout: float = 0.1
    max_len: int = 64
    label_smoothing: float = 0.1
    tied_output_embedding: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ModelError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def paper_scale(cls) -> "ModelConfig":
        return cls(layers=6, model_dim=512, ff_dim=2048, heads=8)


def _uniform(rng, shape, a, dtype):
    return rng.uniform(-a, a, size=shape).astype(dtype)


def init_params(
    config: ModelConfig, src_vocab: Vocabulary, tgt_vocab: Vocabulary, seed: int
) -> "Seq2SeqModel":
    """Deterministic seeded init.

    Embedding and positional tables draw from U(-a, a) with
    a = sqrt(3)/(2 sqrt(d)), i.e. std 0.5/sqrt(d); the forward pass scales
    their sum by sqrt(d). Projection matrices use Xavier-uniform
    sqrt(6/(fan_in+fan_out)); norms start at gain 1, bias 0. The small
    embedding scale keeps initial tied-output logits near zero, so an
    untrained model's loss starts near log(vocab).
    """
    d, ff = config.model_dim, config.ff_dim
    dt = config.np_dtype()
    rng = np.random.default_rng(seed)
    emb_a = math.sqrt(3.0) * 0.5 / math.sqrt(d)

    params: dict[str, T.Tensor] = {}

    def add(name, arr):
        params[name] = T.Tensor(arr, requires_grad=True, dtype=dt)

    def add_linear(name, fan_in, fan_out):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        add(f"{name}/w", _uniform(rng, (fan_in, fan_out), a, dt))
        add(f"{name}/b", np.zeros(fan_out, dtype=dt))

    def add_norm(name):
        add(f"{name}/gain", np.ones(d, dtype=dt))
        add(f"{name}/bias", np.zeros(d, dtype=dt))

    add("src_embed/tok", _uniform(rng, (len(src_vocab), d), emb_a, dt))
    add("src_embed/pos", _uniform(rng, (config.max_len, d), emb_a, dt))
    for i in range(config.layers):
        p = f"encoder/l{i}"
        add_norm(f"{p}/attn_norm")
        for proj in ("wq", "wk", "wv", "wo"):
            add_linear(f"{p}/attn/{proj}", d, d)
        add_norm(f"{p}/ff_norm")
        add_linear(f"{p}/ff/w1", d, ff)
        add_linear(f"{p}/ff/w2", ff, d)
    add_norm("encoder/final_norm")

    add("tgt_embed/tok", _uniform(rng, (len(tgt_vocab), d), emb_a, dt))
    add("tgt_embed/pos", _uniform(rng, (config.max_len, d), emb_a, dt))
    for i in range(config.layers):
        p = f"decoder/l{i}"
        add_norm(f"{p}/self_norm")
        for proj in ("wq", "wk", "wv", "wo"):
            add_linear(f"{p}/self_attn/{proj}", d, d)
        add_norm(f"{p}/cross_norm")
        for proj in ("wq", "wk", "wv", "wo"):
            add_linear(f"{p}/cross_attn/{proj}", d, d)
        add_norm(f"{p}/ff_norm")
        add_linear(f"{p}/ff/w1", d, ff)
        add_linear(f"{p}/ff/w2", ff, d)
    add_norm("decoder/final_norm")

    if not config.tied_output_embedding:
        a = math.sqrt(6.0 / (d + len(tgt_vocab)))
        add("output_proj/w", _uniform(rng, (d, len(tgt_vocab)), a, dt))

    return Seq2SeqModel(config, src_vocab, tgt_vocab, params)


PARAM_GROUPS = ("src_embed", "encoder", "tgt_embed", "decoder", "output_proj")


def group_of(param_name: str) -> str:
    g = param_name.split("/", 1)[0]
    if g not in PARAM_GROUPS:
        raise ModelError(f"parameter {param_name} has unknown group {g}")
    return g


class Seq2SeqModel:
    """One encoder-decoder with its vocabularies and named parameters."""

    def __init__(
        self,
        config: ModelConfig,
        src_vocab: Vocabulary,
        tgt_vocab: Vocabulary,
        params: dict,
    ):
        self.config = config
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.params = params
        self._train_mode = False
        self._rng = np.random.default_rng(0)

    # -- bookkeeping --------------------------------------------------------

    def param_names(self, group: str | None = None) -> list:
        names = sorted(self.params)
        if group is None:
            return names
        return [n for n in names if group_of(n) == group]

    def group_names(self) -> list:
        return sorted({group_of(n) for n in self.params})

    def frozen_param_names(self, frozen_groups) -> set:
        groups = set(frozen_groups)
        unknown = groups - set(PARAM_GROUPS)
        if unknown:
            raise ModelError(f"unknown parameter groups: {sorted(unknown)}")
        return {n for n in self.params if group_of(n) in groups}

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def set_train(self, mode: bool, rng: np.random.Generator | None = None):
        self._train_mode = mode
        if rng is not None:
            self._rng = rng

    # -- building blocks ----------------------------------------------------

    def _p(self, name) -> T.Tensor:
        return self.params[name]

    def _dropout(self, x: T.Tensor) -> T.Tensor:
        p = self.config.dropout
        if not self._train_mode or p <= 0.0:
            return x
        draw = self._rng.random(x.shape, dtype=np.float32)
        mask = (draw >= p).astype(x.data.dtype)
        mask *= 1.0 / (1.0 - p)
        return T.mul(x, T.Tensor(mask, dtype=x.data.dtype))

    def _embed(self, ids: np.ndarray, side: str) -> T.Tensor:
        b, length = ids.shape
        if length > self.config.max_len:
            raise ModelError(
                f"sequence length {length} exceeds max_len {self.config.max_len}"
            )
        tok = T.embedding(self._p(f"{side}/tok"), ids)
        pos_ids = np.broadcast_to(np.arange(length), (b, length))
        pos = T.embedding(self._p(f"{side}/pos"), pos_ids)
        x = T.scale(T.add(tok, pos), math.sqrt(self.config.model_dim))
        return self._dropout(x)

    def _split_heads(self, x: T.Tensor, b: int, length: int) -> T.Tensor:
        h = self.config.heads
        dh = self.config.model_dim // h
        return T.transpose(T.reshape(x, (b, length, h, dh)), (0, 2, 1, 3))

    def _linear(self, name, x2d) -> T.Tensor:
        return T.affine(x2d, self._p(f"{name}/w"), self._p(f"{name}/b"))

    def _heads(self, prefix, proj, x2d, b, length) -> T.Tensor:
        """Project (b * length, d) rows with {prefix}/{proj}; split -> (b, h, length, dh)."""
        return self._split_heads(self._linear(f"{prefix}/{proj}", x2d), b, length)

    def _attend(self, prefix, q, k_t, v, mask) -> T.Tensor:
        """Attention of q (b, h, lq, dh) over keys k_t (b, h, dh, lkv) and values
        v (b, h, lkv, dh), then the output projection -> (b * lq, d).

        mask is a bool (b, h, lq, lkv) array, True = blocked.
        """
        b, _, lq, dh = q.shape
        scores = T.scale(T.matmul(q, k_t), 1.0 / math.sqrt(dh))
        if mask is not None:
            scores = T.masked_fill(scores, mask, -1e9)
        attn = T.softmax(scores)
        ctx = T.matmul(attn, v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b * lq, self.config.model_dim))
        return self._linear(f"{prefix}/wo", ctx)

    def _attention(self, prefix, q_in, kv_in, b, lq, lkv, mask):
        """Multi-head attention; mask is a bool (b, h, lq, lkv) array, True = blocked."""
        q = self._heads(prefix, "wq", q_in, b, lq)
        k = self._heads(prefix, "wk", kv_in, b, lkv)
        v = self._heads(prefix, "wv", kv_in, b, lkv)
        return self._attend(prefix, q, T.transpose(k, (0, 1, 3, 2)), v, mask)

    def _norm(self, name, x):
        return T.layer_norm(x, self._p(f"{name}/gain"), self._p(f"{name}/bias"))

    def _ff(self, prefix, x2d):
        return self._linear(f"{prefix}/w2", T.relu(self._linear(f"{prefix}/w1", x2d)))

    # -- encoder / decoder --------------------------------------------------

    def encode(self, src_ids: np.ndarray, adapter=None) -> T.Tensor:
        """Encoder states (B, Ls, d); adapter (if given) is applied position-wise."""
        src_ids = np.asarray(src_ids)
        if src_ids.ndim != 2:
            raise ModelError(f"src ids must be (batch, length), got {src_ids.shape}")
        if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= len(self.src_vocab)):
            raise ModelError("source id out of vocabulary range")
        b, ls = src_ids.shape
        d = self.config.model_dim
        pad = src_ids == self.src_vocab.pad_id
        mask = np.broadcast_to(pad[:, None, None, :], (b, self.config.heads, ls, ls))
        x = self._embed(src_ids, "src_embed")
        for i in range(self.config.layers):
            p = f"encoder/l{i}"
            h = T.reshape(self._norm(f"{p}/attn_norm", x), (b * ls, d))
            a = self._attention(f"{p}/attn", h, h, b, ls, ls, mask)
            x = T.add(x, self._dropout(T.reshape(a, (b, ls, d))))
            h = T.reshape(self._norm(f"{p}/ff_norm", x), (b * ls, d))
            f = self._ff(f"{p}/ff", h)
            x = T.add(x, self._dropout(T.reshape(f, (b, ls, d))))
        x = self._norm("encoder/final_norm", x)
        if adapter is not None:
            m = adapter.as_tensor(x.data.dtype)
            if m.shape != (d, d):
                raise ModelError(f"adapter shape {m.shape} does not match d={d}")
            x = T.reshape(T.matmul(T.reshape(x, (b * ls, d)), T.transpose(m)), (b, ls, d))
        return x

    def decode_states(self, tgt_in_ids: np.ndarray, memory: T.Tensor, src_ids: np.ndarray) -> T.Tensor:
        tgt_in_ids = np.asarray(tgt_in_ids)
        if tgt_in_ids.size and (
            tgt_in_ids.min() < 0 or tgt_in_ids.max() >= len(self.tgt_vocab)
        ):
            raise ModelError("target id out of vocabulary range")
        b, lt = tgt_in_ids.shape
        ls = memory.shape[1]
        d = self.config.model_dim
        h_ = self.config.heads
        causal = np.triu(np.ones((lt, lt), dtype=bool), k=1)
        self_mask = np.broadcast_to(causal[None, None, :, :], (b, h_, lt, lt))
        src_pad = np.asarray(src_ids) == self.src_vocab.pad_id
        cross_mask = np.broadcast_to(src_pad[:, None, None, :], (b, h_, lt, ls))
        mem2d = T.reshape(memory, (b * ls, d))

        x = self._embed(tgt_in_ids, "tgt_embed")
        for i in range(self.config.layers):
            p = f"decoder/l{i}"
            h = T.reshape(self._norm(f"{p}/self_norm", x), (b * lt, d))
            a = self._attention(f"{p}/self_attn", h, h, b, lt, lt, self_mask)
            x = T.add(x, self._dropout(T.reshape(a, (b, lt, d))))
            h = T.reshape(self._norm(f"{p}/cross_norm", x), (b * lt, d))
            a = self._attention(f"{p}/cross_attn", h, mem2d, b, lt, ls, cross_mask)
            x = T.add(x, self._dropout(T.reshape(a, (b, lt, d))))
            h = T.reshape(self._norm(f"{p}/ff_norm", x), (b * lt, d))
            f = self._ff(f"{p}/ff", h)
            x = T.add(x, self._dropout(T.reshape(f, (b, lt, d))))
        return self._norm("decoder/final_norm", x)

    def output_logits(self, dec_states: T.Tensor) -> T.Tensor:
        """Vocabulary logits (positions, V) of decoder states (..., d)."""
        flat = T.reshape(dec_states, (-1, self.config.model_dim))
        if self.config.tied_output_embedding:
            logits = T.matmul(flat, T.transpose(self._p("tgt_embed/tok")))
        else:
            logits = T.matmul(flat, self._p("output_proj/w"))
        return logits

    def decoder_input(self, tgt_ids: np.ndarray) -> np.ndarray:
        dec_in = np.full_like(tgt_ids, self.tgt_vocab.pad_id)
        dec_in[:, 0] = self.tgt_vocab.bos_id
        dec_in[:, 1:] = tgt_ids[:, :-1]
        return dec_in

    def forward_loss(self, batch: Batch, adapter=None) -> T.Tensor:
        """Label-smoothed mean per-token cross-entropy; padding masked out."""
        tgt = batch.tgt
        weights = (tgt != self.tgt_vocab.pad_id).astype(np.float64).ravel()
        if weights.sum() == 0:
            raise ModelError("batch has an all-padding target")
        memory = self.encode(batch.src, adapter=adapter)
        states = self.decode_states(self.decoder_input(tgt), memory, batch.src)
        logits = self.output_logits(states)
        return T.cross_entropy_logits(
            logits, tgt.ravel(), weights, label_smoothing=self.config.label_smoothing
        )

    def token_logprobs(self, batch: Batch, adapter=None) -> tuple:
        """(logprob of each reference token, pad mask) without tape recording."""
        with T.no_grad():
            memory = self.encode(batch.src, adapter=adapter)
            states = self.decode_states(self.decoder_input(batch.tgt), memory, batch.src)
            logits = self.output_logits(states).data
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        flat_tgt = batch.tgt.ravel()
        tok_lp = logp[np.arange(flat_tgt.size), flat_tgt].reshape(batch.tgt.shape)
        return tok_lp, batch.tgt != self.tgt_vocab.pad_id

    def per_sentence_loss(self, batch: Batch, adapter=None) -> np.ndarray:
        """Mean negative log-likelihood per sentence (no smoothing, no grad)."""
        tok_lp, mask = self.token_logprobs(batch, adapter=adapter)
        counts = mask.sum(axis=1)
        if (counts == 0).any():
            raise ModelError("batch has an all-padding target")
        return -(tok_lp * mask).sum(axis=1) / counts

    def start_decode(self, memory: T.Tensor, src_ids: np.ndarray) -> DecodeState:
        """Empty decode state for the sentences of `memory` (B, Ls, d), one row each.

        Every layer's cross-attention keys and values are projected here, once
        per sentence; no tape recording.
        """
        b, ls, d = memory.shape
        src_pad = np.asarray(src_ids) == self.src_vocab.pad_id
        if src_pad.shape != (b, ls):
            raise ModelError(f"src ids {src_pad.shape} do not match memory {memory.shape}")
        h = self.config.heads
        dh = d // h
        layers = self.config.layers
        with T.no_grad():
            mem2d = T.reshape(memory, (b * ls, d))
            cross_k, cross_v = [], []
            for i in range(layers):
                p = f"decoder/l{i}/cross_attn"
                cross_k.append(T.transpose(self._heads(p, "wk", mem2d, b, ls), (0, 1, 3, 2)).data)
                cross_v.append(self._heads(p, "wv", mem2d, b, ls).data)
        dt = memory.dtype
        return DecodeState(
            self_k=[np.zeros((b, h, dh, 0), dtype=dt)] * layers,
            self_v=[np.zeros((b, h, 0, dh), dtype=dt)] * layers,
            cross_k=cross_k,
            cross_v=cross_v,
            src_pad=src_pad,
        )

    def step_logits(self, ids: np.ndarray, state: DecodeState) -> np.ndarray:
        """Feed one token per row, ids (rows, 1), at position state.length.

        Returns that position's next-token logits (rows, V) and advances
        `state` by one position. Inference only: no dropout, no tape recording.
        """
        ids = np.asarray(ids)
        rows = state.rows
        if ids.shape != (rows, 1):
            raise ModelError(f"step ids must be ({rows}, 1), got {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.tgt_vocab)):
            raise ModelError("target id out of vocabulary range")
        t = state.length
        if t >= self.config.max_len:
            raise ModelError(
                f"decode position {t} exceeds max_len {self.config.max_len}"
            )
        d = self.config.model_dim
        h = self.config.heads
        dh = d // h
        ls = state.src_pad.shape[1]
        cross_mask = np.broadcast_to(state.src_pad[:, None, None, :], (rows, h, 1, ls))
        self_k, self_v = [], []
        with T.no_grad():
            tok = T.embedding(self._p("tgt_embed/tok"), ids[:, 0])
            pos = T.embedding(self._p("tgt_embed/pos"), np.full(rows, t))
            x = T.scale(T.add(tok, pos), math.sqrt(d))  # (rows, d)
            for i in range(self.config.layers):
                p = f"decoder/l{i}"
                y = self._norm(f"{p}/self_norm", x)
                # one position: (rows, d) reshapes to any head layout without a transpose
                q = T.reshape(self._linear(f"{p}/self_attn/wq", y), (rows, h, 1, dh))
                k = self._linear(f"{p}/self_attn/wk", y).data.reshape(rows, h, dh, 1)
                v = self._linear(f"{p}/self_attn/wv", y).data.reshape(rows, h, 1, dh)
                self_k.append(np.concatenate((state.self_k[i], k), axis=3))
                self_v.append(np.concatenate((state.self_v[i], v), axis=2))
                a = self._attend(
                    f"{p}/self_attn", q, T.Tensor(self_k[i]), T.Tensor(self_v[i]), None
                )
                x = T.add(x, a)
                y = self._norm(f"{p}/cross_norm", x)
                q = T.reshape(self._linear(f"{p}/cross_attn/wq", y), (rows, h, 1, dh))
                a = self._attend(
                    f"{p}/cross_attn",
                    q,
                    T.Tensor(state.cross_k[i]),
                    T.Tensor(state.cross_v[i]),
                    cross_mask,
                )
                x = T.add(x, a)
                x = T.add(x, self._ff(f"{p}/ff", self._norm(f"{p}/ff_norm", x)))
            logits = self.output_logits(self._norm("decoder/final_norm", x)).data
        state.self_k, state.self_v = self_k, self_v
        state.length = t + 1
        return logits

    # -- surgery helpers ----------------------------------------------------

    def clone_params(self) -> dict:
        return {n: p.data.copy() for n, p in self.params.items()}

    def load_param_arrays(self, arrays: dict):
        if set(arrays) != set(self.params):
            missing = set(self.params) ^ set(arrays)
            raise ModelError(f"parameter name mismatch: {sorted(missing)[:4]}...")
        for n, arr in arrays.items():
            if arr.shape != self.params[n].data.shape:
                raise ModelError(
                    f"shape mismatch for {n}: {arr.shape} vs {self.params[n].data.shape}"
                )
            self.params[n].data = arr.astype(self.params[n].data.dtype, copy=True)
