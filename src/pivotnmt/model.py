"""Transformer encoder-decoder with named parameter groups.

Parameters are keyed "group/..." where group is one of src_embed, encoder,
tgt_embed, decoder, output_proj; transfer surgery and freezing operate on
those groups. The variant is pre-norm (final norm after each stack) with
learned positional embeddings, which puts encoder-side positional parameters
inside the src_embed group where freezing expects them.

An optional d x d adapter matrix can be applied position-wise to the encoder
output, after the final encoder norm, as the last step before cross-attention.

The layer sequence is written once, in helpers that take an op set: the
tape module `tensor` (Tensors recorded for backward, every op checked for
NaN/Inf) or `tensor.ArrayOps` (plain arrays, the same kernels, no tape).
Training runs on the tape. Inference runs on arrays: `encode`,
`decode_states` and `output_logits` with `tape=False`, and through them
`token_logprobs`, `start_decode` and `step_logits`. Each array call checks
its output once for NaN/Inf (the encoder memory, padding positions included,
and the logits), and its results equal the tape path's bit for bit: the two
paths run the same kernels on the same memory layouts.

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
        self.self_k = [a.take(idx, axis=0) for a in self.self_k]
        self.self_v = [a.take(idx, axis=0) for a in self.self_v]
        self.cross_k = [a.take(idx, axis=0) for a in self.cross_k]
        self.cross_v = [a.take(idx, axis=0) for a in self.cross_v]
        self.src_pad = self.src_pad.take(idx, axis=0)


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
    # Each helper takes the op set it runs on: the tape module `T` itself
    # (Tensors, recorded for backward) or `T.ArrayOps` (plain arrays).

    @staticmethod
    def _ops(tape: bool):
        return T if tape else T.ArrayOps

    @staticmethod
    def _leaf(ops, t: T.Tensor):
        """A tape leaf as `ops` takes it: the Tensor, or its array."""
        return t if ops is T else t.data

    def _p(self, ops, name):
        # read at call time: surgery and checkpoint loading replace `.data`
        return self._leaf(ops, self.params[name])

    def _dropout(self, ops, x):
        p = self.config.dropout
        if not self._train_mode or p <= 0.0:
            return x
        draw = self._rng.random(x.shape, dtype=np.float32)
        mask = (draw >= p).astype(x.dtype)
        mask *= 1.0 / (1.0 - p)
        return ops.mul(x, self._leaf(ops, T.Tensor(mask, dtype=x.dtype)))

    def _embed(self, ops, ids: np.ndarray, side: str, start: int = 0):
        """Scaled token plus position embeddings of ids (b, length) at positions start, ..."""
        b, length = ids.shape
        if start + length > self.config.max_len:
            raise ModelError(
                f"sequence length {start + length} exceeds max_len {self.config.max_len}"
            )
        tok = ops.embedding(self._p(ops, f"{side}/tok"), ids)
        pos_ids = np.broadcast_to(np.arange(start, start + length), (b, length))
        pos = ops.embedding(self._p(ops, f"{side}/pos"), pos_ids)
        x = ops.scale(ops.add(tok, pos), math.sqrt(self.config.model_dim))
        return self._dropout(ops, x)

    def _linear(self, ops, name, x2d):
        return ops.affine(x2d, self._p(ops, f"{name}/w"), self._p(ops, f"{name}/b"))

    def _heads(self, ops, prefix, proj, x2d, b, length):
        """Project (b * length, d) rows with {prefix}/{proj}; split -> (b, h, length, dh)."""
        h = self.config.heads
        y = self._linear(ops, f"{prefix}/{proj}", x2d)
        return ops.transpose(ops.reshape(y, (b, length, h, self.config.model_dim // h)), (0, 2, 1, 3))

    def _kv(self, ops, prefix, x2d, b, length):
        """Keys (b, h, dh, length), transposed for the score product, and values (b, h, length, dh)."""
        k = self._heads(ops, prefix, "wk", x2d, b, length)
        return ops.transpose(k, (0, 1, 3, 2)), self._heads(ops, prefix, "wv", x2d, b, length)

    def _attend(self, ops, prefix, q, k_t, v, mask):
        """Attention of q (b, h, lq, dh) over keys k_t (b, h, dh, lkv) and values
        v (b, h, lkv, dh), then the output projection -> (b * lq, d).

        mask is a bool (b, h, lq, lkv) array, True = blocked, or None.
        """
        b, _, lq, dh = q.shape
        scores = ops.scale(ops.matmul(q, k_t), 1.0 / math.sqrt(dh))
        if mask is not None:
            scores = ops.masked_fill(scores, mask, -1e9)
        ctx = ops.matmul(ops.softmax(scores), v)
        ctx = ops.reshape(ops.transpose(ctx, (0, 2, 1, 3)), (b * lq, self.config.model_dim))
        return self._linear(ops, f"{prefix}/wo", ctx)

    @staticmethod
    def _attention_mask(blocked: np.ndarray, shape):
        """`blocked` broadcast to the (b, h, lq, lkv) scores, or None when it
        blocks nothing: filling no entry changes no value and no gradient."""
        return np.broadcast_to(blocked, shape) if blocked.any() else None

    def _norm(self, ops, name, x):
        return ops.layer_norm(x, self._p(ops, f"{name}/gain"), self._p(ops, f"{name}/bias"))

    def _ff(self, ops, prefix, x2d):
        return self._linear(ops, f"{prefix}/w2", ops.relu(self._linear(ops, f"{prefix}/w1", x2d)))

    def _residual(self, ops, x, y2d):
        """x (b, l, d) plus the dropped-out sublayer output y2d (b * l, d)."""
        return ops.add(x, self._dropout(ops, ops.reshape(y2d, x.shape)))

    # -- encoder / decoder --------------------------------------------------

    def encode(self, src_ids: np.ndarray, adapter=None, tape: bool = True):
        """Encoder states (B, Ls, d); adapter (if given) is applied position-wise.

        With tape=False the result is a plain array, checked once for NaN/Inf
        (padding positions included) instead of after every op.
        """
        ops = self._ops(tape)
        src_ids = np.asarray(src_ids)
        if src_ids.ndim != 2:
            raise ModelError(f"src ids must be (batch, length), got {src_ids.shape}")
        if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= len(self.src_vocab)):
            raise ModelError("source id out of vocabulary range")
        b, ls = src_ids.shape
        d = self.config.model_dim
        pad = src_ids == self.src_vocab.pad_id
        mask = self._attention_mask(pad[:, None, None, :], (b, self.config.heads, ls, ls))
        x = self._embed(ops, src_ids, "src_embed")
        for i in range(self.config.layers):
            p = f"encoder/l{i}"
            h = ops.reshape(self._norm(ops, f"{p}/attn_norm", x), (b * ls, d))
            q = self._heads(ops, f"{p}/attn", "wq", h, b, ls)
            k_t, v = self._kv(ops, f"{p}/attn", h, b, ls)
            x = self._residual(ops, x, self._attend(ops, f"{p}/attn", q, k_t, v, mask))
            h = ops.reshape(self._norm(ops, f"{p}/ff_norm", x), (b * ls, d))
            x = self._residual(ops, x, self._ff(ops, f"{p}/ff", h))
        x = self._norm(ops, "encoder/final_norm", x)
        if adapter is not None:
            m = self._leaf(ops, adapter.as_tensor(x.dtype))
            if m.shape != (d, d):
                raise ModelError(f"adapter shape {m.shape} does not match d={d}")
            x = ops.reshape(ops.matmul(ops.reshape(x, (b * ls, d)), ops.transpose(m)), (b, ls, d))
        return x if tape else T.check_finite("encode", x)

    def _cross_kv(self, ops, memory) -> list:
        """Per decoder layer, the cross-attention (keys, values) of memory (B, Ls, d)."""
        b, ls, d = memory.shape
        mem2d = ops.reshape(memory, (b * ls, d))
        return [
            self._kv(ops, f"decoder/l{i}/cross_attn", mem2d, b, ls)
            for i in range(self.config.layers)
        ]

    def _decoder(self, ops, ids, cross, src_pad, cache=None):
        """Final-norm decoder states (b, lt, d) of target ids (b, lt).

        `cross` holds each layer's (keys, values) from `_cross_kv`; src_pad
        (b, Ls) is True at source padding. Without `cache` the ids are whole
        prefixes from position 0. With a `DecodeState` (plain arrays only) they
        are the positions after `cache.length`: each layer appends their
        self-attention keys and values to the cache and attends over all of it.
        """
        b, lt = ids.shape
        d, heads = self.config.model_dim, self.config.heads
        start = 0 if cache is None else cache.length
        # query start + i sees keys 0 .. start + i
        blocked = np.arange(start + lt) > np.arange(start, start + lt)[:, None]
        self_mask = self._attention_mask(blocked, (b, heads, lt, start + lt))
        cross_mask = self._attention_mask(src_pad[:, None, None, :], (b, heads, lt, src_pad.shape[1]))
        x = self._embed(ops, ids, "tgt_embed", start)
        for i, (cross_k, cross_v) in enumerate(cross):
            p = f"decoder/l{i}"
            h = ops.reshape(self._norm(ops, f"{p}/self_norm", x), (b * lt, d))
            q = self._heads(ops, f"{p}/self_attn", "wq", h, b, lt)
            k_t, v = self._kv(ops, f"{p}/self_attn", h, b, lt)
            if cache is not None:
                k_t = cache.self_k[i] = np.concatenate((cache.self_k[i], k_t), axis=3)
                v = cache.self_v[i] = np.concatenate((cache.self_v[i], v), axis=2)
            x = self._residual(ops, x, self._attend(ops, f"{p}/self_attn", q, k_t, v, self_mask))
            h = ops.reshape(self._norm(ops, f"{p}/cross_norm", x), (b * lt, d))
            q = self._heads(ops, f"{p}/cross_attn", "wq", h, b, lt)
            a = self._attend(ops, f"{p}/cross_attn", q, cross_k, cross_v, cross_mask)
            x = self._residual(ops, x, a)
            h = ops.reshape(self._norm(ops, f"{p}/ff_norm", x), (b * lt, d))
            x = self._residual(ops, x, self._ff(ops, f"{p}/ff", h))
        if cache is not None:
            cache.length = start + lt
        return self._norm(ops, "decoder/final_norm", x)

    def decode_states(self, tgt_in_ids: np.ndarray, memory, src_ids: np.ndarray, tape: bool = True):
        """Decoder states (B, Lt, d) of whole target prefixes over `memory`
        (a Tensor, or with tape=False a plain array)."""
        tgt_in_ids = np.asarray(tgt_in_ids)
        if tgt_in_ids.size and (
            tgt_in_ids.min() < 0 or tgt_in_ids.max() >= len(self.tgt_vocab)
        ):
            raise ModelError("target id out of vocabulary range")
        ops = self._ops(tape)
        src_pad = np.asarray(src_ids) == self.src_vocab.pad_id
        return self._decoder(ops, tgt_in_ids, self._cross_kv(ops, memory), src_pad)

    def output_logits(self, dec_states, tape: bool = True):
        """Vocabulary logits (positions, V) of decoder states (..., d).

        With tape=False the result is a plain array, checked once for NaN/Inf.
        """
        ops = self._ops(tape)
        flat = ops.reshape(dec_states, (-1, self.config.model_dim))
        if self.config.tied_output_embedding:
            w = ops.transpose(self._p(ops, "tgt_embed/tok"))
        else:
            w = self._p(ops, "output_proj/w")
        logits = ops.matmul(flat, w)
        return logits if tape else T.check_finite("output logits", logits)

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
        """(logprob of each reference token, pad mask), on plain arrays."""
        memory = self.encode(batch.src, adapter=adapter, tape=False)
        states = self.decode_states(self.decoder_input(batch.tgt), memory, batch.src, tape=False)
        logits = self.output_logits(states, tape=False)
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

    def start_decode(self, memory, src_ids: np.ndarray) -> DecodeState:
        """Empty decode state for the sentences of `memory` (B, Ls, d), one row each.

        Every layer's cross-attention keys and values are projected here, once
        per sentence, on plain arrays (`memory` may also be a Tensor).
        """
        if isinstance(memory, T.Tensor):
            memory = memory.data
        b, ls, d = memory.shape
        src_pad = np.asarray(src_ids) == self.src_vocab.pad_id
        if src_pad.shape != (b, ls):
            raise ModelError(f"src ids {src_pad.shape} do not match memory {memory.shape}")
        h = self.config.heads
        dh = d // h
        layers = self.config.layers
        cross = self._cross_kv(T.ArrayOps, memory)
        return DecodeState(
            self_k=[np.zeros((b, h, dh, 0), dtype=memory.dtype)] * layers,
            self_v=[np.zeros((b, h, 0, dh), dtype=memory.dtype)] * layers,
            cross_k=[k for k, _ in cross],
            cross_v=[v for _, v in cross],
            src_pad=src_pad,
        )

    def step_logits(self, ids: np.ndarray, state: DecodeState) -> np.ndarray:
        """Feed one token per row, ids (rows, 1), at position state.length.

        Returns that position's next-token logits (rows, V), a plain array
        checked once for NaN/Inf, and advances `state` by one position.
        Dropout follows `set_train`, as in every forward pass.
        """
        ids = np.asarray(ids)
        rows = state.rows
        if ids.shape != (rows, 1):
            raise ModelError(f"step ids must be ({rows}, 1), got {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.tgt_vocab)):
            raise ModelError("target id out of vocabulary range")
        cross = zip(state.cross_k, state.cross_v)
        states = self._decoder(T.ArrayOps, ids, cross, state.src_pad, cache=state)
        return self.output_logits(states, tape=False)

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
