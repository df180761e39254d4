"""Transformer encoder-decoder with named parameter groups.

Parameters are keyed "group/..." where group is one of src_embed, encoder,
tgt_embed, decoder, output_proj, adapter; transfer surgery and freezing operate on
those groups. The variant is pre-norm (final norm after each stack) with
learned positional embeddings, which puts encoder-side positional parameters
inside the src_embed group where freezing expects them.

A model may carry a fixed d x d adapter, `adapter/m` (`requires_grad` always
off, see `attach_adapter`), applied position-wise to the encoder output,
after the final encoder norm, as the last step before cross-attention.

The layer sequence is written once, in helpers that take an op set: the
tape module `tensor` (Tensors recorded for backward, every op checked for
NaN/Inf) or `tensor.ArrayOps` (plain arrays, the same kernels, no tape).
Each sublayer is one fused primitive (`embed`, `heads`, `attention`,
`feed_forward`, `residual`) on a 2-D residual stream, (sentences * positions, d).
Only training runs on the tape (`forward_loss`), and even there a frozen
encoder (no `src_embed`/`encoder` parameter requires a gradient, as in
step-wise stage 2) runs on arrays and enters the tape as a constant.
Inference runs only on arrays: `encode`, `token_logprobs`, `start_decode`
and `step_logits` return plain arrays, each checked once for NaN/Inf (the
encoder memory with its padding positions, the logits), and their values
equal the tape path's bit for bit: the two paths run the same kernels on the
same memory layouts. The loss and `token_logprobs` take their
log-probabilities from `tensor.log_softmax`, the one log-softmax that
decoding uses too.

Parameters are bound once per call: `forward_loss`, `encode`,
`token_logprobs` and `start_decode` look up each layer's parameters when
they start (`_bind`, through a name index built with the model) and the
layer sequence reads them from that dict. Surgery and checkpoint loading
replace `.data`, so the next call sees the new arrays.

Training and scoring run the decoder over whole target prefixes
(`forward_loss`, `token_logprobs`). Decoding runs it one position at a time:
`start_decode` projects every sentence's encoder memory into each layer's
cross-attention keys and values once, and each `step_logits` call feeds one
token per row, appends that position's self-attention key and value per
layer to the `DecodeState` and returns the logits of that position only.
The decode runs on the weights the model had at `start_decode`: the state
keeps the decoder's bound arrays, the tied output projection's transposed
copy included. A beam search that keeps, drops or duplicates rows between
steps reorders the whole state with `DecodeState.reorder`, one gather per
cached array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, asdict

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
    weights holds the decoder's parameter arrays as `start_decode` bound them
    (see `Seq2SeqModel._decoder_weights`); every step runs on them.
    """

    self_k: list
    self_v: list
    cross_k: list
    cross_v: list
    src_pad: np.ndarray
    weights: tuple
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
        if self.dtype not in ("float32", "float64"):
            raise ModelError(f"dtype must be float32 or float64, got {self.dtype!r}")
        for key in ("dropout", "label_smoothing"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ModelError(f"{key} must be in [0, 1), got {getattr(self, key)}")

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


PARAM_GROUPS = ("src_embed", "encoder", "tgt_embed", "decoder", "output_proj", "adapter")
ENCODER_SIDE_GROUPS = ("src_embed", "encoder")


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
        # layer ("decoder/l0") or group -> (rest of name, name) of its
        # parameters; a name with no layer part belongs to its group
        self._index: dict = {}
        for name in params:
            prefix, rest = re.match(r"(\w+/l\d+|\w+)/(.+)", name).groups()
            self._index.setdefault(prefix, []).append((rest, name))

    def attach_adapter(self, m) -> None:
        """Add the adapter `m` as the parameter `adapter/m`, in the model dtype and frozen."""
        d = self.config.model_dim
        if "adapter/m" in self.params:
            raise ModelError("the model already has an adapter")
        if np.shape(m) != (d, d):
            raise ModelError(f"adapter shape {np.shape(m)} does not match d={d}")
        self.params["adapter/m"] = T.Tensor(m, dtype=self.config.np_dtype())
        self._index["adapter"] = [("m", "adapter/m")]

    # -- bookkeeping --------------------------------------------------------

    def param_names(self, group: str | None = None) -> list:
        names = sorted(self.params)
        if group is None:
            return names
        return [n for n in names if group_of(n) == group]

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

    def _bind(self, ops, prefix) -> dict:
        """The parameters of a layer or group as `ops` takes them, keyed by
        the rest of their names. Bound once per call: surgery and checkpoint
        loading replace `.data`, and the next call sees the new arrays."""
        params = self.params
        if ops is T:
            return {rest: params[name] for rest, name in self._index[prefix]}
        return {rest: params[name].data for rest, name in self._index[prefix]}

    def _stack(self, ops, side) -> tuple:
        """(embeddings, per-layer, final-norm) bound parameters of the
        "encoder" or "decoder" side."""
        embed = self._bind(ops, "src_embed" if side == "encoder" else "tgt_embed")
        layers = [self._bind(ops, f"{side}/l{i}") for i in range(self.config.layers)]
        return embed, layers, self._bind(ops, side)

    def _keep(self, shape):
        """Dropout keep-mask for an activation of `shape` (entries 0 or
        1/(1-p)), or None when dropout is off."""
        p = self.config.dropout
        if not self._train_mode or p <= 0.0:
            return None
        keep = (self._rng.random(shape, dtype=np.float32) >= p).astype(self.config.np_dtype())
        keep *= 1.0 / (1.0 - p)
        return keep

    def _embed(self, ops, w, ids: np.ndarray, start: int = 0):
        """Scaled token plus position embeddings of ids (b, length) at positions start, ..."""
        b, length = ids.shape
        if start + length > self.config.max_len:
            raise ModelError(
                f"sequence length {start + length} exceeds max_len {self.config.max_len}"
            )
        d = self.config.model_dim
        return ops.embed(w["tok"], w["pos"], ids, start, math.sqrt(d), self._keep((b * length, d)))

    def _heads(self, ops, w, name, x, rows, keys=False):
        """Rows x projected with `name`, split into heads (`T.heads`)."""
        return ops.heads(x, w[name + "/w"], w[name + "/b"], rows, self.config.heads, keys)

    def _kv(self, ops, w, name, x, rows):
        """Keys (rows, h, dh, length), transposed for the score product, and values (rows, h, length, dh)."""
        return self._heads(ops, w, name + "/wk", x, rows, keys=True), self._heads(ops, w, name + "/wv", x, rows)

    def _attend(self, ops, w, name, q, k_t, v, mask):
        """Attention of q over keys k_t and values v, then the output projection."""
        return ops.affine(ops.attention(q, k_t, v, mask), w[name + "/wo/w"], w[name + "/wo/b"])

    @staticmethod
    def _attention_mask(blocked: np.ndarray):
        """`blocked`, broadcasting to the scores, or None when it blocks
        nothing: filling no entry changes no value and no gradient."""
        return blocked if blocked.any() else None

    @staticmethod
    def _norm(ops, w, name, x):
        return ops.layer_norm(x, w[name + "/gain"], w[name + "/bias"])

    @staticmethod
    def _ff(ops, w, x):
        return ops.feed_forward(x, w["ff/w1/w"], w["ff/w1/b"], w["ff/w2/w"], w["ff/w2/b"])

    def _residual(self, ops, x, y):
        """The stream x plus the sublayer output y after dropout."""
        return ops.residual(x, y, self._keep(y.shape))

    # -- encoder / decoder --------------------------------------------------

    def _encoder(self, ops, src_ids: np.ndarray):
        """Encoder states (B * Ls, d) of src ids (B, Ls), the adapter (if any) applied."""
        src_ids = np.asarray(src_ids)
        if src_ids.ndim != 2:
            raise ModelError(f"src ids must be (batch, length), got {src_ids.shape}")
        if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= len(self.src_vocab)):
            raise ModelError("source id out of vocabulary range")
        b = src_ids.shape[0]
        embed, layers, final = self._stack(ops, "encoder")
        mask = self._attention_mask((src_ids == self.src_vocab.pad_id)[:, None, None, :])
        x = self._embed(ops, embed, src_ids)
        for w in layers:
            h = self._norm(ops, w, "attn_norm", x)
            q = self._heads(ops, w, "attn/wq", h, b)
            k_t, v = self._kv(ops, w, "attn", h, b)
            x = self._residual(ops, x, self._attend(ops, w, "attn", q, k_t, v, mask))
            h = self._norm(ops, w, "ff_norm", x)
            x = self._residual(ops, x, self._ff(ops, w, h))
        x = self._norm(ops, final, "final_norm", x)
        if "adapter/m" in self.params:
            x = ops.matmul(x, ops.transpose(self._bind(ops, "adapter")["m"]))
        return x

    def encode(self, src_ids: np.ndarray) -> np.ndarray:
        """Encoder states (B, Ls, d), the adapter (if any) applied position-wise.

        Checked once for NaN/Inf, padding positions included.
        """
        x = self._encoder(T.ArrayOps, src_ids)
        return T.check_finite("encode", x.reshape(np.shape(src_ids) + (self.config.model_dim,)))

    def _out_weight(self, ops):
        """The (d, V) output projection: for a tied one the token table
        transposed (on arrays, a contiguous copy)."""
        if self.config.tied_output_embedding:
            return ops.transpose(self._bind(ops, "tgt_embed")["tok"])
        return self._bind(ops, "output_proj")["w"]

    def _decoder_weights(self, ops) -> tuple:
        """(embeddings, per-layer, final norm, output projection) of the
        decoder, bound for one call."""
        return (*self._stack(ops, "decoder"), self._out_weight(ops))

    def _cross_kv(self, ops, layers, memory, rows) -> list:
        """Per decoder layer, the cross-attention (keys, values) of memory (rows * Ls, d)."""
        return [self._kv(ops, w, "cross_attn", memory, rows) for w in layers]

    def _decoder(self, ops, weights, ids, cross, src_pad, cache=None):
        """Final-norm decoder states (b * lt, d) of target ids (b, lt).

        `weights` starts with the bound (embeddings, per-layer, final norm)
        of `_stack`, `cross` holds each layer's (keys, values) from
        `_cross_kv`; src_pad (b, Ls) is True at source padding. Without
        `cache` the ids are whole prefixes from position 0. With a
        `DecodeState` (plain arrays only) they are the positions after
        `cache.length`: each layer appends their self-attention keys and
        values to the cache and attends over all of it.
        """
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.tgt_vocab)):
            raise ModelError("target id out of vocabulary range")
        b, lt = ids.shape
        start = 0 if cache is None else cache.length
        embed, layers, final = weights[:3]
        # query start + i sees keys 0 .. start + i, so a single query sees all
        self_mask = None if lt == 1 else self._attention_mask(
            np.arange(start + lt) > np.arange(start, start + lt)[:, None]
        )
        cross_mask = self._attention_mask(src_pad[:, None, None, :])
        x = self._embed(ops, embed, ids, start)
        for i, (w, (cross_k, cross_v)) in enumerate(zip(layers, cross)):
            h = self._norm(ops, w, "self_norm", x)
            q = self._heads(ops, w, "self_attn/wq", h, b)
            k_t, v = self._kv(ops, w, "self_attn", h, b)
            if cache is not None:
                k_t = cache.self_k[i] = np.concatenate((cache.self_k[i], k_t), axis=3)
                v = cache.self_v[i] = np.concatenate((cache.self_v[i], v), axis=2)
            x = self._residual(ops, x, self._attend(ops, w, "self_attn", q, k_t, v, self_mask))
            h = self._norm(ops, w, "cross_norm", x)
            q = self._heads(ops, w, "cross_attn/wq", h, b)
            x = self._residual(ops, x, self._attend(ops, w, "cross_attn", q, cross_k, cross_v, cross_mask))
            h = self._norm(ops, w, "ff_norm", x)
            x = self._residual(ops, x, self._ff(ops, w, h))
        if cache is not None:
            cache.length = start + lt
        return self._norm(ops, final, "final_norm", x)

    def decoder_input(self, tgt_ids: np.ndarray) -> np.ndarray:
        dec_in = np.full_like(tgt_ids, self.tgt_vocab.pad_id)
        dec_in[:, 0] = self.tgt_vocab.bos_id
        dec_in[:, 1:] = tgt_ids[:, :-1]
        return dec_in

    def forward_loss(self, batch: Batch) -> T.Tensor:
        """Label-smoothed mean per-token cross-entropy; padding masked out.

        A frozen encoder runs on plain arrays, its states checked once for
        NaN/Inf, and enters the tape as a constant.
        """
        tgt = batch.tgt
        weights = (tgt != self.tgt_vocab.pad_id).astype(np.float64).ravel()
        if weights.sum() == 0:
            raise ModelError("batch has an all-padding target")
        if any(p.requires_grad for n, p in self.params.items() if group_of(n) in ENCODER_SIDE_GROUPS):
            memory = self._encoder(T, batch.src)
        else:
            memory = T.Tensor(T.check_finite("encode", self._encoder(T.ArrayOps, batch.src)))
        dec = self._decoder_weights(T)
        cross = self._cross_kv(T, dec[1], memory, tgt.shape[0])
        src_pad = batch.src == self.src_vocab.pad_id
        logits = T.matmul(self._decoder(T, dec, self.decoder_input(tgt), cross, src_pad), dec[3])
        return T.cross_entropy_logits(
            logits, tgt.ravel(), weights, label_smoothing=self.config.label_smoothing
        )

    def token_logprobs(self, batch: Batch) -> tuple:
        """(logprob of each reference token, pad mask), on plain arrays; the
        logits are checked once for NaN/Inf."""
        memory = self.encode(batch.src)
        b, ls, d = memory.shape
        dec = self._decoder_weights(T.ArrayOps)
        cross = self._cross_kv(T.ArrayOps, dec[1], memory.reshape(b * ls, d), b)
        src_pad = batch.src == self.src_vocab.pad_id
        states = self._decoder(T.ArrayOps, dec, self.decoder_input(batch.tgt), cross, src_pad)
        logp = T.log_softmax(T.check_finite("output logits", states @ dec[3]))
        flat_tgt = batch.tgt.ravel()
        tok_lp = logp[np.arange(flat_tgt.size), flat_tgt].reshape(batch.tgt.shape)
        return tok_lp, batch.tgt != self.tgt_vocab.pad_id

    def start_decode(self, memory: np.ndarray, src_ids: np.ndarray) -> DecodeState:
        """Empty decode state for the sentences of `memory` (B, Ls, d), one row each.

        Every layer's cross-attention keys and values are projected here, once
        per sentence, and the decoder's weights are bound for the whole decode.
        """
        b, ls, d = memory.shape
        src_pad = np.asarray(src_ids) == self.src_vocab.pad_id
        if src_pad.shape != (b, ls):
            raise ModelError(f"src ids {src_pad.shape} do not match memory {memory.shape}")
        h = self.config.heads
        dh = d // h
        layers = self.config.layers
        weights = self._decoder_weights(T.ArrayOps)
        cross = self._cross_kv(T.ArrayOps, weights[1], memory.reshape(b * ls, d), b)
        return DecodeState(
            self_k=[np.zeros((b, h, dh, 0), dtype=memory.dtype)] * layers,
            self_v=[np.zeros((b, h, 0, dh), dtype=memory.dtype)] * layers,
            cross_k=[k for k, _ in cross],
            cross_v=[v for _, v in cross],
            src_pad=src_pad,
            weights=weights,
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
        cross = zip(state.cross_k, state.cross_v)
        states = self._decoder(T.ArrayOps, state.weights, ids, cross, state.src_pad, cache=state)
        return T.check_finite("output logits", states @ state.weights[3])

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
