"""In-memory span tracing around the calls into pivotnmt's public functions.

The tracer replaces a function at every name its callers look it up by (a
module global such as `training.make_batches`, imported by name from
`data`, or a class attribute such as `Seq2SeqModel.step_logits`) with a
wrapper that records one span per call: (name, start, end, parent, request).
Tensor primitives get a counting wrapper only, to keep overhead low. Spans
stay in memory until `write` is called at the end of a run.

`Probe` is the always-on part: two cheap wrappers that count what the
end-to-end metrics need (target tokens and start times of training updates,
incomplete beam hypotheses). It is installed in traced and untraced runs
alike.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute names a class method.
# Seq2SeqModel is the only model class, so its spans drop the class name.
TRACED = (
    ("tensor", "backward", "tensor.backward"),
    ("tensor", "adam_step", "tensor.adam_step"),
    ("model", "Seq2SeqModel.forward_loss", "model.forward_loss"),
    ("model", "Seq2SeqModel.token_logprobs", "model.token_logprobs"),
    ("model", "Seq2SeqModel.encode", "model.encode"),
    ("model", "Seq2SeqModel.step_logits", "model.step_logits"),
    ("decoding", "beam_search_batch", "decoding.beam_search_batch"),
    ("decoding", "translate_tokens", "decoding.translate_tokens"),
    ("decoding", "pivot_translate", "decoding.pivot_translate"),
    ("bpe", "Vocabulary.content_hash", "bpe.Vocabulary.content_hash"),
    ("bpe", "apply_bpe", "bpe.apply_bpe"),
    ("bpe", "learn_bpe", "bpe.learn_bpe"),
    ("data", "make_batches", "data.make_batches"),
    ("data", "apply_noise", "data.apply_noise"),
    ("training", "validation_perplexity", "training.validation_perplexity"),
    ("training", "model_of", "training.model_of"),
    ("checkpoint", "Checkpoint.content_hash", "checkpoint.Checkpoint.content_hash"),
)

TENSOR_PRIMITIVES = (
    "add", "sub", "mul", "scale", "matmul", "affine", "relu", "softmax",
    "layer_norm", "embedding", "concat", "masked_fill", "reshape", "transpose",
    "tile", "tsum", "tmean", "cross_entropy_logits",
)

PACKAGE = "pivotnmt"


def _patch_everywhere(original, replacement):
    """Rebind every pivotnmt module global that refers to `original`."""
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Patcher:
    """Installs wrappers and restores the originals on `undo`."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attr: str, make_wrapper):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, make_wrapper(original))
            self._undo.append(lambda: setattr(owner, meth, original))
            return
        original = getattr(mod, attr)
        replacement = make_wrapper(original)
        _patch_everywhere(original, replacement)
        self._undo.append(lambda: _patch_everywhere(replacement, original))

    def undo(self):
        while self._undo:
            self._undo.pop()()


class Probe:
    """Counters the end-to-end metrics need, on in every run.

    `request` names the operation in progress: the benchmark loops set it per
    batch or request, training updates set it to their index, set-up is -1.
    Spans carry it as their request id.
    """

    def __init__(self):
        self.request = -1
        self.update_starts: list = []
        self.update_tokens = 0
        self.incomplete = 0
        self._patcher = Patcher()

    def install(self):
        import numpy as np

        probe = self

        def on_forward_loss(fn):
            @functools.wraps(fn)
            def wrapper(model, batch, *args, **kwargs):
                probe.request = len(probe.update_starts)
                probe.update_starts.append(time.perf_counter())
                probe.update_tokens += int(np.count_nonzero(batch.tgt != model.tgt_vocab.pad_id))
                return fn(model, batch, *args, **kwargs)

            return wrapper

        def on_beam_search(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                hyps = fn(*args, **kwargs)
                probe.incomplete += sum(1 for h in hyps if not h.completed)
                return hyps

            return wrapper

        self._patcher.wrap("model", "Seq2SeqModel.forward_loss", on_forward_loss)
        self._patcher.wrap("decoding", "beam_search_batch", on_beam_search)

    def uninstall(self):
        self._patcher.undo()


class Tracer:
    """Records spans for TRACED functions and call counts for tensor primitives."""

    def __init__(self, probe: Probe):
        # span: [name, start, end, parent index or -1, request id]
        self.spans: list = []
        self.primitive_calls = 0
        self.step_rows = 0
        self.step_positions = 0
        self.emitted_tokens = 0
        self._probe = probe
        self._stack: list = []
        self._patcher = Patcher()

    def install(self):
        for module, attr, name in TRACED:
            self._patcher.wrap(module, attr, functools.partial(self._span_wrapper, name))
        for prim in TENSOR_PRIMITIVES:
            self._patcher.wrap("tensor", prim, self._count_wrapper)

    def uninstall(self):
        self._patcher.undo()

    def _span_wrapper(self, name, fn):
        tracer = self
        probe = self._probe
        spans = self.spans
        stack = self._stack
        counts_steps = name == "model.step_logits"
        counts_tokens = name == "decoding.beam_search_batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, probe.request]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts_steps:
                rows, length = args[1].shape
                tracer.step_rows += rows
                tracer.step_positions += rows * length
            elif counts_tokens:
                # emitted tokens include the end-of-sentence token of completed hypotheses
                tracer.emitted_tokens += sum(len(h.ids) + h.completed for h in out)
            return out

        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.primitive_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, self_s in zip(spans, self_times(spans)):
        t = totals[span[0]]
        t["calls"] += 1
        t["s"] += span[2] - span[1]
        t["self_s"] += self_s
    return dict(totals)
