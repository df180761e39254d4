"""Training loops and transfer orchestration.

Covers the direct and multilingual baselines, plain transfer surgery,
step-wise pre-training (stage 1 is an ordinary `train` run, or
`crosslingual_pretrain`, over the joint source+pivot vocabulary; stage 2
trains pivot->target on its frozen encoder), cross-lingual encoder
pre-training over a translation+denoising mixture, and fine-tuning through
an optional fixed adapter: a checkpoint from `adapter.fit_adapter` whose one
parameter becomes the frozen model parameter `adapter/m`. A run trains
on a list of corpora (see `data`): a mixture is one corpus per part, and the
multilingual baselines pass one tagged corpus per direction, the
target-language tag a source token. Freezing a parameter group means
`requires_grad` off for the run: the group is never differentiated or
updated. The learning-rate schedule is plateau decay: the lr is multiplied
by 0.7 whenever validation perplexity has not improved for three
consecutive checkpoints, and training stops after eight consecutive
non-improving checkpoints. The best-validation parameters are what a run
returns.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .adapter import AdapterError
from .bpe import HashMismatchError, Vocabulary
from .checkpoint import Checkpoint
from .data import NoiseConfig, ParallelCorpus, make_batches
from .fileio import write_atomic
from .model import ENCODER_SIDE_GROUPS, ModelConfig, ModelError, Seq2SeqModel, init_params

log = logging.getLogger(__name__)


class TrainingError(Exception):
    pass


class VocabMismatchError(TrainingError, HashMismatchError):
    pass


@dataclass
class TrainSchedule:
    """Plateau-decay schedule constants plus desk-scale budget caps."""

    initial_lr: float = 1e-4
    decay_factor: float = 0.7
    decay_patience: int = 3
    stop_patience: int = 8
    checkpoint_interval: int = 200  # updates per validation checkpoint
    max_updates: int = 2000
    max_tokens: int = 1024

    def __post_init__(self):
        if self.checkpoint_interval < 1:
            raise TrainingError(f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")
        if self.max_tokens < 1:
            raise TrainingError(f"max_tokens must be >= 1, got {self.max_tokens}")


class ScheduleTracker:
    """Pure decay/stop bookkeeping over a validation-perplexity stream."""

    def __init__(self, schedule: TrainSchedule):
        self.schedule = schedule
        self.lr = schedule.initial_lr
        self.best_ppl = math.inf
        self._since_improve_decay = 0
        self._since_improve_stop = 0

    def observe(self, val_ppl: float) -> dict:
        """Feed one checkpoint's perplexity; ties count as non-improvement."""
        improved = val_ppl < self.best_ppl
        decayed = False
        if improved:
            self.best_ppl = val_ppl
            self._since_improve_decay = 0
            self._since_improve_stop = 0
        else:
            self._since_improve_decay += 1
            self._since_improve_stop += 1
            if self._since_improve_decay >= self.schedule.decay_patience:
                self.lr *= self.schedule.decay_factor
                self._since_improve_decay = 0
                decayed = True
        stop = self._since_improve_stop >= self.schedule.stop_patience
        return {"improved": improved, "decayed": decayed, "stop": stop}

    def state(self) -> dict:
        return {
            "lr": self.lr,
            "best_ppl": None if math.isinf(self.best_ppl) else self.best_ppl,
            "since_improve_decay": self._since_improve_decay,
            "since_improve_stop": self._since_improve_stop,
        }


def validation_perplexity(model: Seq2SeqModel, corpus, max_tokens: int) -> float:
    """exp(mean token NLL) over a corpus, deterministic, no smoothing."""
    stream = make_batches(
        [corpus], model.src_vocab, model.tgt_vocab, max_tokens, seed=0, epoch=0,
        max_len=model.config.max_len,
    )
    total_nll = 0.0
    total_tokens = 0
    model.set_train(False)
    for batch in stream.batches:
        tok_lp, mask = model.token_logprobs(batch)
        total_nll += -(tok_lp * mask).sum()
        total_tokens += int(mask.sum())
    return float(np.exp(total_nll / max(total_tokens, 1)))


def _vocab_hash_pair(model: Seq2SeqModel) -> tuple:
    return model.src_vocab.content_hash(), model.tgt_vocab.content_hash()


def checkpoint_of(model: Seq2SeqModel, provenance: dict, schedule_state: dict | None = None) -> Checkpoint:
    sh, th = _vocab_hash_pair(model)
    return Checkpoint(
        params=model.clone_params(),
        config=model.config.to_dict(),
        src_vocab_hash=sh,
        tgt_vocab_hash=th,
        provenance=provenance,
        schedule_state=schedule_state or {},
    )


def model_of(ckpt: Checkpoint, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> Seq2SeqModel:
    """A checkpoint's model, its adapter included, with vocabulary hashes verified."""
    if ckpt.src_vocab_hash != src_vocab.content_hash():
        raise VocabMismatchError("source vocabulary hash mismatch against checkpoint")
    if ckpt.tgt_vocab_hash != tgt_vocab.content_hash():
        raise VocabMismatchError("target vocabulary hash mismatch against checkpoint")
    config = ModelConfig(**ckpt.config)
    model = init_params(config, src_vocab, tgt_vocab, seed=0)
    if "adapter/m" in ckpt.params:
        model.attach_adapter(ckpt.params["adapter/m"])
    model.load_param_arrays(ckpt.params)
    return model


def train(
    model: Seq2SeqModel,
    train_corpora: list,
    val_corpus: ParallelCorpus,
    schedule: TrainSchedule,
    seed: int,
    frozen_groups=(),
    recipe: str = "train",
    parents: list | None = None,
    log_path=None,
) -> Checkpoint:
    """Run Adam updates on `train_corpora` with checkpoint-interval validation
    until decay/stop rules end it.

    Returns the best-validation checkpoint. The parameters of `frozen_groups`
    have `requires_grad` off for the run (restored however it ends): no tape
    nodes, gradients or Adam updates, so they stay bitwise unchanged. A
    frozen set with an unknown group or nothing left to train raises
    `TrainingError`. Divergence (non-finite loss) aborts and returns the
    last good checkpoint. The run's `step=` lines replace the file
    `log_path`, when given, once the run ends.
    """
    try:
        frozen_names = model.frozen_param_names(frozen_groups)
    except ModelError as e:
        raise TrainingError(str(e)) from None
    if not any(p.requires_grad for n, p in model.params.items() if n not in frozen_names):
        raise TrainingError(f"frozen groups {sorted(frozen_groups)} leave nothing to train")
    adam = T.AdamState(learning_rate=schedule.initial_lr)
    tracker = ScheduleTracker(schedule)
    drop_rng = np.random.default_rng([seed, 0xD120])
    log_lines = []

    def emit(step, train_loss, val_ppl=None):
        line = f"step={step} lr={adam.learning_rate:.6g} train_loss={train_loss:.6f}"
        if val_ppl is not None:
            line += f" val_ppl={val_ppl:.6f}"
        log_lines.append(line)
        log.info("%s %s", recipe, line)

    best_arrays = model.clone_params()
    updates = 0
    stop = False
    diverged = False
    last_loss = float("nan")
    epoch = 0
    was = {n: model.params[n].requires_grad for n in frozen_names}
    for n in was:
        model.params[n].requires_grad = False
    try:
        while not stop and updates < schedule.max_updates:
            stream = make_batches(
                train_corpora,
                model.src_vocab,
                model.tgt_vocab,
                schedule.max_tokens,
                seed=seed,
                epoch=epoch,
                max_len=model.config.max_len,
            )
            for batch in stream.batches:
                model.set_train(True, drop_rng)
                model.zero_grad()
                try:
                    loss = model.forward_loss(batch)
                    T.backward(loss)
                except T.NonFiniteError as e:
                    log.warning("%s diverged at step %d: %s", recipe, updates, e)
                    diverged = True
                    stop = True
                    break
                T.adam_step(model.params, adam)
                last_loss = loss.item()
                updates += 1
                if updates % schedule.checkpoint_interval == 0:
                    ppl = validation_perplexity(model, val_corpus, schedule.max_tokens)
                    events = tracker.observe(ppl)
                    emit(updates, last_loss, ppl)
                    if events["improved"]:
                        best_arrays = model.clone_params()
                    if events["decayed"]:
                        adam.learning_rate = tracker.lr
                    if events["stop"]:
                        stop = True
                        break
                if updates >= schedule.max_updates:
                    break
            epoch += 1
        if not diverged and (updates % schedule.checkpoint_interval != 0 or updates == 0):
            ppl = validation_perplexity(model, val_corpus, schedule.max_tokens)
            if tracker.observe(ppl)["improved"]:
                best_arrays = model.clone_params()
            emit(updates, last_loss if updates else float("nan"), ppl)
        model.set_train(False)
        model.load_param_arrays(best_arrays)
    finally:
        for n, flag in was.items():
            model.params[n].requires_grad = flag

    if log_path is not None:
        write_atomic(log_path, "".join(line + "\n" for line in log_lines))

    provenance = {
        "recipe": recipe,
        "seed": seed,
        "frozen_groups": sorted(frozen_groups),
        "parents": parents or [],
        "updates": updates,
        "diverged": diverged,
        "adapter": None,
    }
    return checkpoint_of(model, provenance, tracker.state())


# ---------------------------------------------------------------------------
# transfer operations
# ---------------------------------------------------------------------------

DECODER_SIDE_GROUPS = ("tgt_embed", "decoder", "output_proj")


def plain_transfer_init(src_piv_ckpt: Checkpoint, piv_tgt_ckpt: Checkpoint) -> Checkpoint:
    """Assemble a source->target model from two independently pre-trained parents.

    Encoder-side groups come bitwise from the source->pivot parent,
    decoder-side groups from the pivot->target parent. A parent that holds
    an adapter is refused: surgery never copies `adapter/m`, and dropping it
    would change what the parent's encoder means.
    """
    for side, parent in (("encoder", src_piv_ckpt), ("decoder", piv_tgt_ckpt)):
        if parent.group_params("adapter"):
            raise TrainingError(f"the {side} parent holds an adapter (adapter/m): "
                                "transfer surgery copies no adapter")
    for key in ("model_dim", "layers", "ff_dim", "heads", "tied_output_embedding"):
        if src_piv_ckpt.config[key] != piv_tgt_ckpt.config[key]:
            raise TrainingError(
                f"parent configs differ on {key}: "
                f"{src_piv_ckpt.config[key]} vs {piv_tgt_ckpt.config[key]}"
            )
    params = {}
    for g in ENCODER_SIDE_GROUPS:
        part = src_piv_ckpt.group_params(g)
        params.update({n: a.copy() for n, a in part.items()})
    for g in DECODER_SIDE_GROUPS:
        part = piv_tgt_ckpt.group_params(g)
        params.update({n: a.copy() for n, a in part.items()})
    expected = set(src_piv_ckpt.params) - {
        n for g in DECODER_SIDE_GROUPS for n in src_piv_ckpt.group_params(g)
    }
    expected |= set(piv_tgt_ckpt.params) - {
        n for g in ENCODER_SIDE_GROUPS for n in piv_tgt_ckpt.group_params(g)
    }
    if set(params) != expected:
        raise TrainingError("surgery did not cover the expected parameter set")
    return Checkpoint(
        params=params,
        config=dict(piv_tgt_ckpt.config),
        src_vocab_hash=src_piv_ckpt.src_vocab_hash,
        tgt_vocab_hash=piv_tgt_ckpt.tgt_vocab_hash,
        provenance={
            "recipe": "plain_transfer_init",
            "parents": [src_piv_ckpt.provenance, piv_tgt_ckpt.provenance],
            "parent_hashes": [src_piv_ckpt.content_hash(), piv_tgt_ckpt.content_hash()],
        },
        schedule_state={},
    )


def check_vocab_coverage(corpus_side_tokens, vocab: Vocabulary, what: str):
    """Error if any token type of a corpus side is absent from the vocabulary."""
    missing = set()
    for tokens in corpus_side_tokens:
        for t in tokens:
            if vocab.encode([t])[0] == vocab.unk_id and t != "<unk>":
                missing.add(t)
    if missing:
        raise TrainingError(
            f"{what}: {len(missing)} token types absent from vocabulary "
            f"(e.g. {sorted(missing)[:5]})"
        )


def stepwise_pretrain(
    stage1_ckpt: Checkpoint,
    joint_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    piv_tgt: tuple,
    schedule: TrainSchedule,
    seed: int,
) -> Checkpoint:
    """Step-wise stage 2: pivot->target on the encoder of a trained stage 1,
    with the encoder side frozen.

    Stage 1 is a source->pivot model (or a cross-lingual encoder) whose
    encoder reads the joint source+pivot vocabulary; stage 2 keeps its
    architecture and encoder-side parameters and trains a new decoder.
    """
    if stage1_ckpt.src_vocab_hash != joint_vocab.content_hash():
        raise VocabMismatchError("stage-1 checkpoint does not use the joint vocabulary")

    train_corpus, val_corpus = piv_tgt
    check_vocab_coverage(
        (s for s, _ in train_corpus.pairs), joint_vocab, "step-wise stage 2 pivot side"
    )
    stage2_model = init_params(
        ModelConfig(**stage1_ckpt.config), joint_vocab, tgt_vocab, seed + 1
    )
    for g in ENCODER_SIDE_GROUPS:
        for n, arr in stage1_ckpt.group_params(g).items():
            stage2_model.params[n].data = arr.astype(
                stage2_model.params[n].data.dtype, copy=True
            )
    return train(
        stage2_model,
        [train_corpus],
        val_corpus,
        schedule,
        seed=seed + 1,
        frozen_groups=ENCODER_SIDE_GROUPS,
        recipe="stepwise.stage2",
        parents=[stage1_ckpt.provenance],
    )


def crosslingual_pretrain(
    config: ModelConfig,
    joint_vocab: Vocabulary,
    piv_vocab: Vocabulary,
    src_piv: tuple,
    autoenc_lines,
    noise: NoiseConfig,
    schedule: TrainSchedule,
    seed: int,
    autoenc_weight: float = 1.0,
) -> Checkpoint:
    """Train one encoder on translation plus pivot->pivot (denoising) autoencoding.

    `autoenc_lines` supplies the pivot sentences to copy: either monolingual
    text or the pivot side of the parallel data; empty lines are skipped.
    The copy corpus has weight `autoenc_weight`. Its inputs are noised with
    `noise` exactly when the joint vocabulary holds `<BLANK>`; without it
    the run is the clean copying variant.
    """
    train_corpus, val_corpus = src_piv
    piv = train_corpus.tgt_lang
    copies = [(list(l), list(l)) for l in autoenc_lines if l]
    noised = noise if joint_vocab.blank_id is not None else None
    ae = ParallelCorpus(copies, piv, piv, weight=autoenc_weight, noise=noised)
    model = init_params(config, joint_vocab, piv_vocab, seed)
    return train(
        model,
        [train_corpus, ae],
        val_corpus,
        schedule,
        seed=seed,
        recipe="crosslingual_pretrain",
    )


def tag_corpus(corpus: ParallelCorpus, vocab: Vocabulary) -> ParallelCorpus:
    """Prepend the target-language tag to every source sequence, exactly once."""
    if not vocab.has_tag(corpus.tgt_lang):
        raise TrainingError(f"vocabulary has no tag for the direction to {corpus.tgt_lang}")
    sources = vocab.tagged([s for s, _ in corpus.pairs], corpus.tgt_lang)
    return replace(corpus, pairs=[(s, list(t)) for s, (_, t) in zip(sources, corpus.pairs)])


def train_multilingual(
    config: ModelConfig,
    shared_vocab: Vocabulary,
    direction_corpora: list,
    val_corpus: ParallelCorpus,
    schedule: TrainSchedule,
    seed: int,
    kind: str = "many2many",
) -> Checkpoint:
    """One shared model over tagged direction corpora (Johnson-style)."""
    if kind not in ("many2many", "many2one"):
        raise TrainingError(f"unknown multilingual kind {kind!r}")
    model = init_params(config, shared_vocab, shared_vocab, seed)
    return train(
        model,
        [tag_corpus(c, shared_vocab) for c in direction_corpora],
        tag_corpus(val_corpus, shared_vocab),
        schedule,
        seed=seed,
        recipe=f"multilingual-{kind}",
    )


def finetune(
    ckpt: Checkpoint,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    src_tgt: tuple,
    schedule: TrainSchedule,
    seed: int,
    adapter: Checkpoint | None = None,
    allow_adapter_after_stepwise: bool = False,
) -> Checkpoint:
    """Continue training on source-target data with all groups unfrozen:
    `src_tgt` is (training corpora, validation corpus).

    The adapter (when given) is a checkpoint holding exactly `adapter/m`
    (see `adapter.fit_adapter`), fit on the source vocabulary of `ckpt`. It
    is attached to the model as the frozen `adapter/m`: it is applied to
    encoder outputs for the whole run, and the returned checkpoint holds it.
    A checkpoint that already holds an adapter keeps it and its provenance
    record. Combining an adapter with a step-wise pre-trained checkpoint is
    refused unless explicitly overridden, since the decoder is already
    trained against this encoder's output space.
    """
    train_corpora, val_corpus = src_tgt
    if not any(len(c) for c in train_corpora):
        raise TrainingError("fine-tuning needs a non-empty corpus (zero-shot is decode-only)")
    record = ckpt.provenance.get("adapter") if "adapter/m" in ckpt.params else None
    if adapter is not None:
        if set(adapter.params) != {"adapter/m"}:
            raise AdapterError(f"an adapter holds exactly adapter/m, not {sorted(adapter.params)}")
        if adapter.src_vocab_hash != ckpt.src_vocab_hash:
            raise VocabMismatchError("the adapter was fit on another source vocabulary")
        record = {"provenance": adapter.provenance["provenance"],
                  "pooling": adapter.provenance["pooling"], "position": "post_encoder_norm"}
    recipe_chain = _provenance_recipes(ckpt.provenance)
    if adapter is not None and any("stepwise" in r for r in recipe_chain):
        if not allow_adapter_after_stepwise:
            raise TrainingError(
                "adapter on a step-wise checkpoint is known-detrimental; "
                "pass the override flag to force it"
            )
        log.warning("adapter combined with step-wise checkpoint (override in effect)")
    model = model_of(ckpt, src_vocab, tgt_vocab)
    if adapter is not None:
        model.attach_adapter(adapter.params["adapter/m"])
    out = train(
        model,
        train_corpora,
        val_corpus,
        schedule,
        seed=seed,
        recipe="finetune",
        parents=[ckpt.provenance],
    )
    out.provenance["adapter"] = record
    return out


def _provenance_recipes(prov: dict) -> list:
    out = []
    stack = [prov]
    while stack:
        p = stack.pop()
        if not isinstance(p, dict):
            continue
        if "recipe" in p:
            out.append(str(p["recipe"]))
        for parent in p.get("parents", []) or []:
            stack.append(parent)
    return out
