"""The three benchmark workloads: set-up, measured phase and correctness gates.

Every workload builds its inputs from `toyworld` with the run's seed; the
program under test only ever sees the generated corpora and sentences.

- pretrain: `Workbench.ckpt_stepwise("parallel-noisy")`, i.e. the
  cross-lingual encoder (translation + noisy pivot autoencoding) and then
  step-wise stage 2 with `src_embed` and `encoder` frozen, for a fixed
  number of updates per stage; after each stage, greedy decoding of its
  held-out set with the model it trained.
- translate-batch: `decoding.translate_tokens` at beam 4 over batches of
  long sentences with one trained src->piv model.
- translate-online: one caller, one short raw sentence per request through
  `bpe.apply_bpe`, `decoding.pivot_translate` (src->piv->tgt) and
  `bpe.detokenize`.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from pivotnmt import bpe, decoding, recipes, training
from pivotnmt.bleu import bleu
from pivotnmt.model import ModelConfig
from pivotnmt.toyworld import ToyWorld, ToyWorldSpec

SHORT = (3, 12)  # words per sentence: pretrain and translate-online worlds
LONG = (3, 30)  # words per sentence: translate-batch training world
LONG_INPUTS = (15, 30)  # words per translate-batch input: 16 lengths, one per batch slot
INPUT_STREAM = 0xBE7C  # rng stream for workload inputs, apart from the corpora
# The decode workloads serve models trained on one fixed world, so that a
# run's seed varies only the requests: decode cost depends strongly on the
# model (how long its weaker beam entries survive), and one model per seed
# would spread the latencies across seeds far beyond any useful bound.
MODEL_WORLD_SEED = 0
FROZEN_GROUPS = ("src_embed", "encoder")


class GateError(Exception):
    """A correctness gate failed."""


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    model: ModelConfig
    world_pairs: int  # training pairs per language pair
    n_val: int  # validation (and unused test) pairs
    train_updates: int  # updates per trained model or stage
    checkpoint_interval: int
    max_tokens: int
    inputs: int  # distinct input sentences of the decode workloads
    batch_size: int  # sentences per translate-batch call
    min_requests: int  # translate-online serves at least this many requests
    setup_repeats: dict  # workload -> set-ups per run
    bleu_floor: float
    ppl_ceiling: float
    max_failed_frac: float  # share of operations that may fail


FULL = Scale(
    model=ModelConfig(model_dim=64, ff_dim=128, layers=2, heads=4),
    world_pairs=4000,
    n_val=200,
    train_updates=250,
    checkpoint_interval=50,
    max_tokens=512,
    inputs=256,
    batch_size=16,
    min_requests=200,
    setup_repeats={"pretrain": 7, "translate-batch": 2, "translate-online": 2},
    bleu_floor=80.0,
    ppl_ceiling=2.0,
    max_failed_frac=0.0,
)

# seconds-long configuration for the benchmark's own tests: same code paths,
# untrained-size models, so the quality gates only demand finite values
SMOKE = Scale(
    model=ModelConfig(model_dim=16, ff_dim=32, layers=1, heads=2),
    world_pairs=200,
    n_val=20,
    train_updates=6,
    checkpoint_interval=3,
    max_tokens=128,
    inputs=8,
    batch_size=4,
    min_requests=4,
    setup_repeats={"pretrain": 2, "translate-batch": 2, "translate-online": 2},
    bleu_floor=0.0,
    ppl_ceiling=math.inf,
    max_failed_frac=1.0,
)


@dataclass
class Measured:
    """What one measured phase produced."""

    attempted: int
    failed: int
    train_tok_s: float | None  # None: the workload trains in its set-up
    val_ppl: float
    translate_tok_s: float
    latencies_s: list
    bleu: float
    fingerprint: str  # equal across repeats of the same seed


@dataclass
class State:
    """What one set-up built."""

    wb: recipes.Workbench
    fingerprint: str  # equal across set-ups of the same seed
    train_tok_s: float | None = None  # set when the set-up trains models
    val_ppl: float | None = None
    models: tuple = ()
    world: ToyWorld | None = None
    inputs: list | None = None  # source sentences, as word lists


@dataclass
class Served:
    """Tallies of decoding, over one or more windows."""

    attempted: int = 0
    failed: int = 0
    tokens: int = 0  # emitted target tokens, EOS included
    latencies_s: list = field(default_factory=list)
    hyps: list = field(default_factory=list)
    refs: list = field(default_factory=list)


def settings_for(scale: Scale) -> recipes.Settings:
    schedule = training.TrainSchedule(
        initial_lr=3e-3,
        checkpoint_interval=scale.checkpoint_interval,
        max_updates=scale.train_updates,
        max_tokens=scale.max_tokens,
        stop_patience=10**9,  # the run length is fixed, never cut short
    )
    return recipes.Settings(model=scale.model, pretrain=schedule)


def world_for(scale: Scale, seed: int, lengths: tuple) -> ToyWorldSpec:
    return ToyWorldSpec(
        sentence_length_range=lengths,
        n_src_piv=scale.world_pairs,
        n_piv_tgt=scale.world_pairs,
        n_src_tgt=scale.n_val,
        n_mono_piv=scale.n_val,
        n_val=scale.n_val,
        n_test=scale.n_val,
        seed=seed,
    )


def sample_inputs(spec: ToyWorldSpec, lengths: tuple, n: int, seed: int) -> tuple:
    """(world, n source sentences of the world `spec`) drawn from `seed`.

    Lengths are stratified: every run of `hi - lo + 1` consecutive sentences
    holds each length in `lengths` once, in a seeded order. Decode time grows
    steeply with length, so the seed varies the words, not the length mix.
    """
    world = ToyWorld(spec)
    rng = np.random.default_rng([seed, INPUT_STREAM])
    lo, hi = lengths
    blocks = -(-n // (hi - lo + 1))
    profile = np.concatenate([rng.permutation(np.arange(lo, hi + 1)) for _ in range(blocks)])[:n]
    ids = (rng.integers(0, spec.base_vocab_size, size=int(k)) for k in profile)
    return world, [[world.token("src", int(i)) for i in row] for row in ids]


def train_timed(probe, build) -> tuple:
    """(checkpoint, non-pad target tokens per wall second) of one training call."""
    tokens = probe.update_tokens
    t0 = time.perf_counter()
    ckpt = build()
    return ckpt, (probe.update_tokens - tokens) / (time.perf_counter() - t0)


def _report_failure(what: str):
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    """One workload at one scale and seed; `probe` is the installed tracer.Probe."""

    name = ""

    def __init__(self, scale: Scale, seed: int, probe):
        self.scale, self.seed, self.probe = scale, seed, probe


class Pretrain(Workload):
    name = "pretrain"

    def setup(self):
        """World, subword models and vocabularies; no training."""
        wb = recipes.Workbench(world_for(self.scale, self.seed, SHORT), settings_for(self.scale), self.seed)
        wb.bpe_joint()
        wb.bpe_sep("tgt")
        vocabs = (wb.vocab_joint(with_blank=True), wb.vocab_piv_jointseg(), wb.vocab_sep("tgt"))
        return State(wb, fingerprint="".join(v.content_hash() for v in vocabs))

    def measure(self, st: State, seconds: float, between=lambda: None) -> Measured:
        """Both training stages, each followed by half of `seconds` of
        greedy decoding of its held-out set with the model it trained, and
        then by `between()`.

        A fixed update count keeps quality comparable across commits, so
        `seconds` times only the decodes. Alternating the two lets training
        and decoding each sample the whole run; machine speed on a shared
        host shifts between regimes that last tens of seconds.
        """
        wb, probe = st.wb, self.probe
        src_vocab = wb.vocab_joint(with_blank=True)
        stages = (
            (lambda: wb.ckpt_xenc("parallel", noisy=True), wb.vocab_piv_jointseg(), "src-piv.val"),
            (lambda: wb.ckpt_stepwise("parallel-noisy"), wb.vocab_sep("tgt"), "piv-tgt.val"),
        )
        ckpts, scores, intervals, n_updates, held_out = [], [], [], 0, Served()
        tokens, train_s = probe.update_tokens, 0.0
        for build, tgt_vocab, corpus in stages:
            starts = len(probe.update_starts)
            t0 = time.perf_counter()
            ckpts.append(build())
            train_s += time.perf_counter() - t0
            updates = probe.update_starts[starts:]
            n_updates += len(updates)
            intervals += [b - a for a, b in zip(updates, updates[1:])]
            model = training.model_of(ckpts[-1], src_vocab, tgt_vocab)
            pairs = wb.corpora[corpus].pairs
            scores.append(decode_held_out(model, wb.bpe_joint(), pairs, seconds / len(stages), held_out))
            between()
        stage1, stage2 = ckpts

        for g in FROZEN_GROUPS:
            if stage1.group_hash(g) != stage2.group_hash(g):
                raise GateError(f"frozen group {g} changed during step-wise stage 2")
        val_ppl = stage2.schedule_state["best_ppl"]
        if val_ppl is None or not math.isfinite(val_ppl) or val_ppl > self.scale.ppl_ceiling:
            raise GateError(f"stage-2 validation perplexity {val_ppl} above {self.scale.ppl_ceiling}")
        # `bleu` reports the stage-2 checkpoint, the chain's product
        if not scores[0] >= self.scale.bleu_floor:
            raise GateError(f"stage-1 held-out bleu {scores[0]:.2f} below the floor {self.scale.bleu_floor}")
        # the operations are updates; a held-out sentence decoded wrongly (or
        # cut at the length cap) is a quality matter, scored by `bleu`
        diverged = sum(bool(c.provenance["diverged"]) for c in ckpts)
        return Measured(
            attempted=n_updates,
            failed=diverged,
            train_tok_s=(probe.update_tokens - tokens) / train_s,
            val_ppl=val_ppl,
            translate_tok_s=held_out.tokens / sum(held_out.latencies_s),
            latencies_s=intervals,
            bleu=scores[1],
            fingerprint=stage2.content_hash(),
        )


def decode_held_out(model, joint_bpe, pairs: list, seconds: float, served: Served) -> float:
    """Greedy decoding of the held-out `pairs`, one sentence at a time, in
    passes for `seconds`; returns the BLEU of the first pass.

    Greedy, unbatched decoding keeps the cost from depending on how many
    sentences the per-seed model fails to end (a batch runs until its last
    row ends).
    """
    seg = [bpe.apply_bpe(joint_bpe, " ".join(p)) for p, _ in pairs]
    greedy = decoding.BeamConfig(beam_size=1)
    t0 = time.perf_counter()
    out = decoding.translate_tokens(model, seg, greedy, batch_size=1)
    served.tokens += sum(len(o) + 1 for o in out)
    while time.perf_counter() - t0 < seconds:
        more = decoding.translate_tokens(model, seg, greedy, batch_size=1)
        served.tokens += sum(len(o) + 1 for o in more)
    served.latencies_s.append(time.perf_counter() - t0)
    return bleu([bpe.detokenize(o).split() for o in out], [t for _, t in pairs]).score


class Decode(Workload):
    """A workload that serves trained models in its measured phase, one
    closed-loop operation after another."""

    min_ops = 1  # operations a measured phase holds at least

    def serve(self, st: State, seconds: float, served: Served):
        """Run operations for `seconds`, and until `served` holds `min_ops`."""
        t_start = time.perf_counter()
        while served.attempted < self.min_ops or time.perf_counter() - t_start < seconds:
            self.operate(st, served)

    def result(self, st: State, served: Served) -> Measured:
        lat = served.latencies_s
        return Measured(
            attempted=served.attempted,
            failed=served.failed,
            train_tok_s=None,
            val_ppl=st.val_ppl,
            translate_tok_s=served.tokens / sum(lat) if lat else math.nan,
            latencies_s=lat,
            bleu=bleu(served.hyps, served.refs).score if served.hyps else 0.0,
            fingerprint=st.fingerprint,
        )

    def measure(self, st: State, seconds: float) -> Measured:
        served = Served()
        self.serve(st, seconds, served)
        return self.result(st, served)


class TranslateBatch(Decode):
    name = "translate-batch"

    def setup(self):
        """World, subword models, one trained src->piv model, the inputs."""
        wb = recipes.Workbench(
            world_for(self.scale, MODEL_WORLD_SEED, LONG), settings_for(self.scale), MODEL_WORLD_SEED
        )
        src_vocab, piv_vocab = wb.vocab_sep("src"), wb.vocab_sep("piv")
        ckpt, tok_s = train_timed(self.probe, lambda: wb.ckpt_sep("src-piv"))
        world, inputs = sample_inputs(wb.world, LONG_INPUTS, self.scale.inputs, self.seed)
        return State(
            wb,
            fingerprint=ckpt.content_hash(),
            train_tok_s=tok_s,
            val_ppl=ckpt.schedule_state["best_ppl"],
            models=(training.model_of(ckpt, src_vocab, piv_vocab),),
            world=world,
            inputs=inputs,
        )

    def operate(self, st: State, served: Served):
        """One translate_tokens call on the next `batch_size` inputs."""
        size, src_bpe, beam = self.scale.batch_size, st.wb.bpe_sep("src"), st.wb.settings.beam
        (model,) = st.models
        lo = served.attempted % len(st.inputs)
        batch = st.inputs[lo : lo + size]
        self.probe.request = served.attempted
        served.attempted += len(batch)
        incomplete = self.probe.incomplete
        t0 = time.perf_counter()
        try:
            seg = [bpe.apply_bpe(src_bpe, " ".join(s)) for s in batch]
            out = decoding.translate_tokens(model, seg, beam, batch_size=size)
            words = [bpe.detokenize(o).split() for o in out]
        except Exception:
            _report_failure("translate-batch call")
            served.failed += len(batch)
            return
        served.latencies_s.append(time.perf_counter() - t0)
        served.failed += self.probe.incomplete - incomplete
        served.tokens += sum(len(o) + 1 for o in out)
        served.hyps.extend(words)
        served.refs.extend(st.world.translate(s, "src", "piv") for s in batch)


class TranslateOnline(Decode):
    name = "translate-online"

    def __init__(self, scale: Scale, seed: int, probe):
        super().__init__(scale, seed, probe)
        self.min_ops = scale.min_requests

    def setup(self):
        """World, subword models, trained src->piv and piv->tgt models, the inputs."""
        wb = recipes.Workbench(
            world_for(self.scale, MODEL_WORLD_SEED, SHORT), settings_for(self.scale), MODEL_WORLD_SEED
        )
        vocabs = {lang: wb.vocab_sep(lang) for lang in ("src", "piv", "tgt")}
        first, rate1 = train_timed(self.probe, lambda: wb.ckpt_sep("src-piv"))
        second, rate2 = train_timed(self.probe, lambda: wb.ckpt_sep("piv-tgt"))
        world, inputs = sample_inputs(wb.world, SHORT, self.scale.inputs, self.seed)
        return State(
            wb,
            fingerprint=first.content_hash() + second.content_hash(),
            train_tok_s=statistics.mean((rate1, rate2)),
            val_ppl=statistics.mean(c.schedule_state["best_ppl"] for c in (first, second)),
            models=(
                training.model_of(first, vocabs["src"], vocabs["piv"]),
                training.model_of(second, vocabs["piv"], vocabs["tgt"]),
            ),
            world=world,
            inputs=inputs,
        )

    def operate(self, st: State, served: Served):
        """One request: the next input sentence, raw text in and out."""
        src_bpe, beam = st.wb.bpe_sep("src"), st.wb.settings.beam
        first, second = st.models
        sentence = st.inputs[served.attempted % len(st.inputs)]
        self.probe.request = served.attempted
        served.attempted += 1
        incomplete = self.probe.incomplete
        t0 = time.perf_counter()
        try:
            seg = bpe.apply_bpe(src_bpe, " ".join(sentence))
            out = decoding.pivot_translate(first, second, [seg], beam)[0]
            reply = bpe.detokenize(out)
        except Exception:
            _report_failure("translate-online request")
            served.failed += 1
            return
        served.latencies_s.append(time.perf_counter() - t0)
        served.failed += int(self.probe.incomplete > incomplete)
        served.tokens += len(out) + 1
        served.hyps.append(reply.split())
        served.refs.append(st.world.translate(sentence, "src", "tgt"))


def run(workload, repeats: int, seconds: float) -> tuple:
    """(median set-up seconds, measured state, train tok/s of each set-up,
    measured phase) of `repeats` set-ups and `seconds` of measurement.

    Set-ups and measurement alternate, so that both sample the whole run:
    machine speed on a shared host shifts between regimes that last tens of
    seconds, and one window samples only one of them. A decode workload
    serves for an equal share of `seconds` after every set-up; the set-ups
    build bitwise-identical models, so the shares measure the same program.
    `pretrain` trains in its measured phase and its set-ups are cheap, so
    `repeats // 3` of them run after each of its stages and the rest before.
    """
    durations, rates, fingerprints = [], [], set()

    def set_up():
        workload.probe.request = -1
        t0 = time.perf_counter()
        state = workload.setup()
        durations.append(time.perf_counter() - t0)
        rates.append(state.train_tok_s)
        fingerprints.add(state.fingerprint)
        return state

    if isinstance(workload, Decode):
        served = Served()
        for _ in range(repeats):
            state = set_up()
            workload.serve(state, seconds / repeats, served)
        measured = workload.result(state, served)
    else:
        for _ in range(repeats - 2 * (repeats // 3)):
            state = set_up()
        measured = workload.measure(state, seconds, between=lambda: [set_up() for _ in range(repeats // 3)])
    if len(fingerprints) != 1:
        raise GateError("repeated set-ups of one seed built different models or vocabularies")
    return statistics.median(durations), state, rates, measured


WORKLOADS = {w.name: w for w in (Pretrain, TranslateBatch, TranslateOnline)}
