"""Named end-to-end experiment recipes over the synthetic language triple.

A Workbench owns one (world, settings, seed) tuple and lazily builds shared
stages: subword models for the separate/joint/multilingual regimes, the
pre-trained parents, adapters, and synthetic corpora. Stages are cached in
memory and, when a cache directory is given, checkpoints also on disk keyed
by a digest of the full configuration, so grid runs share parents across
recipes and reruns are no-ops.

`RECIPES` maps each recipe name to a builder that composes those stages into
a decodable source->target `System`; `run_recipe` scores every system the
same way on the held-out test and validation sets. `GRIDS` groups the recipe
names by the paper table they reproduce.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, fields, asdict, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from . import BLAS_PINNED, bpe
from .adapter import AdapterMatrix, collect_pairs, fit_adapter
from .bleu import BleuReport, bleu
from .checkpoint import Checkpoint, CheckpointError
from .data import NoiseConfig, ParallelCorpus
from .decoding import BeamConfig, pivot_translate, translate_side, translate_tokens
from .model import ModelConfig, init_params
from .toyworld import ToyWorldSpec, generate_toy_corpora
from .training import (
    TrainSchedule,
    crosslingual_pretrain,
    finetune,
    model_of,
    plain_transfer_init,
    stepwise_pretrain,
    train,
    train_multilingual,
)

log = logging.getLogger(__name__)


LANGS = ("src", "piv", "tgt")
JOINT = ("src", "piv")  # the languages of the joint subwords


class RecipeError(Exception):
    pass


@dataclass
class Settings:
    """Everything a grid run needs besides the world spec and the seed."""

    model: ModelConfig = field(default_factory=lambda: ModelConfig(model_dim=64, ff_dim=128))
    pretrain: TrainSchedule = field(
        default_factory=lambda: TrainSchedule(
            initial_lr=1e-3, checkpoint_interval=200, max_updates=600, max_tokens=1024
        )
    )
    finetune: TrainSchedule = field(
        default_factory=lambda: TrainSchedule(
            initial_lr=1e-3, checkpoint_interval=100, max_updates=300, max_tokens=1024
        )
    )
    merge_count: int = 300
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    ae_weight: float = 1.0
    adapter_pairs: int = 2000
    adapter_pooling: str = "average"
    beam: BeamConfig = field(default_factory=BeamConfig)
    distill_pairs: int = 4000
    backtranslate_pairs: int = 4000
    synthetic_per_real: int = 2

    def __post_init__(self):
        for key in ("synthetic_per_real", "adapter_pairs", "distill_pairs", "backtranslate_pairs",
                    "ae_weight"):
            if getattr(self, key) < 1:
                raise RecipeError(f"{key} must be at least 1, got {getattr(self, key)}")

    def to_dict(self) -> dict:
        return asdict(self)


def typed_like(default, value) -> bool:
    """Whether a config value may replace `default`: the same type, an int
    for a float, or a list for a tuple (JSON has no tuples)."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (tuple, list))
    return isinstance(value, type(default))


def overridden(name: str, base, raw):
    """The dataclass `base` with the keys of the object `raw` replaced: a
    nested dataclass given in part keeps its other values, and any other
    value must be `typed_like` the one it replaces."""
    if not isinstance(raw, dict):
        raise RecipeError(f"{name} must be an object, got {raw!r}")
    known = {f.name for f in fields(base)}
    values = {}
    for key, value in raw.items():
        if key not in known:
            raise RecipeError(f"unknown key {name}.{key}")
        default = getattr(base, key)
        if is_dataclass(default):
            value = overridden(f"{name}.{key}", default, value)
        elif not typed_like(default, value):
            raise RecipeError(f"{name}.{key} must be a {type(default).__name__}, got {value!r}")
        values[key] = value
    return replace(base, **values)


@dataclass
class RecipeResult:
    recipe: str
    seed: int
    test_bleu: float
    val_bleu: float
    checkpoint_hash: str
    runtime_s: float
    report: dict


def _words(lines) -> list:
    return [" ".join(s) for s in lines]


class Workbench:
    """Lazily built shared stages for one (world, settings, seed)."""

    def __init__(self, world: ToyWorldSpec, settings: Settings, seed: int, cache_dir=None):
        self.world = world
        self.settings = settings
        self.seed = seed
        self.corpora = generate_toy_corpora(world)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._mem: dict = {}
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- configuration digest for disk caching ------------------------------

    def config_digest(self) -> str:
        blob = json.dumps(
            {
                "world": asdict(self.world),
                "settings": self.settings.to_dict(),
                "seed": self.seed,
                # an unpinned process's stages may differ in their last bits
                "blas_pinned": BLAS_PINNED,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _cached(self, key: str, build):
        """Build a stage once; checkpoints also persist in the cache directory.

        An unreadable cache entry counts as a miss: the stage is rebuilt and
        the entry overwritten.
        """
        if key in self._mem:
            return self._mem[key]
        path = self.cache_dir / f"{self.config_digest()}--{key}.ckpt" if self.cache_dir else None
        value = None
        if path is not None and path.exists():
            try:
                value = Checkpoint.load(path)
            except CheckpointError as e:
                log.warning("rebuilding stage %s: %s", key, e)
        if value is None:
            value = build()
            if path is not None and isinstance(value, Checkpoint):
                value.save(path)
        self._mem[key] = value
        return value

    # -- text resources ------------------------------------------------------

    def lang_lines(self, lang: str) -> list:
        """The training text of `lang`: its side of each parallel training
        corpus, then its monolingual text, in the order of `corpora`."""
        lines = []
        for name, corpus in self.corpora.items():
            if "." in name:  # a validation or test split
                continue
            if name == f"mono-{lang}":
                lines += corpus
            elif isinstance(corpus, ParallelCorpus):
                for side, side_lang in enumerate((corpus.src_lang, corpus.tgt_lang)):
                    if side_lang == lang:
                        lines += [pair[side] for pair in corpus.pairs]
        if not lines:
            raise RecipeError(f"unknown language {lang}")
        return _words(lines)

    def directed(self, src: str, tgt: str, split: str = "") -> ParallelCorpus:
        """The src->tgt pairs of a split ("" for training, ".val"), flipped
        from the stored tgt->src corpus when only that direction is stored."""
        name = f"{src}-{tgt}{split}"
        if name in self.corpora:
            return self.corpora[name]
        return self.corpora[f"{tgt}-{src}{split}"].flipped()

    def bpe_of(self, langs: tuple) -> bpe.BpeModel:
        """Subword model learned on the training text of `langs`."""
        return self._cached(
            f"bpe-{'+'.join(langs)}",
            lambda: bpe.learn_bpe(
                [line for lang in langs for line in self.lang_lines(lang)],
                self.settings.merge_count,
            ),
        )

    def bpe_sep(self, lang: str) -> bpe.BpeModel:
        return self.bpe_of((lang,))

    def bpe_joint(self) -> bpe.BpeModel:
        return self.bpe_of(JOINT)

    def seg_lines(self, model: bpe.BpeModel, lines) -> list:
        return [bpe.apply_bpe(model, l) for l in lines]

    def seg_corpus(self, corpus: ParallelCorpus, src_bpe, tgt_bpe) -> ParallelCorpus:
        pairs = [
            (bpe.apply_bpe(src_bpe, " ".join(s)), bpe.apply_bpe(tgt_bpe, " ".join(t)))
            for s, t in corpus.pairs
        ]
        return replace(corpus, pairs=pairs)

    def segmented(self, direction: str, src_bpe, tgt_bpe, splits=("", ".val")) -> tuple:
        """The "a-b" `direction`'s corpus of each of `splits` (see `directed`),
        segmented by `src_bpe` and `tgt_bpe`."""
        a, b = direction.split("-")
        return tuple(self.seg_corpus(self.directed(a, b, s), src_bpe, tgt_bpe) for s in splits)

    def vocab_of(self, seg_langs: tuple, counted: tuple = (), blank: bool = False,
                 tags: tuple = ()) -> bpe.Vocabulary:
        """Vocabulary of the training text of `counted` (by default
        `seg_langs`) segmented by `bpe_of(seg_langs)`, with `<BLANK>` when
        `blank` and the language tags `tags`."""
        counted = counted or seg_langs

        def build():
            lines = [line for lang in counted for line in self.lang_lines(lang)]
            seg = self.seg_lines(self.bpe_of(seg_langs), lines)
            return bpe.build_vocab([seg], include_blank=blank, language_tags=tags)

        return self._cached(f"vocab-{seg_langs}-{counted}-{blank}-{tags}", build)

    def vocab_sep(self, lang: str) -> bpe.Vocabulary:
        return self.vocab_of((lang,))

    def vocab_joint(self, with_blank: bool) -> bpe.Vocabulary:
        return self.vocab_of(JOINT, blank=with_blank)

    def vocab_piv_jointseg(self) -> bpe.Vocabulary:
        """Pivot output vocabulary over joint-BPE segmentations."""
        return self.vocab_of(JOINT, ("piv",))

    def stage1_vocab(self, stage1: str) -> bpe.Vocabulary:
        """Joint source vocabulary of a step-wise stage 1 (see `ckpt_stepwise`):
        it has <BLANK> exactly when the stage-1 input was noised."""
        return self.vocab_joint(with_blank=stage1.endswith("-noisy"))

    # -- pre-trained parents --------------------------------------------------

    def ckpt_sep(self, direction: str) -> Checkpoint:
        """Separate-BPE parent for src-piv, piv-tgt, or piv-src."""

        def build():
            a, b = direction.split("-")
            model = init_params(
                self.settings.model, self.vocab_sep(a), self.vocab_sep(b), self.seed
            )
            corpus, val = self.segmented(direction, self.bpe_sep(a), self.bpe_sep(b))
            return train(
                model,
                [corpus],
                val,
                self.settings.pretrain,
                seed=self.seed,
                recipe=f"pretrain-{direction}-sep",
            )

        return self._cached(f"sep-{direction}", build)

    def ckpt_joint_src_piv(self) -> Checkpoint:
        """Step-wise stage 1: src->piv with the joint encoder vocabulary."""

        def build():
            joint = self.bpe_joint()
            model = init_params(
                self.settings.model,
                self.vocab_joint(with_blank=False),
                self.vocab_piv_jointseg(),
                self.seed,
            )
            corpus, val = self.segmented("src-piv", joint, joint)
            return train(
                model,
                [corpus],
                val,
                self.settings.pretrain,
                seed=self.seed,
                recipe="pretrain-src-piv-joint",
            )

        return self._cached("joint-src-piv", build)

    def ckpt_xenc(self, ae_source: str = "parallel", noisy: bool = True) -> Checkpoint:
        """Cross-lingual encoder: translation + pivot autoencoding mixture."""

        def build():
            joint = self.bpe_joint()
            src_piv = self.segmented("src-piv", joint, joint)
            if ae_source == "mono":
                lines = self.seg_lines(joint, _words(self.corpora["mono-piv"]))
            elif ae_source == "parallel":
                lines = [t for _, t in src_piv[0].pairs]
            else:
                raise RecipeError(f"unknown autoencoding source {ae_source}")
            return crosslingual_pretrain(
                self.settings.model,
                self.vocab_joint(with_blank=noisy),
                self.vocab_piv_jointseg(),
                src_piv,
                lines,
                self.settings.noise if noisy else None,
                self.settings.pretrain,
                seed=self.seed,
                autoenc_weight=self.settings.ae_weight,
            )

        return self._cached(f"xenc-{ae_source}-{'noisy' if noisy else 'clean'}", build)

    def ckpt_stepwise(self, stage1: str = "joint") -> Checkpoint:
        """Stage 2 (piv->tgt, encoder frozen) on top of a stage-1 encoder:
        "joint" (plain src->piv) or "<ae_source>-<clean|noisy>" (`ckpt_xenc`)."""

        def build():
            if stage1 == "joint":
                first = self.ckpt_joint_src_piv()
            else:
                ae_source, kind = stage1.split("-")
                first = self.ckpt_xenc(ae_source, noisy=kind == "noisy")
            return stepwise_pretrain(
                first,
                self.stage1_vocab(stage1),
                self.vocab_sep("tgt"),
                self.segmented("piv-tgt", self.bpe_joint(), self.bpe_sep("tgt")),
                self.settings.pretrain,
                seed=self.seed,
            )

        return self._cached(f"stepwise-{stage1}", build)

    def ckpt_multilingual(self, kind: str, zeroshot: bool = False) -> Checkpoint:
        def build():
            multi = self.bpe_of(LANGS)
            if kind == "many2one":
                directions = ["src-tgt", "piv-tgt"]
            else:
                directions = ["src-piv", "piv-src", "piv-tgt", "tgt-piv"]
                if not zeroshot:
                    directions += ["src-tgt", "tgt-src"]
            (val,) = self.segmented("piv-tgt" if zeroshot else "src-tgt", multi, multi, (".val",))
            # more directions per epoch: scale the budget alongside the data
            pretrain = self.settings.pretrain
            schedule = replace(pretrain, max_updates=int(pretrain.max_updates * 1.5))
            return train_multilingual(
                self.settings.model,
                self.vocab_of(LANGS, tags=LANGS),
                [self.segmented(d, multi, multi, ("",))[0] for d in directions],
                val,
                schedule,
                seed=self.seed,
                kind=kind,
            )

        key = f"multi-{kind}{'-zeroshot' if zeroshot else ''}"
        return self._cached(key, build)

    # -- adapters --------------------------------------------------------------

    def adapter(self, flavor: str) -> AdapterMatrix:
        """Procrustes adapter: 'plain' uses the two separate parents, 'xenc'
        pools both sides through the shared cross-lingual encoder."""

        def build():
            if flavor == "plain":
                enc_src = model_of(
                    self.ckpt_sep("src-piv"), self.vocab_sep("src"), self.vocab_sep("piv")
                )
                enc_piv = model_of(
                    self.ckpt_sep("piv-tgt"), self.vocab_sep("piv"), self.vocab_sep("tgt")
                )
                src_bpe, piv_bpe = self.bpe_sep("src"), self.bpe_sep("piv")
            elif flavor == "xenc":
                shared = model_of(
                    self.ckpt_xenc(), self.vocab_joint(True), self.vocab_piv_jointseg()
                )
                enc_src = enc_piv = shared
                src_bpe = piv_bpe = self.bpe_joint()
            else:
                raise RecipeError(f"unknown adapter flavor {flavor}")
            (seg,) = self.segmented("src-piv", src_bpe, piv_bpe, ("",))
            pooled = collect_pairs(
                seg,
                enc_src,
                enc_piv,
                mode=self.settings.adapter_pooling,
                max_pairs=self.settings.adapter_pairs,
                seed=self.seed,
            )
            return fit_adapter(pooled)

        return self._cached(f"adapter-{flavor}", build)

    # -- synthetic corpora -------------------------------------------------------

    def distilled_corpus(self) -> ParallelCorpus:
        """Teacher-student synthetic src-tgt data (word-level): the piv->tgt
        parent translates the pivot side of src-piv pairs."""
        return self._cached(
            "distilled",
            lambda: self._translate_pivot("src-piv", self.settings.distill_pairs, "tgt"),
        )

    def backtranslated_corpus(self) -> ParallelCorpus:
        """Synthetic src-tgt data: the piv->src parent back-translates the
        pivot side of piv-tgt pairs."""
        return self._cached(
            "backtranslated",
            lambda: self._translate_pivot("piv-tgt", self.settings.backtranslate_pairs, "src"),
        )

    def _translate_pivot(self, name: str, n: int, to_lang: str) -> ParallelCorpus:
        model = model_of(
            self.ckpt_sep(f"piv-{to_lang}"), self.vocab_sep("piv"), self.vocab_sep(to_lang)
        )
        subset = self.corpora[name].subset(n, self.seed)
        synth, dropped = translate_side(
            subset, model, self.settings.beam, "piv", to_lang, self.bpe_sep("piv")
        )
        log.info("%s: %d synthetic pairs (%d dropped)", name, len(synth), dropped)
        return synth

    def real_plus_synthetic(self, synth: ParallelCorpus, src_bpe) -> list:
        """Segmented real src-tgt and `synth` corpora, the real pairs
        oversampled against the synthetic ones at the configured ratio."""
        real = self.corpora["src-tgt"]
        per_real = self.settings.synthetic_per_real
        weighted = replace(real, weight=max(1.0, round(len(synth) / (per_real * len(real)))))
        tgt_bpe = self.bpe_sep("tgt")
        return [self.seg_corpus(c, src_bpe, tgt_bpe) for c in (weighted, synth)]


# ---------------------------------------------------------------------------
# recipes: each builder composes Workbench stages into a System
# ---------------------------------------------------------------------------

@dataclass
class System:
    """A decodable src->tgt system and the hash of the checkpoint(s) behind it."""

    src_bpe: bpe.BpeModel
    decode: Callable  # segmented source sentences -> target subword lists
    checkpoint_hash: str
    details: dict = field(default_factory=dict)  # extra report entries

    def score(self, corpus: ParallelCorpus) -> BleuReport:
        seg = [bpe.apply_bpe(self.src_bpe, " ".join(s)) for s, _ in corpus.pairs]
        hyps = [bpe.detokenize(h).split() for h in self.decode(seg)]
        return bleu(hyps, [t for _, t in corpus.pairs])


def _system(wb, ck, src_bpe, src_vocab, adapter=None, **details) -> System:
    """Decode with checkpoint `ck` into the separate-BPE target vocabulary."""
    model = model_of(ck, src_vocab, wb.vocab_sep("tgt"))
    decode = partial(translate_tokens, model, cfg=wb.settings.beam, adapter=adapter)
    return System(src_bpe, decode, ck.content_hash(), details)


def _to_tgt(wb, corpus, src_bpe) -> ParallelCorpus:
    return wb.seg_corpus(corpus, src_bpe, wb.bpe_sep("tgt"))


def _fit(wb, src_bpe, src_vocab, train_corpora, schedule, parent=None, recipe="train",
         adapter=None, **details) -> System:
    """Train on segmented src->tgt corpora, validating on src-tgt.val: a fresh
    model named `recipe` when there is no parent, else fine-tune `parent`."""
    tgt_vocab = wb.vocab_sep("tgt")
    val = _to_tgt(wb, wb.corpora["src-tgt.val"], src_bpe)
    if parent is None:
        model = init_params(wb.settings.model, src_vocab, tgt_vocab, wb.seed)
        ck = train(model, train_corpora, val, schedule, seed=wb.seed, recipe=recipe)
    else:
        ck = finetune(
            parent, src_vocab, tgt_vocab, (train_corpora, val), schedule, seed=wb.seed,
            adapter=adapter,
        )
    return _system(wb, ck, src_bpe, src_vocab, adapter, **details)


def _plain_child(wb) -> Checkpoint:
    """Encoder of the src->piv parent under the decoder of the piv->tgt parent."""
    return plain_transfer_init(wb.ckpt_sep("src-piv"), wb.ckpt_sep("piv-tgt"))


def _direct(wb) -> System:
    src_bpe = wb.bpe_sep("src")
    train_corpus = _to_tgt(wb, wb.corpora["src-tgt"], src_bpe)
    return _fit(wb, src_bpe, wb.vocab_sep("src"), [train_corpus], wb.settings.finetune,
                recipe="direct")


def _multilingual(wb, kind, zeroshot=False) -> System:
    ck = wb.ckpt_multilingual(kind, zeroshot=zeroshot)
    vocab = wb.vocab_of(LANGS, tags=LANGS)
    model = model_of(ck, vocab, vocab)

    def decode(sentences):
        return translate_tokens(model, vocab.tagged(sentences, "tgt"), wb.settings.beam)

    return System(wb.bpe_of(LANGS), decode, ck.content_hash())


def _transfer(wb, xenc, with_adapter) -> System:
    """Fine-tune the src->piv encoder (the cross-lingual one when `xenc`)
    under the piv->tgt decoder, optionally through the adapter."""
    if xenc:
        encoder, src_bpe, src_vocab = wb.ckpt_xenc(), wb.bpe_joint(), wb.vocab_joint(True)
    else:
        encoder, src_bpe, src_vocab = wb.ckpt_sep("src-piv"), wb.bpe_sep("src"), wb.vocab_sep("src")
    child = plain_transfer_init(encoder, wb.ckpt_sep("piv-tgt"))
    adapter = wb.adapter("xenc" if xenc else "plain") if with_adapter else None
    train_corpus = _to_tgt(wb, wb.corpora["src-tgt"], src_bpe)
    return _fit(wb, src_bpe, src_vocab, [train_corpus], wb.settings.finetune, parent=child,
                adapter=adapter)


def _stepwise(wb, stage1, distilled=False) -> System:
    """Fine-tune the step-wise model on real (or distilled) src->tgt data."""
    src_bpe = wb.bpe_joint()
    words = wb.distilled_corpus() if distilled else wb.corpora["src-tgt"]
    return _fit(wb, src_bpe, wb.stage1_vocab(stage1), [_to_tgt(wb, words, src_bpe)],
                wb.settings.finetune, parent=wb.ckpt_stepwise(stage1))


def _zeroshot_stepwise(wb, stage1) -> System:
    return _system(wb, wb.ckpt_stepwise(stage1), wb.bpe_joint(), wb.stage1_vocab(stage1))


def _zeroshot_plain(wb) -> System:
    return _system(wb, _plain_child(wb), wb.bpe_sep("src"), wb.vocab_sep("src"))


def _zeroshot_pivot(wb) -> System:
    """Two-step decoding through the pivot with the two separate parents."""
    first, second = wb.ckpt_sep("src-piv"), wb.ckpt_sep("piv-tgt")
    m1 = model_of(first, wb.vocab_sep("src"), wb.vocab_sep("piv"))
    m2 = model_of(second, wb.vocab_sep("piv"), wb.vocab_sep("tgt"))
    ckpt_hash = hashlib.sha256((first.content_hash() + second.content_hash()).encode()).hexdigest()
    return System(wb.bpe_sep("src"), partial(pivot_translate, m1, m2, cfg=wb.settings.beam),
                  ckpt_hash)


def _teacher_student(wb) -> System:
    src_bpe = wb.bpe_sep("src")
    train_corpus = _to_tgt(wb, wb.distilled_corpus(), src_bpe)
    return _fit(wb, src_bpe, wb.vocab_sep("src"), [train_corpus], wb.settings.pretrain,
                recipe="teacher-student")


def _backtranslate(wb, plain) -> System:
    """Train on real plus back-translated src->tgt data: from scratch, or
    from the plain transfer child."""
    synth = wb.backtranslated_corpus()
    src_bpe = wb.bpe_sep("src")
    return _fit(wb, src_bpe, wb.vocab_sep("src"), wb.real_plus_synthetic(synth, src_bpe),
                wb.settings.pretrain, parent=_plain_child(wb) if plain else None,
                recipe="direct+synthetic", synthetic_pairs=len(synth))


RECIPES = {
    "direct": _direct,
    "multilingual-m2m": partial(_multilingual, kind="many2many"),
    "multilingual-m2o": partial(_multilingual, kind="many2one"),
    "plain": partial(_transfer, xenc=False, with_adapter=False),
    "plain+adapter": partial(_transfer, xenc=False, with_adapter=True),
    "xenc": partial(_transfer, xenc=True, with_adapter=False),
    "xenc+adapter": partial(_transfer, xenc=True, with_adapter=True),
    "stepwise": partial(_stepwise, stage1="joint"),
    "stepwise+xenc": partial(_stepwise, stage1="parallel-noisy"),
    # step-wise stage 2 on each autoencoding flavor, scored zero-shot
    "xenc-mono-clean": partial(_zeroshot_stepwise, stage1="mono-clean"),
    "xenc-mono-noisy": partial(_zeroshot_stepwise, stage1="mono-noisy"),
    "xenc-parallel-clean": partial(_zeroshot_stepwise, stage1="parallel-clean"),
    "xenc-parallel-noisy": partial(_zeroshot_stepwise, stage1="parallel-noisy"),
    "zeroshot-m2m": partial(_multilingual, kind="many2many", zeroshot=True),
    "zeroshot-pivot": _zeroshot_pivot,
    "teacher-student": _teacher_student,
    "zeroshot-plain": _zeroshot_plain,
    "zeroshot-stepwise": partial(_zeroshot_stepwise, stage1="joint"),
    "zeroshot-stepwise+xenc": partial(_zeroshot_stepwise, stage1="parallel-noisy"),
    "distill-stepwise+xenc": partial(_stepwise, stage1="parallel-noisy", distilled=True),
    "backtranslate-direct": partial(_backtranslate, plain=False),
    "backtranslate-plain": partial(_backtranslate, plain=True),
}

GRIDS = {
    "table2": (
        "direct",
        "multilingual-m2m",
        "multilingual-m2o",
        "plain",
        "plain+adapter",
        "xenc",
        "xenc+adapter",
        "stepwise",
        "stepwise+xenc",
    ),
    "table4": (
        "xenc-mono-clean",
        "xenc-mono-noisy",
        "xenc-parallel-clean",
        "xenc-parallel-noisy",
    ),
    "table5": (
        "zeroshot-m2m",
        "zeroshot-pivot",
        "teacher-student",
        "zeroshot-plain",
        "zeroshot-stepwise",
        "zeroshot-stepwise+xenc",
        "distill-stepwise+xenc",
    ),
    "table6": ("direct", "backtranslate-direct", "backtranslate-plain"),
}


def run_recipe(wb: Workbench, name: str) -> RecipeResult:
    """Build one named recipe's system and score it on the toy test and
    validation sets."""
    if name not in RECIPES:
        raise RecipeError(f"unknown recipe {name!r}")
    t0 = time.perf_counter()
    system = RECIPES[name](wb)
    test = system.score(wb.corpora["src-tgt.test"])
    val = system.score(wb.corpora["src-tgt.val"])
    return RecipeResult(
        recipe=name,
        seed=wb.seed,
        test_bleu=test.score,
        val_bleu=val.score,
        checkpoint_hash=system.checkpoint_hash,
        runtime_s=round(time.perf_counter() - t0, 2),
        report={"test": test.format(), "val": val.format(), **system.details},
    )
