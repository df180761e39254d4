"""Command-line interface.

Subcommands cover corpus generation, the subword pipeline, training and
transfer operations, decoding, scoring, and named end-to-end recipes.
`recipe` writes each run as one file, `<out>/<name>--seed<seed>/report.json`,
sealed by a `sha256` key over its other keys, and its `config` is the
resolved config the run used. `recipe` reuses a run only when its report
reads, its seal holds and its config equals the one asked for; `report`
re-checks the seal and fails loudly on a mismatch. The other commands write
the files their flags name and record no hashes (`gen-toy` adds a manifest
of its world's seed and corpus sizes).

A command that takes `--config` reads a JSON object with two sections,
`world` (a `ToyWorldSpec`) and `settings` (a `recipes.Settings`), each over
its class defaults and type-checked by one function, `recipes.overridden`;
`--set section.key=value` overrides one key. `gen-toy` writes the `world`,
its seed included. The stage commands read the same `settings` as the recipe
that runs that stage: `train` takes `model` and `pretrain` (`train
--schedule-section finetune` the `finetune` schedule), `stepwise` only
`pretrain` (stage 2 has its stage 1's architecture), `xenc-pretrain`
`model`, `pretrain`, `noise` and `ae_weight`, `finetune` takes `finetune`,
`fit-adapter` takes `adapter_pooling` and `adapter_pairs`, and the decoding
commands (`decode`, `pivot-decode`, `distill`, `backtranslate`) take `beam`.
Every command reads its config before it opens any other file. Any other
top-level section, or a key or value the classes reject, is invalid-config.
Every `--out` or `--output` path may name a new directory. `xenc-pretrain`
noises its autoencoding input exactly when `--joint-vocab` holds `<BLANK>`.
`fit-adapter` writes a checkpoint holding the one parameter `adapter/m` and
the vocabularies of the two encoders it was fit on. `finetune --adapter`
reads it: a file that is not such a checkpoint is invalid-config, and an
adapter fit on another source vocabulary than the `--ckpt` one is
hash-mismatch. The fine-tuned checkpoint holds its adapter, and `decode`
applies it.

Step-wise pre-training is two commands, as in the recipes: `train
--recipe-name pretrain-src-piv-joint` over the joint source+pivot
vocabulary (or `xenc-pretrain`) trains stage 1, and `stepwise --stage1`
trains stage 2 on its frozen encoder.

Errors exit nonzero with one machine-parseable line on stderr:
    error code=<class> msg="<details>"
where <class>, chosen from the exception's type, is one of usage (exit 2),
missing-input (3), invalid-config (4, malformed config or input files),
hash-mismatch (5, vocabulary hashes disagree or a report's seal does not
hold) or runtime (1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import bpe
from .adapter import AdapterError, fit_adapter
from .bleu import BleuError, bleu
from .checkpoint import Checkpoint, CheckpointError
from .data import CorpusError, ParallelCorpus
from .decoding import pivot_translate, translate_side, translate_tokens
from .fileio import write_atomic
from .model import ModelError, init_params
from .recipes import GRIDS, RECIPES, Settings, Workbench, overridden, run_recipe
from .toyworld import ToyWorldSpec, write_toy_corpora
from .training import (
    TrainingError,
    crosslingual_pretrain,
    finetune,
    model_of,
    plain_transfer_init,
    stepwise_pretrain,
    train,
)


class CliError(Exception):
    def __init__(self, code: str, msg: str):
        super().__init__(msg)
        self.code = code


_EXIT_CODES = {
    "usage": 2,
    "missing-input": 3,
    "invalid-config": 4,
    "hash-mismatch": 5,
    "runtime": 1,
}

# error class of an exception type; the first entry that matches wins
_ERROR_CLASSES = (
    (bpe.HashMismatchError, "hash-mismatch"),
    (FileNotFoundError, "missing-input"),
    (
        (bpe.BpeError, CheckpointError, AdapterError, CorpusError, ModelError, TrainingError,
         BleuError, ValueError, KeyError),
        "invalid-config",
    ),
)


def _error_class(e: Exception) -> str:
    if isinstance(e, CliError):
        return e.code
    return next((code for types, code in _ERROR_CLASSES if isinstance(e, types)), "runtime")


def _write_json(path, payload):
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _seal(report: dict) -> str:
    """SHA-256 of a report's keys other than `sha256`, as sorted-key JSON."""
    body = {k: v for k, v in report.items() if k != "sha256"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def _read_report(run_dir) -> dict:
    """The report of a run directory, hash-mismatch unless its seal holds."""
    path = _require_file(Path(run_dir) / "report.json", "report")
    report = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(report, dict):
        raise CliError("invalid-config", f"{path} must hold a JSON object")
    if report.get("sha256") != _seal(report):
        raise CliError("hash-mismatch", f"{path} does not match its sha256 seal")
    return report


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _require_file(path, what="input") -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError("missing-input", f"{what} file not found: {p}")
    return p


def load_experiment_config(path=None, overrides=()) -> dict:
    """Load the sectioned JSON config and apply --set overrides (flags win)."""
    raw = {}
    if path is not None:
        with open(_require_file(path, "config"), encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise CliError("invalid-config", f"bad JSON in {path}: {e}")
        if not isinstance(raw, dict):
            raise CliError("invalid-config", f"{path} must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise CliError("usage", f"--set needs section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        keys = dotted.split(".")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        try:
            for k in keys[:-1]:
                node = node.setdefault(k, {})
            node[keys[-1]] = parsed
        except (AttributeError, TypeError):  # a value where a section should be
            raise CliError("invalid-config", f"--set {dotted}: {node!r} is not a section")
    return raw


def experiment_pieces(raw: dict):
    """The (world, settings) of a config: its only sections, each over the
    defaults of `ToyWorldSpec()` and `Settings()` and type-checked by
    `recipes.overridden`."""
    stray = sorted(set(raw) - {"world", "settings"})
    if stray:
        raise CliError("invalid-config", f"unknown config sections {stray} (only world, settings)")
    try:
        world = overridden("world", ToyWorldSpec(), raw.get("world", {}))
        settings = overridden("settings", Settings(), raw.get("settings", {}))
    except Exception as e:
        raise CliError("invalid-config", f"bad experiment config: {e}")
    return world, settings


def _settings(args) -> Settings:
    return experiment_pieces(load_experiment_config(args.config, args.set or []))[1]


def _read_lines(path) -> list:
    with open(_require_file(path), encoding="utf-8") as f:
        return f.read().splitlines()


def _read_token_lines(path) -> list:
    return [l.split() for l in _read_lines(path)]


def _write_lines(path, lines):
    write_atomic(path, "".join(l + "\n" for l in lines))


def _load_corpus(src, tgt, src_lang="src", tgt_lang="tgt") -> ParallelCorpus:
    return ParallelCorpus.load(
        _require_file(src, "source corpus"), _require_file(tgt, "target corpus"), src_lang, tgt_lang
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args):
    world, _ = experiment_pieces(load_experiment_config(args.config, args.set or []))
    out = Path(args.out)
    write_toy_corpora(world, out)
    print(f"wrote toy corpora to {out}")
    return 0


def cmd_learn_bpe(args):
    lines = []
    for p in args.input:
        lines.extend(_read_lines(p))
    model = bpe.learn_bpe(lines, args.merges)
    model.save(args.out)
    print(f"learned {len(model.merges)} merges -> {args.out}")
    return 0


def cmd_apply_bpe(args):
    model = bpe.BpeModel.load(_require_file(args.model, "BPE model"))
    out = [" ".join(bpe.apply_bpe(model, l)) for l in _read_lines(args.input)]
    _write_lines(args.output, out)
    return 0


def cmd_build_vocab(args):
    corpora = [[l.split() for l in _read_lines(p)] for p in args.input]
    vocab = bpe.build_vocab(
        corpora,
        include_blank=args.blank,
        language_tags=tuple(args.tags.split(",")) if args.tags else (),
    )
    vocab.save(args.out)
    print(f"vocabulary of {len(vocab)} tokens -> {args.out}")
    return 0


def _vocab(path) -> bpe.Vocabulary:
    return bpe.Vocabulary.load(_require_file(path, "vocabulary"))


def cmd_train(args):
    settings = _settings(args)
    sv, tv = _vocab(args.src_vocab), _vocab(args.tgt_vocab)
    corpus = _load_corpus(args.src_train, args.tgt_train)
    val = _load_corpus(args.src_val, args.tgt_val)
    parents = []
    if args.init_from:
        parent = Checkpoint.load(_require_file(args.init_from, "checkpoint"))
        model = model_of(parent, sv, tv)
        parents = [parent.provenance]
    else:
        model = init_params(settings.model, sv, tv, args.seed)
    try:
        ck = train(
            model,
            [corpus],
            val,
            getattr(settings, args.schedule_section),
            seed=args.seed,
            frozen_groups=tuple(args.frozen.split(",")) if args.frozen else (),
            recipe=args.recipe_name,
            parents=parents,
            log_path=args.log,
        )
    except TrainingError as e:  # train raises it only for a bad frozen set
        raise CliError("usage", f"--frozen: {e}") from None
    ck.save(args.out)
    print(f"checkpoint -> {args.out} (best val ppl {ck.schedule_state.get('best_ppl')})")
    return 0


def cmd_transfer_init(args):
    a = Checkpoint.load(_require_file(args.encoder_parent, "encoder parent"))
    b = Checkpoint.load(_require_file(args.decoder_parent, "decoder parent"))
    child = plain_transfer_init(a, b)
    child.save(args.out)
    print(f"assembled checkpoint -> {args.out}")
    return 0


def cmd_stepwise(args):
    settings = _settings(args)
    stage1 = Checkpoint.load(_require_file(args.stage1, "stage-1 checkpoint"))
    piv_tgt = (
        _load_corpus(args.piv_tgt_src, args.piv_tgt_tgt, "piv", "tgt"),
        _load_corpus(args.piv_tgt_val_src, args.piv_tgt_val_tgt, "piv", "tgt"),
    )
    ck = stepwise_pretrain(
        stage1, _vocab(args.joint_vocab), _vocab(args.tgt_vocab), piv_tgt, settings.pretrain,
        seed=args.seed,
    )
    ck.save(args.out)
    print(f"step-wise checkpoint -> {args.out}")
    return 0


def cmd_xenc_pretrain(args):
    settings = _settings(args)
    joint_vocab = _vocab(args.joint_vocab)
    piv_vocab = _vocab(args.piv_vocab)
    src_piv = (
        _load_corpus(args.src_train, args.tgt_train, "src", "piv"),
        _load_corpus(args.src_val, args.tgt_val, "src", "piv"),
    )
    lines = _read_token_lines(args.autoenc)
    ck = crosslingual_pretrain(
        settings.model, joint_vocab, piv_vocab, src_piv, lines, settings.noise,
        settings.pretrain, seed=args.seed, autoenc_weight=settings.ae_weight,
    )
    ck.save(args.out)
    print(f"cross-lingual encoder checkpoint -> {args.out}")
    return 0


def cmd_fit_adapter(args):
    settings = _settings(args)
    sv_a, tv_a = _vocab(args.src_encoder_src_vocab), _vocab(args.src_encoder_tgt_vocab)
    sv_b, tv_b = _vocab(args.piv_encoder_src_vocab), _vocab(args.piv_encoder_tgt_vocab)
    enc_src = model_of(Checkpoint.load(_require_file(args.src_encoder, "checkpoint")), sv_a, tv_a)
    enc_piv = model_of(Checkpoint.load(_require_file(args.piv_encoder, "checkpoint")), sv_b, tv_b)
    corpus = _load_corpus(args.src, args.piv, "src", "piv")
    adapter = fit_adapter(
        corpus, enc_src, enc_piv,
        mode=settings.adapter_pooling, max_pairs=settings.adapter_pairs, seed=args.seed,
    )
    adapter.save(args.out)
    fit = adapter.provenance
    print(
        f"adapter -> {args.out} (orthogonality error {fit['orthogonality_error']:.2e}, "
        f"residual {fit['fit_residual']:.4f})"
    )
    return 0


def cmd_finetune(args):
    settings = _settings(args)
    sv, tv = _vocab(args.src_vocab), _vocab(args.tgt_vocab)
    ck = Checkpoint.load(_require_file(args.ckpt, "checkpoint"))
    corpus = _load_corpus(args.src_train, args.tgt_train, "src", "tgt")
    val = _load_corpus(args.src_val, args.tgt_val, "src", "tgt")
    adapter = Checkpoint.load(_require_file(args.adapter, "adapter")) if args.adapter else None
    out = finetune(
        ck, sv, tv, ([corpus], val), settings.finetune, seed=args.seed,
        adapter=adapter,
        allow_adapter_after_stepwise=args.force_adapter,
    )
    out.save(args.out)
    print(f"fine-tuned checkpoint -> {args.out}")
    return 0


def cmd_decode(args):
    beam = _settings(args).beam
    sv, tv = _vocab(args.src_vocab), _vocab(args.tgt_vocab)
    model = model_of(Checkpoint.load(_require_file(args.ckpt, "checkpoint")), sv, tv)
    sentences = _read_token_lines(args.input)
    if args.tag:
        sentences = sv.tagged(sentences, args.tag)
    hyps = translate_tokens(model, sentences, beam)
    _write_lines(args.output, [bpe.detokenize(h) for h in hyps])
    return 0


def cmd_pivot_decode(args):
    beam = _settings(args).beam
    m1 = model_of(
        Checkpoint.load(_require_file(args.src_piv_ckpt, "checkpoint")),
        _vocab(args.src_vocab), _vocab(args.piv_vocab),
    )
    m2 = model_of(
        Checkpoint.load(_require_file(args.piv_tgt_ckpt, "checkpoint")),
        _vocab(args.piv_vocab), _vocab(args.tgt_vocab),
    )
    sentences = _read_token_lines(args.input)
    hyps = pivot_translate(m1, m2, sentences, beam)
    _write_lines(args.output, [bpe.detokenize(h) for h in hyps])
    return 0


def _translate_pivot_side(args, corpus_files, ckpt, to_vocab, to_lang):
    """Replace the pivot side of the corpus `corpus_files` by its translation
    into `to_lang`."""
    beam = _settings(args).beam
    corpus = _load_corpus(*corpus_files)
    model = model_of(
        Checkpoint.load(_require_file(ckpt, "checkpoint")), _vocab(args.piv_vocab), _vocab(to_vocab)
    )
    piv_bpe = bpe.BpeModel.load(_require_file(args.piv_bpe, "pivot BPE model"))
    synth, dropped = translate_side(corpus, model, beam, "piv", to_lang, piv_bpe)
    synth.save(args.out_src, args.out_tgt)
    print(f"{len(synth)} synthetic pairs ({dropped} dropped)")
    return 0


def cmd_distill(args):
    corpus = (args.src, args.piv, "src", "piv")
    return _translate_pivot_side(args, corpus, args.teacher, args.tgt_vocab, "tgt")


def cmd_backtranslate(args):
    corpus = (args.piv, args.tgt, "piv", "tgt")
    return _translate_pivot_side(args, corpus, args.piv_src_ckpt, args.src_vocab, "src")


def cmd_bleu(args):
    hyp = _read_token_lines(args.hyp)
    ref = _read_token_lines(args.ref)
    report = bleu(hyp, ref)
    print(report.format())
    return 0


def cmd_recipe(args):
    world, settings = experiment_pieces(load_experiment_config(args.config, args.set or []))
    out_root = Path(args.out)
    names = GRIDS[args.grid] if args.grid else args.name
    cache_dir = out_root / "_stages"
    all_results = []
    for seed in args.seed:
        wb = Workbench(replace(world, seed=seed), settings, seed, cache_dir=cache_dir)
        # as a report holds it: tuples come back from JSON as lists
        config = json.loads(json.dumps({"world": asdict(wb.world), "settings": settings.to_dict()}))
        for name in names:
            run_dir = out_root / f"{name}--seed{seed}"
            if not args.force:
                try:
                    report = _read_report(run_dir)
                except (CliError, OSError, ValueError):
                    report = None
                if report is not None and report.get("config") == config:
                    print(f"{run_dir} already complete; skipping (use --force to rerun)")
                    all_results.append(report)
                    continue
            res = run_recipe(wb, name)
            report = {
                "recipe": res.recipe,
                "seed": res.seed,
                "test_bleu": res.test_bleu,
                "val_bleu": res.val_bleu,
                "checkpoint_hash": res.checkpoint_hash,
                "runtime_s": res.runtime_s,
                "details": res.report,
                "config": config,
            }
            report["sha256"] = _seal(report)
            _write_json(run_dir / "report.json", report)
            all_results.append(report)
            print(
                f"{name} seed={seed}: test BLEU {res.test_bleu:.2f} "
                f"val BLEU {res.val_bleu:.2f} ({res.runtime_s}s) -> {run_dir}"
            )
    if args.grid:
        summary = {}
        for name in names:
            scores = [r["test_bleu"] for r in all_results if r["recipe"] == name]
            summary[name] = {
                "mean": float(np.mean(scores)),
                "sd": float(np.std(scores)),
                "scores": scores,
            }
        _write_json(out_root / f"grid-{args.grid}.json", {"grid": args.grid, "summary": summary})
        print(f"\n{args.grid} (mean per recipe over seeds {args.seed}):")
        for name in names:
            m = summary[name]
            print(f"  {name:>26s}  {m['mean']:6.2f} +- {m['sd']:.2f}")
    return 0


def cmd_report(args):
    print(json.dumps(_read_report(args.run), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config(p):
    """--config and --set."""
    p.add_argument("--config", default=None, help="JSON config with sections world, settings")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="config override (flags win over the file)")


def _add_common(p, **seed):
    """--config and --set, plus an int --seed (default 1 unless `seed` overrides)."""
    _add_config(p)
    p.add_argument("--seed", **{"type": int, "default": 1, **seed})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CODES["usage"], f'error code=usage msg="{message}"\n')


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pivotnmt",
        description="Pivot-based transfer learning for desk-scale translation experiments",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-toy", help="generate toy-world corpora")
    _add_config(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("learn-bpe", help="learn byte pair encoding merges")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn_bpe)

    p = sub.add_parser("apply-bpe", help="segment text with a learned BPE model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_apply_bpe)

    p = sub.add_parser("build-vocab", help="build a vocabulary from segmented text")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--blank", action="store_true", help="reserve the noise <BLANK> token")
    p.add_argument("--tags", default=None, help="comma-separated language tags")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model on a parallel corpus")
    _add_common(p)
    for flag in ("src-train", "tgt-train", "src-val", "tgt-val", "src-vocab", "tgt-vocab"):
        p.add_argument(f"--{flag}", required=True)
    p.add_argument("--frozen", default=None, help="comma-separated parameter groups")
    p.add_argument("--init-from", default=None)
    p.add_argument("--schedule-section", choices=("pretrain", "finetune"), default="pretrain",
                   help="which settings schedule to train on")
    p.add_argument("--recipe-name", default="train")
    p.add_argument("--log", default=None, help="file the run's step= lines replace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer-init", help="assemble encoder/decoder from two parents")
    p.add_argument("--encoder-parent", required=True)
    p.add_argument("--decoder-parent", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transfer_init)

    p = sub.add_parser("stepwise", help="step-wise stage 2 on a stage-1 encoder (frozen)")
    _add_common(p)
    p.add_argument("--stage1", required=True,
                   help="stage-1 checkpoint over the joint vocabulary "
                        "(train --recipe-name pretrain-src-piv-joint, or xenc-pretrain)")
    for flag in (
        "joint-vocab", "tgt-vocab",
        "piv-tgt-src", "piv-tgt-tgt", "piv-tgt-val-src", "piv-tgt-val-tgt",
    ):
        p.add_argument(f"--{flag}", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stepwise)

    p = sub.add_parser("xenc-pretrain", help="cross-lingual encoder pre-training, its "
                       "autoencoding input noised when --joint-vocab holds <BLANK>")
    _add_common(p)
    for flag in ("joint-vocab", "piv-vocab", "src-train", "tgt-train", "src-val", "tgt-val", "autoenc"):
        p.add_argument(f"--{flag}", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_xenc_pretrain)

    p = sub.add_parser("fit-adapter", help="fit the orthogonal encoder-output adapter")
    _add_common(p)
    for flag in (
        "src", "piv", "src-encoder", "piv-encoder",
        "src-encoder-src-vocab", "src-encoder-tgt-vocab",
        "piv-encoder-src-vocab", "piv-encoder-tgt-vocab",
    ):
        p.add_argument(f"--{flag}", required=True)
    p.add_argument("--out", required=True, help="adapter checkpoint holding adapter/m")
    p.set_defaults(func=cmd_fit_adapter)

    p = sub.add_parser("finetune", help="continue training on source-target data")
    _add_common(p)
    for flag in ("ckpt", "src-train", "tgt-train", "src-val", "tgt-val", "src-vocab", "tgt-vocab"):
        p.add_argument(f"--{flag}", required=True)
    p.add_argument("--adapter", default=None,
                   help="fit-adapter checkpoint over the source vocabulary of --ckpt")
    p.add_argument("--force-adapter", action="store_true",
                   help="override the adapter-after-stepwise guard")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("decode", help="translate a segmented input file")
    _add_config(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tag", default=None, help="target-language tag for multilingual models")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("pivot-decode", help="two-step decoding via the pivot language")
    _add_config(p)
    p.add_argument("--src-piv-ckpt", required=True)
    p.add_argument("--piv-tgt-ckpt", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--piv-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_pivot_decode)

    p = sub.add_parser("distill", help="teacher-student synthetic data generation")
    _add_config(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--piv-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--piv-bpe", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--piv", required=True)
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("backtranslate", help="pivot-based back-translation")
    _add_config(p)
    p.add_argument("--piv-src-ckpt", required=True)
    p.add_argument("--piv-vocab", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--piv-bpe", required=True)
    p.add_argument("--piv", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.set_defaults(func=cmd_backtranslate)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("recipe", help="run named end-to-end recipes or a grid")
    _add_common(p, nargs="+", default=[1], help="one or more seeds")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--name", nargs="+", choices=list(RECIPES), metavar="NAME",
                       help=f"one or more of: {', '.join(RECIPES)}")
    which.add_argument("--grid", choices=sorted(GRIDS))
    p.add_argument("--out", default="runs")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_recipe)

    p = sub.add_parser("report", help="verify a run directory's sealed report and print it")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as e:
        code = _error_class(e)
        msg = str(e) if isinstance(e, CliError) else f"{type(e).__name__}: {e}"
        print(f'error code={code} msg="{msg}"', file=sys.stderr)
        return _EXIT_CODES[code]


if __name__ == "__main__":
    sys.exit(main())
