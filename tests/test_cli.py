"""The command-line interface through `cli.main`: recipe runs, stage commands
against the Workbench stages they reproduce, manifests, exit codes."""

import argparse
import json
import shutil
from pathlib import Path

import pytest

from pivotnmt import bpe, recipes
from pivotnmt.checkpoint import Checkpoint
from pivotnmt.cli import CliError, build_parser, experiment_pieces, load_experiment_config, main
from pivotnmt.data import ParallelCorpus
from pivotnmt.decoding import translate_side, translate_tokens
from pivotnmt.model import ModelConfig, init_params
from pivotnmt.recipes import Settings, Workbench
from pivotnmt.training import checkpoint_of, model_of

TINY_CONFIG = {
    "world": {
        "base_vocab_size": 12,
        "sentence_length_range": [2, 5],
        "n_src_piv": 300,
        "n_piv_tgt": 300,
        "n_src_tgt": 30,
        "n_mono_piv": 100,
        "n_val": 12,
        "n_test": 12,
    },
    "settings": {
        "model": {"layers": 1, "model_dim": 16, "ff_dim": 32, "heads": 2},
        "pretrain": {"checkpoint_interval": 40, "max_updates": 80},
        "finetune": {"checkpoint_interval": 40, "max_updates": 80},
        "merge_count": 20,
        "beam": {"beam_size": 2},
    },
}
REPORT_KEYS = {
    "recipe", "seed", "test_bleu", "val_bleu", "checkpoint_hash", "runtime_s", "details", "config",
}


@pytest.fixture(scope="module")
def recipe_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    out = root / "runs"
    assert main(["recipe", "--name", "direct", "--config", str(config), "--out", str(out)]) == 0
    return out, config


def test_recipe_writes_report_config_and_manifest(recipe_out):
    out, _ = recipe_out
    run_dir = out / "direct--seed1"
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert set(report) == REPORT_KEYS
    assert report["recipe"] == "direct" and report["seed"] == 1
    assert json.loads((run_dir / "config.json").read_text(encoding="utf-8")) == TINY_CONFIG
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert {a["path"] for a in manifest["artifacts"]} == {"report.json", "config.json"}
    assert main(["report", "--run", str(run_dir)]) == 0


def test_recipe_rerun_skips_a_complete_run(recipe_out, capsys):
    out, config = recipe_out
    report = (out / "direct--seed1" / "report.json").read_text(encoding="utf-8")
    assert main(["recipe", "--name", "direct", "--config", str(config), "--out", str(out)]) == 0
    assert "already complete; skipping" in capsys.readouterr().out
    assert (out / "direct--seed1" / "report.json").read_text(encoding="utf-8") == report


def test_an_interrupted_recipe_reuses_its_finished_stages(recipe_out, tmp_path, monkeypatch):
    _, config = recipe_out
    real_train = recipes.train
    trained = []

    def interrupted_train(model, *args, **kwargs):
        trained.append(kwargs["recipe"])
        if len(trained) == 2:  # the second stage is killed after five updates
            left = iter(range(5))
            forward_loss = model.forward_loss

            def dying_forward_loss(batch, adapter=None):
                if next(left, None) is None:
                    raise KeyboardInterrupt
                return forward_loss(batch, adapter=adapter)

            model.forward_loss = dying_forward_loss
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(recipes, "train", interrupted_train)
    out = tmp_path / "runs"
    argv = ["recipe", "--name", "plain", "--config", str(config), "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert trained == ["pretrain-src-piv-sep", "pretrain-piv-tgt-sep"]
    assert [p.name.split("--", 1)[1] for p in (out / "_stages").iterdir()] == ["sep-src-piv.ckpt"]
    assert not (out / "plain--seed1" / "manifest.json").exists()

    trained.clear()
    assert main(argv) == 0
    assert trained == ["pretrain-piv-tgt-sep"]  # the finished stage is loaded, not retrained
    monkeypatch.undo()
    clean = tmp_path / "clean"
    assert main(["recipe", "--name", "plain", "--config", str(config), "--out", str(clean)]) == 0
    reports = [json.loads((root / "plain--seed1" / "report.json").read_text(encoding="utf-8"))
               for root in (out, clean)]
    for key in ("checkpoint_hash", "test_bleu", "val_bleu"):
        assert reports[0][key] == reports[1][key]


def test_report_on_a_tampered_run_exits_hash_mismatch(recipe_out, tmp_path, capsys):
    out, _ = recipe_out
    run_dir = tmp_path / "run"
    shutil.copytree(out / "direct--seed1", run_dir)
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    report["test_bleu"] = 99.0
    (run_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert main(["report", "--run", str(run_dir)]) == 5
    assert "code=hash-mismatch" in capsys.readouterr().err


def test_unknown_recipe_is_a_usage_error_that_creates_nothing(tmp_path, capsys):
    out = tmp_path / "runs"
    # the BLAS pin has no flag: importing the package sets it
    serial = ["--serial", "recipe", "--name", "direct", "--config", str(tmp_path / "absent.json")]
    for argv in (["recipe", "--name", "direct", "bogus"], serial):
        assert main([*argv, "--out", str(out)]) == 2
        assert "code=usage" in capsys.readouterr().err
        assert not out.exists()


def test_missing_input_exits_3(tmp_path, capsys):
    args = ["apply-bpe", "--model", str(tmp_path / "absent.bpe"),
            "--input", str(tmp_path / "in.txt"), "--output", str(tmp_path / "out.txt")]
    assert main(args) == 3
    assert "code=missing-input" in capsys.readouterr().err


def _config_commands(absent):
    """Every subcommand that takes --config, its required flags naming `absent`."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        flags = {a.option_strings[-1]: a for a in parser._actions if a.option_strings}
        if "--config" in flags:
            required = [f for f, a in flags.items() if a.required]
            extra = ["--name", "direct"] if name == "recipe" else []
            yield [name, *extra, *(x for f in required for x in (f, absent))]


@pytest.mark.parametrize(
    "config_text, overrides",
    [
        ("{not json", []),
        (json.dumps(TINY_CONFIG), ["settings.no_such_key=1"]),
        ("{}", ["settings.model.bogus=1"]),
        # 4 heads by default
        ("{}", ["settings.model.model_dim=10"]),
        (json.dumps({**TINY_CONFIG, "model": {"layers": 1}}), []),
        ("{}", ['world.n_val="x"']),
        ("{}", ["settings.model=5"]),
        ("{}", ["settings.model=5", "settings.model.layers=1"]),
        ("[{}]", []),
        ("{}", ["settings.finetune.checkpoint_interval=0"]),
        ("{}", ["settings.synthetic_per_real=0"]),
        ("{}", ["settings.adapter_pairs=0"]),
        ("{}", ["settings.finetune.max_tokens=0"]),
        ("{}", ["settings.noise.p_del=2"]),
        ("{}", ["settings.distill_pairs=0"]),
        ("{}", ["settings.backtranslate_pairs=0"]),
        ("{}", ["settings.ae_weight=0.5"]),
        ("{}", ["settings.beam.max_length_factor=-1.0"]),
        ("{}", ["settings.beam.max_length_constant=-1"]),
        # the toy world always has the languages src, piv and tgt
        ("{}", ['world.languages=["src","piv","tgt"]']),
    ],
)
def test_bad_config_exits_4(tmp_path, capsys, config_text, overrides):
    config = tmp_path / "bad.json"
    config.write_text(config_text, encoding="utf-8")
    commands = list(_config_commands(str(tmp_path / "absent")))
    assert [c[0] for c in commands] == [
        "gen-toy", "train", "stepwise", "xenc-pretrain", "fit-adapter", "finetune",
        "decode", "pivot-decode", "distill", "backtranslate", "recipe",
    ]
    for args in commands:
        args += ["--config", str(config)]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 4, args[0]
        assert "code=invalid-config" in capsys.readouterr().err
    assert not (tmp_path / "absent").exists()


def test_config_values_must_have_their_defaults_type():
    # an int may stand for a float and a list for a tuple; nothing else converts
    raw = load_experiment_config(
        None, ["settings.pretrain.initial_lr=1", "world.sentence_length_range=[2, 5]"]
    )
    world, settings = experiment_pieces(raw)
    assert settings.pretrain.initial_lr == 1
    assert world.sentence_length_range == (2, 5)
    for item in ("settings.model.layers=true", "settings.model.tied_output_embedding=1",
                 "settings.beam.beam_size=2.0", "settings.adapter_pooling=3", "world.seed=null"):
        with pytest.raises(CliError):
            experiment_pieces(load_experiment_config(None, [item]))


def test_set_overrides_only_the_named_keys_of_a_section():
    raw = load_experiment_config(None, ["settings.pretrain.max_updates=5", "settings.model.layers=1"])
    _, settings = experiment_pieces(raw)
    default = Settings()
    assert settings.pretrain.max_updates == 5
    assert settings.pretrain.initial_lr == default.pretrain.initial_lr == 1e-3
    assert settings.model.layers == 1
    assert settings.model.model_dim == default.model.model_dim == 64
    assert settings.finetune == default.finetune
    assert experiment_pieces({"settings": default.to_dict()})[1] == default


# ---------------------------------------------------------------------------
# stage commands read the recipe settings
# ---------------------------------------------------------------------------

PARITY_CONFIG = {"world": {**TINY_CONFIG["world"], "seed": 3}, "settings": TINY_CONFIG["settings"]}
# the files of `Workbench.lang_lines`, in its order
LANG_FILES = {
    "src": ["src-piv.src", "src-tgt.src"],
    "piv": ["src-piv.piv", "piv-tgt.piv", "mono-piv.piv"],
    "tgt": ["piv-tgt.tgt", "src-tgt.tgt"],
}
VAL_FILES = {
    "src": ["src-piv.val.src"],
    "piv": ["src-piv.val.piv", "piv-tgt.val.piv"],
    "tgt": ["piv-tgt.val.tgt"],
}


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """`gen-toy` on PARITY_CONFIG, segmented by `learn-bpe`/`apply-bpe` and
    counted by `build-vocab` the way a Workbench does it: separate src, piv
    and tgt subwords, and joint src+piv subwords. Returns a path lookup."""
    root = tmp_path_factory.mktemp("stages")
    config = root / "config.json"
    config.write_text(json.dumps(PARITY_CONFIG), encoding="utf-8")
    toy = root / "toy"
    assert main(["gen-toy", "--config", str(config), "--out", str(toy)]) == 0
    merges = str(TINY_CONFIG["settings"]["merge_count"])

    def path(regime, name):
        return str(root / f"{regime}.{name}")

    def segment(regime, langs):
        learned = [str(toy / f) for lang in langs for f in LANG_FILES[lang]]
        assert main(["learn-bpe", "--input", *learned, "--merges", merges,
                     "--out", path(regime, "bpe")]) == 0
        for lang in langs:
            for f in LANG_FILES[lang] + VAL_FILES[lang]:
                assert main(["apply-bpe", "--model", path(regime, "bpe"),
                             "--input", str(toy / f), "--output", path(regime, f)]) == 0

    def vocab(name, regime, langs, *flags):
        seg = [path(regime, f) for lang in langs for f in LANG_FILES[lang]]
        assert main(["build-vocab", "--input", *seg, *flags, "--out", path(name, "vocab")]) == 0

    for lang in ("src", "piv", "tgt"):
        segment(lang, [lang])
        vocab(lang, lang, [lang])
    segment("joint", ["src", "piv"])
    vocab("joint", "joint", ["src", "piv"])
    vocab("joint-blank", "joint", ["src", "piv"], "--blank")
    vocab("joint-piv", "joint", ["piv"])
    return path, str(config)


def _train_src_piv(staged, out, *extra):
    path, config = staged
    return main([
        "train", "--config", config, "--seed", "3",
        "--src-train", path("src", "src-piv.src"), "--tgt-train", path("piv", "src-piv.piv"),
        "--src-val", path("src", "src-piv.val.src"), "--tgt-val", path("piv", "src-piv.val.piv"),
        "--src-vocab", path("src", "vocab"), "--tgt-vocab", path("piv", "vocab"),
        "--out", str(out), *extra,
    ])


def test_stage_commands_train_the_workbench_stages(staged, tmp_path):
    path, config = staged
    world, settings = experiment_pieces(PARITY_CONFIG)
    wb = Workbench(world, settings, 3)

    out = tmp_path / "sep.ckpt"
    assert _train_src_piv(staged, out, "--recipe-name", "pretrain-src-piv-sep") == 0
    assert Checkpoint.load(out).content_hash() == wb.ckpt_sep("src-piv").content_hash()

    out = tmp_path / "xenc.ckpt"
    assert main([
        "xenc-pretrain", "--config", config, "--seed", "3",
        "--joint-vocab", path("joint-blank", "vocab"), "--piv-vocab", path("joint-piv", "vocab"),
        "--src-train", path("joint", "src-piv.src"), "--tgt-train", path("joint", "src-piv.piv"),
        "--src-val", path("joint", "src-piv.val.src"),
        "--tgt-val", path("joint", "src-piv.val.piv"),
        "--autoenc", path("joint", "src-piv.piv"), "--out", str(out),
    ]) == 0
    assert Checkpoint.load(out).content_hash() == wb.ckpt_xenc().content_hash()


def test_train_then_stepwise_trains_the_workbench_stepwise_stage(staged, tmp_path):
    path, config = staged
    wb = Workbench(*experiment_pieces(PARITY_CONFIG), 3)
    stage1 = tmp_path / "stage1.ckpt"
    assert main([
        "train", "--config", config, "--seed", "3", "--recipe-name", "pretrain-src-piv-joint",
        "--src-train", path("joint", "src-piv.src"), "--tgt-train", path("joint", "src-piv.piv"),
        "--src-val", path("joint", "src-piv.val.src"),
        "--tgt-val", path("joint", "src-piv.val.piv"),
        "--src-vocab", path("joint", "vocab"), "--tgt-vocab", path("joint-piv", "vocab"),
        "--out", str(stage1),
    ]) == 0
    assert Checkpoint.load(stage1).content_hash() == wb.ckpt_joint_src_piv().content_hash()

    out = tmp_path / "stepwise.ckpt"
    assert main([
        "stepwise", "--config", config, "--seed", "3", "--stage1", str(stage1),
        "--joint-vocab", path("joint", "vocab"), "--tgt-vocab", path("tgt", "vocab"),
        "--piv-tgt-src", path("joint", "piv-tgt.piv"), "--piv-tgt-tgt", path("tgt", "piv-tgt.tgt"),
        "--piv-tgt-val-src", path("joint", "piv-tgt.val.piv"),
        "--piv-tgt-val-tgt", path("tgt", "piv-tgt.val.tgt"),
        "--out", str(out),
    ]) == 0
    assert Checkpoint.load(out).content_hash() == wb.ckpt_stepwise("joint").content_hash()


@pytest.mark.parametrize("frozen", ["bogus", "encoder,src_embed,tgt_embed,decoder,output_proj"])
def test_train_frozen_unknown_or_all_groups_is_a_usage_error(staged, tmp_path, capsys, frozen):
    out = tmp_path / "out" / "never.ckpt"
    out.parent.mkdir()
    assert _train_src_piv(staged, out, "--frozen", frozen, "--log", str(out.parent / "log")) == 2
    assert "code=usage" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_finetune_schedules_follow_settings_finetune(staged, tmp_path):
    path, config = staged
    trained = tmp_path / "direct.ckpt"
    assert _train_src_piv(staged, trained, "--schedule-section", "finetune",
                          "--set", "settings.finetune.max_updates=3") == 0
    assert Checkpoint.load(trained).provenance["updates"] == 3
    tuned = tmp_path / "tuned.ckpt"
    assert main([
        "finetune", "--config", config, "--set", "settings.finetune.max_updates=2",
        "--ckpt", str(trained),
        "--src-train", path("src", "src-piv.src"), "--tgt-train", path("piv", "src-piv.piv"),
        "--src-val", path("src", "src-piv.val.src"), "--tgt-val", path("piv", "src-piv.val.piv"),
        "--src-vocab", path("src", "vocab"), "--tgt-vocab", path("piv", "vocab"),
        "--out", str(tuned),
    ]) == 0
    assert Checkpoint.load(tuned).provenance["updates"] == 2


def test_decoding_commands_decode_with_settings_beam(staged, tmp_path):
    path, config = staged
    toy = Path(config).parent / "toy"
    beam = ["settings.beam.beam_size=3", "settings.beam.max_length_constant=2"]
    _, settings = experiment_pieces(load_experiment_config(config, beam))
    _, tiny = experiment_pieces(load_experiment_config(config))
    sv, pv = (bpe.Vocabulary.load(path(lang, "vocab")) for lang in ("src", "piv"))
    # untrained src->piv and piv->src models: any piv->X model serves as a teacher
    ckpt = {}
    for name, (a, b) in {"src-piv": (sv, pv), "piv-src": (pv, sv)}.items():
        ckpt[name] = tmp_path / f"{name}.ckpt"
        checkpoint_of(init_params(settings.model, a, b, 0), {}).save(ckpt[name])
    flags = [x for item in beam for x in ("--set", item)]

    out = tmp_path / "decoded.txt"
    assert main([
        "decode", "--config", config, *flags, "--ckpt", str(ckpt["src-piv"]),
        "--src-vocab", path("src", "vocab"), "--tgt-vocab", path("piv", "vocab"),
        "--input", path("src", "src-piv.val.src"), "--output", str(out),
    ]) == 0
    model = model_of(Checkpoint.load(ckpt["src-piv"]), sv, pv)
    lines = Path(path("src", "src-piv.val.src")).read_text(encoding="utf-8").splitlines()
    sentences = [line.split() for line in lines]
    want = translate_tokens(model, sentences, settings.beam)
    assert want != translate_tokens(model, sentences, tiny.beam)  # the settings matter
    assert out.read_text(encoding="utf-8").splitlines() == [bpe.detokenize(h) for h in want]

    got = [tmp_path / "distilled.src", tmp_path / "distilled.tgt"]
    assert main([
        "distill", "--config", config, *flags, "--teacher", str(ckpt["piv-src"]),
        "--piv-vocab", path("piv", "vocab"), "--tgt-vocab", path("src", "vocab"),
        "--piv-bpe", path("piv", "bpe"), "--src", str(toy / "src-piv.val.src"),
        "--piv", str(toy / "src-piv.val.piv"), "--out-src", str(got[0]), "--out-tgt", str(got[1]),
    ]) == 0
    corpus = ParallelCorpus.load(toy / "src-piv.val.src", toy / "src-piv.val.piv", "src", "piv")
    teacher = model_of(Checkpoint.load(ckpt["piv-src"]), pv, sv)
    synth, _ = translate_side(corpus, teacher, settings.beam, "piv", "tgt",
                              bpe.BpeModel.load(path("piv", "bpe")))
    assert len(synth)
    want = [tmp_path / "want.src", tmp_path / "want.tgt"]
    synth.save(*want)
    assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]


def test_decode_tag_decodes_as_the_multilingual_recipe(staged, tmp_path, capsys):
    _, config = staged
    wb = Workbench(*experiment_pieces(PARITY_CONFIG), 3)
    system = recipes.RECIPES["multilingual-m2o"](wb)
    ckpt, vocab = tmp_path / "m2o.ckpt", tmp_path / "multi.vocab"
    wb.ckpt_multilingual("many2one").save(ckpt)
    wb.vocab_of(recipes.LANGS, tags=recipes.LANGS).save(vocab)
    seg = [bpe.apply_bpe(system.src_bpe, " ".join(s)) for s, _ in wb.corpora["src-tgt.val"].pairs]
    seg.insert(2, [])
    source = tmp_path / "val.src"
    source.write_text("".join(" ".join(s) + "\n" for s in seg), encoding="utf-8")

    def decode(out, *tag):
        return main(["decode", "--config", config, "--ckpt", str(ckpt), "--src-vocab", str(vocab),
                     "--tgt-vocab", str(vocab), "--input", str(source), "--output", str(out),
                     *tag])

    out, untagged = tmp_path / "decoded.txt", tmp_path / "untagged.txt"
    assert decode(out, "--tag", "tgt") == 0 and decode(untagged) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    assert got == [bpe.detokenize(h) for h in system.decode(seg)]
    assert len(got) == len(seg) and got[2] == ""
    assert untagged.read_text(encoding="utf-8").splitlines() != got  # the tag is read
    # a tag the vocabulary lacks is rejected before anything decodes
    never = tmp_path / "never.txt"
    assert decode(never, "--tag", "xx") == 4
    assert "code=invalid-config" in capsys.readouterr().err
    assert not never.exists()


def test_gen_toy_world_seed_comes_from_the_config(tmp_path):
    config = tmp_path / "world.json"
    config.write_text(json.dumps({"world": {**TINY_CONFIG["world"], "seed": 7}}), encoding="utf-8")
    for extra, seed in (([], 7), (["--set", "world.seed=9"], 9)):
        out = tmp_path / str(seed)
        assert main(["gen-toy", "--config", str(config), "--out", str(out), *extra]) == 0
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["seed"] == seed


def test_recipe_seed_names_the_run(recipe_out):
    out, config = recipe_out
    assert main(["recipe", "--name", "direct", "--seed", "5", "--config", str(config),
                 "--out", str(out)]) == 0
    report = json.loads((out / "direct--seed5" / "report.json").read_text(encoding="utf-8"))
    assert report["seed"] == 5


@pytest.fixture
def stepwise_inputs(tmp_path):
    """Word-level vocabularies, a pivot-target corpus and an untrained stage-1
    checkpoint over the joint vocabulary: `stepwise` flags without --out."""
    src, piv, tgt = ["s1", "s2"], ["p1", "p2", "p3"], ["t1", "t2", "t3"]
    vocabs = {"joint": bpe.build_vocab([[src + piv]]), "piv": bpe.build_vocab([[piv]]),
              "tgt": bpe.build_vocab([[tgt]])}
    args = []
    for name in ("joint", "tgt"):
        vocabs[name].save(tmp_path / f"{name}.vocab")
        args += [f"--{name}-vocab", str(tmp_path / f"{name}.vocab")]
    lines = {"piv": ["p1 p2", "p3", "p2 p3 p1"], "tgt": ["t2 t1", "t3", "t3 t1 t2"]}
    for side in ("src", "tgt"):
        path = tmp_path / f"piv-tgt.{side}"
        path.write_text("".join(line + "\n" for line in lines["piv" if side == "src" else "tgt"]),
                        encoding="utf-8")
        args += [f"--piv-tgt-{side}", str(path), f"--piv-tgt-val-{side}", str(path)]
    config = ModelConfig(**TINY_CONFIG["settings"]["model"])
    stage1 = tmp_path / "stage1.ckpt"
    checkpoint_of(init_params(config, vocabs["joint"], vocabs["piv"], 0), {}).save(stage1)
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return ["stepwise", "--config", str(config_path), "--set", "settings.pretrain.max_updates=2",
            *args], stage1


def test_stepwise_with_a_stage1_checkpoint_needs_no_src_piv_corpora(stepwise_inputs, tmp_path):
    args, stage1 = stepwise_inputs
    out = tmp_path / "stepwise.ckpt"
    assert main([*args, "--stage1", str(stage1), "--out", str(out)]) == 0
    for g in ("src_embed", "encoder"):
        assert Checkpoint.load(out).group_hash(g) == Checkpoint.load(stage1).group_hash(g)


def test_stepwise_needs_a_stage1_checkpoint(stepwise_inputs, tmp_path, capsys):
    args, _ = stepwise_inputs
    out = tmp_path / "never.ckpt"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "code=usage" in err and "--stage1" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes follow the exception class
# ---------------------------------------------------------------------------

@pytest.fixture
def artifacts(tmp_path):
    """Two untrained word-level models a->b and b'->c, where b' is b plus a word."""
    words = {"a": ["a1", "a2"], "b": ["b1", "b2"], "b2": ["b1", "b2", "b3"], "c": ["c1", "c2"]}
    paths = {}
    vocabs = {}
    for name, ws in words.items():
        vocabs[name] = bpe.build_vocab([[ws]])
        paths[name] = tmp_path / f"{name}.vocab"
        vocabs[name].save(paths[name])
    config = ModelConfig(layers=1, model_dim=8, ff_dim=16, heads=2)
    for name, src, tgt in (("ab", "a", "b"), ("bc", "b2", "c")):
        paths[name] = tmp_path / f"{name}.ckpt"
        checkpoint_of(init_params(config, vocabs[src], vocabs[tgt], 0), {}).save(paths[name])
    paths["bad"] = tmp_path / "bad.ckpt"
    paths["bad"].write_bytes(b"not a checkpoint")
    paths["input"] = tmp_path / "input.txt"
    paths["input"].write_text("a1 a2\n", encoding="utf-8")
    paths["output"] = tmp_path / "output.txt"
    return {k: str(v) for k, v in paths.items()}


def _decode(p, ckpt, src_vocab):
    return ["decode", "--ckpt", p[ckpt], "--src-vocab", p[src_vocab], "--tgt-vocab", p["b"],
            "--input", p["input"], "--output", p["output"]]


def test_exit_codes_follow_the_exception_class(artifacts, capsys):
    p = artifacts
    assert main(_decode(p, "ab", "a")) == 0
    # the checkpoint was trained against other vocabularies
    assert main(_decode(p, "ab", "c")) == 5
    # bad magic: a malformed input file, like a bad BPE file
    assert main(_decode(p, "bad", "a")) == 4
    pivot = ["pivot-decode", "--src-piv-ckpt", p["ab"], "--piv-tgt-ckpt", p["bc"],
             "--src-vocab", p["a"], "--piv-vocab", p["b"],
             "--tgt-vocab", p["c"], "--input", p["input"], "--output", p["output"]]
    # the second model was trained against another pivot vocabulary
    assert main(pivot) == 5
    err = capsys.readouterr().err.splitlines()
    codes = [line.split()[1] for line in err if line.startswith("error ")]
    assert codes == ["code=hash-mismatch", "code=invalid-config", "code=hash-mismatch"]
