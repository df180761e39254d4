"""The command-line interface through `cli.main`: recipe runs, manifests, exit codes."""

import json
import shutil

import pytest

from pivotnmt import bpe
from pivotnmt.cli import experiment_pieces, load_experiment_config, main
from pivotnmt.model import ModelConfig, init_params
from pivotnmt.recipes import Settings
from pivotnmt.training import checkpoint_of

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
    assert main(["recipe", "--name", "direct", "bogus", "--out", str(out)]) == 2
    assert "code=usage" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_exits_3(tmp_path, capsys):
    args = ["apply-bpe", "--model", str(tmp_path / "absent.bpe"),
            "--input", str(tmp_path / "in.txt"), "--output", str(tmp_path / "out.txt")]
    assert main(args) == 3
    assert "code=missing-input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text, overrides",
    [("{not json", []), (json.dumps(TINY_CONFIG), ["settings.no_such_key=1"])],
)
def test_bad_config_exits_4(tmp_path, capsys, config_text, overrides):
    config = tmp_path / "bad.json"
    config.write_text(config_text, encoding="utf-8")
    args = ["recipe", "--name", "direct", "--config", str(config), "--out", str(tmp_path / "runs")]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 4
    assert "code=invalid-config" in capsys.readouterr().err


def test_set_overrides_only_the_named_keys_of_a_section():
    raw = load_experiment_config(None, ["settings.pretrain.max_updates=5", "settings.model.layers=1"])
    _, settings = experiment_pieces(raw)
    default = Settings()
    assert settings.pretrain.max_updates == 5
    assert settings.pretrain.initial_lr == default.pretrain.initial_lr == 1e-3
    assert settings.model.layers == 1
    assert settings.model.model_dim == default.model.model_dim == 64
    assert settings.finetune == default.finetune
    assert Settings.from_dict(default.to_dict()) == default


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
             "--src-vocab", p["a"], "--piv-vocab", p["b"], "--piv-vocab2", p["b2"],
             "--tgt-vocab", p["c"], "--input", p["input"], "--output", p["output"]]
    # each model matches its own vocabularies, but the pivot vocabularies differ
    assert main(pivot) == 5
    err = capsys.readouterr().err.splitlines()
    codes = [line.split()[1] for line in err if line.startswith("error ")]
    assert codes == ["code=hash-mismatch", "code=invalid-config", "code=hash-mismatch"]
