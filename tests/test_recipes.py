"""Every named recipe end to end on one tiny world, and the stage cache."""

import logging
import re
import shutil

import pytest

from pivotnmt import recipes
from pivotnmt.checkpoint import MAGIC, Checkpoint
from pivotnmt.decoding import BeamConfig
from pivotnmt.model import ModelConfig
from pivotnmt.recipes import GRIDS, RECIPES, RecipeError, Settings, Workbench, run_recipe
from pivotnmt.toyworld import ToyWorldSpec
from pivotnmt.training import TrainSchedule

TINY_WORLD = ToyWorldSpec(
    base_vocab_size=12,
    sentence_length_range=(2, 5),
    n_src_piv=300,
    n_piv_tgt=300,
    n_src_tgt=30,
    n_mono_piv=100,
    n_val=12,
    n_test=12,
    seed=3,
)


def tiny_settings() -> Settings:
    # teacher-student needs more than 20 updates: at 20 every distilled pair
    # decodes empty and its training corpus is empty
    def schedule():
        return TrainSchedule(initial_lr=1e-3, checkpoint_interval=20, max_updates=40)

    return Settings(
        model=ModelConfig(layers=1, model_dim=16, ff_dim=32, heads=2),
        pretrain=schedule(),
        finetune=schedule(),
        merge_count=20,
        beam=BeamConfig(beam_size=2),
        adapter_pairs=100,
        distill_pairs=100,
        backtranslate_pairs=100,
    )


GRID_NAMES = sorted({name for names in GRIDS.values() for name in names})


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stages")


@pytest.fixture(scope="module")
def wb(cache_dir):
    return Workbench(TINY_WORLD, tiny_settings(), 3, cache_dir=cache_dir)


@pytest.fixture(scope="module")
def run(wb):
    done = {}

    def run(name):
        if name not in done:
            done[name] = run_recipe(wb, name)
        return done[name]

    return run


def test_grids_list_exactly_the_recipe_table():
    assert set(GRID_NAMES) == set(RECIPES)


@pytest.mark.parametrize("name", GRID_NAMES)
def test_recipe_runs_end_to_end(run, name):
    res = run(name)
    assert res.recipe == name
    assert res.seed == 3
    assert re.fullmatch(r"[0-9a-f]{64}", res.checkpoint_hash)
    assert 0.0 <= res.test_bleu <= 100.0
    assert 0.0 <= res.val_bleu <= 100.0
    assert res.report["test"].startswith("score=")
    assert res.report["val"].startswith("score=")


def test_synthetic_recipes_report_their_pair_count(wb, run):
    kept = len(wb.backtranslated_corpus())
    assert 0 < kept <= 100
    for name in ("backtranslate-direct", "backtranslate-plain"):
        assert run(name).report["synthetic_pairs"] == kept


def test_recipes_sharing_a_checkpoint_report_one_hash(run):
    # both decode the noisy parallel cross-lingual step-wise model as is
    assert run("xenc-parallel-noisy").checkpoint_hash == run(
        "zeroshot-stepwise+xenc"
    ).checkpoint_hash
    assert run("xenc-parallel-noisy").checkpoint_hash != run("xenc-parallel-clean").checkpoint_hash


def test_unknown_recipe_is_rejected(wb):
    with pytest.raises(RecipeError):
        run_recipe(wb, "bogus")


def test_a_second_workbench_reloads_stages_from_disk(wb, run, cache_dir, monkeypatch):
    run("plain")  # trains the separate parents and saves them
    saved = [p.name.split("--", 1)[1] for p in cache_dir.glob("*.ckpt")]
    assert "sep-src-piv.ckpt" in saved
    assert not any(name.startswith(("bpe-", "vocab-")) for name in saved)

    def no_training(*args, **kwargs):
        raise AssertionError("stage retrained instead of loaded")

    monkeypatch.setattr(recipes, "train", no_training)
    again = Workbench(TINY_WORLD, tiny_settings(), 3, cache_dir=cache_dir)
    assert again.ckpt_sep("src-piv").content_hash() == wb.ckpt_sep("src-piv").content_hash()


def test_a_torn_cache_entry_is_rebuilt(wb, run, cache_dir, tmp_path, caplog):
    run("plain")  # trains the separate parents and saves them
    clean = wb.ckpt_sep("src-piv").content_hash()
    whole = next(cache_dir.glob("*--sep-src-piv.ckpt")).read_bytes()
    for n, torn in enumerate((MAGIC + b"\x10", whole[:-9])):
        stages = tmp_path / str(n)
        shutil.copytree(cache_dir, stages)
        entry = next(stages.glob("*--sep-src-piv.ckpt"))
        entry.write_bytes(torn)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pivotnmt.recipes"):
            rebuilt = Workbench(TINY_WORLD, tiny_settings(), 3, cache_dir=stages).ckpt_sep("src-piv")
        assert "rebuilding stage sep-src-piv" in caplog.text
        assert rebuilt.content_hash() == clean
        assert Checkpoint.load(entry).content_hash() == clean  # the entry was overwritten
