"""Schedule law, freezing, checkpoint round-trip, transfer surgery, train loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotnmt import bpe, fileio, training
from pivotnmt import tensor as T
from pivotnmt.adapter import make_baseline_adapter
from pivotnmt.checkpoint import Checkpoint, CheckpointError
from pivotnmt.data import ParallelCorpus, make_batches
from pivotnmt.model import ModelConfig, ModelError, init_params
from pivotnmt.training import (
    ScheduleTracker,
    TrainSchedule,
    TrainingError,
    checkpoint_of,
    finetune,
    model_of,
    plain_transfer_init,
    stepwise_pretrain,
    tag_corpus,
    train,
    validation_perplexity,
)


# ---------------------------------------------------------------------------
# schedule law (pure unit tests)
# ---------------------------------------------------------------------------

def run_schedule(ppls):
    tracker = ScheduleTracker(TrainSchedule())
    events = [tracker.observe(p) for p in ppls]
    return tracker, events


def test_decay_on_third_non_improving():
    tracker, events = run_schedule([10.0, 9.0, 9.5, 9.6, 9.7])
    assert [e["decayed"] for e in events] == [False, False, False, False, True]
    assert tracker.lr == pytest.approx(7e-5)


def test_stop_on_eighth_non_improving():
    ppls = [10.0] + [10.0 + i for i in range(1, 9)]
    tracker, events = run_schedule(ppls)
    assert [e["stop"] for e in events] == [False] * 8 + [True]
    # two decays happened along the way: 1e-4 -> 7e-5 -> 4.9e-5
    assert tracker.lr == pytest.approx(4.9e-5)


def test_tie_counts_as_non_improvement():
    _, events = run_schedule([5.0, 5.0, 5.0, 5.0])
    assert [e["improved"] for e in events] == [True, False, False, False]
    assert events[-1]["decayed"]


def test_improvement_resets_both_counters():
    tracker, events = run_schedule([10.0, 11.0, 11.0, 9.0, 11.0, 11.0])
    assert not any(e["decayed"] for e in events)
    assert tracker.lr == pytest.approx(1e-4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=30))
def test_schedule_lr_never_increases_and_best_monotone(ppls):
    tracker = ScheduleTracker(TrainSchedule())
    lr_prev = tracker.lr
    best_prev = tracker.best_ppl
    for p in ppls:
        tracker.observe(p)
        assert tracker.lr <= lr_prev
        assert tracker.best_ppl <= best_prev
        lr_prev, best_prev = tracker.lr, tracker.best_ppl


def test_schedule_trajectory_is_pure_function():
    ppls = [9.0, 8.0, 8.5, 8.6, 8.7, 8.8, 8.8, 8.8, 8.8, 8.8]
    a = run_schedule(ppls)[0].state()
    b = run_schedule(ppls)[0].state()
    assert a == b


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def small_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        params={
            "encoder/l0/w": rng.standard_normal((3, 4)).astype(np.float32),
            "src_embed/tok": rng.standard_normal((5, 4)).astype(np.float32),
            "decoder/l0/w": rng.standard_normal((4, 4)).astype(np.float64),
        },
        config={"model_dim": 4, "layers": 1},
        src_vocab_hash="aa",
        tgt_vocab_hash="bb",
        provenance={"recipe": "unit", "seed": seed, "parents": []},
        schedule_state={"lr": 1e-4},
    )


def test_checkpoint_round_trip_bitwise(tmp_path):
    ck = small_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save(p1)
    loaded = Checkpoint.load(p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    for n in ck.params:
        assert np.array_equal(loaded.params[n], ck.params[n])
        assert loaded.params[n].dtype == ck.params[n].dtype
    assert loaded.config == ck.config
    assert loaded.provenance == ck.provenance
    assert loaded.schedule_state == ck.schedule_state


def test_checkpoint_magic_validation(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        Checkpoint.load(p)


def test_checkpoint_truncated_or_extended_is_rejected(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    small_checkpoint().save(good)
    raw = good.read_bytes()
    for cut in range(len(raw)):
        bad.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            Checkpoint.load(bad)
    for extra in (b"\x00", b"junk"):
        bad.write_bytes(raw + extra)
        with pytest.raises(CheckpointError):
            Checkpoint.load(bad)


def test_checkpoint_save_that_dies_before_the_rename_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    small_checkpoint(0).save(path)
    old = path.read_bytes()

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(fileio.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        small_checkpoint(1).save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_checkpoint_content_hash_tracks_params():
    a, b = small_checkpoint(0), small_checkpoint(0)
    assert a.content_hash() == b.content_hash()
    b.params["encoder/l0/w"][0, 0] += 1
    assert a.content_hash() != b.content_hash()


# ---------------------------------------------------------------------------
# fixtures for end-to-end training bits
# ---------------------------------------------------------------------------

def word_corpus(words_in, words_out, n, seed, src_lang="src", tgt_lang="piv"):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        ln = int(rng.integers(2, 6))
        idx = rng.integers(0, len(words_in), size=ln)
        pairs.append(([words_in[i] for i in idx], [words_out[i] for i in idx]))
    return ParallelCorpus(pairs=pairs, src_lang=src_lang, tgt_lang=tgt_lang)


def vocab_of(token_lists, **kw):
    return bpe.build_vocab([token_lists], **kw)


WORDS_S = [f"s{i}" for i in range(10)]
WORDS_P = [f"p{i}" for i in range(10)]
WORDS_T = [f"t{i}" for i in range(10)]


def tiny_cfg(**kw):
    base = dict(layers=1, model_dim=16, ff_dim=32, heads=2, dropout=0.0, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


def quick_schedule(**kw):
    base = dict(initial_lr=3e-3, checkpoint_interval=20, max_updates=60, max_tokens=128)
    base.update(kw)
    return TrainSchedule(**base)


def test_train_returns_checkpoint_and_freezes_groups():
    corpus = word_corpus(WORDS_S, WORDS_P, 40, seed=0)
    val = word_corpus(WORDS_S, WORDS_P, 10, seed=1)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(), sv, tv, seed=0)
    frozen_before = {
        n: model.params[n].data.tobytes()
        for n in model.frozen_param_names({"encoder", "src_embed"})
    }
    ck = train(
        model, [corpus], val, quick_schedule(), seed=1, frozen_groups=("encoder", "src_embed")
    )
    for n, raw in frozen_before.items():
        assert ck.params[n].tobytes() == raw
    assert ck.provenance["frozen_groups"] == ["encoder", "src_embed"]
    assert ck.schedule_state["best_ppl"] is not None


def requires_grad_flags(model) -> dict:
    return {n: p.requires_grad for n, p in model.params.items()}


def test_train_restores_requires_grad_on_return_divergence_and_error():
    corpus = word_corpus(WORDS_S, WORDS_P, 30, seed=7)
    val = word_corpus(WORDS_S, WORDS_P, 8, seed=8)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(dtype="float32"), sv, tv, seed=0)
    # a parameter already off stays off, in a frozen group and outside one
    model.params["encoder/final_norm/gain"].requires_grad = False
    model.params["decoder/final_norm/bias"].requires_grad = False
    flags = requires_grad_flags(model)
    frozen = ("encoder", "src_embed")

    ck = train(model, [corpus], val, quick_schedule(max_updates=20), seed=0, frozen_groups=frozen)
    assert not ck.provenance["diverged"]
    assert requires_grad_flags(model) == flags

    with np.errstate(over="ignore", invalid="ignore"):  # the divergence overflows on purpose
        ck = train(
            model, [corpus], val, quick_schedule(initial_lr=1e9, max_updates=50), seed=0,
            frozen_groups=frozen,
        )
    assert ck.provenance["diverged"]
    assert requires_grad_flags(model) == flags

    # the third forward pass raises
    calls = []
    forward_loss = model.forward_loss

    def failing_forward_loss(batch, adapter=None):
        calls.append(batch)
        if len(calls) == 3:
            raise ModelError("injected failure")
        return forward_loss(batch, adapter=adapter)

    model.forward_loss = failing_forward_loss
    with pytest.raises(ModelError, match="injected"):
        train(model, [corpus], val, quick_schedule(), seed=0, frozen_groups=frozen)
    assert len(calls) == 3
    assert requires_grad_flags(model) == flags


def test_pairs_longer_than_max_len_are_skipped_and_training_completes():
    corpus = word_corpus(WORDS_S, WORDS_P, 30, seed=7)
    val = word_corpus(WORDS_S, WORDS_P, 8, seed=8)
    too_long = ParallelCorpus(
        pairs=corpus.pairs + [(["s1"] * 20, ["p1"] * 3)], src_lang="src", tgt_lang="piv"
    )
    sv = vocab_of([s for s, _ in too_long.pairs])
    tv = vocab_of([t for _, t in too_long.pairs])
    model = init_params(tiny_cfg(), sv, tv, seed=0)
    assert model.config.max_len == 16
    stream = make_batches([too_long], sv, tv, 64, seed=0, max_len=model.config.max_len)
    assert stream.skipped_over_length == 1
    assert sum(b.src.shape[0] for b in stream.batches) == len(corpus.pairs)
    # the budget alone lets the 21-token source through
    assert make_batches([too_long], sv, tv, 64, seed=0).skipped_over_length == 0
    ck = train(model, [too_long], too_long, quick_schedule(max_updates=20), seed=0)
    assert ck.provenance["updates"] == 20 and not ck.provenance["diverged"]


def test_train_rejects_a_frozen_set_that_is_unknown_or_leaves_nothing():
    corpus = word_corpus(WORDS_S, WORDS_P, 10, seed=7)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(), sv, tv, seed=0)
    before = model.clone_params()
    for groups in (("bogus",), ("encoder", "src_embed", "tgt_embed", "decoder")):
        with pytest.raises(TrainingError):
            train(model, [corpus], corpus, quick_schedule(), seed=0, frozen_groups=groups)
        assert all(p.requires_grad for p in model.params.values())
    assert all(np.array_equal(model.params[n].data, a) for n, a in before.items())


def test_train_reproducible_same_seed():
    corpus = word_corpus(WORDS_S, WORDS_P, 30, seed=2)
    val = word_corpus(WORDS_S, WORDS_P, 8, seed=3)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    cks = []
    for _ in range(2):
        model = init_params(tiny_cfg(dropout=0.1), sv, tv, seed=4)
        cks.append(train(model, [corpus], val, quick_schedule(max_updates=30), seed=9))
    assert cks[0].content_hash() == cks[1].content_hash()


def test_train_lowers_validation_perplexity():
    corpus = word_corpus(WORDS_S, WORDS_P, 60, seed=5)
    val = word_corpus(WORDS_S, WORDS_P, 15, seed=6)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(), sv, tv, seed=1)
    before = validation_perplexity(model, val, 128)
    ck = train(model, [corpus], val, quick_schedule(max_updates=120), seed=2)
    trained = model_of(ck, sv, tv)
    after = validation_perplexity(trained, val, 128)
    assert after < before * 0.8


def test_divergence_aborts_with_last_good_checkpoint():
    corpus = word_corpus(WORDS_S, WORDS_P, 30, seed=7)
    val = word_corpus(WORDS_S, WORDS_P, 8, seed=8)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(dtype="float32"), sv, tv, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):  # the divergence overflows on purpose
        ck = train(model, [corpus], val, quick_schedule(initial_lr=1e9, max_updates=50), seed=0)
    assert ck.provenance["diverged"]
    assert all(np.all(np.isfinite(a)) for a in ck.params.values())


def test_training_log_lines(tmp_path):
    corpus = word_corpus(WORDS_S, WORDS_P, 30, seed=2)
    val = word_corpus(WORDS_S, WORDS_P, 8, seed=3)
    sv = vocab_of([s for s, _ in corpus.pairs])
    tv = vocab_of([t for _, t in corpus.pairs])
    model = init_params(tiny_cfg(), sv, tv, seed=4)
    log_path = tmp_path / "train.log"
    train(model, [corpus], val, quick_schedule(max_updates=40), seed=5, log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert lines
    for line in lines:
        assert line.startswith("step=") and " lr=" in line and " train_loss=" in line


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def two_parents():
    src_piv = word_corpus(WORDS_S, WORDS_P, 30, seed=0)
    piv_tgt = word_corpus(WORDS_P, WORDS_T, 30, seed=1, src_lang="piv", tgt_lang="tgt")
    sv = vocab_of([s for s, _ in src_piv.pairs])
    pv = vocab_of([t for _, t in src_piv.pairs])
    pv2 = vocab_of([s for s, _ in piv_tgt.pairs])
    tv = vocab_of([t for _, t in piv_tgt.pairs])
    a = checkpoint_of(
        init_params(tiny_cfg(), sv, pv, seed=0), {"recipe": "src_piv", "parents": []}
    )
    b = checkpoint_of(
        init_params(tiny_cfg(), pv2, tv, seed=1), {"recipe": "piv_tgt", "parents": []}
    )
    return a, b, sv, tv


def test_plain_transfer_copies_groups_bitwise():
    a, b, sv, tv = two_parents()
    child = plain_transfer_init(a, b)
    for g in ("src_embed", "encoder"):
        assert child.group_hash(g) == a.group_hash(g)
    for g in ("tgt_embed", "decoder", "output_proj"):
        assert child.group_hash(g) == b.group_hash(g)
    assert set(child.params) == set(a.group_params("src_embed")) | set(
        a.group_params("encoder")
    ) | set(b.group_params("tgt_embed")) | set(b.group_params("decoder"))
    assert child.provenance["recipe"] == "plain_transfer_init"
    assert len(child.provenance["parent_hashes"]) == 2
    # the assembled checkpoint is a valid model for src->tgt
    model = model_of(child, sv, tv)
    assert model.parameter_count() == sum(p.size for p in child.params.values())


def test_plain_transfer_rejects_dim_mismatch():
    a, b, _, _ = two_parents()
    b.config["model_dim"] = 32
    with pytest.raises(TrainingError):
        plain_transfer_init(a, b)


def test_model_of_rejects_vocab_hash_mismatch():
    a, _, sv, tv = two_parents()
    with pytest.raises(TrainingError):
        model_of(a, sv, tv)  # tv is not parent A's target vocab


# ---------------------------------------------------------------------------
# step-wise and fine-tune behaviors
# ---------------------------------------------------------------------------

def test_stepwise_stage2_keeps_encoder_hash_and_checks_coverage():
    joint_words = WORDS_S + WORDS_P
    src_piv = word_corpus(WORDS_S, WORDS_P, 30, seed=0)
    src_piv_val = word_corpus(WORDS_S, WORDS_P, 8, seed=1)
    piv_tgt = word_corpus(WORDS_P, WORDS_T, 30, seed=2, src_lang="piv", tgt_lang="tgt")
    piv_tgt_val = word_corpus(WORDS_P, WORDS_T, 8, seed=3, src_lang="piv", tgt_lang="tgt")
    joint_vocab = vocab_of([[w] for w in joint_words])
    piv_vocab = vocab_of([t for _, t in src_piv.pairs])
    tgt_vocab = vocab_of([t for _, t in piv_tgt.pairs])
    stage1 = train(init_params(tiny_cfg(), joint_vocab, piv_vocab, seed=0), [src_piv], src_piv_val,
                   quick_schedule(max_updates=30), seed=0)
    ck = stepwise_pretrain(
        stage1, joint_vocab, tgt_vocab, (piv_tgt, piv_tgt_val), quick_schedule(max_updates=30),
        seed=0,
    )
    assert ck.provenance["recipe"] == "stepwise.stage2"
    assert ck.provenance["frozen_groups"] == ["encoder", "src_embed"]
    for g in ("src_embed", "encoder"):
        assert ck.group_hash(g) == stage1.group_hash(g)

    bad_corpus = word_corpus(["zz1", "zz2"], WORDS_T[:2], 5, seed=4, src_lang="piv", tgt_lang="tgt")
    with pytest.raises(TrainingError):
        stepwise_pretrain(
            stage1, joint_vocab, tgt_vocab, (bad_corpus, piv_tgt_val),
            quick_schedule(max_updates=10), seed=0,
        )


# The freezing mechanism `train` replaced, kept as its oracle: every group is
# recorded on the tape and differentiated, and Adam skips the frozen names.

def reference_adam_step(params, state, frozen):
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        if name in frozen:
            continue
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(p.data)
            state.second_moment[name] = np.zeros_like(p.data)
        m, nu = state.first_moment[name], state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        nu *= b2
        nu += (1.0 - b2) * (g * g)
        update = np.sqrt(nu / c2)
        update += state.epsilon
        np.divide(m, update, out=update)
        update *= state.learning_rate / c1
        p.data -= update.astype(p.data.dtype, copy=False)


def reference_train(model, train_corpora, val_corpus, schedule, seed, frozen_groups=(),
                    recipe="train", parents=None):
    frozen = model.frozen_param_names(frozen_groups)
    adam = T.AdamState(learning_rate=schedule.initial_lr)
    tracker = ScheduleTracker(schedule)
    drop_rng = np.random.default_rng([seed, 0xD120])
    best = model.clone_params()
    updates, epoch, stop = 0, 0, False
    while not stop and updates < schedule.max_updates:
        stream = make_batches(
            train_corpora, model.src_vocab, model.tgt_vocab, schedule.max_tokens, seed=seed, epoch=epoch
        )
        for batch in stream.batches:
            model.set_train(True, drop_rng)
            model.zero_grad()
            T.backward(model.forward_loss(batch))
            assert all(model.params[n].grad is not None for n in frozen)  # full tape
            reference_adam_step(model.params, adam, frozen)
            updates += 1
            if updates % schedule.checkpoint_interval == 0:
                events = tracker.observe(
                    validation_perplexity(model, val_corpus, schedule.max_tokens)
                )
                if events["improved"]:
                    best = model.clone_params()
                if events["decayed"]:
                    adam.learning_rate = tracker.lr
                if events["stop"]:
                    stop = True
                    break
            if updates >= schedule.max_updates:
                break
        epoch += 1
    if updates % schedule.checkpoint_interval != 0:
        if tracker.observe(validation_perplexity(model, val_corpus, schedule.max_tokens))["improved"]:
            best = model.clone_params()
    model.set_train(False)
    model.load_param_arrays(best)
    provenance = {
        "recipe": recipe,
        "seed": seed,
        "frozen_groups": sorted(frozen_groups),
        "parents": parents or [],
        "updates": updates,
        "diverged": False,
        "adapter": None,
    }
    return checkpoint_of(model, provenance, tracker.state())


def test_stepwise_stage2_equals_the_full_tape_reference_bitwise(monkeypatch):
    src_piv = word_corpus(WORDS_S, WORDS_P, 30, seed=0)
    src_piv_val = word_corpus(WORDS_S, WORDS_P, 8, seed=1)
    piv_tgt = word_corpus(WORDS_P, WORDS_T, 40, seed=2, src_lang="piv", tgt_lang="tgt")
    piv_tgt_val = word_corpus(WORDS_P, WORDS_T, 8, seed=3, src_lang="piv", tgt_lang="tgt")
    joint_vocab = vocab_of([[w] for w in WORDS_S + WORDS_P])
    piv_vocab = vocab_of([t for _, t in src_piv.pairs])
    tgt_vocab = vocab_of([t for _, t in piv_tgt.pairs])
    cfg = tiny_cfg(dropout=0.1, layers=2, dtype="float32")
    stage1_model = init_params(cfg, joint_vocab, piv_vocab, seed=0)
    stage1 = train(stage1_model, [src_piv], src_piv_val, quick_schedule(max_updates=20), seed=0)
    # three checkpoint intervals of stage 2, the last one ending the run
    schedule = quick_schedule(max_updates=60)

    def stage2():
        return stepwise_pretrain(
            stage1, joint_vocab, tgt_vocab, (piv_tgt, piv_tgt_val), schedule, seed=0
        )

    got = stage2()
    monkeypatch.setattr(training, "train", reference_train)
    want = stage2()
    assert got.provenance["updates"] == want.provenance["updates"] == 60
    assert got.schedule_state == want.schedule_state
    for n in want.params:
        assert got.params[n].tobytes() == want.params[n].tobytes(), n
    assert got.content_hash() == want.content_hash()
    assert got.group_hash("encoder") == stage1.group_hash("encoder")


def test_finetune_rejects_empty_corpus_and_guards_adapter():
    a, b, sv, tv = two_parents()
    child = plain_transfer_init(a, b)
    empty = ParallelCorpus(pairs=[], src_lang="src", tgt_lang="tgt")
    val = word_corpus(WORDS_S, WORDS_T, 8, seed=0, src_lang="src", tgt_lang="tgt")
    with pytest.raises(TrainingError):
        finetune(child, sv, tv, ([empty], val), quick_schedule(), seed=0)

    stepwise_like = Checkpoint(
        params=child.params,
        config=child.config,
        src_vocab_hash=child.src_vocab_hash,
        tgt_vocab_hash=child.tgt_vocab_hash,
        provenance={"recipe": "stepwise.stage2", "parents": []},
    )
    corpus = word_corpus(WORDS_S, WORDS_T, 20, seed=1, src_lang="src", tgt_lang="tgt")
    adapter = make_baseline_adapter("identity", 16)
    with pytest.raises(TrainingError):
        finetune(
            stepwise_like, sv, tv, ([corpus], val), quick_schedule(max_updates=5), seed=0,
            adapter=adapter,
        )
    # override flag permits it
    ck = finetune(
        stepwise_like, sv, tv, ([corpus], val), quick_schedule(max_updates=5), seed=0,
        adapter=adapter, allow_adapter_after_stepwise=True,
    )
    assert ck.provenance["adapter"]["provenance"] == "identity"


def test_tag_prepended_exactly_once():
    corpus = word_corpus(WORDS_S, WORDS_T, 10, seed=0, src_lang="src", tgt_lang="tgt")
    vocab = vocab_of(
        [[w] for w in WORDS_S + WORDS_T], language_tags=("src", "tgt", "piv")
    )
    tagged = tag_corpus(corpus, vocab)
    for s, _ in tagged.pairs:
        assert s[0] == "<2tgt>"
        assert "<2tgt>" not in s[1:]
    with pytest.raises(TrainingError):
        tag_corpus(corpus, vocab_of([[w] for w in WORDS_S]))
