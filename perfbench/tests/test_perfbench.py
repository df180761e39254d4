"""Tests of the benchmark itself: tracing arithmetic, metric naming, and a
seconds-long smoke configuration of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 4.0, 8.0, 0, 0],
        ["c", 5.0, 6.0, 2, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    totals = tracer.layer_totals(spans + [["a", 20.0, 21.5, -1, 1]])
    assert totals["a"] == pytest.approx({"calls": 2, "s": 3.5, "self_s": 3.5})
    assert totals["root"]["self_s"] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 2.0, 6.0, 0, 0],
        ["b", 4.0, 12.0, 0, 0],  # overlaps a and runs past the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def test_every_name_and_unit_is_well_formed():
    names = WORKLOADS + list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_listed_workload_exists():
    assert set(WORKLOADS) <= set(workloads.WORKLOADS)


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    assert set(LAYERS) == set(PER_LAYER)
    for name, entry in LAYERS.items():
        assert entry["moves"] and set(entry["moves"]) <= set(E2E), name
        assert entry["on"] and set(entry["on"]) <= set(WORKLOADS), name


def test_tracer_restores_every_function_it_wraps():
    from pivotnmt import data, decoding, model, tensor, training

    before = (training.make_batches, decoding.translate_tokens, model.Seq2SeqModel.step_logits, tensor.add)
    probe = tracer.Probe()
    probe.install()
    t = tracer.Tracer(probe)
    t.install()
    assert training.make_batches is data.make_batches is not before[0]
    assert model.Seq2SeqModel.step_logits is not before[2]
    t.uninstall()
    probe.uninstall()
    after = (training.make_batches, decoding.translate_tokens, model.Seq2SeqModel.step_logits, tensor.add)
    assert after == before
    assert data.make_batches is training.make_batches


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = PER_LAYER if trace else E2E
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]["unit"], name
        assert isinstance(m["value"], (int, float)), name
    for name in E2E:
        assert re.search(rf"^metric {re.escape(name)} \S+ {re.escape(E2E[name]['unit'])}$", proc.stdout, re.M)


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "pretrain", "--seed", "1", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
