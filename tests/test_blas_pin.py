"""Importing the package pins the BLAS threads, so a checkpoint's hash does not
depend on the host's cores or on the thread variables its caller set. Each
import runs in a fresh interpreter on this source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pivotnmt
from pivotnmt import recipes
from pivotnmt.recipes import Settings, Workbench
from pivotnmt.toyworld import ToyWorldSpec

SRC = Path(pivotnmt.__file__).resolve().parent.parent
OPENBLAS = pivotnmt.THREAD_VARIABLES[0]

# about 200 training pairs and 20 updates: enough tokens per batch that a
# weight gradient's bytes differ between one and two OpenBLAS threads
PARITY_CONFIG = {
    "world": {"n_src_piv": 200, "n_piv_tgt": 200, "n_src_tgt": 200, "n_mono_piv": 50,
              "n_val": 20, "n_test": 20},
    "settings": {"finetune": {"checkpoint_interval": 20, "max_updates": 20}},
}


def _python(args, threads=None) -> subprocess.CompletedProcess:
    """Python on this source tree with OpenBLAS's thread variable at `threads`
    and the others unset (all unset for None)."""
    env = {k: v for k, v in os.environ.items() if k not in pivotnmt.THREAD_VARIABLES}
    if threads is not None:
        env[OPENBLAS] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)


def test_the_tests_run_pinned():
    assert pivotnmt.BLAS_PINNED


def test_import_pins_every_thread_variable_over_the_callers():
    code = "import os, pivotnmt; print(pivotnmt.BLAS_PINNED, *map(os.environ.get, pivotnmt.THREAD_VARIABLES))"
    out = _python(["-c", code], threads=2)
    assert out.stdout.split() == ["True", "1", "1"]
    assert out.stderr == ""


def test_numpy_loaded_first_leaves_blas_unpinned_with_one_warning():
    out = _python(["-c", "import numpy, pivotnmt, pivotnmt.cli; print(pivotnmt.BLAS_PINNED)"])
    assert out.stdout.split() == ["False"]
    assert [line.split(":")[:2] for line in out.stderr.splitlines()] == [["pivotnmt", " warning"]]


def test_a_recipe_checkpoint_does_not_depend_on_the_thread_variables(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PARITY_CONFIG), encoding="utf-8")
    hashes = {}
    for threads in (None, 1, 2):
        out = tmp_path / f"runs-{threads}"
        _python(["-m", "pivotnmt.cli", "recipe", "--name", "direct", "--seed", "3",
                 "--config", str(config), "--out", str(out)], threads)
        report = json.loads((out / "direct--seed3" / "report.json").read_text(encoding="utf-8"))
        hashes[threads] = report["checkpoint_hash"]
    assert len(set(hashes.values())) == 1, hashes


def test_an_unpinned_process_keys_its_stage_cache_apart(monkeypatch):
    world = ToyWorldSpec(n_src_piv=20, n_piv_tgt=20, n_src_tgt=20, n_mono_piv=20, n_val=5, n_test=5)
    wb = Workbench(world, Settings(), 1)
    pinned = wb.config_digest()
    monkeypatch.setattr(recipes, "BLAS_PINNED", False)
    assert wb.config_digest() != pinned
