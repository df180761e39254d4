"""Every `pivotnmt` name the benchmark under `perfbench/` uses resolves.

The benchmark's own tests run apart from this suite, so without these checks
a renamed function or parameter passes here and fails only when the
benchmark runs. The benchmark files are read as source, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from pivotnmt.recipes import Settings, Workbench
from pivotnmt.toyworld import ToyWorldSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _constant(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in the benchmark source")


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_functions_and_tensor_primitives_resolve():
    tracer = _tree("tracer.py")
    traced = _constant(tracer, "TRACED")
    assert traced
    for module, attr, _ in traced:
        assert callable(_resolve(importlib.import_module(f"pivotnmt.{module}"), attr)), attr
    tensor = importlib.import_module("pivotnmt.tensor")
    for prim in _constant(tracer, "TENSOR_PRIMITIVES"):
        assert callable(getattr(tensor, prim, None)), prim


@pytest.fixture(scope="module")
def workbench():
    world = ToyWorldSpec(n_src_piv=20, n_piv_tgt=20, n_src_tgt=5, n_mono_piv=5, n_val=5, n_test=5)
    return Workbench(world, Settings(), 0)


def _imported(tree: ast.Module) -> dict:
    """name -> object of each `from pivotnmt... import name`."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pivotnmt"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _on_wb(node: ast.AST) -> bool:
    """Whether `node` is `wb.<name>` or `<x>.wb.<name>`."""
    base = node.value if isinstance(node, ast.Attribute) else None
    return (isinstance(base, ast.Name) and base.id == "wb") or (
        isinstance(base, ast.Attribute) and base.attr == "wb"
    )


def _used(node: ast.AST, imported: dict, wb: Workbench):
    """The object that `node` names when it is an imported name, an attribute
    of an imported module or a Workbench attribute, else None."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if _on_wb(node):
        return getattr(wb, node.attr)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        module = imported.get(node.value.id)
        if inspect.ismodule(module):
            return getattr(module, node.attr)
    return None


def test_workload_calls_resolve_with_their_arguments(workbench):
    tree = _tree("workloads.py")
    imported = _imported(tree)
    assert {"recipes", "training", "decoding", "bpe"} <= set(imported)
    for node in ast.walk(tree):
        _used(node, imported, workbench)  # AttributeError on a missing name
        if not isinstance(node, ast.Call):
            continue
        fn = _used(node.func, imported, workbench)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if fn is None or starred or any(k.arg is None for k in node.keywords):
            continue
        # TypeError on a missing parameter or a surplus argument
        inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
    wb_names = {node.attr for node in ast.walk(tree) if _on_wb(node)}
    # the Workbench builders the workloads set up and train with
    assert {"bpe_joint", "vocab_joint", "ckpt_xenc", "ckpt_stepwise", "ckpt_sep"} <= wb_names
