"""What the benchmark in ``perfbench/`` uses of the package still exists.

The tracer wraps package functions by name, and the benchmark parts call
package functions by keyword; renaming or removing one would break every
benchmark run, not a test. Both files are read here, never changed:
``tracing.py`` is loaded by path, ``parts.py`` is only parsed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import samossa.cli  # noqa: F401 - the tracer wraps cli.main too

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _samossa_namespaces() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "samossa" or name.startswith("samossa.")}


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in tracing.TARGETS.items()
                                         for name in names])
def test_every_traced_target_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"samossa.{layer}"), name, None))


def test_install_then_uninstall_restores_every_attribute():
    before = _samossa_namespaces()
    tracer = tracing.Tracer().install()
    try:
        assert tracer._patched  # it did wrap something
    finally:
        tracer.uninstall()
    after = _samossa_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [attr for attr, value in namespace.items() if after[name].get(attr) is not value]
        assert not changed, f"samossa module {name} attributes left changed: {changed}"


def _package_calls():
    """(called text, target, positional count, keyword names) of every call into
    the package in ``parts.py`` that names its arguments one by one."""
    tree = ast.parse((BENCH / "parts.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("samossa"):
            home = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(home, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner, attr = func.value.id, func.attr
        elif isinstance(func, ast.Name):
            owner, attr = func.id, None
        else:
            continue
        if owner not in imported:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        target = imported[owner] if attr is None else getattr(imported[owner], attr, None)
        text = owner if attr is None else f"{owner}.{attr}"
        yield text, target, len(node.args), [k.arg for k in node.keywords]


def test_benchmark_calls_bind_to_the_package_signatures():
    calls = list(_package_calls())
    for text, target, n_args, keywords in calls:
        assert callable(target), f"parts.py calls {text}, which the package does not have"
        inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
    keyword_calls = {(text, n_args, tuple(keywords)) for text, _, n_args, keywords in calls}
    assert {
        ("evaluation.forecast_benchmark_run", 1, ("n_series", "train_len", "valid_len",
                                                  "test_len")),
        ("synth.estimation_spec", 1, ("n_series", "length", "seed")),
        ("synth.forecasting_spec", 0, ("n_series", "length", "seed")),
        ("ssa_estimator.est_err", 2, ("n",)),
    } <= keyword_calls
