"""Per-layer tracing for the benchmark: timing wrappers around public functions.

A traced process calls :func:`install`, which replaces each target function
with a wrapper in every ``samossa`` module namespace that holds it by name
(``svd`` lives in ``lowrank`` and is also imported into ``ssa_estimator`` and
``linear_forecaster``). Each wrapped call is a span. Its self time is its
duration minus the durations of the wrapped calls it directly encloses.
Spans are aggregated in memory per (part, name) and written out at the end.

Work the tracer itself does after a call (hashing an SVD input, reading a
file size) is excluded from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> public functions traced. ``synth`` only builds inputs and is not timed.
TARGETS = {
    "panel": ("load_csv", "save_csv"),
    "pagemat": ("stack",),
    "lowrank": ("svd", "select_rank"),
    "ssa_estimator": ("decompose",),
    "linear_forecaster": ("fit_beta",),
    "ar": ("fit_ar",),
    "pipeline": ("fit", "forecast_step", "observe", "save_model", "load_model"),
    "evaluation": ("grid_search", "rolling_eval"),
    "cli": ("main",),
}

CLI_SUBCOMMANDS = ("fit", "observe-forecast")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# Counters recorded after a successful call: name -> f(tracer, args, kwargs, result).
def _count_load_csv(tr, args, kwargs, result):
    tr.add("panel.load_csv.bytes", _file_bytes(_arg(args, kwargs, 0, "path")))


def _count_save_csv(tr, args, kwargs, result):
    tr.add("panel.save_csv.bytes", _file_bytes(_arg(args, kwargs, 1, "path")))


def _count_stack(tr, args, kwargs, result):
    tr.add("pagemat.stack.cells", result.data.size)


def _count_svd(tr, args, kwargs, result):
    matrix = np.ascontiguousarray(_arg(args, kwargs, 0, "matrix"), dtype=np.float64)
    tr.add("lowrank.svd.cells", matrix.size)
    digest = hashlib.blake2b(repr(matrix.shape).encode(), digest_size=16)
    digest.update(matrix.data)
    tr.svd_inputs[tr.part].add(digest.hexdigest())


def _count_save_model(tr, args, kwargs, result):
    tr.add("pipeline.save_model.bytes", _file_bytes(_arg(args, kwargs, 1, "path")))


def _count_load_model(tr, args, kwargs, result):
    tr.add("pipeline.load_model.bytes", _file_bytes(_arg(args, kwargs, 0, "path")))


def _count_grid_search(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    _, entries = result
    tr.add("evaluation.grid_search.configs", len(grid))
    tr.add("evaluation.grid_search.failed", len(grid) - len(entries))


COUNTERS = {
    "panel.load_csv": _count_load_csv,
    "panel.save_csv": _count_save_csv,
    "pagemat.stack": _count_stack,
    "lowrank.svd": _count_svd,
    "pipeline.save_model": _count_save_model,
    "pipeline.load_model": _count_load_model,
    "evaluation.grid_search": _count_grid_search,
}


def _span_name(name, args, kwargs):
    if name == "cli.main":
        argv = _arg(args, kwargs, 0, "argv") if (args or kwargs) else None
        argv = sys.argv[1:] if argv is None else argv
        return f"cli.main.{argv[0]}"
    return name


class Tracer:
    """Span aggregates and counters, keyed by the workload part being run."""

    def __init__(self, part: str = "main"):
        self.part = part
        self.spans = {}                      # (part, name) -> [calls, total_s, self_s]
        self.counters = defaultdict(int)     # (part, name) -> value
        self.svd_inputs = defaultdict(set)   # part -> content hashes
        self._child_s = []                   # one accumulator per open span
        self._patched = []                   # (module, attr, original)

    def add(self, name: str, value) -> None:
        self.counters[(self.part, name)] += value

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "evaluation.grid_search" and len(args) > 2:
                # grid_search takes any iterable; the counter needs its length.
                args = (*args[:2], list(args[2]), *args[3:])
            label = _span_name(name, args, kwargs)
            stack = self._child_s
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                child_s = stack.pop()
                if stack:
                    stack[-1] += duration
                rec = self.spans.setdefault((self.part, label), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child_s
            if count is not None:
                extra_start = time.perf_counter()
                count(self, args, kwargs, result)
                if stack:
                    stack[-1] += time.perf_counter() - extra_start
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target in every loaded ``samossa`` namespace that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "samossa" or key.startswith("samossa.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"samossa.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def to_json(self) -> dict:
        return {
            "spans": [[part, name, *rec] for (part, name), rec in self.spans.items()],
            "counters": [[part, name, value] for (part, name), value in self.counters.items()],
            "svd_inputs": {part: sorted(hashes) for part, hashes in self.svd_inputs.items()},
        }

    def merge(self, doc: dict) -> None:
        """Fold in the aggregates a traced child process wrote with :meth:`to_json`."""
        for part, name, calls, total_s, self_s in doc["spans"]:
            rec = self.spans.setdefault((part, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total_s
            rec[2] += self_s
        for part, name, value in doc["counters"]:
            self.counters[(part, name)] += value
        for part, hashes in doc["svd_inputs"].items():
            self.svd_inputs[part].update(hashes)

    def layer_table(self, part: str | None = None) -> dict:
        """Per-layer metrics summed over all parts, or for one part."""
        def keep(p):
            return part is None or p == part

        names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() if layer != "cli" for fn in fns]
        names += [f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS]
        out = {}
        for name in names:
            recs = [rec for (p, n), rec in self.spans.items() if n == name and keep(p)]
            out[f"{name}.calls"] = sum(rec[0] for rec in recs)
            out[f"{name}.self_s"] = sum(rec[2] for rec in recs)
        for key in ("panel.load_csv.bytes", "panel.save_csv.bytes", "pagemat.stack.cells",
                    "lowrank.svd.cells", "pipeline.save_model.bytes", "pipeline.load_model.bytes",
                    "evaluation.grid_search.configs", "evaluation.grid_search.failed"):
            out[key] = sum(v for (p, n), v in self.counters.items() if n == key and keep(p))
        distinct = set().union(*(h for p, h in self.svd_inputs.items() if keep(p)))
        out["lowrank.svd.distinct"] = len(distinct)
        calls = out["lowrank.svd.calls"]
        out["lowrank.svd.reuse_ratio"] = len(distinct) / calls if calls else 0.0
        return out

    def parts(self) -> list[str]:
        return sorted({p for p, _ in self.spans})
