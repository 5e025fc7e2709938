"""samossa benchmark: end-to-end timings with correctness checks, and a traced run.

    python3 perfbench/run.py --workload cli_online --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3    # every workload, one after another
    python3 perfbench/run.py --smoke                    # shrunken workloads, traced and not

Workloads (see ``parts.py``): ``search``, ``fig2_3e6`` and ``cli_online``,
each named after the part it runs at full scale. ``--trace 0`` repeats that
part for ``--seconds``, with set-up samples spread between the repetitions,
and prints the end-to-end metrics. ``--trace 1`` runs a pass of all three
parts (the other two at small scale, so that every layer is exercised)
untraced as warm-up, then one traced pass that gives the per-layer metrics,
then one untraced pass to price the tracing.

Runs are single-process and sequential apart from the CLI processes the
``cli`` part starts one at a time. BLAS is pinned to ``BLAS_THREADS`` thread
for this process and its children, because the thread count moves the
workloads in opposite directions. The last line of standard output is one
JSON object; a result file with the machine fingerprint goes to
``.bench_out/``. The exit code is 1 when any operation or check failed and
2 when the checkout has no ``src/samossa`` to measure. Modules that load
numpy are imported inside functions, after the BLAS thread count is pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread. With two on the two vCPUs of the reference machine, a BLAS
# call waits for the slower core, and the search part's time no longer
# followed the blas calibration unit (see NOTES.md).
BLAS_THREADS = 1

WORKLOADS = {"search": "search", "fig2_3e6": "estimate", "cli_online": "cli"}
PART_ORDER = ("search", "estimate", "cli")
# The samples that time one repetition of each part; op_s sums their medians.
OP_SAMPLES = {"search": ("search_s",), "estimate": ("estimate_s",),
              "cli": ("cli_fit_s", "cli_roll_s", "lib_roll_s")}
# The gated samples are reported at the reference speed (calibrate.py): each
# is scaled by the calibration units of the kind named here that ran during
# it or within CAL_MARGIN_S of it. The search and estimate parts are mostly
# SVD; the rest is mostly the interpreter.
SCALED = {"setup_s": "interp", "cli_fit_s": "interp", "cli_roll_s": "interp",
          "lib_roll_s": "interp", "search_s": "blas", "estimate_s": "blas"}
CAL_MARGIN_S = 1.0
# Repetitions of the workload's own part, at least; more follow while --seconds allows.
MIN_MAIN_REPS = {"search": 2, "estimate": 6, "cli": 2}
SETUP_REPS = 6

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
QUALITY = ("mean_r2", "r2_gap", "est_err", "alpha_err")


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "count", "bytes": "B", "cells": "count", "distinct": "count",
            "reuse_ratio": "ratio", "configs": "count", "overhead_ratio": "ratio"}.get(suffix, "s")


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# one workload in this process


def _rep(ctx, part: str, scale, seed: int) -> None:
    import parts

    if ctx.tracer is not None:
        ctx.tracer.part = part
    if part == "cli":
        parts.cli_rep(ctx, scale, seed, part)
    else:
        rep = parts.search_rep if part == "search" else parts.estimate_rep
        ctx.rec.attempt(f"{part} seed {seed}", rep, ctx, scale, seed)


def _measure(ctx, main: str, scale, seed: int, seconds: float) -> None:
    import parts

    # One small repetition first, its samples dropped, so that lazy imports
    # and first-call set-up in this process stay out of the timings.
    warm = parts.SMALL[main]
    _rep(ctx, main, warm, next(parts.seed_stream(seed, main, warm)))
    ctx.rec.clear()
    # The machine's speed drifts over seconds, so the set-up samples are
    # spread over the run: one each time the own part has used another
    # 1/SETUP_REPS of --seconds, and the rest at the end.
    seeds = parts.seed_stream(seed, main, scale)
    main_s, last, done, setups = 0.0, 0.0, 0, 0
    while done < MIN_MAIN_REPS[main] or main_s + last <= seconds:
        while setups < SETUP_REPS and main_s >= setups * seconds / SETUP_REPS:
            ctx.rec.attempt("setup", parts.setup_rep, ctx)
            setups += 1
        started = time.perf_counter()
        _rep(ctx, main, scale, next(seeds))
        last = time.perf_counter() - started
        main_s += last
        done += 1
    for _ in range(setups, SETUP_REPS):
        ctx.rec.attempt("setup", parts.setup_rep, ctx)


def _traced(ctx, scales: dict, seed: int) -> dict:
    import parts
    from tracing import Tracer

    def one_pass() -> float:
        started = time.perf_counter()
        for part in PART_ORDER:
            _rep(ctx, part, scales[part], next(parts.seed_stream(seed, part, scales[part])))
        return time.perf_counter() - started

    one_pass()  # warm-up, discarded
    tracer = Tracer().install()
    ctx.tracer = tracer
    try:
        traced_s = one_pass()
    finally:
        tracer.uninstall()
        ctx.tracer = None
    untraced_s = one_pass()
    layers = tracer.layer_table()
    # A grid configuration that fails is a failed operation, not a metric.
    configs = layers["evaluation.grid_search.configs"]
    failed_configs = layers.pop("evaluation.grid_search.failed")
    ctx.rec.attempted += configs
    if failed_configs:
        ctx.rec.failures.append(f"grid_search: {failed_configs} of {configs} configurations failed")
    layers["trace.untraced_s"] = untraced_s
    layers["trace.traced_s"] = traced_s
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    by_part = {part: tracer.layer_table(part) for part in tracer.parts()}
    return {"metrics": layers, "by_part": by_part}


def _median(xs):
    import numpy as np

    return float(np.median(xs)) if xs else None


def _scaled(rec, name: str) -> list[float]:
    """The samples of ``name`` in seconds at the reference speed.

    Each is multiplied by ``REF_S`` over the mean time of the calibration
    units of its kind that ended during it or within ``CAL_MARGIN_S`` of it:
    the mean, not the median, because the unit times are bimodal like the
    machine, and their mean follows the share of time spent in each phase.
    If a sample has no such units, none is returned, so that its metric
    reads as missing.
    """
    import calibrate

    kind = SCALED[name]
    out = []
    for value, (lo, hi) in zip(rec.samples[name], rec.spans[name]):
        near = [e for t, e in rec.cal[kind] if lo - CAL_MARGIN_S <= t <= hi + CAL_MARGIN_S]
        if not near:
            return []
        out.append(value * calibrate.REF_S[kind] * len(near) / sum(near))
    return out


def _end_to_end(rec, main: str) -> dict:
    import resource

    s = rec.samples
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    ops = [_scaled(rec, name) for name in OP_SAMPLES[main]]
    op_s = sum(_median(xs) for xs in ops) if all(ops) else None
    values = {"setup_s": (_median(_scaled(rec, "setup_s")), len(s["setup_s"])),
              "op_s": (op_s, min(map(len, ops))),
              "peak_rss_mb": (peak_kb / 1024.0, 1)}
    return {name: {"value": values[name][0], "unit": unit, "n": values[name][1]}
            for name, unit in END_TO_END.items()}


def _details(rec) -> dict:
    """Median of every sample kind (wall time), with the 90th percentile of the
    chunk timings, the median at the reference speed of the scaled kinds and
    the median time of each kind of calibration unit."""
    import numpy as np

    out = {name: {"median": _median(xs), "n": len(xs)} for name, xs in sorted(rec.samples.items())}
    for name in SCALED.keys() & out.keys():
        out[name]["scaled_median"] = _median(_scaled(rec, name))
    if rec.samples.get("roll_us"):
        out["roll_us"]["p90"] = float(np.percentile(rec.samples["roll_us"], 90))
    for kind, units in sorted(rec.cal.items()):
        out[f"calibration_{kind}_s"] = {"median": _median([e for _, e in units]), "n": len(units)}
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int, scale_name: str) -> int:
    import shutil
    import tempfile

    import samossa

    if not Path(samossa.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"samossa imported from {samossa.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import samossa.cli  # noqa: F401 - the tracer wraps cli.main too
    import parts

    main = WORKLOADS[workload]
    # The traced passes run every part, the others at small scale.
    scales = {part: (parts.SMALL[part] if part != main or scale_name == "small" else parts.FULL[part])
              for part in (PART_ORDER if trace else (main,))}
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    rec = parts.Recorder()
    ctx = parts.Context(rec, workdir, env, ROOT)
    try:
        if trace:
            traced = _traced(ctx, scales, seed)
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in traced["metrics"].items()}
        else:
            _measure(ctx, main, scales[main], seed, seconds)
            metrics = _end_to_end(rec, main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    complete = all(m["value"] is not None for m in metrics.values())
    correct = not rec.failures and complete
    details = _details(rec)
    quality = {name: {"median": _median(rec.values[name]), "n": len(rec.values[name])}
               for name in QUALITY if rec.values[name]}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale_name, "scales": {p: vars(s) for p, s in scales.items()},
        "fingerprint": fingerprint(), "metrics": metrics, "details": details, "quality": quality,
        "checks": dict(rec.checks), "attempted": rec.attempted, "failures": rec.failures,
        "samples": dict(rec.samples), "values": dict(rec.values),
        "spans": dict(rec.spans), "cal": dict(rec.cal),
    }
    if trace:
        result["by_part"] = traced["by_part"]
    suffix = "" if scale_name == "full" else f"_{scale_name}"
    out_file = OUT / f"BENCH_{workload}_seed{seed}_trace{trace}{suffix}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"fingerprint: {json.dumps(result['fingerprint'])}")
    print(f"workload {workload} seed {seed} scale {scale_name}: "
          f"{ {p: vars(s) for p, s in scales.items()} }")
    for name, m in metrics.items():
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"  {name:<44} {m['value']!r:>24} {m['unit']}{n}")
    for name, d in details.items():
        p90 = f", p90 {d['p90']!r}" if "p90" in d else ""
        p90 += f", at reference speed {d['scaled_median']!r}" if "scaled_median" in d else ""
        print(f"  sample {name:<37} {d['median']!r:>24} (median of {d['n']}{p90})")
    for name, q in quality.items():
        print(f"  quality {name:<36} {q['median']!r:>24} (median of {q['n']})")
    if trace:
        for part, table in traced["by_part"].items():
            busy = {k: v for k, v in table.items() if k.endswith(".calls") and v}
            print(f"  part {part}: {busy}; lowrank.svd.distinct={table['lowrank.svd.distinct']}")
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# several workloads, each in its own process


def run_all(seed: int, seconds: int, traces, scale_name: str, smoke: bool) -> int:
    """Run every workload in a child process; with ``smoke``, also verify its output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if smoke else None
    import parts

    status = 0
    for workload in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--scale", scale_name]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
            if smoke and not problems:
                problems = _smoke_problems(spec, proc.stdout, workload, seed, trace, scale_name, parts)
            for problem in problems:
                print(f"{workload} trace {trace}: {problem}", file=sys.stderr)
            status = status or (1 if problems else 0)
    print("all workloads passed" if status == 0 else "some workloads failed")
    return status


def _smoke_problems(spec, stdout, workload, seed, trace, scale_name, parts) -> list[str]:
    last = json.loads(stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(last)}"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    problems = [] if got == wanted else [f"metrics {got} differ from BENCHMARK.json {wanted}"]
    problems += [f"{name} is not a number" for name, m in last["metrics"].items()
                 if not isinstance(m["value"], (int, float))]
    suffix = "" if scale_name == "full" else f"_{scale_name}"
    result = json.loads((OUT / f"BENCH_{workload}_seed{seed}_trace{trace}{suffix}.json").read_text())
    # The traced passes run every part but measure no set-up; an untraced
    # run measures set-up and its own part only.
    runs = {"search", "estimate", "cli"} if trace else {"setup", WORKLOADS[workload]}
    expected = {name for name in parts.CHECKS if name.split(".")[0] in runs}
    missing = sorted(expected - {name for name, n in result["checks"].items() if n})
    problems += [f"checks never ran: {missing}"] if missing else []
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="time for the workload's own part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' shrinks every part (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at small scale, traced and not, checking the output")
    args = parser.parse_args(argv)

    if not (SRC / "samossa" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'samossa'}; run from a samossa checkout",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return run_all(args.seed, 1, (0, 1), "small", smoke=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, (args.trace,), args.scale, smoke=False)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)


if __name__ == "__main__":
    sys.exit(main())
