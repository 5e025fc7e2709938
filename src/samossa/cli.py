"""Command-line interface.

One executable, eight subcommands: synth, decompose, fit, forecast,
observe-forecast, eval, grid, fig2. Exit codes: 0 success, 1 usage error,
2 data error, 3 failed acceptance assertion. Every option can also be
supplied through a JSON config file (``--config``); explicit flags win over
the file, the file wins over built-in defaults. All randomness flows from
``--seed``; there are no wall-clock defaults, so identical inputs give
byte-identical outputs.

Errors are reported as a single machine-parsable line on stderr:
``samossa: error: <Kind>: <detail>``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import evaluation, pipeline, synth
from .errors import SamossaError, ShapeError, StateError
from .lowrank import RankRule
from .pagemat import default_L
from .panel import SplitSpec, TimePanel, load_csv, save_csv, split
from .pipeline import SamossaConfig
from .ssa_estimator import decompose

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ASSERT = 3


class _UsageError(Exception):
    pass


def _log(message: str) -> None:
    print(f"samossa: {message}", file=sys.stderr)


def _fail_line(kind: str, detail) -> None:
    detail = str(detail).replace("\n", " ")
    print(f"samossa: error: {kind}: {detail}", file=sys.stderr)


# --------------------------------------------------------------------------
# Option plumbing: each subcommand's options carry their real defaults in
# OPTION_DEFAULTS so the config file can sit between flags and defaults.

OPTION_DEFAULTS: dict[str, dict[str, object]] = {}


def _add(sub: argparse.ArgumentParser, command: str, *names, default=None,
         required=False, flag=False, **kwargs):
    dest = names[-1].lstrip("-").replace("-", "_")
    OPTION_DEFAULTS.setdefault(command, {})[dest] = default
    if flag:
        sub.add_argument(*names, dest=dest, action="store_const", const=True,
                         default=None, **kwargs)
    else:
        sub.add_argument(*names, dest=dest, default=None, required=required, **kwargs)


class _Options(dict):
    """Resolved option values; ``given`` names those set by a flag or the config file."""

    given: frozenset = frozenset()


def _resolve(ns: argparse.Namespace, command: str) -> _Options:
    """Layer precedence: explicit flag > config file entry > default."""
    file_values = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise _UsageError(f"config file {ns.config} must hold a JSON object")
    out = _Options()
    given = set()
    for dest, default in OPTION_DEFAULTS[command].items():
        cli_value = getattr(ns, dest, None)
        if cli_value is not None:
            out[dest] = cli_value
            given.add(dest)
        elif dest in file_values:
            out[dest] = file_values[dest]
            given.add(dest)
        else:
            out[dest] = default
    out.given = frozenset(given)
    return out


def _positive_int(value, name: str) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{name} must be an integer, got {value!r}") from None
    if number < 1:
        raise _UsageError(f"{name} must be >= 1, got {number}")
    return number


def _number(value, name: str, kind=float):
    """``kind(value)``, or a usage error naming the flag."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{name} must be a number, got {value!r}") from None


def _layout(opts) -> str:
    layout = opts["layout"]
    if layout not in ("wide", "long"):
        raise _UsageError(f"--layout must be wide or long, got {layout!r}")
    return layout


def _parse_L(value) -> int | None:
    if value in (None, "auto"):
        return None
    return _positive_int(value, "--L")


def _parse_rank(value) -> RankRule:
    try:
        return RankRule.parse(str(value))
    except SamossaError as exc:
        raise _UsageError(str(exc)) from None


def _parse_p(value) -> int | tuple[int, ...]:
    if value == "grid":
        return pipeline.P_GRID_DEFAULT
    text = str(value)
    try:
        if "," in text:
            return tuple(int(tok) for tok in text.split(","))
        return int(text)
    except ValueError:
        raise _UsageError(f"--p must be an integer, a comma list, or 'grid'; got {value!r}") from None


def _pipeline_config(opts, panel_length: int | None = None) -> SamossaConfig:
    L = _parse_L(opts["L"])
    rank = _parse_rank(opts["rank"])
    p = _parse_p(opts["p"])
    ratio = _positive_int(opts["ratio"], "--ratio")
    valid_len = None if opts["valid_len"] is None else _positive_int(opts["valid_len"], "--valid-len")
    if not isinstance(p, int) and valid_len is None and panel_length is not None:
        # Default order-selection window: the trailing 25 steps, shrunk on
        # short panels so a training head remains.
        valid_len = min(25, max(2, panel_length // 10))
    return SamossaConfig(L=L, rank=rank, p=p, shape_ratio=ratio, valid_len=valid_len)


def _float_list(value, name: str) -> list[float]:
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"{name} must be a comma-separated number list, got {value!r}") from None


def _int_list(value, name: str) -> list[int]:
    try:
        return [int(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"{name} must be a comma-separated integer list, got {value!r}") from None


# --------------------------------------------------------------------------
# Subcommands


# Generator options each preset fixes itself; giving one is a usage error.
_PRESET_FIXED = {
    "fig2": ("kind", "r", "p", "alpha", "sigma2"),
    "forecast": ("kind", "r", "p", "alpha", "sigma2", "lambda_star"),
}


def _cmd_synth(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "synth")
    seed = _number(opts["seed"], "--seed", int)
    preset = opts["preset"]
    ignored = [key for key in _PRESET_FIXED.get(preset, ()) if key in opts.given]
    if ignored:
        flags = ", ".join("--" + key.replace("_", "-") for key in ignored)
        raise _UsageError(f"--preset {preset} fixes {flags}; drop them or the preset")

    def dim(key: str, preset_default: int) -> int:
        value = opts[key] if opts[key] is not None else preset_default
        return _positive_int(value, f"--{key}")

    if preset == "fig2":
        spec = synth.estimation_spec(
            lambda_star=_number(opts["lambda_star"], "--lambda-star"),
            n_series=dim("n", 10),
            length=dim("t", 10_000),
            seed=seed,
        )
    elif preset == "forecast":
        spec = synth.forecasting_spec(
            n_series=dim("n", 25),
            length=dim("t", 10_050),
            seed=seed,
        )
    elif preset is None:
        alpha = lambda_star = None
        if opts["alpha"] is not None:
            alpha = tuple(_float_list(opts["alpha"], "--alpha"))
        else:
            lambda_star = _number(opts["lambda_star"], "--lambda-star")
        spec = synth.GeneratorSpec(
            kind=opts["kind"],
            n_series=dim("n", 10),
            length=dim("t", 10_000),
            n_fundamentals=_positive_int(opts["r"], "--r"),
            ar_order=_positive_int(opts["p"], "--p"),
            lambda_star=lambda_star,
            alpha=alpha,
            sigma2=_number(opts["sigma2"], "--sigma2"),
            seed=seed,
        )
    else:
        raise _UsageError(f"unknown preset {preset!r} (choose fig2 or forecast)")

    result = synth.generate(spec)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    save_csv(result.y, os.path.join(out, "y.csv"))
    save_csv(result.f, os.path.join(out, "f.csv"))
    save_csv(result.x, os.path.join(out, "x.csv"))
    truth = {
        "alphas": [a.tolist() for a in result.alphas],
        "spec": asdict(result.spec),
    }
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1)
        fh.write("\n")
    _log(f"wrote y.csv, f.csv, x.csv, truth.json to {out}")
    return EXIT_OK


def _cmd_decompose(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "decompose")
    panel = load_csv(opts["input"], layout=_layout(opts))
    L = _parse_L(opts["L"])
    if L is None:
        L = default_L(panel.n_series, panel.length, ratio=_positive_int(opts["ratio"], "--ratio"))
    rank = _parse_rank(opts["rank"])
    _log(f"decomposing {panel.n_series} series x {panel.length} steps at L={L}")
    decomp = decompose(panel, L, rank)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    f_panel = TimePanel(panel.series_names, decomp.f_hat, t0=decomp.t0)
    x_panel = TimePanel(panel.series_names, decomp.x_hat, t0=decomp.t0)
    save_csv(f_panel, os.path.join(out, "f_hat.csv"))
    save_csv(x_panel, os.path.join(out, "x_hat.csv"))
    meta = {
        "L": decomp.L,
        "k_hat": decomp.k_hat,
        "origin": decomp.origin,
        "t0": decomp.t0,
        "balance": decomp.balance,
    }
    with open(os.path.join(out, "decompose.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    _log(f"k_hat={decomp.k_hat}, origin={decomp.origin}; wrote f_hat.csv, x_hat.csv to {out}")
    return EXIT_OK


def _cmd_fit(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "fit")
    _pipeline_config(opts)  # flag validation before any file IO
    panel = load_csv(opts["input"], layout=_layout(opts))
    config = _pipeline_config(opts, panel_length=panel.length)
    _log(f"fitting on {panel.n_series} series x {panel.length} steps")
    model = pipeline.fit(panel, config)
    pipeline.save_model(model, opts["out"])
    _log(f"L={model.L}, k_hat={model.k_hat}, p={model.p_used[0]}; wrote {opts['out']}")
    return EXIT_OK


def _cmd_forecast(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "forecast")
    steps = _positive_int(opts["steps"], "--steps")
    recursive = bool(opts["recursive"])
    if steps > 1 and not recursive:
        raise _UsageError("multi-step forecasting feeds predictions back; pass --recursive to opt in")
    model = pipeline.load_model(opts["model"])
    preds = pipeline.forecast_recursive(model, steps)
    out_panel = TimePanel(model.series_names, preds, t0=model.state.next_t[0])
    save_csv(out_panel, opts["out"])
    _log(f"wrote {steps}-step forecast for {model.n_series} series to {opts['out']}")
    return EXIT_OK


def _cmd_observe_forecast(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "observe-forecast")
    layout = _layout(opts)
    model = pipeline.load_model(opts["model"])
    test = load_csv(opts["test"], layout=layout)
    if test.series_names != model.series_names:
        raise ShapeError(
            f"test series {list(test.series_names)} do not match the model's "
            f"{list(model.series_names)}"
        )
    # Only long rows carry t; a wide file's columns start wherever the model is.
    if layout == "long" and any(t != test.t0 for t in model.state.next_t):
        raise StateError(
            f"model clock {model.state.next_t} not aligned with test window start {test.t0}"
        )
    _log(f"rolling over {test.length} steps x {test.n_series} series")
    y_hat, f_hat, x_hat = pipeline.roll(model, test.values)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    for name, data in (("y_hat", y_hat), ("f_hat", f_hat), ("x_hat", x_hat)):
        save_csv(TimePanel(test.series_names, data, t0=test.t0), os.path.join(out, f"{name}.csv"))
    if opts["save_model"]:
        pipeline.save_model(model, opts["save_model"])
    _log(f"wrote y_hat.csv, f_hat.csv, x_hat.csv to {out}")
    return EXIT_OK


def _load_truth(truth_dir: str) -> evaluation.GeneratorTruth:
    f_panel = load_csv(os.path.join(truth_dir, "f.csv"))
    x_panel = load_csv(os.path.join(truth_dir, "x.csv"))
    with open(os.path.join(truth_dir, "truth.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    alphas = tuple(np.array(a, dtype=np.float64) for a in doc["alphas"])
    return evaluation.GeneratorTruth(f=f_panel, x=x_panel, alphas=alphas)


def _write_report(report: evaluation.MetricReport, config: dict, names, out_dir: str) -> None:
    # A series with no variance has no R^2: an empty cell, null in JSON.
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "r2"])
        for name, score in zip(names, report.per_series_r2):
            writer.writerow([name, "" if score is None else repr(score)])
    summary = {
        "mean_r2": report.mean_r2,
        "per_series_r2": list(report.per_series_r2),
        "for_err": report.for_err,
        "runtime_seconds": report.runtime,
        "config": config,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def _cmd_eval(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "eval")
    min_r2 = None if opts["min_r2"] is None else _number(opts["min_r2"], "--min-r2")
    panel = load_csv(opts["input"], layout=_layout(opts))
    spec = SplitSpec(
        train_end=_positive_int(opts["train_end"], "--train-end"),
        valid_end=_positive_int(opts["valid_end"], "--valid-end"),
        test_end=_positive_int(opts["test_end"], "--test-end"),
    )
    train, valid, test = split(panel, spec)
    config = _pipeline_config(opts)
    if not isinstance(config.p, int) and config.valid_len is None:
        config = SamossaConfig(
            L=config.L, rank=config.rank, p=config.p,
            shape_ratio=config.shape_ratio, valid_len=valid.length,
        )
    fit_window = TimePanel(panel.series_names, panel.values[:, : spec.valid_end], t0=panel.t0)
    _log(f"fitting on [1, {spec.valid_end}], evaluating on ({spec.valid_end}, {spec.test_end}]")
    model = pipeline.fit(fit_window, config)
    truth = _load_truth(opts["truth_dir"]) if opts["truth_dir"] else None
    report = evaluation.rolling_eval(model, test, truth=truth)
    fitted = {"L": model.L, "k_hat": model.k_hat, "rank": str(config.rank),
              "p": list(model.p_used), "shape_ratio": config.shape_ratio}
    _write_report(report, fitted, panel.series_names, opts["out"])
    _log(f"mean R^2 = {report.mean_r2:.4f}")
    if min_r2 is not None and report.mean_r2 < min_r2:
        _fail_line("AssertionFailure", f"mean R^2 {report.mean_r2:.4f} < required {opts['min_r2']}")
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_grid(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "grid")
    panel = load_csv(opts["input"], layout=_layout(opts))
    train_end = _positive_int(opts["train_end"], "--train-end")
    valid_end = _positive_int(opts["valid_end"], "--valid-end")
    if not train_end < valid_end <= panel.length:
        raise _UsageError(f"need train-end < valid-end <= {panel.length}")
    names = panel.series_names
    train = TimePanel(names, panel.values[:, :train_end], t0=panel.t0)
    valid = TimePanel(names, panel.values[:, train_end:valid_end], t0=panel.t0 + train_end)
    ranks = tuple(_parse_rank(tok) for tok in str(opts["ranks"]).split(","))
    ratios = tuple(_int_list(opts["ratios"], "--ratios"))
    orders = tuple(_int_list(opts["ps"], "--ps"))
    grid = evaluation.default_grid(ranks=ranks, ratios=ratios, orders=orders)
    _log(f"searching {len(grid)} configurations")
    best, entries = evaluation.grid_search(train, valid, grid)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "grid.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "shape_ratio", "p", "k_hat", "mean_r2"])
        for entry in entries:
            writer.writerow([
                str(entry.config.rank), entry.config.shape_ratio, entry.config.p,
                entry.k_hat, repr(entry.mean_r2),
            ])
    best_doc = {
        "L": best.L, "rank": str(best.rank), "p": best.p, "shape_ratio": best.shape_ratio,
    }
    with open(os.path.join(out, "best.json"), "w", encoding="utf-8") as fh:
        json.dump(best_doc, fh, indent=1)
        fh.write("\n")
    _log(f"best: rank={best.rank}, ratio={best.shape_ratio}, p={best.p}")
    return EXIT_OK


def _cmd_fig2(ns: argparse.Namespace) -> int:
    opts = _resolve(ns, "fig2")
    lambda_stars = _float_list(opts["lambda_stars"], "--lambda-stars")
    nt_values = _int_list(opts["nt"], "--nt")
    seeds = _positive_int(opts["seeds"], "--seeds")
    threads = _positive_int(opts["threads"], "--threads") if opts["threads"] is not None \
        else os.cpu_count()
    report = evaluation.figure2_experiment(
        lambda_stars=lambda_stars,
        nt_values=nt_values,
        n_seeds=seeds,
        n_series=_positive_int(opts["n"], "--n"),
        rank=_parse_rank(opts["rank"]),
        p=_positive_int(opts["p"], "--p"),
        sigma2=_number(opts["sigma2"], "--sigma2"),
        base_seed=_number(opts["seed"], "--seed", int),
        threads=threads,
    )
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "fig2.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_star", "sqrt_nt", "seed", "est_err", "alpha_err"])
        for row in report.rows:
            writer.writerow([
                row.lambda_star, repr(math.sqrt(row.nt)), row.seed,
                repr(row.est_err), repr(row.alpha_err),
            ])
    summary = {
        "est_slopes": {str(k): v for k, v in report.est_slopes.items()},
        "median_est_err": {
            str(lam): {str(nt): v for nt, v in report.median_est_err(lam).items()}
            for lam in lambda_stars
        },
        "median_alpha_err": {
            str(lam): {str(nt): v for nt, v in report.median_alpha_err(lam).items()}
            for lam in lambda_stars
        },
    }
    with open(os.path.join(out, "fig2.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    _log(f"wrote fig2.csv and fig2.json to {out}; slopes: {report.est_slopes}")

    if opts["check"]:
        failures = []
        for lam in lambda_stars:
            med = report.median_est_err(lam)
            keys = sorted(med)
            if len(keys) >= 2 and med[keys[-1]] >= med[keys[0]]:
                failures.append(f"est_err did not decay for lambda_star={lam}")
            slope = report.est_slopes.get(lam)
            if slope is not None and not (-0.75 <= slope <= -0.25):
                failures.append(f"slope {slope:.3f} outside [-0.75, -0.25] for lambda_star={lam}")
        if failures:
            _fail_line("AssertionFailure", "; ".join(failures))
            return EXIT_ASSERT
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser construction


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samossa",
        description="Two-stage decomposition and forecasting for multivariate time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic panel plus ground truth")
    _add(p, "synth", "--preset", help="fig2 (estimation) or forecast (benchmark) preset")
    _add(p, "synth", "--kind", default="harmonics", help="harmonics | harmonics_trend | pure_ar")
    _add(p, "synth", "--n", help="number of series (default 10; 25 for the forecast preset)")
    _add(p, "synth", "--t", help="series length (default 10000; 10050 for the forecast preset)")
    _add(p, "synth", "--r", default=3, help="number of fundamental series")
    _add(p, "synth", "--p", default=2, help="AR order of the noise process")
    _add(p, "synth", "--lambda-star", default=0.3, help="dominant AR root modulus")
    _add(p, "synth", "--alpha", help="explicit AR coefficients (comma list), overrides --lambda-star")
    _add(p, "synth", "--sigma2", default=0.2, help="innovation variance")
    _add(p, "synth", "--seed", default=0, help="master RNG seed")
    _add(p, "synth", "-o", "--out", required=True, help="output directory")
    _add(p, "synth", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("decompose", help="estimate smooth component and residuals")
    _add(p, "decompose", "--input", required=True, help="panel CSV")
    _add(p, "decompose", "--layout", default="wide", help="wide | long")
    _add(p, "decompose", "--L", default="auto", help="segment length or 'auto'")
    _add(p, "decompose", "--ratio", default=1, help="columns/rows shape ratio for auto L")
    _add(p, "decompose", "--rank", default="energy:0.9", help="fixed:K | energy:F | universal")
    _add(p, "decompose", "-o", "--out", required=True, help="output directory")
    _add(p, "decompose", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("fit", help="fit the full model on a training panel")
    _add(p, "fit", "--input", required=True, help="panel CSV")
    _add(p, "fit", "--layout", default="wide", help="wide | long")
    _add(p, "fit", "--L", default="auto", help="segment length or 'auto'")
    _add(p, "fit", "--ratio", default=1, help="columns/rows shape ratio for auto L")
    _add(p, "fit", "--rank", default="energy:0.9", help="fixed:K | energy:F | universal")
    _add(p, "fit", "--p", default="grid", help="AR order, comma list, or 'grid'")
    _add(p, "fit", "--valid-len",
         help="trailing window used to resolve a p grid (default: 25, shrunk on short panels)")
    _add(p, "fit", "-o", "--out", required=True, help="model JSON path")
    _add(p, "fit", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("forecast", help="forecast future steps from a fitted model")
    _add(p, "forecast", "--model", required=True, help="model JSON path")
    _add(p, "forecast", "--steps", default=1, help="forecast horizon")
    _add(p, "forecast", "--recursive", flag=True,
         help="allow multi-step forecasts that feed predictions back")
    _add(p, "forecast", "-o", "--out", required=True, help="forecast CSV path")
    _add(p, "forecast", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_forecast)

    p = subs.add_parser("observe-forecast", help="rolling one-step forecasts over a test CSV")
    _add(p, "observe-forecast", "--model", required=True, help="model JSON path")
    _add(p, "observe-forecast", "--test", required=True, help="test panel CSV")
    _add(p, "observe-forecast", "--layout", default="wide", help="wide | long")
    _add(p, "observe-forecast", "-o", "--out", required=True, help="output directory")
    _add(p, "observe-forecast", "--save-model", help="write the advanced model here")
    _add(p, "observe-forecast", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_observe_forecast)

    p = subs.add_parser("eval", help="fit, roll over a test window, and report metrics")
    _add(p, "eval", "--input", required=True, help="panel CSV")
    _add(p, "eval", "--layout", default="wide", help="wide | long")
    _add(p, "eval", "--train-end", required=True, help="last training index")
    _add(p, "eval", "--valid-end", required=True, help="last validation index")
    _add(p, "eval", "--test-end", required=True, help="last test index")
    _add(p, "eval", "--L", default="auto", help="segment length or 'auto'")
    _add(p, "eval", "--ratio", default=1, help="columns/rows shape ratio for auto L")
    _add(p, "eval", "--rank", default="energy:0.9", help="fixed:K | energy:F | universal")
    _add(p, "eval", "--p", default="grid", help="AR order, comma list, or 'grid'")
    _add(p, "eval", "--valid-len", help="p-grid validation length (defaults to the validation window)")
    _add(p, "eval", "--truth-dir", help="synth output directory for conditional-mean scoring")
    _add(p, "eval", "--min-r2", help="exit 3 unless mean R^2 reaches this value")
    _add(p, "eval", "-o", "--out", required=True, help="output directory")
    _add(p, "eval", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("grid", help="exhaustive hyperparameter search on a validation window")
    _add(p, "grid", "--input", required=True, help="panel CSV")
    _add(p, "grid", "--layout", default="wide", help="wide | long")
    _add(p, "grid", "--train-end", required=True, help="last training index")
    _add(p, "grid", "--valid-end", required=True, help="last validation index")
    _add(p, "grid", "--ranks", default="universal,energy:0.9,fixed:5", help="rank rules (comma list)")
    _add(p, "grid", "--ratios", default="1,3,5", help="shape ratios (comma list)")
    _add(p, "grid", "--ps", default="0,1,2,3", help="AR orders (comma list)")
    _add(p, "grid", "-o", "--out", required=True, help="output directory")
    _add(p, "grid", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_grid)

    p = subs.add_parser("fig2", help="estimation-error rate sweep over panel size")
    _add(p, "fig2", "--lambda-stars", default="0.3,0.6,0.95", help="dominant root moduli (comma list)")
    _add(p, "fig2", "--nt", default="300,6000,180000,3000000", help="N*T sweep points (comma list)")
    _add(p, "fig2", "--seeds", default=10, help="seeds per sweep point")
    _add(p, "fig2", "--n", default=10, help="number of series")
    _add(p, "fig2", "--rank", default="fixed:6", help="rank rule for the sweep")
    _add(p, "fig2", "--p", default=2, help="AR order fitted to residuals")
    _add(p, "fig2", "--sigma2", default=0.2,
         help="innovation variance of the AR noise (the reference error levels are at 0.04)")
    _add(p, "fig2", "--seed", default=0, help="base RNG seed")
    _add(p, "fig2", "--threads", help="worker threads (default: all cores)")
    _add(p, "fig2", "--check", flag=True, help="exit 3 unless errors decay with slope in band")
    _add(p, "fig2", "-o", "--out", required=True, help="output directory")
    _add(p, "fig2", "--config", help="JSON config file (flags win over file entries)")
    p.set_defaults(func=_cmd_fig2)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return ns.func(ns)
    except _UsageError as exc:
        _fail_line("UsageError", exc)
        return EXIT_USAGE
    except SamossaError as exc:
        _fail_line(type(exc).__name__, exc)
        return EXIT_DATA
    except OSError as exc:
        _fail_line("IOError", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
