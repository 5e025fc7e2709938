"""Command-line interface.

One executable, eight subcommands: synth, decompose, fit, forecast,
observe-forecast, eval, grid, fig2. Exit codes: 0 success, 1 usage error,
2 data error, 3 failed acceptance assertion. Every option can also be
supplied through a JSON config file (``--config``) keyed by option name;
explicit flags win over the file, the file wins over built-in defaults, and
every value is checked before any other file is read. All randomness flows
from ``--seed``; there are no wall-clock defaults, so identical inputs give
byte-identical outputs, except ``runtime_seconds`` in ``eval``'s report.json,
which is the measured wall-clock time of the rolling evaluation.

Errors are reported as a single machine-parsable line on stderr:
``samossa: error: <Kind>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable

from . import evaluation, pipeline, synth
from .errors import ParseError, RankError, SamossaError
from .lowrank import RankRule
from .panel import SplitSpec, TimePanel, load_csv, save_csv, split, write_json, write_rows
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


def _log_capped(rule: RankRule, k_hat: int) -> None:
    """Say so when ``fixed:K`` kept fewer than K values, as ``select_rank`` caps K at the
    number of positive singular values."""
    if rule.kind == "fixed" and k_hat < rule.k:
        _log(f"rank {rule} capped at k_hat={k_hat}: the Page matrix has no more positive "
             f"singular values")


def _fail_line(kind: str, detail) -> None:
    detail = str(detail).replace("\n", " ")
    print(f"samossa: error: {kind}: {detail}", file=sys.stderr)


# --------------------------------------------------------------------------
# Converters. Each takes a flag's text or a config file's JSON value and
# returns the typed value, or raises ValueError saying what the value must be
# (the caller prefixes the flag).


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _number(kind, low=None):
    """Converter to an int or a finite float, at least ``low`` if given.

    It parses ``str(value)``, so a JSON true or 2.5 is no integer.
    """
    def convert(value):
        try:
            number = kind(str(value))
        except ValueError:
            raise ValueError(f"must be {'an integer' if kind is int else 'a number'}, "
                             f"got {value!r}") from None
        if kind is float and not math.isfinite(number):
            raise ValueError(f"must be finite, got {value!r}")
        if low is not None and number < low:
            raise ValueError(f"must be >= {low}, got {value!r}")
        return number
    return convert


def _choice(*choices: str):
    def convert(value) -> str:
        if value not in choices:
            raise ValueError(f"must be {' or '.join(choices)}, got {value!r}")
        return value
    return convert


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _list(item):
    """A comma list of ``item`` values; a single JSON number is a one-item list."""
    def convert(value) -> tuple:
        tokens = value.split(",") if isinstance(value, str) else [value]
        try:
            return tuple(item(token) for token in tokens)
        except ValueError as exc:
            raise ValueError(f"item {exc}") from None
    return convert


def _rank(value) -> RankRule:
    try:
        return RankRule.parse(value)
    except RankError:
        raise ValueError(f"must be fixed:K (K >= 1), energy:F (0 < F <= 1) or universal, "
                         f"got {value!r}") from None


def _segment(value) -> int | None:
    return None if value == "auto" else _number(int, 1)(value)


def _orders(value) -> tuple[int, ...]:
    """The orders as a p grid; ``SamossaConfig`` stores a one-entry grid as its order."""
    if value == "grid":
        return pipeline.P_GRID_DEFAULT
    try:
        return _list(_number(int, 0))(value)
    except ValueError:
        raise ValueError(f"must be an order >= 0, a comma list of them, or 'grid'; "
                         f"got {value!r}") from None


# --------------------------------------------------------------------------
# Option declarations. argparse keeps every default at None, so that
# _resolve can tell a flag from a config entry; the real default is here.


@dataclass(frozen=True)
class Option:
    """One option: its flags, converter, help and default.

    The last flag, without dashes and with '-' as '_', is the config-file
    key. A default of None means "not set" and is passed on as None.
    """

    flags: tuple[str, ...]
    convert: Callable
    help: str
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Command:
    """A subcommand: what it runs on the typed options, its help, its options."""

    run: Callable
    help: str
    options: tuple[Option, ...]


_CONFIG = Option(("--config",), _text, "JSON config file (flags win over file entries)")
_OUT = Option(("-o", "--out"), _text, "output directory", required=True)
_MODEL = Option(("--model",), _text, "model JSON path", required=True)
_LAYOUT = Option(("--layout",), _choice("wide", "long"), "wide | long", default="wide")
_PANEL = (Option(("--input",), _text, "panel CSV", required=True), _LAYOUT)
_SHAPE = (
    Option(("--L",), _segment, "segment length or 'auto'", default="auto"),
    Option(("--ratio",), _number(int, 1), "columns/rows shape ratio for auto L",
           default=SamossaConfig().shape_ratio),
    Option(("--rank",), _rank, "fixed:K | energy:F | universal",
           default=str(SamossaConfig().rank)),
)
_SPLIT = (
    Option(("--train-end",), _number(int, 1), "last training index", required=True),
    Option(("--valid-end",), _number(int, 1), "last validation index", required=True),
    Option(("--test-end",), _number(int, 1), "last test index", required=True),
)
_N = Option(("--n",), _number(int, 1), "number of series")
_P = Option(("--p",), _number(int, 1), "AR order of the noise process", default=2)
_SIGMA2 = Option(("--sigma2",), _number(float), "innovation variance", default=0.2)
_SEED = Option(("--seed",), _number(int, 0), "master RNG seed", default=0)
_ORDERS = Option(("--p",), _orders, "AR order, comma list, or 'grid'", default="grid")
_VALID_LEN = Option(("--valid-len",), _number(int, 1),
                    "p-grid validation length (defaults to the validation window)")


def _read_config(path: str) -> dict:
    """The JSON object in ``path``; each key must name an option of some subcommand."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    known = {option.dest for command in COMMANDS.values() for option in command.options}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise _UsageError(f"config file {path}: no subcommand has an option {', '.join(unknown)}")
    return doc


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Typed values of the command's options: flag > config file entry > default.

    Every value is converted here, before the command reads any file, and a
    value its option rejects ends as one usage error naming the flag. A
    config entry of null counts as absent. ``given`` names the options set
    by a flag or the config file.
    """
    file_values = _read_config(ns.config) if ns.config is not None else {}
    opts = argparse.Namespace(given=set())
    for option in COMMANDS[ns.command].options:
        value = getattr(ns, option.dest)
        if value is None:
            value = file_values.get(option.dest)
        if value is None:
            value = option.default
        else:
            opts.given.add(option.dest)
        try:
            setattr(opts, option.dest, None if value is None else option.convert(value))
        except ValueError as exc:
            raise _UsageError(f"{option.flags[-1]} {exc}") from None
    return opts


def _pipeline_config(opts: argparse.Namespace, grid_window: int | None = None) -> SamossaConfig:
    """The fit options as a config; without --valid-len a p grid uses ``grid_window``, if given."""
    config = SamossaConfig(L=opts.L, rank=opts.rank, p=opts.p, shape_ratio=opts.ratio,
                           valid_len=opts.valid_len)
    if grid_window is not None and not isinstance(config.p, int) and config.valid_len is None:
        config = replace(config, valid_len=grid_window)
    return config


# --------------------------------------------------------------------------
# Subcommands


# Generator options each preset fixes itself; giving one is a usage error.
_PRESET_FIXED = {
    "fig2": ("kind", "r", "p", "alpha", "sigma2"),
    "forecast": ("kind", "r", "p", "alpha", "sigma2", "lambda_star"),
}


def _cmd_synth(opts: argparse.Namespace) -> int:
    preset = opts.preset
    fixed = [option.flags[-1] for option in COMMANDS["synth"].options
             if option.dest in opts.given and option.dest in _PRESET_FIXED.get(preset, ())]
    if fixed:
        raise _UsageError(f"--preset {preset} fixes {', '.join(fixed)}; drop them or the preset")
    # The panel sizes the user gave; synth owns the defaults.
    sizes = {key: value for key, value in (("n_series", opts.n), ("length", opts.t))
             if value is not None}
    if preset == "fig2":
        spec = synth.estimation_spec(lambda_star=opts.lambda_star, seed=opts.seed, **sizes)
    elif preset == "forecast":
        spec = synth.forecasting_spec(seed=opts.seed, **sizes)
    else:
        spec = synth.GeneratorSpec(
            kind=opts.kind,
            **sizes,
            n_fundamentals=opts.r,
            ar_order=opts.p,
            lambda_star=opts.lambda_star,
            alpha=opts.alpha,
            sigma2=opts.sigma2,
            seed=opts.seed,
        )

    result = synth.generate(spec)
    os.makedirs(opts.out, exist_ok=True)
    save_csv(result.y, os.path.join(opts.out, "y.csv"))
    save_csv(result.f, os.path.join(opts.out, "f.csv"))
    save_csv(result.x, os.path.join(opts.out, "x.csv"))
    truth = {
        "alphas": [a.tolist() for a in result.alphas],
        "spec": asdict(result.spec),
    }
    write_json(os.path.join(opts.out, "truth.json"), truth)
    _log(f"wrote y.csv, f.csv, x.csv, truth.json to {opts.out}")
    return EXIT_OK


def _cmd_decompose(opts: argparse.Namespace) -> int:
    config = SamossaConfig(L=opts.L, rank=opts.rank, shape_ratio=opts.ratio)
    panel = load_csv(opts.input, layout=opts.layout)
    L = config.resolved_L(panel.n_series, panel.length)
    _log(f"decomposing {panel.n_series} series x {panel.length} steps at L={L}")
    decomp = decompose(panel, L, opts.rank)
    _log_capped(opts.rank, decomp.k_hat)
    os.makedirs(opts.out, exist_ok=True)
    for name, data in (("f_hat", decomp.f_hat), ("x_hat", decomp.x_hat)):
        save_csv(TimePanel(panel.series_names, data, t0=decomp.t0),
                 os.path.join(opts.out, f"{name}.csv"))
    meta = {
        "L": decomp.L,
        "k_hat": decomp.k_hat,
        "origin": decomp.origin,
        "t0": decomp.t0,
        "balance": decomp.balance,
    }
    write_json(os.path.join(opts.out, "decompose.json"), meta)
    _log(f"k_hat={decomp.k_hat}, origin={decomp.origin}; wrote f_hat.csv, x_hat.csv to {opts.out}")
    return EXIT_OK


def _cmd_fit(opts: argparse.Namespace) -> int:
    panel = load_csv(opts.input, layout=opts.layout)
    _log(f"fitting on {panel.n_series} series x {panel.length} steps")
    model = pipeline.fit(panel, _pipeline_config(opts))
    _log_capped(opts.rank, model.k_hat)
    pipeline.save_model(model, opts.out)
    _log(f"L={model.L}, k_hat={model.k_hat}, p={model.p_used[0]}; wrote {opts.out}")
    return EXIT_OK


def _cmd_forecast(opts: argparse.Namespace) -> int:
    if opts.steps > 1 and not opts.recursive:
        raise _UsageError("multi-step forecasting feeds predictions back; "
                          "pass --recursive to opt in")
    model = pipeline.load_model(opts.model)
    preds = pipeline.forecast_recursive(model, opts.steps)
    out_panel = TimePanel(model.series_names, preds, t0=model.state.next_t[0])
    save_csv(out_panel, opts.out)
    _log(f"wrote {opts.steps}-step forecast for {model.n_series} series to {opts.out}")
    return EXIT_OK


def _cmd_observe_forecast(opts: argparse.Namespace) -> int:
    model = pipeline.load_model(opts.model)
    test = load_csv(opts.test, layout=opts.layout)
    # Only long rows carry t; a wide file's columns start wherever the model is.
    evaluation._check_window(model, test, clock=opts.layout == "long")
    _log(f"rolling over {test.length} steps x {test.n_series} series")
    y_hat, f_hat, x_hat = pipeline.roll(model, test.values)
    os.makedirs(opts.out, exist_ok=True)
    for name, data in (("y_hat", y_hat), ("f_hat", f_hat), ("x_hat", x_hat)):
        save_csv(TimePanel(test.series_names, data, t0=test.t0),
                 os.path.join(opts.out, f"{name}.csv"))
    if opts.save_model:
        pipeline.save_model(model, opts.save_model)
    _log(f"wrote y_hat.csv, f_hat.csv, x_hat.csv to {opts.out}")
    return EXIT_OK


def _load_truth(truth_dir: str) -> evaluation.GeneratorTruth:
    """The synth ground truth in ``truth_dir``; a malformed truth.json raises ParseError."""
    f_panel = load_csv(os.path.join(truth_dir, "f.csv"))
    x_panel = load_csv(os.path.join(truth_dir, "x.csv"))
    path = os.path.join(truth_dir, "truth.json")
    try:  # the model file's rule: one list of finite JSON numbers per series
        with open(path, encoding="utf-8") as fh:
            alphas = pipeline._entries(json.load(fh)["alphas"], f_panel.n_series, "alphas")
        alphas = tuple(pipeline._vector(a, len(a) if isinstance(a, list) else 1, f"alphas[{n}]")
                       for n, a in enumerate(alphas))
    except (ValueError, KeyError, TypeError) as exc:  # ValueError: not UTF-8 or JSON, a bad entry
        raise ParseError(f"{path}: cannot read 'alphas' ({type(exc).__name__}: {exc})") from None
    return evaluation.GeneratorTruth(f=f_panel, x=x_panel, alphas=alphas)


def _write_report(report: evaluation.MetricReport, config: dict, names, out_dir: str) -> None:
    # A series with no variance has no R^2: an empty cell, null in JSON.
    os.makedirs(out_dir, exist_ok=True)
    write_rows(os.path.join(out_dir, "report.csv"), ("series", "r2"),
               zip(names, report.per_series_r2))
    summary = {
        "mean_r2": report.mean_r2,
        "per_series_r2": list(report.per_series_r2),
        "for_err": report.for_err,
        "runtime_seconds": report.runtime,
        "config": config,
    }
    write_json(os.path.join(out_dir, "report.json"), summary)


def _cmd_eval(opts: argparse.Namespace) -> int:
    panel = load_csv(opts.input, layout=opts.layout)
    spec = SplitSpec(opts.train_end, opts.valid_end, opts.test_end)
    _, valid, test = split(panel, spec)
    truth = _load_truth(opts.truth_dir) if opts.truth_dir else None
    if truth is not None:  # a truth that cannot score the test window fails before the fit
        evaluation._truth_windows(truth, test, test.length)
    config = _pipeline_config(opts, grid_window=valid.length)
    fit_window = panel.window(0, spec.valid_end)
    _log(f"fitting on [1, {spec.valid_end}], evaluating on ({spec.valid_end}, {spec.test_end}]")
    model = pipeline.fit(fit_window, config)
    _log_capped(opts.rank, model.k_hat)
    report = evaluation.rolling_eval(model, test, truth=truth)
    fitted = {"L": model.L, "k_hat": model.k_hat, "rank": str(config.rank),
              "p": list(model.p_used), "shape_ratio": config.shape_ratio}
    _write_report(report, fitted, panel.series_names, opts.out)
    _log(f"mean R^2 = {report.mean_r2:.4f}")
    if opts.min_r2 is not None and report.mean_r2 < opts.min_r2:
        _fail_line("AssertionFailure", f"mean R^2 {report.mean_r2:.4f} < required {opts.min_r2}")
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_grid(opts: argparse.Namespace) -> int:
    panel = load_csv(opts.input, layout=opts.layout)
    train, valid, _ = split(panel, SplitSpec(opts.train_end, opts.valid_end, opts.valid_end))
    grid = evaluation.default_grid(ranks=opts.ranks, ratios=opts.ratios, orders=opts.ps)
    _log(f"searching {len(grid)} configurations")
    best, entries = evaluation.grid_search(train, valid, grid)
    os.makedirs(opts.out, exist_ok=True)
    write_rows(os.path.join(opts.out, "grid.csv"), ("rank", "shape_ratio", "p", "k_hat", "mean_r2"),
               ((str(e.config.rank), e.config.shape_ratio, e.config.p, e.k_hat, e.mean_r2)
                for e in entries))
    best_doc = {
        "L": best.L, "rank": str(best.rank), "p": best.p, "shape_ratio": best.shape_ratio,
    }
    write_json(os.path.join(opts.out, "best.json"), best_doc)
    _log(f"best: rank={best.rank}, ratio={best.shape_ratio}, p={best.p}")
    return EXIT_OK


def _cmd_fig2(opts: argparse.Namespace) -> int:
    if opts.check and len(set(opts.nt)) < 2:
        raise _UsageError(f"--check fits a slope, so it needs two distinct --nt values, "
                          f"got {','.join(map(str, opts.nt))}")
    report = evaluation.figure2_experiment(
        lambda_stars=opts.lambda_stars,
        nt_values=opts.nt,
        n_seeds=opts.seeds,
        n_series=opts.n,
        rank=opts.rank,
        p=opts.p,
        sigma2=opts.sigma2,
        base_seed=opts.seed,
    )
    os.makedirs(opts.out, exist_ok=True)
    write_rows(os.path.join(opts.out, "fig2.csv"),
               ("lambda_star", "sqrt_nt", "seed", "est_err", "alpha_err"),
               ((r.lambda_star, math.sqrt(r.nt), r.seed, r.est_err, r.alpha_err)
                for r in report.rows))
    summary = {  # json writes each float or int key as its str()
        "est_slopes": report.est_slopes,
        "median_est_err": report.median_est_err,
        "median_alpha_err": report.median_alpha_err,
    }
    write_json(os.path.join(opts.out, "fig2.json"), summary)
    _log(f"wrote fig2.csv and fig2.json to {opts.out}; slopes: {report.est_slopes}")

    if opts.check:
        failures = []
        for lam, med in report.median_est_err.items():
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


def _command(run, help: str, *options: Option) -> Command:
    return Command(run, help, (*options, _CONFIG))


# Per subcommand, in --help order. Defaults and help differ between
# subcommands only where the option's meaning does.
COMMANDS = {
    "synth": _command(
        _cmd_synth, "generate a synthetic panel plus ground truth",
        Option(("--preset",), _choice("fig2", "forecast"),
               "fig2 (estimation) or forecast (benchmark) preset"),
        Option(("--kind",), _text, "harmonics | harmonics_trend | pure_ar", default="harmonics"),
        replace(_N, help="number of series (default 10; 25 for the forecast preset)"),
        Option(("--t",), _number(int, 1),
               "series length (default 10000; 10050 for the forecast preset)"),
        Option(("--r",), _number(int, 1), "number of fundamental series", default=3),
        _P,
        Option(("--lambda-star",), _number(float), "dominant AR root modulus", default=0.3),
        Option(("--alpha",), _list(_number(float)),
               "explicit AR coefficients (comma list), overrides --lambda-star"),
        _SIGMA2,
        _SEED,
        _OUT,
    ),
    "decompose": _command(
        _cmd_decompose, "estimate smooth component and residuals",
        *_PANEL, *_SHAPE, _OUT,
    ),
    "fit": _command(
        _cmd_fit, "fit the full model on a training panel",
        *_PANEL, *_SHAPE, _ORDERS,
        replace(_VALID_LEN, help="trailing window used to resolve a p grid "
                                 "(default: 25, shrunk on short panels)"),
        replace(_OUT, help="model JSON path"),
    ),
    "forecast": _command(
        _cmd_forecast, "forecast future steps from a fitted model",
        _MODEL,
        Option(("--steps",), _number(int, 1), "forecast horizon", default=1),
        Option(("--recursive",), _switch, "allow multi-step forecasts that feed predictions back"),
        replace(_OUT, help="forecast CSV path"),
    ),
    "observe-forecast": _command(
        _cmd_observe_forecast, "rolling one-step forecasts over a test CSV",
        _MODEL,
        Option(("--test",), _text, "test panel CSV", required=True),
        _LAYOUT,
        _OUT,
        Option(("--save-model",), _text, "write the advanced model here"),
    ),
    "eval": _command(
        _cmd_eval, "fit, roll over a test window, and report metrics",
        *_PANEL, *_SPLIT, *_SHAPE, _ORDERS, _VALID_LEN,
        Option(("--truth-dir",), _text, "synth output directory for conditional-mean scoring"),
        Option(("--min-r2",), _number(float), "exit 3 unless mean R^2 reaches this value"),
        _OUT,
    ),
    "grid": _command(
        _cmd_grid, "exhaustive hyperparameter search on a validation window",
        *_PANEL, *_SPLIT[:2],
        Option(("--ranks",), _list(_rank), "rank rules (comma list)",
               default=",".join(map(str, evaluation.RANK_GRID_DEFAULT))),
        Option(("--ratios",), _list(_number(int, 1)), "shape ratios (comma list)",
               default=",".join(map(str, evaluation.RATIO_GRID_DEFAULT))),
        Option(("--ps",), _list(_number(int, 0)), "AR orders (comma list)",
               default=",".join(map(str, pipeline.P_GRID_DEFAULT))),
        _OUT,
    ),
    "fig2": _command(
        _cmd_fig2, "estimation-error rate sweep over panel size",
        Option(("--lambda-stars",), _list(_number(float)), "dominant root moduli (comma list)",
               default="0.3,0.6,0.95"),
        Option(("--nt",), _list(_number(int, 1)), "N*T sweep points (comma list)",
               default="300,6000,180000,3000000"),
        Option(("--seeds",), _number(int, 1), "seeds per sweep point", default=10),
        replace(_N, default=10),
        Option(("--rank",), _rank, "rank rule for the sweep", default="fixed:6"),
        replace(_P, help="AR order fitted to residuals"),
        replace(_SIGMA2, help="innovation variance of the AR noise "
                              "(the reference error levels are at 0.04)"),
        replace(_SEED, help="base RNG seed"),
        Option(("--check",), _switch, "exit 3 unless errors decay with slope in band"),
        _OUT,
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose own errors (an unknown flag, a missing
    required flag, a bad subcommand) end as one usage-error line, not a
    usage block; its subcommand parsers are of the same class. A float or
    a comma list of floats is a value, never a flag (no flag looks like a
    number); argparse alone would read ``--min-r2 -1e9`` as a flag.
    """

    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        try:
            for item in arg_string.split(","):
                float(item)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="samossa",
        description="Two-stage decomposition and forecasting for multivariate time series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for option in command.options:
            switch = {"action": "store_const", "const": True} if option.convert is _switch else {}
            sub.add_argument(*option.flags, dest=option.dest, required=option.required,
                             help=option.help, **switch)
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return COMMANDS[ns.command].run(_resolve(ns))
    except SystemExit as exc:  # --help; the parser's errors raise _UsageError
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except _UsageError as exc:
        _fail_line("UsageError", exc)
        return EXIT_USAGE
    except SamossaError as exc:
        _fail_line(type(exc).__name__, exc)
        return EXIT_DATA
    except OSError as exc:
        _fail_line("IOError", exc)
        return EXIT_DATA
    except MemoryError as exc:
        _fail_line("MemoryError", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
