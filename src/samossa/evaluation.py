"""Metrics, rolling one-step evaluation, grid search, and rate sweeps.

The rolling protocol: the model is fitted once, then for every test step it
forecasts all series, the realized values are revealed, and the clock
advances. Scores are per-series R^2 against the realized values; when the
generating process is known, the out-of-sample error against the one-step
conditional mean is reported as well. This module holds the one rolling
scorer and the one ranking: ``grid_search`` and the p-grid order selection
in ``pipeline.fit`` both go through ``_score_each`` and ``_best``.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .ar import fit_ar
from .errors import (ConfigError, MetricError, SamossaError, SearchError, ShapeError, SpecError,
                     StateError, _float_array, _integer, _mean_square)
from .lowrank import RankRule
from .pagemat import default_L
from .panel import TimePanel
from .pipeline import P_GRID_DEFAULT, SamossaConfig, SamossaModel, _ar_dots, _assemble, roll
from .ssa_estimator import Stage1, decompose, est_err
from .synth import GeneratorSpec, estimation_spec, forecasting_spec, generate

__all__ = [
    "MetricReport",
    "GeneratorTruth",
    "r_squared",
    "for_err",
    "rolling_eval",
    "grid_search",
    "default_grid",
    "figure2_experiment",
    "ar_identification_experiment",
    "forecast_benchmark_run",
    "Fig2Row",
    "Fig2Report",
]


def _r2_rows(pred: np.ndarray, actual: np.ndarray, names=None) -> list[float | None]:
    """R^2 of every row of ``pred`` against the same row of ``actual`` (N x H).

    This is the two-point rule: fewer than two columns raise MetricError.
    It is the zero-variance rule: a row whose actual values are all equal
    has no R^2 and scores None. The test is exact equality, not SST <= 0:
    the mean of a constant window need not round back to its value
    (25 x 0.1 leaves an SST of about 5e-33). Both rows are scaled by 2^-e,
    e the exponent of the row's largest |actual|, which is exact and keeps
    squares of values near 1e-300 or 1e300 in range. A row that varies but
    whose SST is not a positive finite number (it holds a NaN or an inf) or
    whose SSE is not finite (the forecasts overflow on that scale) raises
    MetricError naming the series: ``names[row]``, or the row index.
    """
    if actual.shape[1] < 2:
        raise MetricError("need at least two points for R^2")
    scale = -np.frexp(np.abs(actual).max(axis=1, keepdims=True))[1]
    with np.errstate(over="ignore"):  # an overflow is reported below, by series
        pred, actual = np.ldexp(pred, scale), np.ldexp(actual, scale)
        constant = np.all(actual == actual[:, :1], axis=1)
        varying = actual[~constant]
        sst = np.sum((varying - varying.mean(axis=1, keepdims=True)) ** 2, axis=1)
        sse = np.sum((pred[~constant] - varying) ** 2, axis=1)
    unusable = ~(np.isfinite(sst) & (sst > 0.0) & np.isfinite(sse))
    if unusable.any():
        first = int(np.argmax(unusable))
        row = int(np.flatnonzero(~constant)[first])
        raise MetricError(
            f"R^2 undefined for series {row if names is None else names[row]!r}: its values "
            f"vary but their sum of squares about the mean is {float(sst[first])!r} "
            f"(scaled; its squared forecast errors sum to {float(sse[first])!r})")
    scores = iter((1.0 - sse / sst).tolist())
    return [None if c else next(scores) for c in constant]


def r_squared(pred, actual) -> float:
    """Coefficient of determination: 1 - SSE/SST about the actual mean.

    Raises MetricError for a window of fewer than two points, with zero
    variance (all values equal), or whose SST is not a positive finite number;
    ShapeError unless both are vectors of one length of integers or floats.
    """
    pred = _float_array(pred, "predictions", ShapeError)
    actual = _float_array(actual, "actual values", ShapeError)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ShapeError(f"shape mismatch {pred.shape} vs {actual.shape}")
    (score,) = _r2_rows(pred[None], actual[None])
    if score is None:
        raise MetricError("actual values have zero variance")
    return score


@dataclass(frozen=True)
class GeneratorTruth:
    """Known generating process, for conditional-mean scoring.

    ``f`` and ``x`` are panels of the true components covering (at least)
    the evaluation window and the preceding AR order's worth of residuals;
    absolute alignment comes from their t0 fields. ``alphas`` is a list or
    tuple of one coefficient vector per series, checked on construction
    (ShapeError unless each is a 1-D vector of integers or floats) and
    stored as a tuple of read-only float arrays.
    """

    f: TimePanel
    x: TimePanel
    alphas: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.alphas, (list, tuple)):
            raise ShapeError(f"truth alphas must be a list or tuple of vectors, "
                             f"got {type(self.alphas).__name__}")
        alphas = []
        for n, alpha in enumerate(self.alphas):
            alpha = _float_array(alpha, f"truth alphas[{n}]", ShapeError).copy()
            if alpha.ndim != 1:
                raise ShapeError(f"truth alphas[{n}] must be a vector, got shape {alpha.shape}")
            alpha.setflags(write=False)
            alphas.append(alpha)
        object.__setattr__(self, "alphas", tuple(alphas))


@dataclass(frozen=True)
class MetricReport:
    """Scores of one rolling evaluation.

    ``per_series_r2`` holds None for a series with zero variance over the
    window; ``mean_r2`` is the mean over the other series.
    """

    per_series_r2: tuple[float | None, ...]
    mean_r2: float
    for_err: float | None
    runtime: float
    predictions: np.ndarray | None = None


def _truth_windows(truth: GeneratorTruth, test: TimePanel,
                   horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The truth's f values over ``horizon`` forecasts from ``test.t0``, and its x
    values from the largest AR order's p steps before them up to their last but one.

    ShapeError for no forecasts, or unless ``truth`` has one f row, x row and AR
    model per series of ``test``, f and x name those series in that order, and
    both cover their windows. Everything it reads is known before a fit.
    """
    names, t0 = test.series_names, test.t0
    if {truth.f.n_series, truth.x.n_series, len(truth.alphas)} != {len(names)} or not horizon:
        raise ShapeError(f"{len(names)} x {horizon} forecasts against a truth of "
                         f"{truth.f.n_series} f series, {truth.x.n_series} x series and "
                         f"{len(truth.alphas)} AR models")
    for what, panel in (("f", truth.f), ("x", truth.x)):
        if panel.series_names != names:
            raise ShapeError(f"truth {what} series {list(panel.series_names)} do not match "
                             f"the forecast series {list(names)}")
    p = max(map(len, truth.alphas), default=0)
    return (truth.f.values_at(t0, t0 + horizon, "truth f", "scoring"),
            truth.x.values_at(t0 - p, t0 + horizon - 1, "truth x", "scoring"))


def for_err(predictions: np.ndarray, test: TimePanel, truth: GeneratorTruth) -> float:
    """Mean squared gap between forecasts and the one-step conditional mean.

    The target at absolute time t for series n is f_n(t) plus the AR
    conditional mean alpha_n' [x_n(t-1), ..., x_n(t-p)] evaluated on the
    true residual path. ``predictions`` is a 2-D array of numbers with one
    row per series of ``test`` and one column per step from ``test.t0``;
    ShapeError otherwise, and wherever ``truth`` does not match them (see
    ``_truth_windows``). MetricError if the mean is not finite.
    """
    predictions = _float_array(predictions, "predictions", ShapeError)
    if predictions.ndim != 2:
        raise ShapeError(f"forecasts must be a 2-D array, got shape {predictions.shape}")
    n_series, horizon = predictions.shape
    if n_series != test.n_series:
        raise ShapeError(f"{n_series} x {horizon} forecasts for {test.n_series} test series")
    f, x = _truth_windows(truth, test, horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean raises below
        target = f + _ar_dots(truth.alphas, x[:, ::-1], horizon)
        err = float(_mean_square(predictions - target))
    if not np.isfinite(err):
        raise MetricError(f"for_err is undefined: the mean squared gap is {err!r}")
    return err


def _check_window(model: SamossaModel, test: TimePanel, clock: bool = True) -> None:
    """ShapeError unless ``test`` holds the model's series in its order; with
    ``clock``, StateError unless ``test`` starts at every series' next time."""
    if test.series_names != model.series_names:
        raise ShapeError(f"test series {list(test.series_names)} do not match the model's "
                         f"{list(model.series_names)}")
    if clock and any(t != test.t0 for t in model.state.next_t):
        raise StateError(f"model clock {model.state.next_t} not aligned with "
                         f"test window start {test.t0}")


def rolling_eval(model: SamossaModel, test: TimePanel,
                 truth: GeneratorTruth | None = None) -> MetricReport:
    """Rolling one-step evaluation: forecast, then reveal, for every step.

    The model must already be aligned with the start of the test window
    (fit on everything before it); fitting never recurs during the loop.
    A series whose realized values are all equal has no R^2: it scores
    None and is left out of the mean. Raises MetricError, after the model
    has rolled over the window, for a window shorter than two steps or one
    in which no series varies.
    """
    _check_window(model, test)
    started = time.perf_counter()
    preds = roll(model, test.values)[0]
    scores = tuple(_r2_rows(preds, test.values, test.series_names))
    varying = [score for score in scores if score is not None]
    if not varying:
        raise MetricError("R^2 is undefined: no series varies over the window")
    fe = for_err(preds, test, truth) if truth is not None else None
    return MetricReport(
        per_series_r2=scores,
        mean_r2=float(np.mean(varying)),
        for_err=fe,
        runtime=time.perf_counter() - started,
        predictions=preds,
    )


RANK_GRID_DEFAULT = (RankRule.universal(), RankRule.energy(0.9), RankRule.fixed(5))
RATIO_GRID_DEFAULT = (1, 3, 5)


def default_grid(ranks=RANK_GRID_DEFAULT, ratios=RATIO_GRID_DEFAULT,
                 orders=P_GRID_DEFAULT) -> list[SamossaConfig]:
    """The standard hyperparameter lattice: rank rule x shape ratio x AR order."""
    return [
        SamossaConfig(L=None, rank=rank, p=p, shape_ratio=ratio)
        for rank, ratio, p in itertools.product(ranks, ratios, orders)
    ]


@dataclass(frozen=True)
class GridEntry:
    config: SamossaConfig
    mean_r2: float
    k_hat: int


# What makes one grid configuration fail without stopping the search; any
# other exception is a bug and propagates.
_CONFIG_ERRORS = (SamossaError, np.linalg.LinAlgError)


@functools.cache
def _blas_threads_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None where it cannot be found.

    Opened on first use, not on import. The symbol is looked up through
    numpy's core extension, whose dependencies include the BLAS it loaded.
    """
    try:
        from numpy._core import _multiarray_umath
        getter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def _workers() -> int:
    """How many jobs :func:`_run_jobs` runs at once: usable cores // BLAS threads, at least 1.

    The BLAS thread count is read, never set: OpenBLAS keeps one count for
    the whole process, so pinning it from a worker would change the
    caller's threads, and its SVD bits, too. Where the count cannot be
    read the answer is 1. Concurrent SVDs pay only at one BLAS thread per
    core; at the default count each SVD already fills the cores.
    """
    getter = _blas_threads_getter()
    threads = getter() if getter is not None else 0
    if threads < 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // threads)


def _run_jobs(jobs) -> list:
    """Each of ``jobs`` called with a stop event on min(len(jobs), W) threads; the results in order.

    The package's one job runner, with W from :func:`_workers`: at W = 1 the
    jobs run in order on one thread. Every job runs under a copy of the
    caller's context (its ``np.errstate`` included). A job that raises sets
    the stop event before its error is read; a job that starts after that
    returns None at once, and one that finds the event set may return
    early: the call then raises, so no early result is returned. The first
    error in ``jobs`` order propagates, after the queued jobs are cancelled
    and the running ones joined: no thread outlives the call.
    """
    stop = threading.Event()

    def run(job):
        if stop.is_set():
            return None
        try:
            return job(stop)
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=max(1, min(len(jobs), _workers())))
    try:
        futures = [pool.submit(contextvars.copy_context().run, run, job) for job in jobs]
        return [future.result() for future in futures]
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


def _score_L(panel: TimePanel, L: int, configs, members, window: TimePanel, catch,
             stop: threading.Event) -> dict | None:
    """One worker job: stages 1 and 2 of the configs whose indices are ``members``, all at L.

    Keeps one Stage1 for the whole job and groups the configs by (spectrum,
    k_hat); per group it solves the lag model, makes the decomposition, fits
    and rolls each distinct AR order once over ``window``, and drops the
    decomposition. Returns {config index: GridEntry or the error in ``catch``
    that stopped it}, or None once ``stop`` is set: it starts no group after that.
    """
    try:
        stage = Stage1(panel, L)
    except catch as exc:
        return dict.fromkeys(members, exc)
    results: dict = {}
    twins: dict[tuple[int, int], list[int]] = {}  # (spectrum id, k_hat) -> config indices
    for idx in members:
        rule = configs[idx].rank
        try:
            twins.setdefault((id(stage.spectrum(rule)), stage.rank(rule)), []).append(idx)
        except catch as exc:
            results[idx] = exc
    for (_, k_hat), twin in twins.items():
        if stop.is_set():
            return None
        try:
            beta_model = stage.beta(k_hat)
        except catch as exc:
            results.update(dict.fromkeys(twin, exc))
            continue
        decomp = stage.decompose(configs[twin[0]].rank)
        scores: dict = {}  # p -> mean R^2 or caught error
        for idx in twin:
            p = configs[idx].p
            if p not in scores:
                try:
                    model = _assemble(panel, configs[idx], p, decomp, beta_model)
                    scores[p] = rolling_eval(model, window).mean_r2
                except catch as exc:
                    scores[p] = exc
            results[idx] = (scores[p] if isinstance(scores[p], Exception) else
                            GridEntry(config=configs[idx], mean_r2=scores[p], k_hat=k_hat))
        del decomp  # at most one decomposition alive per worker: none outlives its group
    return results


def _score_each(panel: TimePanel, configs, window: TimePanel,
                catch=()) -> list:
    """Fit every config, one AR order each, on ``panel`` and score it over ``window``.

    Returns, in input order, one GridEntry per config, or the exception in
    ``catch`` that stopped it, whichever thread raised it; any other
    exception propagates, with the queued work cancelled, no job starting a
    stage after it, and every worker joined. A config whose p is a grid
    fails with a ConfigError: only ``pipeline.fit`` turns a grid into an order.

    The unit of work is one Page matrix. The calling thread resolves each
    config's L and submits one job per distinct L, in first-seen order, to
    :func:`_run_jobs`, which sizes the pool. Each job (``_score_L``) keeps
    its L's Stage1 until its last group is scored, and makes and drops one
    group's decomposition at a time (the factorisations release the GIL).
    So at most one Stage1 and one decomposition are alive per worker. Twin
    configs, such as two rules that pick the same k_hat off one spectrum,
    share its scores and errors. Each step does the arithmetic of a serial
    fit, so every score is bit-identical to ``rolling_eval(fit(...))``,
    whatever the number of workers.
    """
    results: dict = {}  # config index -> GridEntry or caught error
    groups: dict[int, list[int]] = {}  # L -> config indices
    for idx, config in enumerate(configs):
        try:
            L = config.resolved_L(panel.n_series, panel.length)
            if not isinstance(config.p, int):
                raise ConfigError(f"a searched config takes one AR order, got the p grid "
                                  f"{config.p}; give each order its own config")
        except catch as exc:
            results[idx] = exc
        else:
            groups.setdefault(L, []).append(idx)

    jobs = [functools.partial(_score_L, panel, L, configs, members, window, catch)
            for L, members in groups.items()]
    for done in _run_jobs(jobs):
        results.update(done)
    return [results[idx] for idx in range(len(configs))]


def _best(entries: list[GridEntry]) -> SamossaConfig:
    """The winning config among ``entries``, which are in grid order."""
    def key(item):
        position, entry = item
        return (-entry.mean_r2, entry.k_hat, entry.config.p, entry.config.shape_ratio, position)

    return min(enumerate(entries), key=key)[1].config


def grid_search(train: TimePanel, valid: TimePanel,
                grid) -> tuple[SamossaConfig, list[GridEntry]]:
    """Exhaustive config search scored by mean rolling R^2 on validation.

    Returns the winning config and the per-config scores, in grid order.
    Exact score ties break toward smaller k_hat, then smaller p, then
    smaller shape ratio, then input order. A config fails, and is left out
    of the scores, when it raises a SamossaError or a LinAlgError (a config
    whose p is a grid is a ConfigError: expand orders into configs as
    :func:`default_grid` does); any other exception propagates. Raises
    SearchError (with per-config failures attached) if no config finishes.

    Stage 1 is computed once per resolved L, not once per config: every
    rank rule and AR order at that L shares one Stage1 on ``train``, kept
    for that L's one job (see ``_score_each``). Stage 2 runs once per
    distinct decomposition and AR order: configs whose rules pick the same
    k_hat off the same spectrum share one decomposition and each score.
    Scores are bit-identical to fitting each config alone, whatever the
    number of workers; a failing config's error is handled the same on any
    thread, and an exception that propagates leaves no thread running.
    """
    grid = list(grid)
    if not grid:
        raise SearchError("empty grid")
    results = _score_each(train, grid, valid, catch=_CONFIG_ERRORS)
    entries = [r for r in results if isinstance(r, GridEntry)]
    if not entries:
        raise SearchError("every grid configuration failed", failures=list(zip(grid, results)))
    return _best(entries), entries


# ---------------------------------------------------------------------------
# Experiment drivers


@dataclass(frozen=True)
class Fig2Row:
    lambda_star: float
    nt: int
    seed: int
    est_err: float
    alpha_err: float


def _medians(pairs) -> dict:
    """Median value per key of (key, value) pairs, keys ascending."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: float(np.median(values)) for key, values in sorted(groups.items())}


def _loglog_slope(medians: dict) -> float:
    """Least-squares slope of log(median) against log(key)."""
    xs = np.log(np.array(list(medians), dtype=np.float64))
    ys = np.log(np.array(list(medians.values()), dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass(frozen=True)
class Fig2Report:
    """The sweep's rows, and per lambda_star its slope and its medians by N*T (N*T ascending)."""

    rows: tuple[Fig2Row, ...]
    est_slopes: dict[float, float]
    median_est_err: dict[float, dict[int, float]]
    median_alpha_err: dict[float, dict[int, float]]


def _seeds(n_seeds, base_seed) -> range:
    """``n_seeds`` seeds from ``base_seed``; SpecError unless the count is an integer >= 1
    and the first seed one >= 0."""
    base_seed = _integer(base_seed, "base seed", 0, SpecError)
    return range(base_seed, base_seed + _integer(n_seeds, "seed count", 1, SpecError))


def _fig2_point(lambda_star: float, nt: int, seed: int, n_series: int,
                rank: RankRule, p: int, sigma2: float) -> Fig2Row:
    length = nt // n_series
    spec = estimation_spec(lambda_star, n_series=n_series, length=length, seed=seed)
    result = generate(replace(spec, sigma2=sigma2))
    L = default_L(n_series, length)
    decomp = decompose(result.y, L, rank)
    err = est_err(decomp, result.f, n=0)
    fitted, truth = fit_ar(decomp.x_hat[0], p).alpha, result.alphas[0]
    order = max(fitted.size, truth.size)  # an AR(p) is an AR(q > p) with trailing zeros
    alpha_err = float(np.linalg.norm(np.pad(fitted, (0, order - fitted.size))
                                     - np.pad(truth, (0, order - truth.size))))
    return Fig2Row(lambda_star=lambda_star, nt=nt, seed=seed, est_err=err, alpha_err=alpha_err)


def figure2_experiment(lambda_stars, nt_values, n_seeds: int, n_series: int = 10,
                       rank: RankRule = RankRule.fixed(6), p: int = 2, sigma2: float = 0.2,
                       base_seed: int = 0) -> Fig2Report:
    """Estimation-error rate sweep over panel size.

    For every (lambda_star, N*T, seed) triple: draw the harmonics + AR(2)
    panel, decompose at the default segment length, and record the
    smooth-component MSE and the AR coefficient error for series 1 (of the
    fitted AR(p) against the true AR(2), the shorter padded with zeros).
    Seeds are shared across sweep points so each trajectory sees a fixed
    generator as N*T grows. Slopes are least-squares fits of
    log(median est_err) against log(N*T).

    SpecError unless every count is an integer >= 1 and ``base_seed`` one
    >= 0. Each point is one job of :func:`_run_jobs`, so its rows, sorted,
    and its errors are a serial sweep's at any number of workers.
    """
    n_series = _integer(n_series, "series count", 1, SpecError)
    nt_values = [_integer(nt, "N*T", 1, SpecError) for nt in nt_values]
    points = itertools.product(lambda_stars, nt_values, _seeds(n_seeds, base_seed))
    jobs = [lambda stop, point=point: _fig2_point(*point, n_series, rank, p, sigma2)
            for point in points]
    rows = tuple(sorted(_run_jobs(jobs), key=lambda r: (r.lambda_star, r.nt, r.seed)))
    medians = {name: {lam: _medians((r.nt, getattr(r, name)) for r in rows if r.lambda_star == lam)
                      for lam in lambda_stars}
               for name in ("est_err", "alpha_err")}
    return Fig2Report(
        rows=rows,
        est_slopes={lam: _loglog_slope(med) for lam, med in medians["est_err"].items()
                    if len(med) >= 2},
        median_est_err=medians["est_err"], median_alpha_err=medians["alpha_err"])


def ar_identification_experiment(lambda_star: float, t_values, n_seeds: int,
                                 p: int = 2, sigma2: float = 0.2,
                                 base_seed: int = 0) -> tuple[list[tuple[int, int, float]], float]:
    """Coefficient recovery on clean AR data as the sample grows.

    Returns (T, seed, squared error) rows and the slope of
    log(median error^2) against log T. SpecError unless every count is an
    integer >= 1 and ``base_seed`` one >= 0; MetricError for fewer than two
    distinct T values.
    """
    seeds = _seeds(n_seeds, base_seed)
    t_values = [_integer(t_len, "T", 1, SpecError) for t_len in t_values]
    if len(set(t_values)) < 2:
        raise MetricError(f"need at least two distinct T values for a slope, got {t_values}")
    rows = []
    for t_len in t_values:
        for seed in seeds:
            spec = GeneratorSpec(
                kind="pure_ar", n_series=1, length=t_len, ar_order=p,
                lambda_star=lambda_star, sigma2=sigma2, seed=seed,
            )
            result = generate(spec)
            model = fit_ar(result.x.values[0], p)
            err2 = float(np.sum((model.alpha - result.alphas[0]) ** 2))
            rows.append((t_len, seed, err2))
    return rows, _loglog_slope(_medians((t_len, err2) for t_len, _, err2 in rows))


def forecast_benchmark_run(seed: int, n_series: int = 25, train_len: int = 10_000,
                           valid_len: int = 25, test_len: int = 25) -> tuple[float, float]:
    """One seed of the synthetic forecasting benchmark.

    Draws the harmonics-plus-trend panel with AR(1) noise, searches
    :func:`default_grid` on the validation window, refits the winner on
    train+validation, and scores mean rolling R^2 over the test window.
    Returns (full model score, ablation score) where the ablation restricts
    the grid to AR order 0.
    """
    total = train_len + valid_len + test_len
    result = generate(forecasting_spec(n_series=n_series, length=total, seed=seed))

    y, head = result.y, train_len + valid_len
    train, valid = y.window(0, train_len), y.window(train_len, head)
    fit_window, test = y.window(0, head), y.window(head, total)

    best, entries = grid_search(train, valid, default_grid())
    # The ablation's configs were all scored by the search above; rank them
    # with the same key instead of searching again.
    ablation = _best([e for e in entries if e.config.p == 0])
    full, order0 = _score_each(fit_window, [best, ablation], test)
    return full.mean_r2, order0.mean_r2
