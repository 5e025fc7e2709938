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

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .ar import fit_ar
from .errors import MetricError, SamossaError, SearchError, ShapeError, StateError
from .lowrank import RankRule
from .pagemat import default_L
from .panel import TimePanel
from .pipeline import SamossaConfig, SamossaModel, fit, roll
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


def _r2_rows(pred: np.ndarray, actual: np.ndarray) -> list[float | None]:
    """R^2 of every row of ``pred`` against the same row of ``actual`` (N x H).

    This is the zero-variance rule: a row whose actual values are all equal
    has no R^2 and scores None. The test is exact equality, not SST <= 0:
    the mean of a constant window need not round back to its value
    (25 x 0.1 leaves an SST of about 5e-33).
    """
    constant = np.all(actual == actual[:, :1], axis=1)
    varying = actual[~constant]
    sst = np.sum((varying - varying.mean(axis=1, keepdims=True)) ** 2, axis=1)
    sse = np.sum((pred[~constant] - varying) ** 2, axis=1)
    scores = iter((1.0 - sse / sst).tolist())
    return [None if c else next(scores) for c in constant]


def r_squared(pred, actual) -> float:
    """Coefficient of determination: 1 - SSE/SST about the actual mean.

    Raises MetricError for a window of fewer than two points or with zero
    variance (all values equal).
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape or pred.ndim != 1:
        raise ShapeError(f"shape mismatch {pred.shape} vs {actual.shape}")
    if pred.shape[0] < 2:
        raise MetricError("need at least two points for R^2")
    (score,) = _r2_rows(pred[None], actual[None])
    if score is None:
        raise MetricError("actual values have zero variance")
    return score


@dataclass(frozen=True)
class GeneratorTruth:
    """Known generating process, for conditional-mean scoring.

    ``f`` and ``x`` are panels of the true components covering (at least)
    the evaluation window and the preceding AR order's worth of residuals;
    absolute alignment comes from their t0 fields.
    """

    f: TimePanel
    x: TimePanel
    alphas: tuple[np.ndarray, ...]


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


def for_err(predictions: np.ndarray, test: TimePanel, truth: GeneratorTruth) -> float:
    """Mean squared gap between forecasts and the one-step conditional mean.

    The target at absolute time t for series n is f_n(t) plus the AR
    conditional mean alpha_n' [x_n(t-1), ..., x_n(t-p)] evaluated on the
    true residual path.
    """
    n_series, horizon = predictions.shape
    total = 0.0
    for n in range(n_series):
        alpha = np.asarray(truth.alphas[n], dtype=np.float64)
        p = alpha.shape[0]
        for j in range(horizon):
            t = test.t0 + j
            target = truth.f.values[n, t - truth.f.t0]
            if p > 0:
                lo = t - p - truth.x.t0
                window = truth.x.values[n, lo: lo + p][::-1]
                target += float(alpha @ window)
            total += (predictions[n, j] - target) ** 2
    return total / (n_series * horizon)


def rolling_eval(model: SamossaModel, test: TimePanel,
                 truth: GeneratorTruth | None = None) -> MetricReport:
    """Rolling one-step evaluation: forecast, then reveal, for every step.

    The model must already be aligned with the start of the test window
    (fit on everything before it); fitting never recurs during the loop.
    A series whose realized values are all equal has no R^2: it scores
    None and is left out of the mean. Raises MetricError for a window
    shorter than two steps or one in which no series varies.
    """
    if test.n_series != model.n_series:
        raise ShapeError(f"{test.n_series} test series for {model.n_series}-series model")
    if any(t != test.t0 for t in model.state.next_t):
        raise StateError(
            f"model clock {model.state.next_t} not aligned with test window start {test.t0}"
        )
    if test.length < 2:
        raise MetricError("need at least two points for R^2")
    started = time.perf_counter()
    preds = roll(model, test.values)[0]
    scores = tuple(_r2_rows(preds, test.values))
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


def default_grid(ranks=None, ratios=(1, 3, 5), orders=(0, 1, 2, 3)) -> list[SamossaConfig]:
    """The standard hyperparameter lattice: rank rule x shape ratio x AR order."""
    if ranks is None:
        ranks = (RankRule.universal(), RankRule.energy(0.9), RankRule.fixed(5))
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


def _by_resolved_L(panel: TimePanel, configs) -> list[int]:
    """Indices of ``configs`` with equal resolved L adjacent, in first-seen order of L."""
    groups: dict[int | None, list[int]] = {}
    for idx, config in enumerate(configs):
        try:
            L = config.resolved_L(panel.n_series, panel.length)
        except SamossaError:
            L = None  # fails again, and is recorded, when it is fitted
        groups.setdefault(L, []).append(idx)
    return [idx for members in groups.values() for idx in members]


def _score_each(panel: TimePanel, configs, window: TimePanel,
                catch=()) -> list:
    """Fit every config on ``panel`` and score it by a rolling pass over ``window``.

    Returns, in input order, one GridEntry per config, or the exception in
    ``catch`` that stopped it. Configs are visited grouped by resolved L
    with a single live Stage1, which is dropped before the next L's is built.
    """
    results: list = [None] * len(configs)
    stage = None
    for idx in _by_resolved_L(panel, configs):
        config = configs[idx]
        try:
            L = config.resolved_L(panel.n_series, panel.length)
            if stage is None or stage.L != L:
                stage = None
                stage = Stage1(panel, L)
            model = fit(panel, config, stage1=stage)
            report = rolling_eval(model, window)
        except catch as exc:
            results[idx] = exc
            continue
        results[idx] = GridEntry(config=config, mean_r2=report.mean_r2, k_hat=model.k_hat)
    return results


def _best(entries: list[GridEntry]) -> SamossaConfig:
    """The winning config among ``entries``, which are in grid order."""
    def key(item):
        position, entry = item
        p = entry.config.p
        p_key = p if isinstance(p, int) else min(p)
        return (-entry.mean_r2, entry.k_hat, p_key, entry.config.shape_ratio, position)

    return min(enumerate(entries), key=key)[1].config


def grid_search(train: TimePanel, valid: TimePanel,
                grid) -> tuple[SamossaConfig, list[GridEntry]]:
    """Exhaustive config search scored by mean rolling R^2 on validation.

    Returns the winning config and the per-config scores, in grid order.
    Exact score ties break toward smaller k_hat, then smaller p, then
    smaller shape ratio, then input order. A config fails, and is left out
    of the scores, when it raises a SamossaError or a LinAlgError; any other
    exception propagates. Raises SearchError (with per-config failures
    attached) if no config finishes.

    Stage 1 is computed once per resolved L, not once per config: configs
    are fitted grouped by L, and every rank rule and AR order at that L
    shares one Stage1 on ``train``. Only one is alive at a time.
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


@dataclass(frozen=True)
class Fig2Report:
    rows: tuple[Fig2Row, ...]
    est_slopes: dict[float, float]

    def median_est_err(self, lambda_star: float) -> dict[int, float]:
        by_nt: dict[int, list[float]] = {}
        for row in self.rows:
            if row.lambda_star == lambda_star:
                by_nt.setdefault(row.nt, []).append(row.est_err)
        return {nt: float(np.median(v)) for nt, v in sorted(by_nt.items())}

    def median_alpha_err(self, lambda_star: float) -> dict[int, float]:
        by_nt: dict[int, list[float]] = {}
        for row in self.rows:
            if row.lambda_star == lambda_star:
                by_nt.setdefault(row.nt, []).append(row.alpha_err)
        return {nt: float(np.median(v)) for nt, v in sorted(by_nt.items())}


def _fig2_point(lambda_star: float, nt: int, seed: int, n_series: int,
                rank: RankRule, p: int, sigma2: float) -> Fig2Row:
    length = nt // n_series
    spec = estimation_spec(lambda_star, n_series=n_series, length=length, seed=seed)
    if sigma2 != spec.sigma2:
        spec = replace(spec, sigma2=sigma2)
    result = generate(spec)
    L = default_L(n_series, length)
    decomp = decompose(result.y, L, rank)
    err = est_err(decomp, result.f, n=0)
    model = fit_ar(decomp.x_hat[0], p)
    alpha_err = float(np.linalg.norm(model.alpha - result.alphas[0]))
    return Fig2Row(lambda_star=lambda_star, nt=nt, seed=seed, est_err=err, alpha_err=alpha_err)


def figure2_experiment(lambda_stars, nt_values, n_seeds: int, n_series: int = 10,
                       rank: RankRule | None = None, p: int = 2, sigma2: float = 0.2,
                       base_seed: int = 0, threads: int | None = None) -> Fig2Report:
    """Estimation-error rate sweep over panel size.

    For every (lambda_star, N*T, seed) triple: draw the harmonics + AR(2)
    panel, decompose at the default segment length, and record the
    smooth-component MSE and the AR coefficient error for series 1. Seeds
    are shared across sweep points so each trajectory sees a fixed
    generator as N*T grows. Slopes are least-squares fits of
    log(median est_err) against log(N*T).
    """
    rank = rank or RankRule.fixed(6)
    tasks = [
        (lam, nt, base_seed + s)
        for lam in lambda_stars
        for nt in nt_values
        for s in range(n_seeds)
    ]
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(
                pool.map(lambda args: _fig2_point(*args, n_series, rank, p, sigma2), tasks)
            )
    else:
        rows = [_fig2_point(*args, n_series, rank, p, sigma2) for args in tasks]
    rows.sort(key=lambda r: (r.lambda_star, r.nt, r.seed))

    draft = Fig2Report(rows=tuple(rows), est_slopes={})
    slopes = {}
    for lam in lambda_stars:
        med = draft.median_est_err(lam)
        if len(med) >= 2:
            xs = np.log(np.array(list(med.keys()), dtype=np.float64))
            ys = np.log(np.array(list(med.values()), dtype=np.float64))
            slopes[lam] = float(np.polyfit(xs, ys, 1)[0])
    return Fig2Report(rows=draft.rows, est_slopes=slopes)


def ar_identification_experiment(lambda_star: float, t_values, n_seeds: int,
                                 p: int = 2, sigma2: float = 0.2,
                                 base_seed: int = 0) -> tuple[list[tuple[int, int, float]], float]:
    """Coefficient recovery on clean AR data as the sample grows.

    Returns (T, seed, squared error) rows and the slope of
    log(median error^2) against log T.
    """
    rows = []
    for t_len in t_values:
        for s in range(n_seeds):
            spec = GeneratorSpec(
                kind="pure_ar", n_series=1, length=int(t_len), ar_order=p,
                lambda_star=lambda_star, sigma2=sigma2, seed=base_seed + s,
            )
            result = generate(spec)
            model = fit_ar(result.x.values[0], p)
            err2 = float(np.sum((model.alpha - result.alphas[0]) ** 2))
            rows.append((int(t_len), base_seed + s, err2))
    medians = {}
    for t_len, _, err2 in rows:
        medians.setdefault(t_len, []).append(err2)
    xs = np.log(np.array(sorted(medians), dtype=np.float64))
    ys = np.log(np.array([np.median(medians[t]) for t in sorted(medians)]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


def forecast_benchmark_run(seed: int, n_series: int = 25, train_len: int = 10_000,
                           valid_len: int = 25, test_len: int = 25,
                           grid=None) -> tuple[float, float]:
    """One seed of the synthetic forecasting benchmark.

    Draws the harmonics-plus-trend panel with AR(1) noise, grid-searches
    hyperparameters on the validation window, refits the winner on
    train+validation, and scores mean rolling R^2 over the test window.
    Returns (full model score, ablation score) where the ablation restricts
    the grid to AR order 0.
    """
    total = train_len + valid_len + test_len
    result = generate(forecasting_spec(n_series=n_series, length=total, seed=seed))
    grid = list(grid) if grid is not None else default_grid()

    names = result.y.series_names
    values = result.y.values
    train = TimePanel(names, values[:, :train_len], t0=1)
    valid = TimePanel(names, values[:, train_len:train_len + valid_len], t0=train_len + 1)
    fit_window = TimePanel(names, values[:, :train_len + valid_len], t0=1)
    test = TimePanel(names, values[:, train_len + valid_len:], t0=train_len + valid_len + 1)

    best, entries = grid_search(train, valid, grid)
    # The ablation's configs were all scored by the search above; rank them
    # with the same key instead of searching again.
    ablation = [e for e in entries if e.config.p == 0]
    if not ablation:
        raise SearchError("no order-0 configuration in the grid finished")
    full, order0 = _score_each(fit_window, [best, _best(ablation)], test)
    return full.mean_r2, order0.mean_r2
