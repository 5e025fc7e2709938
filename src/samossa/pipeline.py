"""End-to-end model: fit, step-ahead forecasting protocol, persistence.

Fitting runs the two stages in order: low-rank decomposition of the stacked
Page matrix, then a lag regression for the smooth component and one AR fit
per series on the residuals. Stage 1 (the decomposition and the lag
regression) depends only on the panel and L, so it is computed once per
(panel, L) and shared by every candidate AR order. Stage 2 (``_assemble``)
reads nothing of stage 1 but the decomposition and the lag model, which is
what lets the grid scorer run it on a helper thread. The fitted model carries
its forecast state as two blocks, one most-recent-first row per series: the
last L-1 observations (N x (L-1)) and the last residuals (N x max p, where
series n uses its first p_n columns and the rest stay exactly 0).
``forecast_step`` (pure) predicts a series' next time index; ``observe``
feeds back the realized value, shifts it and its after-the-fact residual
estimate into the series' rows, and advances the clock.

``roll`` runs that protocol over a window of realized values for every
series at once: with the realized values fed back, every forecast in the
window depends only on known data, so it takes a few numpy calls. A
forecast is ``np.vecdot`` over contiguous most-recent-first rows, the AR
part per group of equal order over its first p columns, so a padded cell
never enters a dot. So ``roll`` is bit-identical to H rounds of
``forecast_step`` then ``observe``, outputs and state, and every rolling
loop in the package (order selection, ``rolling_eval``, the CLI's
``observe-forecast``) goes through it. ``forecast_recursive`` and
``evaluation.for_err`` share its lag dots, not the call.

Persistence is a versioned JSON document; floats survive round-trips
bit-exactly (shortest round-trip decimal encoding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ar import ArModel, fit_ar_rows
from .errors import (
    ConfigError,
    IngestError,
    NonStationaryError,
    ParseError,
    PersistError,
    SamossaError,
    ShapeError,
    StateError,
    _float_array,
    _integer,
    _is_real,
)
from .linear_forecaster import BetaModel
from .lowrank import RankRule
from .pagemat import default_L
from .panel import TimePanel, _series_names, write_json
from .ssa_estimator import Decomposition, Stage1

__all__ = [
    "SamossaConfig",
    "SamossaModel",
    "fit",
    "forecast_step",
    "observe",
    "roll",
    "forecast_recursive",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1

P_GRID_DEFAULT = (0, 1, 2, 3)


@dataclass(frozen=True)
class SamossaConfig:
    """Fitting configuration.

    ``L`` of None means floor(sqrt(N*T/shape_ratio)). ``p`` is either a
    fixed shared AR order or a grid of candidate orders, which :func:`fit`
    resolves on the last ``valid_len`` observations (None: its default).

    Fields are checked on construction (ConfigError): ``L`` None or an
    integer >= 2, ``rank`` a :class:`RankRule`, ``p`` an integer >= 0 or a
    non-empty list or tuple of them, ``shape_ratio`` an integer >= 1,
    ``valid_len`` None or an integer >= 2. Numpy integers convert to int;
    booleans are refused. A fit has one spelling: an order is stored as an
    int (``[2]`` and ``[2, 2]`` as 2), a grid as a sorted tuple of distinct
    orders (``(2, 1, 1)`` as ``(1, 2)``), and a field the fit does not read
    as its default (``valid_len`` beside an order, ``shape_ratio`` beside L).
    """

    L: int | None = None
    rank: RankRule = field(default_factory=lambda: RankRule.energy(0.9))
    p: int | tuple[int, ...] = P_GRID_DEFAULT
    shape_ratio: int = 1
    valid_len: int | None = None

    def __post_init__(self):
        if not isinstance(self.rank, RankRule):
            raise ConfigError(f"rank must be a RankRule, got {self.rank!r}")
        if isinstance(self.p, (list, tuple)):
            if not self.p:
                raise ConfigError("p must not be an empty grid")
            p = tuple(sorted({_integer(q, "p grid entry", 0, ConfigError) for q in self.p}))
        else:
            p = (_integer(self.p, "p", 0, ConfigError),)
        checked = {
            "L": None if self.L is None else _integer(self.L, "L", 2, ConfigError),
            "p": p[0] if len(p) == 1 else p,  # one order, one spelling
            "shape_ratio": _integer(self.shape_ratio, "shape_ratio", 1, ConfigError),
            "valid_len": (None if self.valid_len is None
                          else _integer(self.valid_len, "valid_len", 2, ConfigError)),
        }
        if len(p) == 1:  # only a p grid reads a validation window
            checked["valid_len"] = None
        if checked["L"] is not None:  # only an automatic L reads the shape ratio
            checked["shape_ratio"] = 1
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def resolved_L(self, n_series: int, length: int) -> int:
        if self.L is not None:
            return self.L
        return default_L(n_series, length, ratio=self.shape_ratio)


@dataclass
class _State:
    """Forecasting state: C-contiguous blocks, one most-recent-first row per series.

    ``obs_lags`` is N x (L-1); ``resid_lags`` is N x max(p_used), where series n
    uses its first ``p_used[n]`` columns and the rest stay exactly 0.
    """

    obs_lags: np.ndarray
    resid_lags: np.ndarray
    next_t: list[int]
    pending_f: dict[int, float] = field(default_factory=dict)


@dataclass
class SamossaModel:
    """A fitted two-stage model and its forecast state; its coefficients own L, k_hat, p_used."""

    beta_model: BetaModel
    ar_models: tuple[ArModel, ...]
    config: SamossaConfig
    series_names: tuple[str, ...]
    state: _State

    @property
    def n_series(self) -> int:
        return len(self.ar_models)

    @property
    def L(self) -> int:
        return self.beta_model.L

    @property
    def k_hat(self) -> int:
        return self.beta_model.k_hat

    @property
    def p_used(self) -> tuple[int, ...]:
        return tuple(m.p for m in self.ar_models)


def _assemble(panel: TimePanel, config: SamossaConfig, p: int, decomp: Decomposition,
              beta_model: BetaModel) -> SamossaModel:
    """Stage 2 and the forecast state: ``fit_ar_rows(x_hat, p)`` on ``decomp``'s residuals.

    One batched fit of every series, for every order, 0 included. Reads
    nothing of stage 1 but ``decomp`` and ``beta_model`` (which owns L), so it
    may run on another thread than the one that computed them.
    """
    return SamossaModel(
        beta_model=beta_model,
        ar_models=fit_ar_rows(decomp.x_hat, p),
        config=config,
        series_names=panel.series_names,
        state=_State(
            obs_lags=panel.values[:, -(beta_model.L - 1):][:, ::-1].copy(),
            resid_lags=decomp.x_hat[:, decomp.t_eff - p:decomp.t_eff][:, ::-1].copy(),
            next_t=[panel.t0 + panel.length] * panel.n_series,
        ),
    )


def _order(panel: TimePanel, config: SamossaConfig) -> int:
    """The AR order to fit: ``config.p``, or the winner of its grid.

    Order selection is one more grid search, of one single-order config per
    grid entry: each is fitted on the head with one shared stage 1 and
    scored on the trailing valid_len observations by the search's rolling
    R^2 and ranking, so ties go to the smaller order. The head's stage 1 is
    released on return.
    """
    if isinstance(config.p, int):
        return config.p
    from .evaluation import _best, _score_each  # evaluation imports this module

    v = config.valid_len
    if v >= panel.length:
        raise ConfigError(f"valid_len={v} unusable for panel of length {panel.length}")
    head, tail = panel.window(0, panel.length - v), panel.window(panel.length - v, panel.length)
    return _best(_score_each(head, [replace(config, p=p) for p in config.p], tail)).p


def fit(panel: TimePanel, config: SamossaConfig | None = None) -> SamossaModel:
    """Fit the full pipeline on a training panel.

    With a grid-valued ``config.p``, the candidate orders are searched like
    any grid: each is scored by mean one-step rolling R^2 over the trailing
    ``config.valid_len`` observations, with the same zero-variance rule and
    ranking as :func:`~samossa.evaluation.grid_search` (ties go to the
    smaller order), and the winner is refit on the entire panel. Without
    ``valid_len`` a grid uses min(25, max(2, T // 10)) for a panel of
    length T, and the model's config records it.

    The fit selects the order, then runs stage 1 (decomposition, then the
    lag model) and stage 2 (the AR fits) on the calling thread. A p grid's
    order selection is a grid search on the head (see
    :func:`~samossa.evaluation.grid_search`): every candidate shares one
    decomposition there, so the selection is one helper-thread job that
    fits and rolls each candidate order; one more :class:`Stage1` on the
    whole panel serves the final fit. The model is bit-identical to a
    serial fit.
    """
    config = config or SamossaConfig()
    if not isinstance(config.p, int) and config.valid_len is None:
        config = replace(config, valid_len=min(25, max(2, panel.length // 10)))
    L = config.resolved_L(panel.n_series, panel.length)
    p = _order(panel, config)
    stage = Stage1(panel, L)
    decomp = stage.decompose(config.rank)
    return _assemble(panel, config, p, decomp, stage.beta(decomp.k_hat))


def _series(model: SamossaModel, n) -> int:
    n = _integer(n, "series index", 0, StateError)
    if n >= model.n_series:
        raise StateError(f"series index must be an integer in 0..{model.n_series - 1}, got {n!r}")
    return n


def _check_state(model: SamossaModel) -> None:
    state = model.state
    if state.obs_lags.shape != (model.n_series, model.L - 1):
        raise StateError("forecast state not initialized")
    if state.resid_lags.shape != (model.n_series, max(model.p_used, default=0)):
        raise StateError("residual lags do not match the AR orders")


def forecast_step(model: SamossaModel, n: int) -> tuple[float, float, float]:
    """Forecast (y_hat, f_hat, x_hat) for series n at its next time index.

    Pure with respect to the lag buffers and the clock; it only records the
    pending smooth-component forecast that ``observe`` needs to form the
    residual. Repeated calls before the matching ``observe`` recompute the
    same values. StateError for a bad series index or state.
    """
    n = _series(model, n)
    _check_state(model)
    state = model.state
    f_hat = float(np.vecdot(state.obs_lags[n], model.beta_model.beta))
    alpha = model.ar_models[n].alpha
    x_hat = float(np.vecdot(state.resid_lags[n, :len(alpha)], alpha))
    state.pending_f[n] = f_hat
    return f_hat + x_hat, f_hat, x_hat


def observe(model: SamossaModel, n: int, y: float) -> SamossaModel:
    """Feed back the realized value for the step last forecast on series n.

    Shifts y and the after-observation residual y - f_hat (f_hat from the
    pending forecast) into the series' lag rows and advances its clock.
    Raises StateError unless a ``forecast_step`` for this series is pending,
    and IngestError unless y is a finite real number; either way the state,
    pending forecast included, is left untouched.
    """
    state = model.state
    n = _series(model, n)
    if n not in state.pending_f:
        raise StateError(f"observe for series {n} at t={state.next_t[n]} has no pending forecast")
    try:
        y = _real(y, "y")
    except ValueError as exc:
        raise IngestError(f"observation for series {n} at t={state.next_t[n]}: {exc}") from None
    f_hat = state.pending_f.pop(n)
    p = model.ar_models[n].p
    for lags, value in ((state.obs_lags[n], y), (state.resid_lags[n, :p], y - f_hat)):
        if lags.size:
            lags[1:] = lags[:-1]
            lags[0] = value
    state.next_t[n] += 1
    return model


def _lagged_dots(history: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``coef`` dotted with every window of ``w`` consecutive lags in ``history``.

    ``history`` holds each row's values newest-first, ``H - 1 + w`` of them
    for ``w`` coefficients (one vector, or rows x w) and H steps; column j of
    the (rows x H) result uses ``history[:, H-1-j : H-1-j+w]``, so the columns
    run oldest step to newest. Every window is a contiguous row, so
    ``np.vecdot`` reduces it exactly as ``forecast_step`` reduces one row.
    """
    windows = sliding_window_view(history, coef.shape[-1], axis=1)[:, ::-1]
    if coef.ndim == 2:
        coef = coef[:, None, :]
    return np.vecdot(windows, coef)


def _ar_dots(alphas, history: np.ndarray, H: int) -> np.ndarray:
    """(rows x H) AR forecasts: row n's ``alphas[n]`` over its newest-first ``history`` row.

    Each group of equal order p reads only its first H-1+p columns, so
    columns past a row's order (the zero padding) never enter a dot.
    """
    orders = [len(alpha) for alpha in alphas]
    x_hat = np.zeros((len(orders), H))
    for p in set(orders) - {0}:
        rows = [n for n, q in enumerate(orders) if q == p]
        x_hat[rows] = _lagged_dots(history[rows, :H - 1 + p], np.array([alphas[n] for n in rows]))
    return x_hat


def roll(model: SamossaModel, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rolling one-step forecasts over a window of realized values.

    ``values`` is N x H: column j holds every series' value at its next
    time index plus j. Returns (y_hat, f_hat, x_hat), each N x H, and
    advances the model exactly as H rounds of ``forecast_step`` then
    ``observe`` on every series would, bit for bit, with no forecast left
    pending. Fails closed: ShapeError for a wrong number of series,
    StateError for uninitialized state, and IngestError for values that
    ``observe`` rejects too (anything but integers and floats) or naming the
    first non-finite value's series and time; the model is untouched on error.
    """
    values = _float_array(values, "values", IngestError)
    state = model.state
    if values.ndim != 2 or values.shape[0] != model.n_series:
        raise ShapeError(f"values of shape {values.shape} for a {model.n_series}-series model")
    _check_state(model)
    bad = np.argwhere(~np.isfinite(values.T))
    if bad.size:
        j, n = bad[0]
        raise IngestError(
            f"non-finite observation {float(values[n, j])!r} for series {n} "
            f"at t={state.next_t[n] + j}"
        )
    H = values.shape[1]
    if H == 0:
        return values.copy(), values.copy(), values.copy()

    # Newest-first histories: the window reversed, then the lag blocks.
    z = np.concatenate([values[:, ::-1], state.obs_lags], axis=1)
    f_hat = _lagged_dots(z[:, 1:], model.beta_model.beta)
    zx = np.concatenate([(values - f_hat)[:, ::-1], state.resid_lags], axis=1)
    x_hat = _ar_dots([m.alpha for m in model.ar_models], zx[:, 1:], H)
    state.obs_lags = z[:, :model.L - 1].copy()
    p_max = state.resid_lags.shape[1]
    state.resid_lags = np.where(np.arange(p_max) < np.array(model.p_used)[:, None],
                                zx[:, :p_max], 0.0)
    state.next_t = [t + H for t in state.next_t]
    state.pending_f = {}
    return f_hat + x_hat, f_hat, x_hat


def forecast_recursive(model: SamossaModel, steps: int) -> np.ndarray:
    """Multi-step forecast feeding predictions back as observations.

    Returns an N x steps array; the model is left untouched. This is the
    flagged alternative to the default rolling one-step protocol and is
    excluded from the acceptance checks. ConfigError unless ``steps`` is an
    integer >= 0; NonStationaryError, naming the step and series, once a
    forecast leaves the finite range (a diverging recurrence). Each step
    takes ``roll``'s lag dots on local copies of the blocks and feeds back
    y_hat and y_hat - f_hat, as ``roll`` would with y_hat as the realized values.
    """
    steps = _integer(steps, "steps", 0, ConfigError)
    _check_state(model)
    state, beta, alphas = model.state, model.beta_model.beta, [m.alpha for m in model.ar_models]
    # Newest-first blocks with a free column per step in front; step j writes column c - 1.
    obs, resid = (np.concatenate([np.empty((model.n_series, steps)), block], axis=1)
                  for block in (state.obs_lags, state.resid_lags))
    out = np.empty((model.n_series, steps))
    for j, c in enumerate(range(steps, 0, -1)):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, per series
            f_hat = _lagged_dots(obs[:, c:c + model.L - 1], beta)[:, 0]
            y_hat = out[:, j] = f_hat + _ar_dots(alphas, resid[:, c:], 1)[:, 0]
            obs[:, c - 1], resid[:, c - 1] = y_hat, y_hat - f_hat
        bad = np.flatnonzero(~np.isfinite(y_hat))
        if bad.size:
            n = int(bad[0])
            raise NonStationaryError(
                f"recursive forecast left the finite range at step {j + 1} "
                f"(t={state.next_t[n] + j}) for series {n}: {float(y_hat[n])!r}")
    return out


def save_model(model: SamossaModel, path) -> None:
    """Write a fitted model (including forecast state) to a JSON file.

    :func:`~samossa.panel.write_json` encodes the document before it opens
    ``path``, so a model that cannot be encoded raises and leaves an existing
    file untouched.
    """
    doc = {
        "version": FORMAT_VERSION,
        "config": {**vars(model.config), "rank": str(model.config.rank)},  # a p grid as a list
        "L": model.L,
        "k_hat": model.k_hat,
        "p_used": list(model.p_used),
        "series_names": list(model.series_names),
        "beta": model.beta_model.beta.tolist(),
        "beta_resid_rms": model.beta_model.resid_rms,
        "ar": [
            {
                "alpha": m.alpha.tolist(),
                "p": m.p,
                "noise_var": m.noise_var_hat,
                "rank_deficient": m.rank_deficient,
            }
            for m in model.ar_models
        ],
        "state": {
            "obs_lags": model.state.obs_lags.tolist(),
            "resid_lags": [r[:p].tolist() for r, p in zip(model.state.resid_lags, model.p_used)],
            "next_t": list(model.state.next_t),
            "pending_f": {str(k): v for k, v in model.state.pending_f.items()},
        },
    }
    write_json(path, doc)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _real(value, what: str) -> float:
    if not _is_real(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _entries(value, length: int, what: str) -> list:
    if not isinstance(value, list) or len(value) != length:
        size = len(value) if isinstance(value, list) else type(value).__name__
        raise ValueError(f"{what} must be a list of {length} entries, got {size}")
    return value


def _vector(value, length: int, what: str) -> np.ndarray:
    """A list of exactly ``length`` finite numbers, as a float64 array, checked as one array."""
    entries = _entries(value, length, what)
    numbers_only = {type(v) for v in entries} <= {int, float}  # JSON true and false are bool
    array = np.array(entries, dtype=np.float64) if numbers_only else None
    if array is None or not np.isfinite(array).all():
        for i, v in enumerate(entries):  # name the first entry that is not a finite number
            _real(v, f"{what}[{i}]")
    return array


def _model_from_doc(doc: dict) -> SamossaModel:
    # Every count and length is checked against N (the number of series)
    # and L, so that ragged or short state never reaches the forecasters.
    L = _integer(doc["L"], "L", 2)
    names = doc["series_names"]
    if not isinstance(names, list):
        raise ValueError("series_names must be a list of strings")
    names = _series_names(names, ParseError)
    N = len(names)
    p_used = tuple(_integer(p, "p_used entry", 0) for p in _entries(doc["p_used"], N, "p_used"))
    ar_models = []
    for n, m in enumerate(_entries(doc["ar"], N, "ar")):
        if _integer(m["p"], f"ar[{n}].p", 0) != p_used[n]:
            raise ValueError(f"ar[{n}].p = {m['p']} but p_used[{n}] = {p_used[n]}")
        ar_models.append(ArModel(
            alpha=_vector(m["alpha"], p_used[n], f"ar[{n}].alpha"),
            noise_var_hat=_real(m["noise_var"], f"ar[{n}].noise_var"),
            rank_deficient=m.get("rank_deficient", False),
        ))
    beta_model = BetaModel(
        beta=_vector(doc["beta"], L - 1, "beta"),
        k_hat=doc["k_hat"],
        resid_rms=_real(doc["beta_resid_rms"], "beta_resid_rms"),
    )
    state_doc = doc["state"]
    pending_f = {}
    for key, value in state_doc["pending_f"].items():
        n = int(key)
        if not 0 <= n < N:
            raise ValueError(f"pending forecast for series {n} of {N}")
        pending_f[n] = _real(value, f"pending_f[{key}]")
    obs_lags, resid_lags = np.zeros((N, L - 1)), np.zeros((N, max(p_used, default=0)))
    for n, a in enumerate(_entries(state_doc["obs_lags"], N, "obs_lags")):
        obs_lags[n] = _vector(a, L - 1, f"obs_lags[{n}]")
    for n, a in enumerate(_entries(state_doc["resid_lags"], N, "resid_lags")):
        resid_lags[n, :p_used[n]] = _vector(a, p_used[n], f"resid_lags[{n}]")
    state = _State(
        obs_lags, resid_lags,
        next_t=[_integer(t, "next_t entry") for t in _entries(state_doc["next_t"], N, "next_t")],
        pending_f=pending_f,
    )
    config = doc["config"]
    return SamossaModel(
        beta_model=beta_model,
        ar_models=tuple(ar_models),
        config=SamossaConfig(L=config["L"], rank=RankRule.parse(config["rank"]), p=config["p"],
                             shape_ratio=config["shape_ratio"], valid_len=config["valid_len"]),
        series_names=names,
        state=state,
    )


def load_model(path) -> SamossaModel:
    """Load a model saved by :func:`save_model`.

    Raises PersistError for an unsupported version and ParseError for a
    malformed, truncated or inconsistent file: a missing field, a
    non-finite number (``NaN``/``Infinity`` tokens included), a list with
    the wrong number of series, or a lag buffer whose length is not L-1
    (observations) or the series' AR order (residuals).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, NaN/Infinity
        raise ParseError(f"malformed model file {path}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise ParseError(f"model file {path} has no version field")
    if doc["version"] != FORMAT_VERSION:
        raise PersistError(
            f"unsupported model format version {doc['version']!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise ParseError(f"model file {path} is missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError, SamossaError) as exc:
        raise ParseError(f"model file {path} is invalid: {exc}") from exc
