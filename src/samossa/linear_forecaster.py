"""Linear forecaster for the smooth component.

The last row of a low-rank Page matrix is a fixed linear combination of the
rows above it. This module learns that combination by regressing the raw
last-row entries on the rank-truncated top L-1 rows, and applies it to
lagged raw observations to forecast one step ahead.

The regression is the minimum-norm solve on the top k_hat singular triplets
of the top L-1 rows (Golub & Van Loan 5.5), read in closed form by
:func:`solve_beta` from any factorisation of those rows that holds them, as
:meth:`~samossa.lowrank.PageSvds.top_rows` picks: the head of the rank-one
downdate of the whole Page matrix's Gram spectrum, read off the top roots
of its secular equation, where that head is certified at k_hat; else an SVD
(dense, or a top-k head) of the top rows themselves. Right vectors are
computed on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (FitError, RankError, ShapeError, _float_array, _integer, _is_real,
                     _mean_square)
from .lowrank import RankRule, SvdResult
from .panel import TimePanel

__all__ = ["BetaModel", "fit_beta", "solve_beta", "forecast_f"]

# Relative singular value cutoff of the minimum-norm solve: of the top k_hat
# singular values, those at or below this fraction of s_1 count as zero, so a
# k_hat past the rank of the top rows keeps only the values it can divide by.
_LSTSQ_RCOND = 1e-10


@dataclass(frozen=True)
class BetaModel:
    """Lag model for the smooth component.

    ``beta`` is most-recent-lag first: the forecast is
    sum_i beta[i-1] * y(t-i) over the last L-1 observations, so ``L`` is
    ``len(beta) + 1``. ``resid_rms`` is the in-sample RMS of the fitting regression.

    Checked on construction: ``beta`` a non-empty vector of finite integers
    or floats (ShapeError, FitError), ``k_hat`` an integer >= 0 (RankError;
    numpy integers convert) and ``resid_rms`` a finite real (FitError).
    """

    beta: np.ndarray
    k_hat: int
    resid_rms: float

    def __post_init__(self):
        beta = _float_array(self.beta, "regression coefficients", FitError).copy()
        if beta.ndim != 1 or beta.size < 1:
            raise ShapeError(f"beta must be a non-empty vector, got shape {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise FitError("non-finite regression coefficients")
        if not _is_real(self.resid_rms):
            raise FitError(f"non-finite or non-real regression residual RMS {self.resid_rms!r}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "k_hat", _integer(self.k_hat, "k_hat", 0, RankError))
        object.__setattr__(self, "resid_rms", float(self.resid_rms))

    @property
    def L(self) -> int:
        return len(self.beta) + 1


def fit_beta(panel: TimePanel, L: int, rule: RankRule) -> BetaModel:
    """Fit the lag model on the stacked Page matrix of the observations.

    The features are the rank-truncated first L-1 rows (truncation of the
    sub-matrix, not rows of the full-matrix truncation, which keeps the
    features independent of the last-row noise); the targets are the raw
    last-row entries. The rank k_hat is the one ``rule`` picks off the full
    matrix's spectrum. The regression is solved in the minimum-norm sense by
    :func:`solve_beta`. Callers that already hold a rank, or that also
    decompose the panel, should use a :class:`~samossa.ssa_estimator.Stage1`
    instead (``Stage1(panel, L).beta(k_hat)``), which stacks once.
    """
    from .ssa_estimator import Stage1  # ssa_estimator imports this module

    stage = Stage1(panel, L)
    return stage.beta(stage.rank(rule))


def solve_beta(page: np.ndarray, sub: SvdResult, k_hat: int) -> BetaModel:
    """Regress the raw last row b of an L-row Page matrix on its top rows at rank k_hat.

    ``sub`` is an SVD of ``page[:L-1]`` holding at least its top k_hat
    triplets, or every one it has; it gives the right vectors of the k kept. With U_k S_k V_k^T the triplets kept (the
    top k_hat whose values exceed ``_LSTSQ_RCOND`` * s_1), the minimum-norm
    coefficients are U_k S_k^-1 V_k^T b and the fitted row is V_k V_k^T b.
    FitError for an all-zero ``page[:L-1]`` or a residual RMS that is not
    finite.
    """
    s = sub.singular_values
    if s[0] <= 0.0:
        raise FitError("all-zero feature matrix")
    k = int(np.sum(s[:k_hat] > _LSTSQ_RCOND * s[0]))
    v, targets = sub.right_vectors(k), page[-1]
    proj = v.T @ targets
    coef = sub.left_vectors[:, :k] @ (proj / s[:k])
    with np.errstate(over="ignore"):  # BetaModel rejects a residual RMS past the float range
        rms = float(np.sqrt(_mean_square(targets - v @ proj)))
    # Page rows are oldest-first; flip so beta is most-recent-lag first.
    return BetaModel(beta=coef[::-1], k_hat=k_hat, resid_rms=rms)


def forecast_f(model: BetaModel, lags) -> float:
    """One-step forecast of the smooth component from raw lagged values.

    ``lags`` is most-recent-first: [y(t-1), y(t-2), ..., y(t-(L-1))].
    ShapeError unless they are L-1 integers or floats; FitError for a
    non-finite one.
    """
    lags = _float_array(lags, "lags", ShapeError)
    if lags.shape != (model.L - 1,):
        raise ShapeError(f"expected {model.L - 1} lags, got shape {lags.shape}")
    if not np.isfinite(lags).all():
        raise FitError("non-finite lags")
    return float(model.beta @ lags)
