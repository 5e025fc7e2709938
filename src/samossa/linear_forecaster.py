"""Linear forecaster for the smooth component.

The last row of a low-rank Page matrix is a fixed linear combination of the
rows above it. This module learns that combination by regressing the raw
last-row entries on the rank-truncated top L-1 rows, and applies it to
lagged raw observations to forecast one step ahead.

Deleting the last row of a matrix whose SVD is known is a rank-one downdate
of that SVD (Bunch, Nielsen & Sorensen 1978; Gu & Eisenstat 1995), so
:func:`downdate_beta` reads the regression off the whole Page matrix's SVD
with one L x L eigendecomposition. :func:`solve_beta` solves it by ``lstsq``
on an SVD of the top rows; it serves the cases the downdate declines and
top-k heads, which lack the left vectors the downdate needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, RankError, ShapeError, _float_array, _integer, _is_real
from .lowrank import RankRule, SvdResult
from .panel import TimePanel

__all__ = ["BetaModel", "fit_beta", "downdate_beta", "solve_beta", "forecast_f"]

# Relative singular value cutoff for the minimum-norm regression solve; the
# design matrix has rank <= k_hat < L-1 by construction, so the normal
# equations are singular and a pseudo-inverse is required.
_LSTSQ_RCOND = 1e-10

# downdate_beta divides by the top k_hat eigenvalues of the downdated Gram,
# scaled so that s_1 is in [1/2, 1), and keeps the top k_hat eigenvectors: it
# answers only when the k_hat-th eigenvalue and the gap below it both exceed
# this floor, far above eigh's absolute error of about L * eps (1e-13 here).
# The seven beta solves of forecast_benchmark_run(0) have their smallest
# eigenvalue at 5.8e-4 and their smallest gap at 6.6e-6, 660 times the floor.
# A split tie (a period-3 sawtooth's s_2 = s_3) or k_hat past the sub-matrix's
# rank falls below it and goes to solve_beta.
_DOWNDATE_TOL = 1e-8


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
    matrix's spectrum. The regression is solved in the minimum-norm sense,
    by :func:`downdate_beta` where it answers and :func:`solve_beta`
    otherwise. Callers that already hold a rank, or that also decompose the
    panel, should use a :class:`~samossa.ssa_estimator.Stage1` instead
    (``Stage1(panel, L).beta(k_hat)``), which stacks once.
    """
    from .ssa_estimator import Stage1  # ssa_estimator imports this module

    stage = Stage1(panel, L)
    return stage.beta(stage.rank(rule))


def downdate_beta(full: SvdResult, k_hat: int) -> BetaModel | None:
    """The lag model at rank k_hat, read off the SVD of the whole L-row Page matrix.

    ``full`` holds every triplet of the L x C matrix A = U S V^T. Its top
    L-1 rows A' = U[:L-1] S V^T have A'^T A' = V (S^2 - z z^T) V^T with
    z = S U[L-1], and the targets are A[L-1] = V z. With S^2 - z z^T =
    W diag(lambda) W^T in descending order, the minimum-norm coefficients on
    the rank-k_hat truncation of A' are U[:L-1] S W_k (W_k^T z / lambda_k),
    and the fitted residual is V (z - W_k W_k^T z). S is first scaled by a
    power of two so that s_1 is in [1/2, 1), which is exact and keeps S^2
    in range. The same model as :func:`solve_beta` on an SVD of A', up to
    rounding; None when k_hat < 1 or the retained eigenvalues are not clear
    of the rounding floor ``_DOWNDATE_TOL`` (a zero or tied k_hat-th value).
    """
    s = full.singular_values
    if k_hat < 1 or not 0.0 < s[0] < np.inf:
        return None
    exp = int(np.frexp(s[0])[1])
    s = np.ldexp(s, -exp)
    u = full.left_vectors
    z = s * u[-1]
    lam, w = np.linalg.eigh(np.diag(s * s) - np.outer(z, z))
    lam, w = lam[::-1], w[:, ::-1]
    k = min(k_hat, lam.size)
    gap = lam[k - 1] - lam[k] if k < lam.size else lam[k - 1]
    if not (lam[k - 1] > _DOWNDATE_TOL and gap > _DOWNDATE_TOL):
        return None
    w = w[:, :k]
    proj = w.T @ z
    coef = u[:-1] @ (s * (w @ (proj / lam[:k])))
    n_cols = full.right_vectors.shape[0]
    with np.errstate(over="ignore"):  # huge residuals overflow; BetaModel rejects the inf
        rms = float(np.ldexp(np.linalg.norm(z - w @ proj) / np.sqrt(n_cols), exp))
    # Page rows are oldest-first; flip so beta is most-recent-lag first.
    return BetaModel(beta=coef[::-1], k_hat=k_hat, resid_rms=rms)


def solve_beta(page: np.ndarray, sub: SvdResult, k_hat: int) -> BetaModel:
    """Regress the raw last row of an L-row Page matrix on its top rows by ``lstsq``.

    ``sub`` is the SVD of ``page[:L-1]``, every triplet or a head holding
    the ones used; the features are its rank-k_hat truncation, which keeps
    every triplet ``sub`` holds when k_hat exceeds them. This is the oracle
    for :func:`downdate_beta` and serves what it declines. FitError for an
    all-zero ``page[:L-1]`` or a residual RMS that is not finite.
    """
    if sub.singular_values[0] <= 0.0:
        raise FitError("all-zero feature matrix")
    features = sub.truncate(k_hat)

    targets = page[-1]
    coef, _, _, _ = np.linalg.lstsq(features.T, targets, rcond=_LSTSQ_RCOND)
    fitted = features.T @ coef
    with np.errstate(over="ignore"):  # huge residuals overflow; BetaModel rejects the inf
        rms = float(np.sqrt(np.mean((fitted - targets) ** 2)))
    # Page rows are oldest-first; flip so beta is most-recent-lag first.
    return BetaModel(beta=coef[::-1], k_hat=k_hat, resid_rms=rms)


def forecast_f(model: BetaModel, lags) -> float:
    """One-step forecast of the smooth component from raw lagged values.

    ``lags`` is most-recent-first: [y(t-1), y(t-2), ..., y(t-(L-1))].
    """
    lags = np.asarray(lags, dtype=np.float64)
    if lags.shape != (model.L - 1,):
        raise ShapeError(f"expected {model.L - 1} lags, got shape {lags.shape}")
    return float(model.beta @ lags)
