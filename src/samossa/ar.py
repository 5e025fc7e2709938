"""Per-series AR(p) identification, forecasting, and stationarity analysis.

Stage 2 of the pipeline: fit an autoregressive model to the residuals left
by the low-rank stage, by ordinary least squares on lagged values:
:func:`fit_ar_rows` solves the lag-Gram normal equations of every series of
a panel in batched calls, and sends a series whose Gram is too close to
singular to ``lstsq`` on its explicit design; :func:`fit_ar` is its one-row
call. The analysis half of the module exposes the companion matrix,
characteristic roots, the controllability Gramian and its sibling, the
moving-average expansion of the process, and the sub-gaussian variance
proxy built from them; these quantities control identification accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRootsError,
    FitError,
    NonStationaryError,
    ShapeError,
    _float_array,
    _integer,
    _is_real,
    _mean_square,
)

__all__ = [
    "ArModel",
    "ArDiagnostics",
    "fit_ar",
    "fit_ar_rows",
    "forecast_ar",
    "characteristic_roots",
    "companion_matrix",
    "diagnostics",
]

# Roots closer than this are treated as repeated (below eigensolver accuracy).
_ROOT_TOL = 1e-9

# fit_ar_rows solves a row's normal equations only while the smallest
# eigenvalue of its scaled lag Gram D^T D exceeds this fraction of the
# largest: kappa(D)^2 < 1e6 bounds alpha's error near 1e6 eps, and lstsq's
# rank of D is p by a wide margin. Every other row goes to lstsq. The fits of
# forecast_benchmark_run(0) have their smallest ratio at 0.208.
_GRAM_TOL = 1e-6

# fit_ar_rows fits blocks of rows of about this many values (512 KiB), so its
# two work arrays stay in cache and add no Page-sized temporary beside stage
# 1: on a benchmark seed, whole-panel blocks raised the peak RSS by 2.4 MB
# and took no less time.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class ArModel:
    """AR(p) coefficients, most-recent-lag first: x(t) ~ sum_i alpha[i-1] x(t-i).

    The order ``p`` is ``len(alpha)``. ``p == 0`` is the degenerate model
    whose one-step forecast is always 0 (the pure low-rank ablation):
    ``fit_ar(x, 0)`` fits one, ``ArModel.zero()`` builds one by hand.
    ``rank_deficient`` flags a fit that fell back to the minimum-norm solution.
    Checked on construction (ShapeError, FitError): ``alpha`` a vector of
    finite integers or floats, ``noise_var_hat`` a finite real and
    ``rank_deficient`` a bool.
    """

    alpha: np.ndarray
    noise_var_hat: float
    rank_deficient: bool = False

    def __post_init__(self):
        alpha = _float_array(self.alpha, "AR coefficients", FitError).copy()
        if alpha.ndim != 1:
            raise ShapeError(f"alpha must be a vector, got shape {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise FitError("non-finite AR coefficients")
        if not _is_real(self.noise_var_hat):
            raise FitError(f"non-finite or non-real AR noise variance {self.noise_var_hat!r}")
        if not isinstance(self.rank_deficient, bool):
            raise FitError(f"rank_deficient must be true or false, got {self.rank_deficient!r}")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "noise_var_hat", float(self.noise_var_hat))

    @property
    def p(self) -> int:
        return len(self.alpha)

    @classmethod
    def zero(cls, noise_var_hat: float = 0.0) -> "ArModel":
        return cls(alpha=np.zeros(0), noise_var_hat=noise_var_hat)


@dataclass(frozen=True)
class ArDiagnostics:
    """Stationarity analysis of a fitted AR(p) model.

    ``companion`` is the p x p transition matrix (coefficients on the first
    row, shifted identity below); ``roots`` its eigenvalues sorted by
    modulus, descending. ``gramian_psi`` solves Psi = A Psi A' + B B' and
    ``gramian_gamma`` solves Gamma = A Gamma A' + I. ``ma_coeffs`` are the
    leading weights of the moving-average expansion of the process.
    ``est_err_budget`` is the residual-quality level,
    sigma^2 lambda_min(Psi) / (6p), below which the identification-rate
    guarantee applies; it is reported for inspection only, never enforced.
    """

    companion: np.ndarray
    roots: np.ndarray
    lambda_star: float
    c_lambda: float
    sigma_x: float
    gramian_psi: np.ndarray
    gramian_gamma: np.ndarray
    ma_coeffs: np.ndarray
    est_err_budget: float


def fit_ar_rows(residuals, p: int) -> tuple[ArModel, ...]:
    """Least-squares AR(p) fits of every row of an N x T residual array, for any order p >= 0.

    Row n regresses x(t) on [x(t-1), ..., x(t-p)] over t in [p, T), through
    its (p+1) x (p+1) lag Gram. Each row is first scaled by 2^-e, e the
    exponent of its largest |x|, which is exact, so alpha does not depend on
    the row's scale. The p x p normal equations are solved by batched calls
    over blocks of rows. ``noise_var_hat`` is the mean squared residual
    x(t) - sum_i alpha_i x(t-i) of the unscaled row, not finite only where
    that mean passes the float range. At p = 0 alpha is empty, and it is
    the uncentred mean of x^2: an AR(0) model forecasts 0. A row whose lag
    Gram has its smallest eigenvalue at or below ``_GRAM_TOL`` times its
    largest, or whose ``noise_var_hat`` is not finite, is fitted by
    ``lstsq`` on its explicit design instead: a rank-deficient design falls
    back to the minimum-norm solution and is flagged on the model, so only
    such a row carries ``rank_deficient``.
    A row's model does not depend on the other rows.
    ShapeError unless ``residuals`` is 2-D. FitError for residuals that are
    not integers or floats, an order that is not an integer >= 0, fewer than
    2p + 1 observations, a non-finite residual, or a ``noise_var_hat`` that
    is not finite.
    """
    X = _float_array(residuals, "residuals", FitError)
    if X.ndim != 2:
        raise ShapeError(f"fit_ar_rows expects an N x T residual array, got shape {X.shape}")
    p = _integer(p, "order", 0, FitError)
    n, T = X.shape
    if T < 2 * p + 1:
        raise FitError(f"need at least {2 * p + 1} observations for p={p}, got {T}")
    peak = np.maximum(X.max(axis=1), -X.min(axis=1))  # max |x| per row; a nan propagates
    if not np.isfinite(peak).all():  # lstsq would print a LAPACK complaint before failing
        raise FitError("non-finite residuals")

    step = max(1, _BLOCK // T)  # rows per block; a row's model does not depend on its block
    return tuple(model for lo in range(0, n, step)
                 for model in _fit_block(X[lo:lo + step], peak[lo:lo + step], p))


def _fit_block(X: np.ndarray, peak: np.ndarray, p: int) -> list[ArModel]:
    """:func:`fit_ar_rows` of checked rows whose largest |x| are ``peak``."""
    n, T = X.shape
    alpha, solved = np.zeros((n, p)), np.ones(n, dtype=bool)
    # work[0] holds the scaled rows, then the residuals; work[1] each lag product,
    # then the squared residuals. A sum over a slice of their rows is pairwise
    # and row by row, so a row's model does not depend on the other rows.
    work = np.empty((2, n, T))
    resid = X  # at p = 0 the residuals are the rows themselves
    if p > 0:
        # Scaled rows lie in (-1, 1), so every Gram entry is finite and at most T.
        scaled = np.ldexp(X, -np.frexp(peak)[1][:, None], out=work[0])
        gram = np.empty((n, p + 1, p + 1))  # index i is lag i; lag 0 is the target
        for d in range(p + 1):
            # Entry (i, i + d) sums x(k + d) x(k) over k in [p - d - i, T - d - i): the
            # window shared by every i, plus i terms below it and p - d - i above.
            prod = np.multiply(scaled[:, d:], scaled[:, :T - d], out=work[1, :, :T - d])
            shared = prod[:, p - d:T - p].sum(axis=1)
            for i in range(p - d + 1):
                gram[:, i, i + d] = gram[:, i + d, i] = (
                    shared + prod[:, p - d - i:p - d].sum(axis=1)
                    + prod[:, T - p:T - d - i].sum(axis=1))
        normal = gram[:, 1:, 1:]
        eig = np.linalg.eigvalsh(normal)  # ascending
        solved = eig[:, 0] > _GRAM_TOL * eig[:, -1]
        alpha[solved] = np.linalg.solve(normal[solved], gram[solved, 1:, :1])[..., 0]
        resid = work[0, :, :T - p]
        np.copyto(resid, X[:, p:])
        for i in range(1, p + 1):
            resid -= np.multiply(alpha[:, i - 1:i], X[:, p - i:T - i], out=work[1, :, :T - p])
    # A mean that truly overflows sends its row to lstsq, where it stays inf.
    noise_var = _mean_square(resid, axis=1, out=work[1, :, :T - p])
    return [ArModel(alpha=a, noise_var_hat=v) if ok and np.isfinite(v) else _lstsq_fit(x, p)
            for x, a, v, ok in zip(X, alpha, noise_var, solved)]


def _lstsq_fit(x: np.ndarray, p: int) -> ArModel:
    """The AR(p) fit of one checked series by ``lstsq`` on its explicit lag design."""
    T = x.shape[0]
    targets = x[p:]
    design = np.empty((T - p, p))  # column i - 1 holds lag i; no columns at p = 0
    for i in range(1, p + 1):
        design[:, i - 1] = x[p - i: T - i]
    alpha, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    resid = targets - np.dot(design, alpha)  # matmul takes a slow loop at p <= 1
    noise_var = float(_mean_square(resid))  # ArModel rejects an inf
    return ArModel(alpha=alpha, noise_var_hat=noise_var, rank_deficient=bool(rank < p))


def fit_ar(residuals, p: int) -> ArModel:
    """Least-squares AR(p) fit to one residual series: :func:`fit_ar_rows` of one row.

    ShapeError unless ``residuals`` is 1-D; every other rule is
    :func:`fit_ar_rows`'.
    """
    x = _float_array(residuals, "residuals", FitError)
    if x.ndim != 1:
        raise ShapeError("fit_ar expects a 1-D residual series")
    return fit_ar_rows(x[None], p)[0]


def forecast_ar(model: ArModel, recent_residuals) -> float:
    """One-step conditional-mean forecast from the last p residuals.

    ``recent_residuals`` is most-recent-first: [x(t-1), ..., x(t-p)].
    ShapeError unless they are p integers or floats; FitError for a
    non-finite one.
    """
    lags = _float_array(recent_residuals, "lagged residuals", ShapeError)
    if lags.shape != (model.p,):
        raise ShapeError(f"expected {model.p} lagged residuals, got shape {lags.shape}")
    if not np.isfinite(lags).all():
        raise FitError("non-finite lagged residuals")
    return float(model.alpha @ lags)


def companion_matrix(alpha) -> np.ndarray:
    """p x p companion matrix: alpha on the first row, shifted identity below.

    ShapeError unless ``alpha`` is a vector of p >= 1 integers or floats;
    FitError for a non-finite one.
    """
    alpha = _float_array(alpha, "AR coefficients", ShapeError)
    if alpha.ndim != 1 or alpha.shape[0] < 1:
        raise ShapeError("need a coefficient vector of length >= 1")
    if not np.isfinite(alpha).all():
        raise FitError("non-finite AR coefficients")
    p = alpha.shape[0]
    A = np.zeros((p, p))
    A[0, :] = alpha
    if p > 1:
        A[1:, :-1] = np.eye(p - 1)
    return A


def characteristic_roots(alpha) -> np.ndarray:
    """Roots of z^p - sum_i alpha_i z^(p-i), sorted by modulus descending.

    Computed as companion-matrix eigenvalues, with :func:`companion_matrix`'s
    checks. The process is stationary iff all roots lie strictly inside the
    unit circle.
    """
    roots = np.linalg.eigvals(companion_matrix(alpha))
    order = np.lexsort((-roots.imag, -roots.real, -np.abs(roots)))
    return roots[order]


def _ma_by_unrolling(alpha: np.ndarray, K: int) -> np.ndarray:
    # Unroll x(t) = sum alpha_i x(t-i) + eta(t) into weights on past eta:
    # beta_0 = 1 and beta_k = sum_{i<=min(k,p)} alpha_i beta_{k-i}, exactly.
    p = alpha.shape[0]
    beta = np.zeros(K)
    beta[0] = 1.0
    for k in range(1, K):
        m = min(k, p)
        beta[k] = float(alpha[:m] @ beta[k - m: k][::-1])
    return beta


def diagnostics(model: ArModel, sigma: float | None = None, K: int = 200) -> ArDiagnostics:
    """Stationarity diagnostics for a fitted AR model.

    ``sigma`` is the innovation standard deviation, a finite real >= 0
    (FitError otherwise), by default the fitted sqrt(noise_var_hat). ``K``
    is the number of moving-average coefficients to expand, an integer >= 1
    (ShapeError otherwise). Both Gramians come from one linear solve, and a
    zero root is allowed. Raises NonStationaryError when the dominant root
    modulus is >= 1, and DegenerateRootsError when two roots are closer than
    1e-9 (the partial-fraction constants are then ill-defined).
    """
    if model.p < 1:
        raise ShapeError("diagnostics need a model of order >= 1")
    K = _integer(K, "K", 1, ShapeError)
    if sigma is None:
        sigma = math.sqrt(max(model.noise_var_hat, 0.0))
    elif not (_is_real(sigma) and sigma >= 0.0):
        raise FitError(f"innovation sd must be a finite real >= 0, got {sigma!r}")
    A = companion_matrix(model.alpha)
    roots = characteristic_roots(model.alpha)
    lambda_star = float(np.abs(roots[0]))
    if lambda_star >= 1.0:
        raise NonStationaryError(f"dominant root modulus {lambda_star} >= 1")
    gaps = roots[:, None] - roots[None, :]  # lambda_i - lambda_j
    close = np.argwhere(np.triu(np.abs(gaps) < _ROOT_TOL, 1))
    if close.size:
        i, j = close[0]
        raise DegenerateRootsError(f"roots {roots[i]} and {roots[j]} closer than {_ROOT_TOL}")

    # Partial-fraction constants a_i = lambda_i^(p-1) / prod_{j != i} (lambda_i - lambda_j),
    # which hold for a zero root too.
    p = model.p
    np.fill_diagonal(gaps, 1.0)
    a = roots ** (p - 1) / np.prod(gaps, axis=1)
    c_lambda = float(np.sum(np.abs(a)))
    sigma_x = c_lambda * sigma / (1.0 - lambda_star)

    # X = A X A' + Q as (I - A (x) A) vec X = vec Q in row-major vec, for
    # Q = B B' (B = e_1) and Q = I at once; the system is regular while
    # every root lies inside the unit circle.
    eye = np.eye(p)
    rhs = np.column_stack([np.outer(eye[0], eye[0]).ravel(), eye.ravel()])
    psi, gamma = np.linalg.solve(np.eye(p * p) - np.kron(A, A), rhs).T.reshape(2, p, p)
    lam_min_psi = float(np.min(np.linalg.eigvalsh(psi)))

    return ArDiagnostics(
        companion=A,
        roots=roots,
        lambda_star=lambda_star,
        c_lambda=c_lambda,
        sigma_x=sigma_x,
        gramian_psi=psi,
        gramian_gamma=gamma,
        ma_coeffs=_ma_by_unrolling(model.alpha, K),
        est_err_budget=sigma**2 * lam_min_psi / (6.0 * model.p),
    )
