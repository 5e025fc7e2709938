"""Stage 1: low-rank estimation of the deterministic component.

Builds the stacked Page matrix of the observations, truncates it to the
selected rank, and reads the smooth component and the residuals back out of
the matrix cells. :class:`Stage1` holds everything stage 1 computes for one
(panel, L), so that every rank rule and AR order fitted on that panel shares
one stacking and one SVD of each matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linear_forecaster import BetaModel, solve_beta
from .lowrank import RankRule, SvdResult, select_rank, svd
from .pagemat import stack, unstack
from .panel import TimePanel

__all__ = ["Decomposition", "Stage1", "decompose", "est_err"]


@dataclass(frozen=True)
class Decomposition:
    """Per-series estimates over the retained training window.

    ``f_hat`` and ``x_hat`` are N x T_eff; column j is time t0 + j where
    t0 = origin + first panel index. By construction f_hat + x_hat equals
    the retained observations exactly. ``balance`` is the spectra-balance
    diagnostic s_khat * sqrt(khat) / sqrt(N * T_eff) (reported only; no
    guarantee is gated on it).
    """

    f_hat: np.ndarray
    x_hat: np.ndarray
    L: int
    k_hat: int
    origin: int
    t0: int
    singular_values: np.ndarray
    balance: float

    @property
    def n_series(self) -> int:
        return self.f_hat.shape[0]

    @property
    def t_eff(self) -> int:
        return self.f_hat.shape[1]


class Stage1:
    """Stage 1 of one (panel, L): the stacked Page matrix and its SVDs, computed once.

    Nothing in stage 1 depends on the AR order, and the rank rule only picks
    k off one spectrum, so one instance serves every configuration fitted on
    the same panel at the same L. The Page matrix is stacked on
    construction. The full SVD is taken on the first :meth:`rank` or
    :meth:`decompose` call, and the SVD of the top L-1 rows on the first
    :meth:`beta` call, so a caller that only decomposes never pays for the
    second one. Only the decomposition and the lag model of the most recent
    k are kept.
    """

    def __init__(self, panel: TimePanel, L: int):
        self.panel = panel
        self.L = L
        self.page = stack(panel, L)
        self._full: SvdResult | None = None
        self._sub: SvdResult | None = None
        self._decomp: Decomposition | None = None
        self._beta: BetaModel | None = None

    def rank(self, rule: RankRule) -> int:
        """k_hat under ``rule``, read off the full matrix's spectrum."""
        if self._full is None:
            self._full = svd(self.page.data)
        return select_rank(self._full.singular_values, rule, shape=self.page.data.shape)

    def decompose(self, rule: RankRule) -> Decomposition:
        """The smooth component and residuals at the rank ``rule`` selects."""
        k_hat = self.rank(rule)
        if self._decomp is None or self._decomp.k_hat != k_hat:
            self._decomp = None  # release the previous k's arrays first
            self._decomp = self._truncate(k_hat)
        return self._decomp

    def beta(self, k_hat: int) -> BetaModel:
        """The lag model regressing the last Page row on the top L-1 rows at rank k_hat."""
        if self.L < 2:
            raise ShapeError(f"need L >= 2 to regress the last row on the rest, got L={self.L}")
        if self._beta is None or self._beta.k_hat != k_hat:
            if self._sub is None:
                self._sub = svd(self.page.data[: self.L - 1, :])
            self._beta = solve_beta(self.page.data, self._sub, k_hat)
        return self._beta

    def _truncate(self, k_hat: int) -> Decomposition:
        s = self._full.singular_values
        denoised = self._full.truncate(k_hat)
        f_hat = unstack(denoised, self.panel.n_series)
        retained = self.panel.values[:, self.page.origin:]
        x_hat = retained - f_hat
        n, t_eff = f_hat.shape
        return Decomposition(
            f_hat=f_hat,
            x_hat=x_hat,
            L=self.L,
            k_hat=k_hat,
            origin=self.page.origin,
            t0=self.panel.t0 + self.page.origin,
            singular_values=s,
            balance=float(s[k_hat - 1] * np.sqrt(k_hat) / np.sqrt(n * t_eff)),
        )


def decompose(panel: TimePanel, L: int, rule: RankRule) -> Decomposition:
    """Estimate the smooth component by rank truncation of the Page matrix.

    The rank is chosen once, on the full stacked Page matrix, and recorded
    as ``k_hat`` for reuse by the forecasting fit. Residuals are defined as
    observation minus estimate over the retained window. Takes one SVD; use
    :class:`Stage1` directly to decompose one panel under several rules.
    """
    return Stage1(panel, L).decompose(rule)


def est_err(decomp: Decomposition, truth: TimePanel, n: int) -> float:
    """Mean squared error of the smooth-component estimate for series n.

    ``truth`` must align with the decomposition window: either exactly the
    retained window (T == T_eff) or the original panel (T == origin + T_eff),
    whose dropped prefix is ignored. ``n`` is a 0-based series index.
    """
    if not 0 <= n < decomp.n_series:
        raise ShapeError(f"series index {n} outside 0..{decomp.n_series - 1}")
    if truth.n_series != decomp.n_series:
        raise ShapeError(
            f"truth has {truth.n_series} series, decomposition has {decomp.n_series}"
        )
    if truth.length == decomp.t_eff:
        aligned = truth.values[n]
    elif truth.length == decomp.origin + decomp.t_eff:
        aligned = truth.values[n, decomp.origin:]
    else:
        raise ShapeError(
            f"truth length {truth.length} matches neither T_eff={decomp.t_eff} "
            f"nor origin+T_eff={decomp.origin + decomp.t_eff}"
        )
    diff = decomp.f_hat[n] - aligned
    return float(np.mean(diff**2))
