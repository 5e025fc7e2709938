"""Stage 1: low-rank estimation of the deterministic component.

Builds the stacked Page matrix of the observations, truncates it to the
selected rank, and reads the smooth component and the residuals back out of
the matrix cells; :class:`Stage1` holds all of it for one (panel, L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, RankError, ShapeError, _integer, _mean_square
from .linear_forecaster import BetaModel, solve_beta
from .lowrank import (RankRule, SvdResult, _downdate_head, _gram_answers, _gram_svd,
                      select_rank, svd, takes_topk)
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
    guarantee is gated on it). ``singular_values`` is the spectrum stage 1
    computed: every value, or under ``fixed:K`` on a large Page matrix only
    the top K. Where the Gram spectrum served the rule, its values below
    about sqrt(4 r eps) s_1 (r the Page matrix's smaller side) are the
    Gram's rounding noise; its certificate puts s_khat and the value after
    it above that floor, so ``balance`` reads a certified value.
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
    """Stage 1 of one (panel, L): the stacked Page matrix A and its factorisations, computed once.

    Nothing in stage 1 depends on the AR order, and the rank rule only picks
    k off one spectrum, so one instance serves every configuration fitted on
    the same panel at the same L. This class alone decides which
    factorisation of A serves (:meth:`spectrum`, :meth:`beta`), whatever the
    order of calls, and :meth:`decompose` alone makes a :class:`Decomposition`.
    """

    def __init__(self, panel: TimePanel, L: int):
        self.panel = panel
        self.page = stack(panel, L)
        self.L = self.page.data.shape[0]
        # A rule -> the spectrum that serves it; "gram" -> A's Gram spectrum (None
        # for a zero or non-finite A); an int k -> A's top-k head; None -> its SVD.
        self._memo: dict[RankRule | int | str | None, SvdResult | None] = {}

    def _factor(self, key: int | str | None) -> SvdResult | None:
        if key not in self._memo:
            a = self.page.data
            self._memo[key] = _gram_svd(a) if key == "gram" else svd(a, k=key)
        return self._memo[key]

    def spectrum(self, rule: RankRule) -> SvdResult:
        """The spectrum of A that serves ``rule``, each factorisation taken once and kept.

        A K-head for ``fixed:K`` where :func:`~samossa.lowrank.takes_topk`
        allows; else A's Gram spectrum where it is certified for the rule
        (:func:`~samossa.lowrank._gram_answers`); else the one dense SVD.
        """
        if rule not in self._memo:
            shape = self.page.data.shape
            if rule.kind == "fixed" and takes_topk(shape, rule.k):
                key = rule.k
            else:
                gram = self._factor("gram")
                certified = gram is not None and _gram_answers(gram.singular_values, rule, shape)
                key = "gram" if certified else None
            self._memo[rule] = self._factor(key)
        return self._memo[rule]

    def rank(self, rule: RankRule) -> int:
        """k_hat under ``rule``, read off the Page matrix's spectrum."""
        return select_rank(self.spectrum(rule).singular_values, rule, shape=self.page.data.shape)

    def decompose(self, rule: RankRule) -> Decomposition:
        """The smooth component and residuals at the rank ``rule`` selects."""
        spectrum, k_hat, origin = self.spectrum(rule), self.rank(rule), self.page.origin
        s = spectrum.singular_values
        f_hat = unstack(spectrum.truncate(k_hat), self.panel.n_series)
        return Decomposition(
            f_hat=f_hat,
            x_hat=self.panel.values[:, origin:] - f_hat,
            L=self.L,
            k_hat=k_hat,
            origin=origin,
            t0=self.panel.t0 + origin,
            singular_values=s,
            balance=float(s[k_hat - 1] * np.sqrt(k_hat) / np.sqrt(f_hat.size)),
        )

    def beta(self, k_hat: int) -> BetaModel:
        """The lag model regressing the last Page row on the top L-1 rows at rank k_hat.

        It is solved on A[:-1]'s top k_hat triplets (at least one): a top-k
        head where :func:`~samossa.lowrank.takes_topk` allows, else the
        downdate head of A's Gram spectrum unless it declines, else an SVD.
        """
        if self.L < 2:
            raise ShapeError(f"need L >= 2 to regress the last row on the rest, got L={self.L}")
        k_hat = _integer(k_hat, "k_hat", 0, RankError)  # before it slices the SVD
        top = self.page.data[:-1]
        head = (None if k_hat < 1 or takes_topk(top.shape, k_hat)
                else _downdate_head(self._factor("gram"), k_hat))
        return solve_beta(self.page.data, head or svd(top, max(k_hat, 1)), k_hat)


def decompose(panel: TimePanel, L: int, rule: RankRule) -> Decomposition:
    """Estimate the smooth component by rank truncation of the Page matrix.

    The rank is chosen once, on the full stacked Page matrix, and recorded
    as ``k_hat`` for reuse by the forecasting fit. Residuals are defined as
    observation minus estimate over the retained window. Takes one
    factorisation; use :class:`Stage1` directly to decompose one panel under
    several rules.
    """
    return Stage1(panel, L).decompose(rule)


def est_err(decomp: Decomposition, truth: TimePanel, n: int) -> float:
    """Mean squared error of the smooth-component estimate for series n.

    ``truth`` is read at the decomposition's own absolute times, t0 onwards,
    by :meth:`TimePanel.values_at`, so it may cover more than the retained
    window but not less. ``n`` is a 0-based series index. ShapeError for a
    bad index or series count, or a truth that does not cover the window;
    MetricError when the error overflows the float range.
    """
    n = _integer(n, "series index", 0, ShapeError)
    if not n < decomp.n_series == truth.n_series:
        raise ShapeError(f"series index {n} for a decomposition of {decomp.n_series} series "
                         f"and a truth of {truth.n_series}")
    f = truth.values_at(decomp.t0, decomp.t0 + decomp.t_eff, "truth", "the decomposition")
    with np.errstate(over="ignore"):  # a gap past the float range is an inf
        err = float(_mean_square(decomp.f_hat[n] - f[n]))
    if not np.isfinite(err):
        raise MetricError(f"estimation error of series {n} overflows the float range")
    return err
