"""Stage 1: low-rank estimation of the deterministic component.

Builds the stacked Page matrix of the observations, truncates it to the
selected rank, and reads the smooth component and the residuals back out of
the matrix cells. :class:`Stage1` holds everything stage 1 computes for one
(panel, L), so that every rank rule and AR order fitted on that panel shares
one stacking and one factorisation of each matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, RankError, ShapeError, _integer, _mean_square
from .linear_forecaster import BetaModel, solve_beta
from .lowrank import PageSvds, RankRule, SvdResult, select_rank
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
    the top K. Where the Page matrix's Gram spectrum served the rule (see
    :class:`~samossa.lowrank.PageSvds`), its values below about
    sqrt(4 r eps) s_1, for r the Page matrix's smaller side, are rounding
    noise of the Gram and not the matrix's; the certificate that let it
    serve puts s_khat and the value after it above that floor, so
    ``balance`` reads a certified value.
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
    """Stage 1 of one (panel, L): the stacked Page matrix and its factorisations, computed once.

    Nothing in stage 1 depends on the AR order, and the rank rule only picks
    k off one spectrum, so one instance serves every configuration fitted on
    the same panel at the same L. The Page matrix is stacked on construction;
    which factorisation of it serves a rule or the lag model (its Gram
    spectrum, its dense SVD or a top-k head), and when each is taken,
    is :class:`~samossa.lowrank.PageSvds`' to decide. The grid scorer builds
    one per L in one worker job (``evaluation._score_each``), which makes
    each distinct (spectrum, k_hat) decomposition once: twin configs share
    it, and a p grid's order selection is one job.
    """

    def __init__(self, panel: TimePanel, L: int):
        self.panel = panel
        self.L = L
        self.page = stack(panel, L)
        self.svds = PageSvds(self.page.data)

    def spectrum(self, rule: RankRule) -> SvdResult:
        """The spectrum of the whole Page matrix that serves ``rule``, one object per factorisation."""
        return self.svds.for_rule(rule)

    def rank(self, rule: RankRule) -> int:
        """k_hat under ``rule``, read off the Page matrix's spectrum."""
        return select_rank(self.spectrum(rule).singular_values, rule, shape=self.page.data.shape)

    def decompose(self, rule: RankRule) -> Decomposition:
        """The smooth component and residuals at the rank ``rule`` selects."""
        return _truncate(self.panel, self.page.origin, self.spectrum(rule), self.rank(rule))

    def beta(self, k_hat: int) -> BetaModel:
        """The lag model regressing the last Page row on the top L-1 rows at rank k_hat."""
        if self.L < 2:
            raise ShapeError(f"need L >= 2 to regress the last row on the rest, got L={self.L}")
        k_hat = _integer(k_hat, "k_hat", 0, RankError)  # before it slices the SVD
        return solve_beta(self.page.data, self.svds.top_rows(k_hat), k_hat)


def _truncate(panel: TimePanel, origin: int, spectrum: SvdResult, k_hat: int) -> Decomposition:
    """The decomposition of ``panel`` at rank ``k_hat`` of ``spectrum``, with no Stage1.

    ``spectrum`` is a factorisation (every value, or a head of at least
    k_hat) of the stacked Page matrix of ``panel`` after its first ``origin`` values;
    L is its number of rows.
    """
    s = spectrum.singular_values
    f_hat = unstack(spectrum.truncate(k_hat), panel.n_series)
    n, t_eff = f_hat.shape
    return Decomposition(
        f_hat=f_hat,
        x_hat=panel.values[:, origin:] - f_hat,
        L=spectrum.left_vectors.shape[0],
        k_hat=k_hat,
        origin=origin,
        t0=panel.t0 + origin,
        singular_values=s,
        balance=float(s[k_hat - 1] * np.sqrt(k_hat) / np.sqrt(n * t_eff)),
    )


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
