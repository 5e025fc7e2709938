"""Page matrices and the stacked Page matrix layout.

A Page matrix cuts a series into non-overlapping length-L segments and
stacks them as columns (entries are not repeated, unlike a Hankel matrix).
The stacked Page matrix concatenates the per-series Page matrices
column-wise, in series order. This module holds that layout, both ways:
:func:`stack` builds the matrix from a panel and :func:`unstack` reads
per-series values back out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .panel import TimePanel

__all__ = [
    "PageShape",
    "StackedPage",
    "stack",
    "unstack",
    "default_L",
]


@dataclass(frozen=True)
class PageShape:
    """Dimensions of a stacked Page matrix.

    L rows (segment length), M columns per series, N series; each series
    contributes its trailing T_eff = L*M entries.
    """

    L: int
    M: int
    N: int

    @property
    def t_eff(self) -> int:
        return self.L * self.M

    @property
    def cols(self) -> int:
        return self.N * self.M


@dataclass(frozen=True)
class StackedPage:
    """An L x (N*M) stacked Page matrix plus its layout metadata.

    ``origin`` is the number of leading observations dropped from each
    series so that the retained window length is divisible by L. Cell
    (i, (n-1)*M + j), 1-based, holds series n's value at time
    origin + (j-1)*L + i.
    """

    shape: PageShape
    data: np.ndarray
    origin: int = 0

    def __post_init__(self):
        expected = (self.shape.L, self.shape.cols)
        if self.data.shape != expected:
            raise ShapeError(f"data shape {self.data.shape} != {expected}")


def stack(panel: TimePanel, L: int) -> StackedPage:
    """Stacked Page matrix of a panel: per-series Page matrices side by side.

    When L does not divide the length, the trailing L*floor(T/L) entries of
    every series are used (recent data is favored for forecasting) and
    ``origin`` records the dropped prefix length.
    """
    N, T = panel.values.shape
    if L < 1 or L > T:
        raise ShapeError(f"segment length L={L} invalid for series of length {T}")
    M = T // L
    origin = T - L * M
    data = panel.values[:, origin:].reshape(N * M, L).T
    return StackedPage(shape=PageShape(L=L, M=M, N=N), data=data, origin=origin)


def unstack(data: np.ndarray, n_series: int) -> np.ndarray:
    """Per-series values (N x L*M) read back out of a stacked Page matrix.

    The inverse of :func:`stack`: row n is series n's retained window.
    """
    L, cols = data.shape
    return data.T.reshape(n_series, L * (cols // n_series))


def default_L(N: int, T: int, ratio: int = 1) -> int:
    """Default segment length: floor(sqrt(N*T / ratio)), clamped to [1, T].

    ``ratio`` is the target columns/rows shape of the stacked Page matrix
    (1 gives a square matrix; 3 or 5 give wider ones).
    """
    if N < 1 or T < 1:
        raise ShapeError("need N >= 1 and T >= 1")
    if ratio < 1:
        raise ShapeError(f"shape ratio must be >= 1, got {ratio}")
    L = int(math.isqrt(N * T // ratio))
    return max(1, min(L, T))
