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

from .errors import ShapeError, _integer
from .panel import TimePanel

__all__ = [
    "StackedPage",
    "stack",
    "unstack",
    "default_L",
]


@dataclass(frozen=True)
class StackedPage:
    """An L x (N*M) stacked Page matrix: M columns from each of N series' trailing L*M entries.

    ``origin`` is the number of leading observations dropped from each
    series so that the retained window length is divisible by L. Cell
    (i, (n-1)*M + j), 1-based, holds series n's value at time
    origin + (j-1)*L + i.
    """

    data: np.ndarray
    origin: int = 0


def stack(panel: TimePanel, L: int) -> StackedPage:
    """Stacked Page matrix of a panel: per-series Page matrices side by side.

    When L does not divide the length, the trailing L*floor(T/L) entries of
    every series are used (recent data is favored for forecasting) and
    ``origin`` records the dropped prefix length. ShapeError unless L is an
    integer in [1, T].
    """
    N, T = panel.values.shape
    L = _integer(L, "segment length L", error=ShapeError)
    if L < 1 or L > T:
        raise ShapeError(f"segment length L={L} invalid for series of length {T}")
    M = T // L
    origin = T - L * M
    data = panel.values[:, origin:].reshape(N * M, L).T
    return StackedPage(data=data, origin=origin)


def unstack(data: np.ndarray, n_series: int) -> np.ndarray:
    """Per-series values (N x L*M) read back out of a stacked Page matrix.

    The inverse of :func:`stack`: row n is series n's retained window.
    ShapeError unless ``n_series`` is an integer >= 1 that divides the
    column count.
    """
    n_series = _integer(n_series, "series count", 1, ShapeError)
    L, cols = data.shape
    if cols % n_series:
        raise ShapeError(f"{cols} Page columns do not split evenly among {n_series} series")
    return data.T.reshape(n_series, L * (cols // n_series))


def default_L(N: int, T: int, ratio: int = 1) -> int:
    """Default segment length: floor(sqrt(N*T / ratio)), clamped to [1, T].

    ``ratio`` is the target columns/rows shape of the stacked Page matrix
    (1 gives a square matrix; 3 or 5 give wider ones). ShapeError unless
    all three are integers.
    """
    N, T, ratio = (_integer(value, name, error=ShapeError)
                   for value, name in ((N, "N"), (T, "T"), (ratio, "shape ratio")))
    if N < 1 or T < 1:
        raise ShapeError("need N >= 1 and T >= 1")
    if ratio < 1:
        raise ShapeError(f"shape ratio must be >= 1, got {ratio}")
    L = int(math.isqrt(N * T // ratio))
    return max(1, min(L, T))
