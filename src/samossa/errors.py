"""Exception hierarchy shared across the package, and the number checks that raise it."""

import math
import numbers

import numpy as np


class SamossaError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(SamossaError):
    """Structurally invalid input data (ragged rows, missing observations)."""


class ParseError(SamossaError):
    """Unparseable cell or file content."""


class SplitError(SamossaError):
    """Invalid train/validation/test split."""


class ShapeError(SamossaError):
    """Dimension mismatch between inputs."""


class RankError(SamossaError):
    """Rank out of range, or no usable spectrum."""


class FitError(SamossaError):
    """A regression could not be carried out."""


class NonStationaryError(SamossaError):
    """AR characteristic roots on or outside the unit circle, or a diverging forecast."""


class DegenerateRootsError(SamossaError):
    """AR characteristic roots too close to each other."""


class SpecError(SamossaError):
    """Invalid generator specification."""


class StateError(SamossaError):
    """Forecast/observe protocol violation or uninitialized state."""


class PersistError(SamossaError):
    """Unsupported model-file version."""


class MetricError(SamossaError):
    """Metric undefined for the given inputs."""


class SearchError(SamossaError):
    """Every configuration in a grid search failed.

    Carries the per-configuration failures in ``failures``.
    """

    def __init__(self, message: str, failures=None):
        super().__init__(message)
        self.failures = failures or []


class ConfigError(SamossaError):
    """Invalid pipeline configuration."""


def _integer(value, what: str, low: int | None = None, error: type[Exception] = ValueError) -> int:
    """``value`` as an int (numpy integers convert); ``error`` if not one or below ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
            low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise error(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """Whether ``value`` is a finite real number (numpy numbers too) and not a bool."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _float_array(values, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as a float64 array, not copied if it is one; ``error`` unless they are
    integers or floats (booleans, strings and objects are refused)."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise error(f"{what} are not an array of numbers: {exc}") from None
    bad = array.dtype if array.dtype.kind not in "iuf" else None
    if bad is None and not isinstance(values, np.ndarray):  # numpy promotes [1.0, True]
        bad = next((repr(v) for v in np.asarray(values, dtype=object).flat
                    if isinstance(v, (bool, np.bool_))), None)
    if bad is not None:
        raise error(f"{what} are not an array of numbers: need integers or floats, got {bad}")
    return array.astype(np.float64, copy=False)


def _mean_square(values: np.ndarray, axis: int | None = None, out: np.ndarray | None = None):
    """The mean of the squares of ``values`` (along ``axis``), inf only where that mean
    overflows the float range.

    The plain mean first, with the squares written to ``out`` if given. Where
    it is not finite, the mean is taken again of the values scaled by 2^-e,
    e the exponent of their largest |x| (per row along ``axis`` = 1), and
    scaled back by 4^e: powers of two are exact, so a mean in range keeps the
    bits of the same values scaled into range.
    """
    with np.errstate(over="ignore"):
        mean = np.mean(np.square(values, out=out), axis=axis)
        bad = ~np.isfinite(mean)
        if not bad.any():
            return mean
        rows = values.reshape(1, -1) if axis is None else values[bad]
        exp = np.frexp(np.abs(rows).max(axis=1))[1]
        again = np.ldexp(np.mean(np.square(np.ldexp(rows, -exp[:, None])), axis=1), 2 * exp)
    if axis is None:
        return again[0]
    mean[bad] = again
    return mean
