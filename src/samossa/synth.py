"""Seeded generators for synthetic experiment panels.

Two families of deterministic components, plus a pure-noise mode:

* ``harmonics``: each fundamental is sin(w_k t + phi_k); the estimation
  experiments use frequencies in [2*pi/100, 2*pi/50] and AR(2) noise.
* ``harmonics_trend``: adds a slope m_k * t per fundamental; the forecasting
  experiments use frequencies in [2*pi/100, 2*pi/10], slopes within
  +/- 5e-4, and AR(1) noise with coefficient -0.5.
* ``pure_ar``: zero deterministic component.

Each series observes a standard-normal mixture of the fundamentals plus an
independent AR noise path started from (approximately) its stationary
distribution via a discarded burn-in.

Randomness: one 64-bit master seed feeds a ``numpy.random.SeedSequence``;
child 0 drives the deterministic component's draws (frequencies, phases,
slopes, mixture coefficients) and child 1+n drives series n's innovations.
Streams use the PCG64 generator, so panels are bit-reproducible for a fixed
seed within one platform/numpy pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ar import characteristic_roots
from .errors import SpecError, _float_array, _integer, _is_real
from .panel import TimePanel

__all__ = [
    "GeneratorSpec",
    "SynthResult",
    "generate",
    "ar_from_lambda_star",
    "estimation_spec",
    "forecasting_spec",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GeneratorSpec:
    """What to draw, checked on construction (SpecError): counts are integers >= 1,
    the seed an integer >= 0 (numpy integers convert), each range a pair of
    finite reals, ``sigma2`` finite and > 0, an explicit ``alpha`` a
    non-empty vector of finite reals (stored as a tuple of floats), and
    ``lambda_star`` a real in (0, 1), or None beside an explicit ``alpha``."""

    kind: str                 # harmonics | harmonics_trend | pure_ar
    n_series: int = 10
    length: int = 10_000
    n_fundamentals: int = 3
    freq_range: tuple[float, float] = (_TWO_PI / 100.0, _TWO_PI / 50.0)
    phase_range: tuple[float, float] = (0.0, _TWO_PI)
    slope_range: tuple[float, float] = (-5e-4, 5e-4)
    ar_order: int = 2
    lambda_star: float | None = 0.3
    alpha: tuple[float, ...] | None = None   # explicit coefficients override
    sigma2: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("harmonics", "harmonics_trend", "pure_ar"):
            raise SpecError(f"unknown generator kind {self.kind!r}")
        for name in ("n_series", "length", "n_fundamentals", "ar_order", "seed"):
            value = _integer(getattr(self, name), name, 0 if name == "seed" else 1, SpecError)
            object.__setattr__(self, name, value)
        for name in ("freq_range", "phase_range", "slope_range"):
            object.__setattr__(self, name, _pair(getattr(self, name), name))
        if self.kind != "pure_ar":
            lo, hi = self.freq_range
            if not (0.0 < lo <= hi < math.pi):
                raise SpecError(f"frequency range {self.freq_range} not inside (0, pi)")
        if not _is_real(self.sigma2) or self.sigma2 <= 0.0:
            raise SpecError(f"noise variance must be a finite number > 0, got {self.sigma2!r}")
        if self.alpha is not None:
            alpha = _float_array(self.alpha, "explicit alpha", SpecError)
            if alpha.ndim != 1 or alpha.size < 1 or not np.isfinite(alpha).all():
                raise SpecError(f"explicit alpha must be a non-empty vector of finite numbers, "
                                f"got {self.alpha!r}")
            object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        lam = self.lambda_star
        if (self.alpha is None or lam is not None) and not (_is_real(lam) and 0.0 < lam < 1.0):
            raise SpecError(f"lambda_star must be in (0, 1), got {lam}")


def _pair(value, what: str) -> tuple[float, float]:
    """``value`` as a pair of floats; SpecError unless it is two finite reals."""
    try:
        lo, hi = value
    except (TypeError, ValueError):  # not a pair
        lo = hi = None
    if not (_is_real(lo) and _is_real(hi)):
        raise SpecError(f"{what} must be a pair of finite numbers, got {value!r}")
    return float(lo), float(hi)


@dataclass(frozen=True)
class SynthResult:
    y: TimePanel
    f: TimePanel
    x: TimePanel
    alphas: tuple[np.ndarray, ...]
    spec: GeneratorSpec


def ar_from_lambda_star(p: int, lambda_star: float) -> np.ndarray:
    """Coefficients of a stationary AR(p) whose dominant root modulus is as given.

    p=1 places the single root at lambda_star; p=2 uses distinct real roots
    (lambda_star, lambda_star/2), keeping a quantified gap so the
    partial-fraction constants stay well-defined.
    """
    if not 0.0 < lambda_star < 1.0:
        raise SpecError(f"lambda_star must be in (0, 1), got {lambda_star}")
    if p == 1:
        return np.array([lambda_star])
    if p == 2:
        # (z - r1)(z - r2) = z^2 - (r1 + r2) z + r1 r2 with r2 = r1 / 2
        return np.array([1.5 * lambda_star, -0.5 * lambda_star**2])
    raise SpecError(f"root placement only defined for p in {{1, 2}}, got p={p}")


def _resolve_alpha(spec: GeneratorSpec) -> np.ndarray:
    if spec.alpha is not None:
        return np.array(spec.alpha)
    return ar_from_lambda_star(spec.ar_order, spec.lambda_star)


def _simulate_ar(alpha: np.ndarray, sigma: float, length: int, rng: np.random.Generator,
                 lambda_star: float) -> np.ndarray:
    from scipy.signal import lfilter  # scipy.signal takes about a second to import

    burn = 10 * math.ceil(1.0 / (1.0 - lambda_star))
    eta = rng.normal(0.0, sigma, size=length + burn)
    # x(t) = sum_i alpha_i x(t-i) + eta(t) from zero initial state.
    denom = np.concatenate(([1.0], -alpha))
    x = lfilter([1.0], denom, eta)
    return x[burn:]


def generate(spec: GeneratorSpec) -> SynthResult:
    """Draw one synthetic panel: observations, truth components, and alphas."""
    alpha = _resolve_alpha(spec)
    roots = characteristic_roots(alpha)
    lam = float(np.abs(roots[0]))
    if lam >= 1.0:
        raise SpecError(f"explicit alpha is non-stationary (root modulus {lam})")

    children = np.random.SeedSequence(spec.seed).spawn(1 + spec.n_series)
    rng_det = np.random.default_rng(children[0])
    N, T, R = spec.n_series, spec.length, spec.n_fundamentals

    if spec.kind == "pure_ar":
        f = np.zeros((N, T))
    else:
        omega = rng_det.uniform(*spec.freq_range, size=R)
        phi = rng_det.uniform(*spec.phase_range, size=R)
        t = np.arange(1, T + 1, dtype=np.float64)
        fundamentals = np.sin(omega[:, None] * t[None, :] + phi[:, None])
        if spec.kind == "harmonics_trend":
            slopes = rng_det.uniform(*spec.slope_range, size=R)
            fundamentals = fundamentals + slopes[:, None] * t[None, :]
        mixture = rng_det.normal(0.0, 1.0, size=(N, R))
        f = mixture @ fundamentals

    sigma = math.sqrt(spec.sigma2)
    x = np.empty((N, T))
    for n in range(N):
        rng_n = np.random.default_rng(children[1 + n])
        x[n] = _simulate_ar(alpha, sigma, T, rng_n, lam)

    names = tuple(f"s{n + 1}" for n in range(N))
    return SynthResult(
        y=TimePanel(names, f + x),
        f=TimePanel(names, f),
        x=TimePanel(names, x),
        alphas=tuple(alpha.copy() for _ in range(N)),
        spec=spec,
    )


def estimation_spec(lambda_star: float, n_series: int = 10, length: int = 10_000,
                    seed: int = 0) -> GeneratorSpec:
    """Model-estimation preset: 3 harmonics, AR(2) noise, sigma^2 = 0.2."""
    return GeneratorSpec(
        kind="harmonics",
        n_series=n_series,
        length=length,
        n_fundamentals=3,
        freq_range=(_TWO_PI / 100.0, _TWO_PI / 50.0),
        ar_order=2,
        lambda_star=lambda_star,
        sigma2=0.2,
        seed=seed,
    )


def forecasting_spec(n_series: int = 25, length: int = 10_050, seed: int = 0,
                     n_fundamentals: int = 3) -> GeneratorSpec:
    """Forecasting preset: harmonics plus slight trends, AR(1) alpha = -0.5."""
    return GeneratorSpec(
        kind="harmonics_trend",
        n_series=n_series,
        length=length,
        n_fundamentals=n_fundamentals,
        freq_range=(_TWO_PI / 100.0, _TWO_PI / 10.0),
        ar_order=1,
        lambda_star=None,
        alpha=(-0.5,),
        sigma2=1.0,
        seed=seed,
    )
